(** Context-requirement traces.

    An algorithm/computation is characterized by a sequence
    [c_1 … c_n] of context requirements (paper, §2).  Under the switch
    model each requirement is the subset of switches that must be
    reconfigurable at that step; a hypercontext [h] satisfies [c] iff
    [c ⊆ h]. *)

type t

(** [make space reqs] is a trace over [space].  Raises
    [Invalid_argument] if any requirement has a different width than
    [Switch_space.size space]. *)
val make : Switch_space.t -> Hr_util.Bitset.t array -> t

(** [of_lists space reqss] builds each requirement from a list of
    switch indices. *)
val of_lists : Switch_space.t -> int list list -> t

(** [space t] is the switch universe of [t]. *)
val space : t -> Switch_space.t

(** [length t] is the number of reconfiguration steps n. *)
val length : t -> int

(** [req t i] is the requirement of step [i] (0-based). *)
val req : t -> int -> Hr_util.Bitset.t

(** [reqs t] is a fresh array of all requirements. *)
val reqs : t -> Hr_util.Bitset.t array

(** [total_union t] is the union of all requirements — the minimal
    hypercontext that satisfies the whole trace. *)
val total_union : t -> Hr_util.Bitset.t

(** [range_union t lo hi] is the union of requirements of steps
    [lo..hi] inclusive.  O(hi-lo) — use the dense
    {!Interval_cost.of_single} table for repeated size queries. *)
val range_union : t -> int -> int -> Hr_util.Bitset.t

(** [sub t lo hi] is the sub-trace of steps [lo..hi] inclusive. *)
val sub : t -> int -> int -> t

(** [concat a b] appends [b]'s steps after [a]'s (same universe
    required). *)
val concat : t -> t -> t

(** [project t keep ~to_space ~renumber] restricts every requirement to
    the switches in [keep] and renumbers them into [to_space] via
    [renumber] (a map from old index to new index).  Used to split a
    machine-wide trace into per-task local traces. *)
val project :
  t -> Hr_util.Bitset.t -> to_space:Switch_space.t -> renumber:(int -> int) -> t

(** A maximal run of identical requirement steps: [len ≥ 1] consecutive
    steps all requiring exactly [req].  Adjacent segments of
    {!segments} always have unequal requirements. *)
type segment = { len : int; req : Hr_util.Bitset.t }

(** [segments t] is the run-length compression of [t]: the unique
    partition of its steps into maximal runs of equal requirements, in
    trace order.  Phase-structured traces (long dwells between bursts
    of reconfiguration) compress 10–100x; {!Occ_index} builds its
    occurrence lists over segments so its memory and build time scale
    with the {e compressed} length.  O(n) bitset comparisons; the
    returned [req]s share the trace's bitsets (do not mutate them). *)
val segments : t -> segment array

(** [of_segments space segs] expands a segment array back into a trace
    — the inverse of {!segments} ([of_segments space (segments t) ≡ t]
    up to bitset sharing).  Raises [Invalid_argument] on a non-positive
    segment length or a width mismatch. *)
val of_segments : Switch_space.t -> segment array -> t

(** [sizes t] is the array of requirement cardinalities — handy for
    trace statistics. *)
val sizes : t -> int array

(** [pp] prints one step per line as ["i: {switches}"]. *)
val pp : Format.formatter -> t -> unit

(** Deterministic pseudo-random numbers (SplitMix64).

    Every stochastic component of the library (workload generators, the
    genetic algorithm, simulated annealing) takes an explicit [Rng.t] so
    experiments are reproducible bit-for-bit from a seed.  The stdlib
    [Random] module is deliberately not used anywhere.

    {b Cost.}  The state is 8 bytes read and written unboxed, and
    {!int} rejects in a loop, so {!bits64}, {!int}, {!int_in}, {!bool}
    and {!chance} allocate nothing.  {!float} computes unboxed too; only
    the returned [float] may be boxed by the calling convention.
    {!create}, {!copy} and {!split} allocate the new generator.

    {b Stability.}  The stream is part of every seeded result: generated
    instances and stochastic plans alike.  The [util] test suite pins
    the first 32 values of [bits64], [int], [int_in], [float], [bool]
    and [chance] for two seeds, and the streams of [split] and [copy];
    a change to any of them is a change of every seeded result. *)

type t

(** [create seed] is a fresh generator.  Equal seeds yield equal
    streams. *)
val create : int -> t

(** [copy t] is an independent generator with the same current state. *)
val copy : t -> t

(** [split t] derives a new, statistically independent generator and
    advances [t].  Use it to give sub-components their own streams. *)
val split : t -> t

(** [bits64 t] is the next raw output truncated to 62 uniform bits —
    always non-negative as an OCaml [int]. *)
val bits64 : t -> int

(** [int t bound] is uniform in [0, bound).  Raises [Invalid_argument]
    on [bound <= 0]. *)
val int : t -> int -> int

(** [int_in t lo hi] is uniform in [lo, hi] inclusive. *)
val int_in : t -> int -> int -> int

(** [float t] is uniform in [0, 1). *)
val float : t -> float

(** [bool t] is a fair coin flip. *)
val bool : t -> bool

(** [chance t p] is [true] with probability [p]. *)
val chance : t -> float -> bool

(** [shuffle t arr] permutes [arr] in place (Fisher–Yates). *)
val shuffle : t -> 'a array -> unit

(** [pick t arr] is a uniformly random element of [arr].  Raises
    [Invalid_argument] on an empty array. *)
val pick : t -> 'a array -> 'a

(** Sublinear interval-union queries via per-switch occurrence lists.

    The dense {!Interval_cost} table answers |U(lo,hi)| in O(1) but
    costs n(n+1)/2 cells per task — at n = 10⁵ that is billions of
    cells, far past any memory budget.  This index stores, for each switch, the sorted list
    of {e segments} (maximal runs of identical requirement steps, see
    {!Trace.segments}) in which it occurs.  Then

    {v |U(lo,hi)| = #{ s : next_occ s lo <= hi } v}

    where [next_occ s lo] is switch [s]'s first occurrence at or after
    [lo] — one binary search per occurring switch, so a query is
    O(S log σ) for S occurring switches and σ segments.  Memory is
    O(total requirement entries) over the {e compressed} trace: no n²
    anywhere, and phase-structured traces (long dwells between
    reconfiguration bursts) compress 10–100x before the lists are even
    built.

    This is the "sparse" rung of the oracle ladder (docs/scaling.md);
    {!Interval_cost.of_task_set} selects it automatically when the
    dense tables would blow the byte budget. *)

type t

(** [of_trace trace] builds the index: run-length compression via
    {!Trace.segments}, then one pass distributing each segment's
    requirement into per-switch occurrence lists.  O(n + total
    requirement entries) time. *)
val of_trace : Trace.t -> t

(** [length t] is the trace length n in (uncompressed) steps. *)
val length : t -> int

(** [segments t] is the compressed length σ — the number of maximal
    equal-requirement runs. *)
val segments : t -> int

(** [size t lo hi] is |U(lo,hi)| for [0 ≤ lo ≤ hi < n] — elementwise
    identical to the dense {!Interval_cost} table on the same trace
    (property-tested across the conformance corpus).  O(S log σ); increments the query
    counter (thread-safe). *)
val size : t -> int -> int -> int

(** [union t lo hi] reconstructs the union bitset itself, in O(segments
    overlapping the range) bitset unions — for materializing the
    hypercontexts of a chosen plan. *)
val union : t -> int -> int -> Hr_util.Bitset.t

(** [queries t] — cumulative {!size} calls, safe to read while other
    domains query. *)
val queries : t -> int

(** [entries t] is the total stored occurrence-list length Σ_s |occ(s)|
    — the sparse analogue of a dense table's cell count. *)
val entries : t -> int

(** [bytes t] — estimated resident heap bytes of the index (arrays,
    occurrence lists, segment requirement bitsets). *)
val bytes : t -> int

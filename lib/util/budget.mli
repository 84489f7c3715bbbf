(** Cooperative time budgets for anytime optimization.

    A [Budget.t] is a deadline that long-running solvers poll between
    iterations (GA generations, annealing steps, DP levels, descent
    rounds).  When the budget is {!exhausted} a cooperative solver
    stops refining and returns its best-so-far solution, marking it cut
    off — nothing is killed, no work is lost, and admissibility of the
    returned plan is preserved by construction.

    Budgets are immutable and safe to share across domains: polling is
    a single clock read compared against a precomputed absolute
    deadline. *)

type t

(** The budget that is never exhausted — the default everywhere. *)
val unlimited : t

(** [of_deadline_ms ms] expires [ms] milliseconds from now.
    [ms <= 0] yields an already-exhausted budget (useful in tests and
    for "just give me the cheapest anytime answer"). *)
val of_deadline_ms : int -> t

(** [exhausted t] — has the deadline passed?  O(1), one clock read;
    cheap enough to poll every few hundred microseconds of work. *)
val exhausted : t -> bool

(** [remaining_ms t] is the time left, [infinity] for {!unlimited},
    never negative. *)
val remaining_ms : t -> float

(** [is_limited t] is [false] exactly for {!unlimited}. *)
val is_limited : t -> bool

(** [earliest a b] is the budget that expires first — how a per-request
    slice is capped by a batch-global deadline ({!Hr_core.Batch}). *)
val earliest : t -> t -> t

(** [now_ms ()] — the monotonic clock ([CLOCK_MONOTONIC], read through
    [bechamel.monotonic_clock]) in milliseconds since an arbitrary
    epoch: never steps back or jumps with the wall clock.  The common
    timebase for deadlines and solver telemetry; only differences of
    two readings mean anything. *)
val now_ms : unit -> float

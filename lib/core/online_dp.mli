(** Incremental multi-task DP with an extendable frontier.

    The flat {!Mt_dp} engine keys its states on {e committed block
    ends}: a final frontier has every block closed at step [n-1], so
    nothing in it can be reused when the trace grows — the optimal
    plan of the extended instance may run a block straight across the
    old horizon.  This engine keys states on each task's {e open-block
    start} instead: a state at horizon [t] is the vector
    [(lo_0, …, lo_{m-1})] of the steps at which each task's current
    hypercontext block began, together with the cost charged so far.
    That signature is exactly what the future depends on, so the
    frontier after step [t-1] is a valid starting point for {e any}
    continuation of the trace — {!extend} resumes the DP at step [t]
    as if the appended steps had been there all along, and produces
    bit-identical plans to a from-scratch {!start} on the full trace.

    {b Cost accounting.}  Block costs are charged per step by
    telescoping deltas: restarting task [j] at step [i] charges
    [step_cost j i i]; keeping its block [lo..i-1] open through step
    [i] charges [(i-lo+1)·step_cost j lo i - (i-lo)·step_cost j lo
    (i-1)] (non-negative by interval monotonicity).  Summed over a
    block [lo..hi] the deltas telescope to the block's true total
    [(hi-lo+1)·step_cost j lo hi].  Per step the engine also charges
    [pub] and the hyperreconfiguration term of the restarting subset
    (combined by the [hyper] upload mode).  This per-task additive
    charging is exact only when the {e reconfiguration} upload is
    [Task_sequential] — under [Task_parallel] the per-step [max]
    across tasks is not separable — hence the {!supports} gate.

    {b No upper-bound pruning.}  Unlike {!Mt_dp}, no heuristic upper
    bound is ever used to discard states: a state that is hopeless for
    the current horizon can still lie on the extended instance's
    optimal path (the extended optimum may pay {e more} on the prefix
    than the prefix optimum does).  The only reduction is exact
    dominance — states with equal start vectors have identical
    futures, so only the cheapest survives.

    {b Determinism.}  Levels are processed in state-index order and
    restart subsets in increasing bitmask order; keys and slots follow
    {!Dp_frontier}'s deterministic rules, so runs are
    reproducible and [start] on a full trace equals [start] on a prefix
    followed by [extend] — plan, cost, and state counts alike.  The
    suite and the [online-replay] hrcheck column pin this. *)

type t

(** [supports p] — can this engine evaluate [p] exactly?  Requires the
    fully synchronized mode, [Task_sequential] reconfiguration uploads
    (see above), [n >= 1] and [m <= 12] (restart subsets are
    enumerated as bitmasks). *)
val supports : Problem.t -> bool

(** [exact_ok p] is {!Dp_frontier.exact_fits} at [p]'s size: the
    frontier (at most [n^m] start vectors) must stay within two million
    states. *)
val exact_ok : Problem.t -> bool

(** [start ?budget p] solves [p] from step 0 and returns the full
    frontier at horizon [n].  When [budget] expires the engine
    collapses to its cheapest state and fast-forwards the remaining
    steps without further restarts ({!Solution.cut_off}).  Raises
    [Invalid_argument] when {!supports} or {!exact_ok} is false. *)
val start : ?budget:Hr_util.Budget.t -> Problem.t -> t

(** [extend ?budget t p'] resumes the DP on the grown instance [p']:
    same tasks (equal [m], [v], parameters, mode and class), horizon
    [n' >= horizon t].  {b Contract:} [p']'s oracle must agree with
    [t]'s on the prefix — the appended steps extend the same traces
    (e.g. via {!Hr_core.Trace.concat}); the engine spot-checks the
    per-task prefix costs and raises [Invalid_argument] on
    disagreement, on any dimension/parameter mismatch, or when [p']
    fails {!exact_ok}.  With
    [n' = horizon t] this is free. *)
val extend : ?budget:Hr_util.Budget.t -> t -> Problem.t -> t

(** [solution t] reconstructs the cheapest state's plan.  The cost is
    recomputed with {!Problem.eval}; [exact] iff the run was not cut
    off. *)
val solution : t -> Solution.t

(** [horizon t] is the number of steps processed so far. *)
val horizon : t -> int

(** [frontier t] is the number of live states. *)
val frontier : t -> int

(** [states_explored t] counts the states of every level (cumulative
    across {!extend}s). *)
val states_explored : t -> int

(** [best_cost t] is the cheapest state's charged cost — equals
    {!Problem.eval} of {!solution}'s plan on exact runs. *)
val best_cost : t -> int

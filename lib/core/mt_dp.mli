(** Exact dynamic program for the fully synchronized multi-task problem
    (the algorithm behind the paper's Theorem 1).

    Registered in {!Solver_registry} as ["mt-dp"] (exact) and
    ["mt-beam"] (beam search); new call sites should prefer the
    registry (see [docs/solvers.md]).

    States walk the steps left to right.  A task's hypercontext is
    committed at its hyperreconfiguration step together with the block
    it will cover (w.l.o.g. the block's minimal hypercontext — the cost
    terms are monotone), so a state at step [i] is, per task, the pair
    (per-step cost of the committed block, block end).  Transitions
    happen exactly at block ends.  Two prunings keep the frontier
    small without losing exactness:

    - {b Pareto dominance}: among states with identical block-end
      vectors (identical future option sets), a state is dropped when
      another has component-wise ≤ per-step costs and ≤ accumulated
      cost;
    - {b lower-bound pruning}: a state is dropped when its accumulated
      cost plus Σ_k max_j step_cost(j,k,k) over the remaining steps
      exceeds a known upper bound (seeded from the heuristics).

    Worst-case complexity is O(n^m · 2^m · n) states×transitions —
    polynomial for fixed m, matching the paper's claim — so the solver
    is meant for small instances and for certifying the metaheuristics;
    with [max_states] set it degrades gracefully into an inadmissible
    beam search (reported via [exact = false]).

    {b Representation.}  Levels, state keys and the beam cut live in
    {!Dp_frontier}.  A state's vector is its per-task block ends
    followed by the per-step costs of those blocks, and the block ends
    key the dominance buckets.  Pareto filtering is incremental: each
    candidate is checked against its bucket on insertion and evicts
    the members it dominates. *)

type outcome = {
  cost : int;
  bp : Breakpoints.t;
  exact : bool;
      (** [false] whenever [max_states] was given (the beam restricts
          both the frontier and the block-end fan-out, so a beam run is
          never a certificate even when nothing was truncated) or the
          budget cut the run off *)
  states_explored : int;
      (** live states summed over the levels, each counted before its
          beam cut *)
  truncations : int;
      (** number of DP levels whose frontier was cut to [max_states] —
          the beam-pressure telemetry counter (0 in exact mode) *)
  cut_off : bool;  (** the budget expired before the DP completed *)
}

(** [solve ?params ?upper_bound ?max_states ?budget oracle] minimizes
    [Sync_cost.eval ?params].  [upper_bound] (an {e achievable} cost)
    prunes; pass a heuristic cost to speed the search up.
    [max_states] bounds the per-step frontier (default: unbounded →
    exact).  In beam mode the per-task block-end fan-out is also
    restricted to the cost-jump frontier, so large instances stay
    tractable at the price of exactness.  The [budget] (default
    {!Hr_util.Budget.unlimited}) is polled at every DP level and every
    4096 states emitted within a level ({!Dp_frontier.poll_mask}) — a
    deadline cuts even a single
    oversized expansion off promptly; on
    exhaustion the most promising frontier state is completed
    deterministically in O(n·m) (remaining tasks run to the end) and
    returned with [cut_off = true], [exact = false].  Exact mode raises
    [Invalid_argument] when the initial level (n^m states) would
    exceed two million ({!Dp_frontier.exact_fits}) — use the beam or a
    metaheuristic there. *)
val solve :
  ?params:Sync_cost.params ->
  ?upper_bound:int ->
  ?max_states:int ->
  ?budget:Hr_util.Budget.t ->
  Interval_cost.t ->
  outcome

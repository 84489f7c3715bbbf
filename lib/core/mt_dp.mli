(** Exact dynamic program for the fully synchronized multi-task problem
    (the algorithm behind the paper's Theorem 1).

    Registered in {!Solver_registry} as ["mt-dp"]; new call sites
    should prefer the registry (see [docs/solvers.md]).

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
    is meant for small instances and for certifying the metaheuristics.

    {b Representation.}  Levels, state keys and the size guard live in
    {!Dp_frontier}.  A state's vector is its per-task block ends
    followed by the per-step costs of those blocks, and the block ends
    key the dominance buckets.  Pareto filtering is incremental: each
    candidate is checked against its bucket on insertion and evicts
    the members it dominates. *)

type outcome = {
  cost : int;
  bp : Breakpoints.t;
  exact : bool;  (** [false] when the budget cut the run off *)
  states_explored : int;  (** live states summed over the levels *)
  cut_off : bool;  (** the budget expired before the DP completed *)
}

(** [solve ?params ?upper_bound ?budget oracle] minimizes
    [Sync_cost.eval ?params].  [upper_bound] (an {e achievable} cost)
    prunes; pass a heuristic cost to speed the search up.  The [budget]
    (default {!Hr_util.Budget.unlimited}) is polled at every DP level
    and every 4096 states emitted within a level
    ({!Dp_frontier.poll_mask}) — a deadline cuts even a single
    oversized expansion off promptly; on exhaustion the most promising
    frontier state is completed deterministically in O(n·m) (remaining
    tasks run to the end) and returned with [cut_off = true],
    [exact = false].  Raises [Invalid_argument] when the instance fails
    {!Dp_frontier.exact_fits} — use a metaheuristic there. *)
val solve :
  ?params:Sync_cost.params ->
  ?upper_bound:int ->
  ?budget:Hr_util.Budget.t ->
  Interval_cost.t ->
  outcome

(** Optimal single-task (hyper)reconfiguration planning.

    Registered in {!Solver_registry} as ["st-dp"]; new call sites
    should prefer the registry (see [docs/solvers.md]).

    This is the polynomial algorithm for the single-task switch model
    that the paper inherits from [9] ("Partition into Hypercontexts")
    and uses to compute the optimal single-task costs in §6: partition
    the context-requirement sequence into consecutive blocks; each
    block pays one hyperreconfiguration [v] plus (block length) ×
    (per-step cost of the block's minimal hypercontext).

    The dynamic program

    {v f(0) = 0,  f(j) = min_{1 ≤ i ≤ j} f(i-1) + v + c(i,j)·(j-i+1) v}

    is O(n²) oracle queries; with the dense {!Interval_cost} table
    behind the oracle the whole solve is O(n²).  Optimality relies only on
    [step_cost] being interval-monotone, so the same solver is reused
    by the DAG and explicit-H general models. *)

type result = {
  cost : int;  (** optimal total (hyper)reconfiguration time *)
  breaks : int list;  (** hyperreconfiguration steps, ascending, head = 0 *)
}

(** [solve ~v ~n ~step_cost] runs the DP on an abstract interval cost
    function ([step_cost lo hi], 0-based inclusive).  [n] must be ≥ 1. *)
val solve : v:int -> n:int -> step_cost:(int -> int -> int) -> result

(** [solve_trace ?v trace] specializes to the switch model.  [v]
    defaults to the universe size (the paper's [w = |X|] special
    case).  Also returns the minimal hypercontext of every block, in
    block order. *)
val solve_trace : ?v:int -> Trace.t -> result * Hypercontext.t list

(** [solve_oracle oracle ~task] runs on one task of a multi-task
    oracle (useful for seeding the multi-task optimizers with per-task
    optima). *)
val solve_oracle : Interval_cost.t -> task:int -> result

(** [plan_of_breaks trace breaks] materializes the union hypercontexts
    for a given breakpoint list. *)
val plan_of_breaks : Trace.t -> int list -> Hypercontext.t list

(** [cost_of_breaks ~v ~n ~step_cost breaks] evaluates an arbitrary
    single-task breakpoint list under the same objective — the
    reference evaluator used in tests and by the heuristics. *)
val cost_of_breaks : v:int -> n:int -> step_cost:(int -> int -> int) -> int list -> int

(** [solve_bounded ~v ~n ~step_cost ~max_blocks] — the optimum over
    plans with at most [max_blocks] hyperreconfigurations (a
    control-plane budget: descriptor storage, hyperreconfiguration
    slots).  O(n²·max_blocks) DP; [solve_bounded ~max_blocks:n] equals
    {!solve}.  Raises [Invalid_argument] when [max_blocks < 1]. *)
val solve_bounded :
  v:int -> n:int -> step_cost:(int -> int -> int) -> max_blocks:int -> result

(** [frontier ~v ~n ~step_cost] — the Pareto frontier of
    (hyperreconfiguration count, optimal cost) pairs: one entry per
    budget K at which the optimum strictly improves, ascending in K.
    The last entry is the unconstrained optimum. *)
val frontier : v:int -> n:int -> step_cost:(int -> int -> int) -> (int * int) list

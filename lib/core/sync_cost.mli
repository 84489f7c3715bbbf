(** Cost of a breakpoint matrix on a fully synchronized machine.

    Implements the §4.2 cost formula for the fully synchronized
    MT-Switch machine (and, through {!Interval_cost}, for the other
    models).  Between two global hyperreconfigurations the total
    (hyper)reconfiguration time is

    {v
    w + Σ_i ( H_i + R_i )
    v}

    where, per machine step [i]:
    - [H_i] combines the local hyperreconfiguration costs [v_j] of the
      tasks with [I_{j,i} = 1] — by [max] when partial
      hyperreconfiguration is uploaded task-parallel, by [Σ] when
      task-sequential;
    - [R_i] combines the per-task ordinary reconfiguration costs
      (|h^loc| + |h^priv| under the switch model, i.e.
      [step_cost j lo hi] of the block containing [i]) and the public
      global cost |h^pub| — by [max] (task-parallel) or [Σ]
      (task-sequential). *)

(** Upload mode of the reconfiguration bits (paper, §4). *)
type upload = Task_parallel | Task_sequential

(** Evaluation parameters: global-init cost [w] (0 when the machine has
    no global resources and hence no global hyperreconfigurations),
    public-global per-step cost [pub] (|h^pub|, 0 when absent), and the
    upload modes for partial hyperreconfiguration and for
    reconfiguration. *)
type params = { w : int; pub : int; hyper : upload; reconf : upload }

(** Paper §6 experimental setting: no global resources, no public
    resources, everything task-parallel. *)
val default_params : params

(** [eval ?params oracle bp] is the total (hyper)reconfiguration time of
    plan [bp].  Raises [Invalid_argument] when dimensions of [bp] and
    [oracle] disagree.

    It is one O(m·n) sweep over the plan's rows, which it reads in
    place (no copy): [H_i] column by column, [R_i] from one walk over
    each task's blocks with one [step_cost] query per block.
    Task-sequential reconfiguration upload needs no per-step state;
    task-parallel upload keeps the per-step maxima in one n-int scratch
    array, allocated per call.  The kernel shares no state between
    calls, so several domains may price plans concurrently (as the
    contestants of a {!Solver.race} do).  It equals [w] plus the sum of
    {!eval_per_step}, the step-by-step reference, exactly. *)
val eval : ?params:params -> Interval_cost.t -> Breakpoints.t -> int

(** [eval_matrix ?params oracle g] is {!eval} on a raw breakpoint
    matrix, priced in place: the genome representation of {!Mt_ga},
    {!Mt_anneal} and {!Mt_local}, which would otherwise copy every
    candidate through {!Breakpoints.of_matrix}.  It makes the same
    checks as [eval (Breakpoints.of_matrix g)] and raises
    [Invalid_argument] when [g] has no rows or not [m] of them, when a
    row does not have [n] steps, or when a row lacks its step-0
    breakpoint.  [g] is only read. *)
val eval_matrix : ?params:params -> Interval_cost.t -> bool array array -> int

(** [eval_per_step ?params oracle bp] returns per-step pairs
    [(H_i, R_i)] — the series plotted in Fig. 2-style renderings —
    whose sum plus [w] equals {!eval}.  It transcribes the formula step
    by step and is the reference the kernel is tested against. *)
val eval_per_step : ?params:params -> Interval_cost.t -> Breakpoints.t -> (int * int) array

(** [disabled_cost ?pub oracle ~machine_width] is the baseline with
    hyperreconfiguration disabled: the full hypercontext (all
    [machine_width] switches of the machine) is permanently available
    and every reconfiguration step pays for all of it; no
    hyperreconfiguration cost is ever paid.  For the paper's SHyRA
    experiment this is 48 · n. *)
val disabled_cost : ?pub:int -> n:int -> machine_width:int -> unit -> int

(** [step_reconf_costs oracle bp] is, per task, the per-step
    reconfiguration cost array (each entry is the block cost of the
    block containing that step) — used by the figure renderers. *)
val step_reconf_costs : Interval_cost.t -> Breakpoints.t -> int array array

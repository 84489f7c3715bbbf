(** A first-class PHC problem instance — the single descriptor every
    registered solver consumes.

    The paper's problem family is the product
    {e cost model} × {e machine class} (§3) × {e synchronization mode}
    (§3/§4) × {e upload parameters} (§4.2).  A [Problem.t] pins one
    point of that product:

    - the cost model enters through the {!Interval_cost.t} oracle
      (switch model via {!Interval_cost.of_task_set}, DAG model via
      {!of_dag}, weighted/general-monotone via their own oracle
      constructors);
    - the machine class restricts the admissible breakpoint matrices;
    - the synchronization mode selects the objective evaluator
      ({!Sync_cost.eval} or {!Mixed_sync.eval});
    - {!Sync_cost.params} carries [w], [pub] and the upload modes;
      {!check_mode_params} says which of them each mode can price.

    [make] runs {!Interval_cost.precompute} once, so every solver that
    touches the problem — including several racing in parallel —
    shares the same lock-free dense oracle table.  [make] never reads
    or writes the persistent {!Table_cache}: [Hr_check.Case.problem],
    the one path from a case document to a [Problem.t], does both. *)

(** The §3 machine classes.  [All_task] admits only uniform-column
    matrices (hyperreconfigure all tasks or none); [Partial] is
    unconstrained; [Restricted] (per-task hyperreconfigurations,
    all-task reconfigurations) coincides with [Partial] on the fully
    synchronized cost model, which is where this library evaluates
    it. *)
type machine_class = All_task | Partial | Restricted

(** Extension payloads are an open type: each extension library (e.g.
    [Hr_place] for placement-aware instances) adds its own constructor
    so downstream code can recover the concrete data with a pattern
    match. *)
type ext_data = ..

(** A problem extension adds a cost term on top of the base objective.
    [extra_cost bp] must be a {e total}, deterministic function of the
    matrix alone (>= 0), so that {!eval} stays a pure function of
    [(t, bp)] — every solver, the brute-force ground truth and the
    conformance harness then agree on the joint objective by
    construction.  [scale k] rebuilds the extension with every cost
    source multiplied by [k] (the linear-scaling invariant relies on
    it); [counters] exposes telemetry counters (e.g. relocation
    statistics) accumulated across [extra_cost] calls. *)
type extension = {
  tag : string;  (** stable short name, e.g. ["placement"] *)
  data : ext_data;
  extra_cost : Breakpoints.t -> int;
  scale : int -> extension;
  counters : unit -> (string * string) list;
}

type t = {
  oracle : Interval_cost.t;  (** precomputed — shared by all solvers *)
  params : Sync_cost.params;
  mode : Mixed_sync.mode;
  machine_class : machine_class;
  ext : extension option;  (** joint-cost extension, [None] = base PHC *)
}

(** [check_mode_params mode params] is the one statement of §3's
    rules on which parameters a synchronization mode can price:
    outside the fully synchronized mode [w] must be 0 and both uploads
    task-parallel, and [pub > 0] additionally needs the
    context-synchronized mode.  [Error msg] names the first rule the
    pair breaks.  {!make} enforces it, and [Hr_check.Case.of_json]
    reports it for a case document. *)
val check_mode_params : Mixed_sync.mode -> Sync_cost.params -> (unit, string) result

(** [make ?params ?mode ?machine_class ?precompute ?max_bytes ?ext
    oracle].  Defaults: {!Sync_cost.default_params},
    [Fully_synchronized], [Partial], [precompute = true], no extension.
    [max_bytes] caps the dense-table memory (default
    {!Interval_cost.default_max_bytes}); an over-budget custom oracle
    stays direct.  An oracle that arrives dense or sparse — a switch
    task set, or a table mapped with {!Interval_cost.of_cache} — is
    used as it is.

    Raises [Invalid_argument ("Problem.make: " ^ msg)] when
    {!check_mode_params} returns [Error msg]. *)
val make :
  ?params:Sync_cost.params ->
  ?mode:Mixed_sync.mode ->
  ?machine_class:machine_class ->
  ?precompute:bool ->
  ?max_bytes:int ->
  ?ext:extension ->
  Interval_cost.t ->
  t

(** [plain t] — does [t] carry no extension?  Base-PHC solvers use this
    as a capability guard: their exactness (and even their cost
    accounting) is stated against {!eval_base}, so they must refuse
    extended instances rather than silently ignore the extra term. *)
val plain : t -> bool

(** [with_ext t e] / [without_ext t] attach or strip the extension
    (tables are shared, nothing is rebuilt).  [without_ext] is how an
    extension-aware solver obtains the base subproblem to hand to a
    registered base backend. *)
val with_ext : t -> extension -> t

val without_ext : t -> t

(** [of_task_set ?params ?mode ?machine_class ts] — the MT-Switch
    instance of a task set, on {!Interval_cost.of_task_set}'s default
    ([Auto]) rung. *)
val of_task_set :
  ?params:Sync_cost.params ->
  ?mode:Mixed_sync.mode ->
  ?machine_class:machine_class ->
  Task_set.t ->
  t

(** [of_trace ?v ?params trace] — the single-task switch instance ([v]
    defaults to the universe size, the paper's [w = |X|] case). *)
val of_trace : ?v:int -> ?params:Sync_cost.params -> Trace.t -> t

(** [of_dag ?params model seq] — the single-task DAG-model instance:
    per-block costs are the cheapest satisfying node's cost and the
    hyperreconfiguration cost is the model's constant [w].
    O(n²·|H|) table build. *)
val of_dag : ?params:Sync_cost.params -> Dag_model.t -> int array -> t

(** [task t j] is the single-task subproblem of task [j] (same
    parameters; class and mode degenerate for m = 1).  The sub-oracle
    reads the parent's precomputed table — no rebuild.  Any extension
    is dropped: its cost term is a function of the full m-row
    matrix. *)
val task : t -> int -> t

val m : t -> int
val n : t -> int

(** [eval t bp] is the objective: {!Sync_cost.eval} for the fully
    synchronized mode, {!Mixed_sync.eval} otherwise, plus the
    extension's [extra_cost] when one is attached.  Every
    {!Solution.t} returned through {!Solver.solve} has its cost
    recomputed by this function, so costs are comparable across
    backends by construction. *)
val eval : t -> Breakpoints.t -> int

(** [eval_base t bp] is the objective without the extension term
    (identical to {!eval} on plain problems). *)
val eval_base : t -> Breakpoints.t -> int

(** [admissible t bp] — does the machine class admit the matrix?
    ([All_task] requires uniform columns.) *)
val admissible : t -> Breakpoints.t -> bool

(** [pp] prints a one-line instance summary. *)
val pp : Format.formatter -> t -> unit

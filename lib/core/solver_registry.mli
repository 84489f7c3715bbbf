(** The solver registry: name → capabilities → solve.

    Every PHC backend in the library is registered here under a stable
    name; CLIs, benches and examples resolve solvers by name instead of
    importing solver modules, and {!Solver.race} takes its contestants
    from {!applicable}.  Out-of-tree backends can {!register} their
    own.

    Built-in backends, in registration order (see [docs/solvers.md]
    for the capability matrix):

    - ["st-dp"] — exact single-task DP ({!St_opt}), m = 1, pub = 0;
    - ["all-task"] — exact for the [All_task] machine class (combined
      single-task DP, {!Mt_classes}); a heuristic bound elsewhere;
    - ["mt-dp"] — exact multi-task DP ({!Mt_dp}, Theorem 1), instances
      that pass {!Dp_frontier.exact_fits} (n^m ≤ 2·10⁶);
    - ["brute"] — {!Brute.multi} enumeration, (n-1)·m ≤ 18;
    - ["greedy"] — best of the {!Mt_greedy} portfolio;
    - ["hill-climb"] — {!Mt_local} first-improvement descent;
    - ["anneal"] — {!Mt_anneal} simulated annealing;
    - ["ga"] — {!Mt_ga}, the paper's §6 method;
    - ["ga-polish"] — ["ga"] polished by {!Mt_local};
    - ["async-opt"] — exact for the non-synchronized mode (per-task
      solo optima, {!Mt_async});
    - ["mode-climb"] — bit-flip descent on {!Problem.eval} for the
      intermediate synchronization modes;
    - ["online-dp"] — exact incremental block-start DP ({!Online_dp}),
      fully synchronized, task-sequential reconfiguration uploads,
      m ≤ 12 and {!Dp_frontier.exact_fits}. *)

(** [register ?override solver] adds a solver.  Raises
    [Invalid_argument] on a duplicate name unless [override]. *)
val register : ?override:bool -> Solver.t -> unit

val find : string -> Solver.t option

(** [find_exn name] raises [Invalid_argument] listing the known names
    when [name] is not registered. *)
val find_exn : string -> Solver.t

(** [all ()] — every registered solver, in registration order
    (built-ins first). *)
val all : unit -> Solver.t list

val names : unit -> string list

(** [applicable problem] — registered solvers whose capability
    predicate accepts [problem]. *)
val applicable : Problem.t -> Solver.t list

(** [solve ?rng ?seed ?budget name problem] =
    [Solver.solve (find_exn name)]. *)
val solve :
  ?rng:Hr_util.Rng.t ->
  ?seed:int ->
  ?budget:Hr_util.Budget.t ->
  string ->
  Problem.t ->
  Solution.t

(** [race ?domains ?seed ?budget ?names problem] races the named
    solvers (default: every applicable registered solver) under a
    shared cooperative budget and returns the best solution.  See
    {!Solver.race}. *)
val race :
  ?domains:int ->
  ?seed:int ->
  ?budget:Hr_util.Budget.t ->
  ?names:string list ->
  Problem.t ->
  Solution.t

(** [race_report] is {!race} plus one {!Solver.report} per contestant
    (wall-clock, outcome, solution) — the input to {!Telemetry.make}. *)
val race_report :
  ?domains:int ->
  ?seed:int ->
  ?budget:Hr_util.Budget.t ->
  ?names:string list ->
  Problem.t ->
  Solution.t * Solver.report list

(** [run_all] races without picking a winner: every contestant's
    report, crashes and cut-offs included.  See {!Solver.run_all}. *)
val run_all :
  ?domains:int ->
  ?seed:int ->
  ?budget:Hr_util.Budget.t ->
  ?names:string list ->
  Problem.t ->
  Solver.report list

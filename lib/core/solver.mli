(** The uniform solver interface: [solve : Problem.t -> Solution.t].

    A solver packages a backend (exact DP, metaheuristic, greedy
    baseline) behind a name, a capability predicate, and a uniform
    entry point.  {!Solver_registry} holds the built-in backends;
    [race] runs several of them in parallel on OCaml 5 domains and
    returns the best solution.

    {b Budgets.}  Every entry point takes an optional cooperative
    {!Hr_util.Budget.t}.  Iterative backends (GA, annealing, hill
    climbing, the exact DPs) poll it between iterations and return
    their best-so-far solution with [Solution.cut_off = true] (and
    [exact = false]) when it expires; instantaneous backends ignore it.
    See [docs/solvers.md] for the per-backend contract.

    {b Failure containment.}  Capability and admissibility violations
    raise the typed {!Rejected} — never a bare [Invalid_argument] — so
    a genuine solver crash (an out-of-bounds [Array.get], a [Failure])
    is distinguishable from an instance the solver simply refuses.  The
    racing harness ({!run_all}/{!race_report}) contains every exception
    as a per-solver {!report} instead of dropping the contestant.

    Determinism: stochastic backends draw from an {!Hr_util.Rng.t}
    derived with {!rng_for} from a base seed and the solver's name, so
    racing N solvers in parallel returns exactly the solution the best
    of the N sequential runs would have produced — scheduling cannot
    leak into results.  (Under a finite budget, cut-off points depend
    on machine speed, so only the unlimited-budget race is bit-for-bit
    reproducible.) *)

type kind =
  | Exact  (** certifies optimality whenever [Solution.exact] is set *)
  | Heuristic  (** deterministic, no optimality certificate *)
  | Stochastic  (** rng-driven search *)

type t = {
  name : string;
  kind : kind;
  doc : string;  (** one-line description for tables / --method list *)
  handles : Problem.t -> bool;
      (** capability predicate: instance size limits, machine class,
          synchronization mode *)
  run : budget:Hr_util.Budget.t -> rng:Hr_util.Rng.t -> Problem.t -> Solution.t;
      (** the backend; called only on problems it [handles].  Backends
          that cannot stop early may ignore [budget]. *)
}

(** Raised by {!solve} when the solver does not handle the instance or
    returned an inadmissible matrix — the {e typed} rejection channel,
    distinct from any exception a buggy backend might raise. *)
exception Rejected of string

val make :
  name:string ->
  kind:kind ->
  doc:string ->
  handles:(Problem.t -> bool) ->
  (budget:Hr_util.Budget.t -> rng:Hr_util.Rng.t -> Problem.t -> Solution.t) ->
  t

val kind_name : kind -> string

(** The seed used when no rng/seed is supplied anywhere: 2004, the
    paper's year, matching the benches. *)
val default_seed : int

(** [rng_for ~seed t] is the deterministic per-solver stream used by
    both {!solve} (default rng) and {!race} — equal seeds give every
    backend the same stream whether it runs alone or in a race. *)
val rng_for : seed:int -> t -> Hr_util.Rng.t

(** [solve ?rng ?seed ?budget t problem] checks [t.handles problem],
    runs the backend under [budget] (default unlimited), stamps the
    solver name and recomputes the cost with {!Problem.eval} so costs
    are uniform across backends.  Raises {!Rejected} when the solver
    does not handle the problem or returns an inadmissible matrix.
    [rng] wins over [seed]; the default is [rng_for ~seed:default_seed]. *)
val solve :
  ?rng:Hr_util.Rng.t ->
  ?seed:int ->
  ?budget:Hr_util.Budget.t ->
  t ->
  Problem.t ->
  Solution.t

(** {1 The execution harness} *)

(** What happened to one contestant. *)
type outcome =
  | Finished  (** ran to its natural termination *)
  | Cut_off  (** budget expired; [solution] is its best-so-far *)
  | Crashed of exn
      (** the backend raised — contained, reported, never masked.
          ({!Rejected} from an inadmissible result lands here too: in a
          pre-filtered race it is a solver bug, not a capability
          mismatch.) *)

type report = {
  solver : string;
  kind : kind;
  outcome : outcome;
  wall_ms : float;  (** wall clock of this contestant's [solve] *)
  solution : Solution.t option;
      (** [Some] for [Finished]/[Cut_off], [None] for [Crashed] *)
}

(** ["finished" | "cut-off" | "crashed"] — stable strings, used by the
    telemetry JSON schema. *)
val outcome_name : outcome -> string

(** [solve_report ?rng ?seed ?budget t problem] is {!solve} with crash
    containment and wall-clock measurement: every exception — typed
    rejection included — becomes a [Crashed] report. *)
val solve_report :
  ?rng:Hr_util.Rng.t ->
  ?seed:int ->
  ?budget:Hr_util.Budget.t ->
  t ->
  Problem.t ->
  report

(** [run_all ?domains ?seed ?budget solvers problem] filters [solvers]
    down to those whose capability predicate accepts [problem], runs
    them under a shared [budget], and returns one {!report} per
    contestant, in [solvers] order — crashes and cut-offs included,
    nothing dropped.  With [domains <= 1] (default
    {!Hr_util.Pool.num_domains}) the contestants run one after the other
    on the caller.  Otherwise each contestant is its own chunk on the
    shared {!Hr_util.Pool.default}: every free domain, pool worker or
    caller, claims the next contestant, so a slow contestant never
    waits behind another in a chunk while a domain idles.  Scheduling
    changes only [wall_ms], never a solution. *)
val run_all :
  ?domains:int ->
  ?seed:int ->
  ?budget:Hr_util.Budget.t ->
  t list ->
  Problem.t ->
  report list

(** [race_report ?domains ?seed ?budget solvers problem] is {!run_all}
    plus the verdict: the best surviving solution ({!Solution.best}:
    cheapest, exact wins ties) together with every report.  Raises
    [Invalid_argument] — naming the crashed contestants — when no
    applicable solver produced a solution. *)
val race_report :
  ?domains:int ->
  ?seed:int ->
  ?budget:Hr_util.Budget.t ->
  t list ->
  Problem.t ->
  Solution.t * report list

(** [race ?domains ?seed ?budget solvers problem] is [race_report]
    without the reports. *)
val race :
  ?domains:int ->
  ?seed:int ->
  ?budget:Hr_util.Budget.t ->
  t list ->
  Problem.t ->
  Solution.t

(** Batched solving: many instances, one pool, one deadline.

    The serving-side counterpart of {!Solver.race}: take a list of
    {!request}s, solve each with a (restrictable) solver race on the
    shared persistent {!Hr_util.Pool}, and return one {!response} per
    request {e in request order} — errors contained per request as
    structured results, never as process death.

    {b Layering.}  A request carries a thunk building its
    {!Problem.t}, not a [Hr_check.Case.t] — [hr_core] sits below
    [hr_check] in the library graph.  The case-level wiring (parsing
    [hyperreconf.case/1] documents into requests) lives in
    [Hr_serve.Protocol] and the conformance harness; both funnel
    through this module.

    {b Oracle sharing.}  Requests may carry a dedup [key] (the serving
    loop uses the case's canonical JSON).  Requests with equal keys
    share one problem build — and therefore one dense oracle table —
    instead of rebuilding it per request.

    {b Budget carving.}  One batch-global deadline is carved into
    per-request cooperative budgets: when a request starts, it receives
    [workers/left] of the remaining global time (its fair share given
    the requests still queued), capped by the global deadline
    ({!Hr_util.Budget.earliest}).  With no deadline every request runs
    unlimited — the bit-for-bit deterministic regime ({!Solver.race}'s
    determinism contract carries over unchanged).

    {b Determinism.}  Responses are positionally deterministic (the
    pool's map is elementwise), and under an unlimited budget each
    response's solution is bit-identical to the sequential
    [Solver.race_report ~seed] on the same instance. *)

type request = {
  id : string;  (** echoed back verbatim in the response *)
  key : string option;  (** dedup key for sharing problem builds *)
  budget : Hr_util.Budget.t option;
      (** per-request deadline, layered under the batch's fair-share
          carve: the request finishes by whichever expires first *)
  build : unit -> Problem.t;
      (** may raise; contained as a per-request error response *)
}

(** [request ?key ?budget ~id build]. *)
val request :
  ?key:string -> ?budget:Hr_util.Budget.t -> id:string -> (unit -> Problem.t) -> request

(** A successfully solved request. *)
type solved = {
  solution : Solution.t;  (** the race winner *)
  reports : Solver.report list;  (** one per contestant, {!Solver.run_all} order *)
  m : int;
  n : int;
}

type response = {
  id : string;
  outcome : (solved, string) result;
  wall_ms : float;  (** this request's build + race wall clock *)
}

(** A completed batch. *)
type t = {
  responses : response list;  (** in request order *)
  total_ms : float;
  workers : int;
  shared_builds : int;  (** requests served from the key-dedup cache *)
}

(** ["hyperreconf.result/1"] — bump on breaking changes to the
    {!response_to_json} document. *)
val result_schema_version : string

(** The key-dedup problem store {!run} shares builds through.  By
    default each run creates a private one; a caller can instead hold
    one across runs (hrserve keeps a process-wide cache) so later
    batches reuse earlier batches' precomputed oracles — in-process
    reuse keyed on the same structural identity the persistent
    {!Table_cache} uses on disk.

    The store is a {e byte-budgeted LRU}: each resident problem is
    charged its dense-table residency
    ({!Interval_cost.cache_stats}[.bytes_resident], floored at 1 KiB),
    and inserts past [max_bytes] evict least-recently-used entries —
    the entry being inserted itself is never evicted, so one oversized
    problem still caches.  Without [max_bytes] the store is unbounded
    (the historical behaviour).  Thread-safe. *)
type build_cache

(** [build_cache ?max_bytes ()] is a fresh empty store holding at most
    [max_bytes] of dense tables (unbounded when omitted). *)
val build_cache : ?max_bytes:int -> unit -> build_cache

(** [build_cache_mem c key] — is [key] resident right now?  Recency is
    not bumped, so {!run}'s fair-share carve can probe membership
    without distorting the LRU order. *)
val build_cache_mem : build_cache -> string -> bool

(** Lifetime counters of a {!build_cache}: residency ([entries],
    [bytes], the configured [cap_bytes]), traffic and [evictions].
    Every keyed request counts exactly once in [hits] or [misses]: a
    request that built its problem is a miss, even when a concurrent
    request on the same fresh key inserted first; one served without
    building is a hit. *)
type build_cache_stats = {
  entries : int;
  bytes : int;
  cap_bytes : int option;
  hits : int;
  misses : int;
  evictions : int;
}

val build_cache_stats : build_cache -> build_cache_stats

(** [build_cache_stats_to_json s] is the summary-document fragment:
    [{entries; bytes; max_bytes; hits; misses; hit_rate; evictions}]
    ([hit_rate] null with no traffic). *)
val build_cache_stats_to_json : build_cache_stats -> Telemetry.json

(** [fair_slice_ms ~remaining_ms ~workers ~left] is the per-request
    fair share of a global budget with [remaining_ms] left: [workers /
    left] of the remaining time, clamped to [\[0, remaining_ms\]] — an
    exhausted budget yields a 0 ms slice, never a floor.  Exposed for
    the deadline-regression tests. *)
val fair_slice_ms : remaining_ms:float -> workers:int -> left:int -> float

(** [run ?pool ?seed ?deadline_ms ?solvers ?cache requests] solves
    every request (racing [solvers problem] — default
    {!Solver_registry.applicable} — under its carved budget) on [pool]
    (default {!Hr_util.Pool.default}).  Anything a request raises —
    build failure, {!Solver.Rejected}, an all-crash race — becomes its
    [Error] outcome; other requests are unaffected.  [cache] (default:
    a fresh one) dedups problem builds by request key; the result's
    [shared_builds] counts this run's cache hits only, even on a
    long-lived cache.  Requests already resident in [cache] do not
    count towards the fair-share [left] (they cost no solve time), and
    an empty request list short-circuits without touching the pool. *)
val run :
  ?pool:Hr_util.Pool.t ->
  ?seed:int ->
  ?deadline_ms:int ->
  ?solvers:(Problem.t -> Solver.t list) ->
  ?cache:build_cache ->
  request list ->
  t

(** [error_response ~id msg] — a structured failure for requests that
    never reach {!run} (e.g. a line the serving loop cannot parse). *)
val error_response : ?wall_ms:float -> id:string -> string -> response

(** [response_to_json ?timing r] is the [hyperreconf.result/1]
    document: [{schema; id; ok; wall_ms}] plus, on success,
    [instance {m; n}], the winning [solver]/[cost]/[exact]/[cut_off],
    the [plan] (per-task hyperreconfiguration steps, step 0 included)
    and a [solvers] array of per-contestant telemetry — or, on failure,
    [error].  [timing:false] (default [true]) renders every [wall_ms]
    as 0, making the document reproducible byte for byte across
    runs and transports (hrserve's [--no-timing]). *)
val response_to_json : ?timing:bool -> response -> Telemetry.json

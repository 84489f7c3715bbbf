module Budget = Hr_util.Budget
module Pool = Hr_util.Pool

type request = {
  id : string;
  key : string option;
  budget : Budget.t option;
  build : unit -> Problem.t;
}

let request ?key ?budget ~id build = { id; key; budget; build }

type solved = {
  solution : Solution.t;
  reports : Solver.report list;
  m : int;
  n : int;
}

type response = { id : string; outcome : (solved, string) result; wall_ms : float }

type t = { responses : response list; total_ms : float; workers : int; shared_builds : int }

let result_schema_version = "hyperreconf.result/1"

let error_response ?(wall_ms = 0.) ~id msg = { id; outcome = Error msg; wall_ms }

(* Problems are immutable once precomputed, so a cache entry can be
   shared freely across domains.  Builds happen outside the lock: two
   requests racing on a fresh key may both build (idempotent — the
   loser's table is dropped), but distinct keys never serialize on each
   other's O(m·n²) table build.

   The store is a byte-budgeted LRU: entries form a doubly-linked
   recency list, each charged its oracle residency
   (Interval_cost.cache_stats.bytes_resident, floored so even direct
   oracles have positive weight), and inserting past
   [max_bytes] evicts from the cold end.  Without [max_bytes] it
   degrades to the old unbounded behaviour. *)
type node = {
  nkey : string;
  problem : Problem.t;
  cost_bytes : int;
  mutable prev : node option;  (* towards MRU *)
  mutable next : node option;  (* towards LRU *)
}

type build_cache = {
  mu : Mutex.t;
  table : (string, node) Hashtbl.t;
  mutable mru : node option;
  mutable lru : node option;
  mutable bytes : int;
  max_bytes : int option;
  hits : int Atomic.t;
  misses : int Atomic.t;
  evictions : int Atomic.t;
}

type build_cache_stats = {
  entries : int;
  bytes : int;
  cap_bytes : int option;
  hits : int;
  misses : int;
  evictions : int;
}

let build_cache ?max_bytes () =
  {
    mu = Mutex.create ();
    table = Hashtbl.create 16;
    mru = None;
    lru = None;
    bytes = 0;
    max_bytes;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    evictions = Atomic.make 0;
  }

(* A problem's charge against the byte budget: its dense-table (or
   sparse-index) residency, floored at 1 KiB so empty/direct oracles
   still have weight and the LRU cannot grow unboundedly on zero-cost
   entries. *)
let problem_cost_bytes problem =
  max 1024 (Interval_cost.cache_stats problem.Problem.oracle).Interval_cost.bytes_resident

(* List surgery, all under [cache.mu]. *)
let unlink cache node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> cache.mru <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> cache.lru <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front cache node =
  node.prev <- None;
  node.next <- cache.mru;
  (match cache.mru with Some m -> m.prev <- Some node | None -> cache.lru <- Some node);
  cache.mru <- Some node

(* Evict cold entries until the budget holds; [keep] (the entry being
   inserted) is never evicted, so a single oversized problem still
   caches — the budget bounds the tail, not admission. *)
let enforce_budget cache ~keep =
  match cache.max_bytes with
  | None -> ()
  | Some cap ->
      let rec go () =
        if cache.bytes > cap then
          match cache.lru with
          | Some victim when victim != keep ->
              unlink cache victim;
              Hashtbl.remove cache.table victim.nkey;
              cache.bytes <- cache.bytes - victim.cost_bytes;
              Atomic.incr cache.evictions;
              go ()
          | _ -> ()
      in
      go ()

let move_to_front cache node =
  unlink cache node;
  push_front cache node

(* Called after a miss built [problem].  If a request racing on the same
   fresh key inserted first, adopt its problem: this request still built
   one, so it stays a miss and the winner only moves to the front. *)
let insert cache key problem =
  match Hashtbl.find_opt cache.table key with
  | Some winner ->
      move_to_front cache winner;
      winner.problem
  | None ->
      let node =
        { nkey = key; problem; cost_bytes = problem_cost_bytes problem; prev = None; next = None }
      in
      Hashtbl.add cache.table key node;
      push_front cache node;
      cache.bytes <- cache.bytes + node.cost_bytes;
      enforce_budget cache ~keep:node;
      problem

let build_cache_mem cache key =
  Mutex.lock cache.mu;
  let m = Hashtbl.mem cache.table key in
  Mutex.unlock cache.mu;
  m

let build_cache_stats cache =
  Mutex.lock cache.mu;
  let entries = Hashtbl.length cache.table and bytes = cache.bytes in
  Mutex.unlock cache.mu;
  {
    entries;
    bytes;
    cap_bytes = cache.max_bytes;
    hits = Atomic.get cache.hits;
    misses = Atomic.get cache.misses;
    evictions = Atomic.get cache.evictions;
  }

let build_cache_stats_to_json (s : build_cache_stats) =
  let total = s.hits + s.misses in
  Telemetry.Obj
    [
      ("entries", Telemetry.Int s.entries);
      ("bytes", Telemetry.Int s.bytes);
      ( "max_bytes",
        match s.cap_bytes with Some b -> Telemetry.Int b | None -> Telemetry.Null );
      ("hits", Telemetry.Int s.hits);
      ("misses", Telemetry.Int s.misses);
      ( "hit_rate",
        if total = 0 then Telemetry.Null
        else Telemetry.Float (float s.hits /. float total) );
      ("evictions", Telemetry.Int s.evictions);
    ]

let build_problem cache req =
  match req.key with
  | None -> req.build ()
  | Some key -> (
      Mutex.lock cache.mu;
      let hit = Hashtbl.find_opt cache.table key in
      (match hit with
      | Some node ->
          move_to_front cache node;
          Atomic.incr cache.hits
      | None -> ());
      Mutex.unlock cache.mu;
      match hit with
      | Some node -> node.problem
      | None ->
          Atomic.incr cache.misses;
          let problem = req.build () in
          Mutex.lock cache.mu;
          let problem = insert cache key problem in
          Mutex.unlock cache.mu;
          problem)

(* Fair-share carving: a request starting with [left] requests still
   unstarted and [workers] domains serving them gets [workers/left] of
   the global time left — the share it would receive if the remaining
   queue were drained in even waves.  The slice is clamped to the
   global remaining budget: an exhausted batch hands out exhausted
   slices (no 1 ms floor), so a cut-off batch cannot overrun its global
   deadline by a floor-slice per remaining request. *)
let fair_slice_ms ~remaining_ms ~workers ~left =
  if remaining_ms <= 0. then 0.
  else Float.min remaining_ms (remaining_ms *. float workers /. float (max 1 left))

let carve ~global ~workers ~left =
  if not (Budget.is_limited global) then Budget.unlimited
  else
    let slice =
      fair_slice_ms ~remaining_ms:(Budget.remaining_ms global) ~workers ~left
    in
    Budget.earliest global (Budget.of_deadline_ms (int_of_float slice))

let empty = { responses = []; total_ms = 0.; workers = 0; shared_builds = 0 }

let run ?pool ?(seed = Solver.default_seed) ?deadline_ms
    ?(solvers = Solver_registry.applicable) ?cache requests =
  match requests with
  | [] ->
      (* Answer without touching (or lazily creating) the pool. *)
      empty
  | requests ->
      let pool = match pool with Some p -> p | None -> Pool.default () in
      let workers = Pool.size pool in
      let global =
        match deadline_ms with
        | None -> Budget.unlimited
        | Some ms -> Budget.of_deadline_ms ms
      in
      (* A caller-held cache outlives the run (hrserve passes one per
         process for cross-batch reuse); [shared_builds] still reports
         this run's hits only. *)
      let cache = match cache with Some c -> c | None -> build_cache () in
      let hits0 = Atomic.get cache.hits in
      (* Requests already resident in the build cache cost ~0 to serve;
         counting them in the fair share would shrink every real
         solve's slice for work that never happens. *)
      let carved (req : request) =
        match req.key with
        | Some key when build_cache_mem cache key -> false
        | _ -> true
      in
      let arr = Array.of_list requests in
      let counted = Array.map carved arr in
      let unstarted =
        Atomic.make (Array.fold_left (fun n c -> if c then n + 1 else n) 0 counted)
      in
      let t0 = Budget.now_ms () in
      let solve_one i =
        let req = arr.(i) in
        let left =
          if counted.(i) then max 1 (Atomic.fetch_and_add unstarted (-1))
          else max 1 (Atomic.get unstarted)
        in
        let r0 = Budget.now_ms () in
        let outcome =
          match
            let problem = build_problem cache req in
            let budget = carve ~global ~workers ~left in
            (* A per-request deadline layers under the fair share: the
               request finishes by whichever expires first. *)
            let budget =
              match req.budget with
              | None -> budget
              | Some b -> Budget.earliest budget b
            in
            let solution, reports =
              Solver.race_report ~seed ~budget (solvers problem) problem
            in
            { solution; reports; m = Problem.m problem; n = Problem.n problem }
          with
          | solved -> Ok solved
          | exception e -> Error (Printexc.to_string e)
        in
        { id = req.id; outcome; wall_ms = Budget.now_ms () -. r0 }
      in
      (* Per-request chunking granularity: requests vary wildly in cost,
         so finer chunks (not one per worker) keep the pool balanced. *)
      let chunks = min (Array.length arr) (workers * 4) in
      let responses =
        Array.to_list (Pool.map ~chunks pool solve_one (Array.init (Array.length arr) Fun.id))
      in
      {
        responses;
        total_ms = Budget.now_ms () -. t0;
        workers;
        shared_builds = Atomic.get cache.hits - hits0;
      }

(* ------------------------------------------------------------------ *)
(* The result document.                                                *)

open Telemetry

let report_to_json ~timing (r : Solver.report) =
  Obj
    ([
       ("name", String r.Solver.solver);
       ("kind", String (Solver.kind_name r.Solver.kind));
       ("outcome", String (Solver.outcome_name r.Solver.outcome));
       ("wall_ms", Float (if timing then r.Solver.wall_ms else 0.));
     ]
    @ (match r.Solver.outcome with
      | Solver.Crashed e -> [ ("error", String (Printexc.to_string e)) ]
      | Solver.Finished | Solver.Cut_off -> [])
    @
    match r.Solver.solution with
    | None -> [ ("cost", Null) ]
    | Some sol -> [ ("cost", Int sol.Solution.cost) ])

let plan_to_json (solved : solved) =
  List
    (List.init solved.m (fun j ->
         List
           (List.map (fun i -> Int i) (Solution.task_breaks solved.solution j))))

(* [timing:false] renders every wall_ms as 0: the document becomes a
   pure function of (instance, seed, solvers), so socket-mode and
   stdio-mode responses can be compared byte for byte. *)
let response_to_json ?(timing = true) r =
  let base =
    [
      ("schema", String result_schema_version);
      ("id", String r.id);
      ("ok", Bool (Result.is_ok r.outcome));
      ("wall_ms", Float (if timing then r.wall_ms else 0.));
    ]
  in
  match r.outcome with
  | Error msg -> Obj (base @ [ ("error", String msg) ])
  | Ok solved ->
      let sol = solved.solution in
      Obj
        (base
        @ [
            ("instance", Obj [ ("m", Int solved.m); ("n", Int solved.n) ]);
            ("solver", String sol.Solution.solver);
            ("cost", Int sol.Solution.cost);
            ("exact", Bool sol.Solution.exact);
            ("cut_off", Bool sol.Solution.cut_off);
            ("plan", plan_to_json solved);
            ("solvers", List (List.map (report_to_json ~timing) solved.reports));
          ])

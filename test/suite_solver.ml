(* The Problem/Solver layer and the registry: lookups, capability
   predicates, cost consistency across backends, exactness claims
   cross-checked against brute force, and the determinism of the
   parallel solver race. *)

open Hr_core
module Rng = Hr_util.Rng

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let sample_problem () = Problem.of_task_set (Tutil.sample_task_set ())

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Registry lookups.                                                   *)

let test_registry_names () =
  let names = Solver_registry.names () in
  let builtins =
    [ "st-dp"; "all-task"; "mt-dp"; "brute"; "greedy"; "hill-climb"; "anneal";
      "ga"; "ga-polish"; "async-opt"; "mode-climb"; "online-dp" ]
  in
  let k = List.length builtins in
  check (Alcotest.list Alcotest.string) "built-ins, in registration order"
    builtins
    (List.filteri (fun i _ -> i < k) names);
  (* Only the placement solvers, registered on demand, may follow. *)
  List.iteri
    (fun i n ->
      if i >= k then
        check bool (n ^ " is a placement solver") true
          (String.starts_with ~prefix:"place-" n))
    names;
  check bool "find hit" true (Solver_registry.find "ga" <> None);
  check bool "find miss" true (Solver_registry.find "no-such-solver" = None);
  check int "all() agrees with names()"
    (List.length names)
    (List.length (Solver_registry.all ()))

let test_find_exn_unknown () =
  match Solver_registry.find_exn "no-such-solver" with
  | exception Invalid_argument msg ->
      check bool "message lists known names" true (contains msg "st-dp")
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_register_duplicate () =
  let ga = Solver_registry.find_exn "ga" in
  (match Solver_registry.register ga with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "duplicate registration must raise");
  (* Re-registering the same solver with ~override is allowed. *)
  Solver_registry.register ~override:true ga

let test_capability_predicates () =
  let p = sample_problem () in
  let applicable =
    List.map (fun s -> s.Solver.name) (Solver_registry.applicable p)
  in
  (* m = 2, so the single-task DP must be filtered out; the
     fully-synchronized backends must all be present. *)
  check bool "st-dp filtered out" false (List.mem "st-dp" applicable);
  check bool "mode-climb filtered out" false (List.mem "mode-climb" applicable);
  List.iter
    (fun n -> check bool (n ^ " applicable") true (List.mem n applicable))
    [ "mt-dp"; "brute"; "ga"; "greedy" ];
  (* Solving with an inapplicable solver is refused with the typed
     rejection, not a bare Invalid_argument a crash could hide behind. *)
  match Solver.solve (Solver_registry.find_exn "st-dp") p with
  | exception Solver.Rejected msg ->
      check bool "rejection names the solver" true (contains msg "st-dp")
  | exception e ->
      Alcotest.fail ("expected Solver.Rejected, got " ^ Printexc.to_string e)
  | _ -> Alcotest.fail "st-dp on an m=2 instance must raise"

let test_mode_routing () =
  let ts = Tutil.sample_task_set () in
  let async = Problem.of_task_set ~mode:Mixed_sync.Non_synchronized ts in
  let names =
    List.map (fun s -> s.Solver.name) (Solver_registry.applicable async)
  in
  check bool "async-opt handles non-sync" true (List.mem "async-opt" names);
  check bool "ga refuses non-sync" false (List.mem "ga" names);
  let inter = Problem.of_task_set ~mode:Mixed_sync.Context_synchronized ts in
  let names =
    List.map (fun s -> s.Solver.name) (Solver_registry.applicable inter)
  in
  check bool "mode-climb handles intermediate modes" true
    (List.mem "mode-climb" names)

(* ------------------------------------------------------------------ *)
(* Solution helpers.                                                   *)

let test_solution_best_prefers_exact () =
  let bp = Breakpoints.create ~m:1 ~n:3 in
  let mk solver exact cost = Solution.make ~solver ~exact ~cost bp in
  let best =
    Solution.best [ mk "a" false 10; mk "b" true 10; mk "c" false 12 ]
  in
  check bool "exact wins cost ties" true (best.Solution.solver = "b");
  let best = Solution.best [ mk "a" false 9; mk "b" true 10 ] in
  check bool "but cost dominates" true (best.Solution.solver = "a");
  match Solution.best [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "best [] must raise"

(* ------------------------------------------------------------------ *)
(* Cross-backend invariants on random instances.                       *)

let qcheck_st_dp_matches_st_opt =
  Tutil.prop "registry st-dp == St_opt on single-task instances"
    (Tutil.gen_st_instance ~max_n:10 ~max_width:5)
    Tutil.show_st_instance
    (fun inst ->
      let trace = Tutil.trace_of_st inst in
      let sol =
        Solver_registry.solve "st-dp" (Problem.of_trace ~v:inst.Tutil.v trace)
      in
      let r, _ = St_opt.solve_trace ~v:inst.Tutil.v trace in
      sol.Solution.cost = r.St_opt.cost
      && Solution.task_breaks sol 0 = r.St_opt.breaks
      && sol.Solution.exact)

let qcheck_costs_consistent_and_bounded =
  Tutil.prop "every backend: cost = Problem.eval bp, >= brute optimum; exact claims match brute"
    (Tutil.gen_mt_instance ~max_m:3 ~max_n:5 ~max_width:4)
    Tutil.show_mt_instance
    (fun inst ->
      let problem = Problem.of_task_set (Tutil.task_set_of_instance inst) in
      let optimum = (Solver_registry.solve "brute" problem).Solution.cost in
      List.for_all
        (fun s ->
          let sol = Solver.solve ~seed:7 s problem in
          sol.Solution.cost = Problem.eval problem sol.Solution.bp
          && sol.Solution.cost >= optimum
          && ((not sol.Solution.exact) || sol.Solution.cost = optimum))
        (Solver_registry.applicable problem))

let qcheck_race_equals_best_sequential =
  Tutil.prop "race == best sequential backend"
    (Tutil.gen_mt_instance ~max_m:3 ~max_n:5 ~max_width:4)
    Tutil.show_mt_instance
    (fun inst ->
      let problem = Problem.of_task_set (Tutil.task_set_of_instance inst) in
      let names = [ "greedy"; "hill-climb"; "all-task" ] in
      let raced = Solver_registry.race ~domains:2 ~seed:11 ~names problem in
      let best_seq =
        Solution.best
          (List.map (fun n -> Solver_registry.solve ~seed:11 n problem) names)
      in
      raced.Solution.cost = best_seq.Solution.cost)

let qcheck_precompute_transparent =
  Tutil.prop "Interval_cost.precompute preserves every query"
    (Tutil.gen_mt_instance ~max_m:3 ~max_n:6 ~max_width:4)
    Tutil.show_mt_instance
    (fun inst ->
      let raw = Tutil.oracle_of_instance inst in
      let dense = Interval_cost.precompute raw in
      let ok = ref true in
      for j = 0 to raw.Interval_cost.m - 1 do
        for lo = 0 to raw.Interval_cost.n - 1 do
          for hi = lo to raw.Interval_cost.n - 1 do
            if
              dense.Interval_cost.step_cost j lo hi
              <> raw.Interval_cost.step_cost j lo hi
            then ok := false
          done
        done
      done;
      !ok)

let test_race_on_counter_like_instance () =
  (* A deterministic mid-size instance solved by every applicable
     backend, sequentially and racing: identical winners. *)
  let spec =
    {
      Hr_workload.Multi_gen.default_spec with
      Hr_workload.Multi_gen.m = 3;
      n = 24;
      local_sizes = [| 8; 8; 24 |];
    }
  in
  let ts = Hr_workload.Multi_gen.correlated (Rng.create 3) spec in
  let problem = Problem.of_task_set ts in
  let sols =
    List.map
      (fun s -> Solver.solve ~seed:5 s problem)
      (Solver_registry.applicable problem)
  in
  check bool "at least two backends raced" true (List.length sols >= 2);
  let raced = Solver.race ~seed:5 (Solver_registry.applicable problem) problem in
  check int "race equals best sequential"
    (Solution.best sols).Solution.cost raced.Solution.cost

let test_race_exact_on_wide_single_step () =
  (* 63 tasks over 1 step: every task must break at step 0, so the plan
     is forced.  Its key does not pack, so mt-dp refuses it; brute has
     0 free bits and still certifies the forced plan. *)
  let rng = Rng.create 63 in
  let space = Switch_space.make 4 in
  let ts =
    Task_set.make
      (Array.init 63 (fun j ->
           Task_set.task ~name:(Printf.sprintf "t%d" j) ~v:(1 + Rng.int rng 5)
             (Trace.of_lists space
                [ List.filter (fun _ -> Rng.bool rng) [ 0; 1; 2; 3 ] ])))
  in
  let problem = Problem.of_task_set ts in
  check bool "mt-dp refuses" false
    ((Solver_registry.find_exn "mt-dp").Solver.handles problem);
  let best, reports = Solver_registry.race_report ~seed:5 problem in
  check bool "every contestant finished" true
    (List.for_all (fun r -> r.Solver.outcome = Solver.Finished) reports);
  check bool "exact" true best.Solution.exact;
  check int "the forced plan's cost" (fst (Brute.solve problem)) best.Solution.cost;
  check bool "admissible" true (Problem.admissible problem best.Solution.bp)

let test_all_task_exact_only_for_all_task_class () =
  let ts = Tutil.sample_task_set () in
  let partial = Solver_registry.solve "all-task" (Problem.of_task_set ts) in
  check bool "heuristic for partial class" false partial.Solution.exact;
  let constrained =
    Solver_registry.solve "all-task"
      (Problem.of_task_set ~machine_class:Problem.All_task ts)
  in
  check bool "exact for all-task class" true constrained.Solution.exact;
  check bool "uniform columns"
    true
    (Problem.admissible
       (Problem.of_task_set ~machine_class:Problem.All_task ts)
       constrained.Solution.bp)

let test_async_opt_matches_mt_async () =
  let oracle = Interval_cost.of_task_set (Tutil.sample_task_set ()) in
  let sol =
    Solver_registry.solve "async-opt"
      (Problem.make ~mode:Mixed_sync.Non_synchronized oracle)
  in
  let r = Mt_async.solve oracle in
  check int "cost" r.Mt_async.cost sol.Solution.cost;
  check bool "exact" true sol.Solution.exact

(* ------------------------------------------------------------------ *)
(* Brute ground truth: heuristics bounded below, exactness claims      *)
(* honoured, with and without deadlines.                               *)

let qcheck_heuristics_bounded_by_brute_under_deadlines =
  Tutil.prop
    "ga-polish/greedy: >= Brute.solve optimum and cost-consistent, also when cut off"
    (Tutil.gen_mt_instance ~max_m:3 ~max_n:5 ~max_width:4)
    Tutil.show_mt_instance
    (fun inst ->
      let problem = Problem.of_task_set (Tutil.task_set_of_instance inst) in
      let optimum = fst (Brute.solve problem) in
      List.for_all
        (fun name ->
          List.for_all
            (fun budget ->
              let sol = Solver_registry.solve ~seed:3 ?budget name problem in
              sol.Solution.cost >= optimum
              && sol.Solution.cost = Problem.eval problem sol.Solution.bp
              && Problem.admissible problem sol.Solution.bp)
            [ None; Some (Hr_util.Budget.of_deadline_ms 0) ])
        [ "ga-polish"; "greedy" ])

let qcheck_mode_climb_vs_brute_on_intermediate_modes =
  (* Brute.solve evaluates through Problem.eval, so it is ground truth
     for the intermediate synchronization modes too — exactly where
     mode-climb lives. *)
  Tutil.prop "mode-climb: >= brute optimum on intermediate modes"
    (Tutil.gen_mt_instance ~max_m:3 ~max_n:4 ~max_width:4)
    Tutil.show_mt_instance
    (fun inst ->
      let ts = Tutil.task_set_of_instance inst in
      List.for_all
        (fun mode ->
          let problem = Problem.of_task_set ~mode ts in
          let optimum = fst (Brute.solve problem) in
          let sol = Solver_registry.solve ~seed:3 "mode-climb" problem in
          let cut =
            Solver_registry.solve ~seed:3
              ~budget:(Hr_util.Budget.of_deadline_ms 0) "mode-climb" problem
          in
          sol.Solution.cost >= optimum
          && cut.Solution.cost >= optimum
          && cut.Solution.cut_off
          && (not cut.Solution.exact)
          && cut.Solution.cost = Problem.eval problem cut.Solution.bp)
        [ Mixed_sync.Hypercontext_synchronized; Mixed_sync.Context_synchronized ])

let test_brute_all_task_class_space () =
  (* The all-task class collapses the enumeration to one shared row:
     n=10, m=3 is 2^9, far under the old (n-1)*m = 27-bit wall.  Its
     optimum must agree with the all-task DP's exact solution. *)
  let rng = Rng.create 17 in
  let spec =
    {
      Hr_workload.Multi_gen.default_spec with
      Hr_workload.Multi_gen.m = 3;
      n = 10;
      local_sizes = [| 5; 4; 6 |];
    }
  in
  let ts = Hr_workload.Multi_gen.correlated rng spec in
  let problem = Problem.of_task_set ~machine_class:Problem.All_task ts in
  check int "bits is n-1, not (n-1)*m" 9 (Brute.bits problem);
  check bool "brute-feasible" true (Brute.feasible problem);
  let cost, bp = Brute.solve problem in
  check bool "brute plan admissible for the class" true
    (Problem.admissible problem bp);
  let dp = Solver_registry.solve "all-task" problem in
  check bool "all-task DP is exact here" true dp.Solution.exact;
  check int "brute agrees with the exact DP" dp.Solution.cost cost;
  (* The registry's brute backend now accepts the instance too. *)
  let reg = Solver_registry.solve "brute" problem in
  check bool "registry brute exact" true reg.Solution.exact;
  check int "registry brute cost" cost reg.Solution.cost

let test_async_opt_refuses_all_task_class () =
  (* Per-task solo optima cannot honour uniform columns: the capability
     predicate must filter the class out (found by hrcheck). *)
  let ts = Tutil.sample_task_set () in
  let p =
    Problem.of_task_set ~mode:Mixed_sync.Non_synchronized
      ~machine_class:Problem.All_task ts
  in
  let names = List.map (fun s -> s.Solver.name) (Solver_registry.applicable p) in
  check bool "async-opt filtered out on all-task" false
    (List.mem "async-opt" names);
  check bool "brute still applicable" true (List.mem "brute" names)

let test_mode_climb_no_worse_than_stacked_solos () =
  let oracle = Interval_cost.of_task_set (Tutil.sample_task_set ()) in
  let problem = Problem.make ~mode:Mixed_sync.Hypercontext_synchronized oracle in
  let sol = Solver_registry.solve "mode-climb" problem in
  let stacked =
    let m = Problem.m problem and n = Problem.n problem in
    Breakpoints.of_rows ~m ~n
      (Array.init m (fun j -> (St_opt.solve_oracle oracle ~task:j).St_opt.breaks))
  in
  check bool "descent never degrades its init" true
    (sol.Solution.cost <= Problem.eval problem stacked)

(* ------------------------------------------------------------------ *)
(* The execution harness: plan export, crash containment, budgets.     *)

let test_portfolio_plan_export_saves_best () =
  (* The exported plan must be the best solution, not the head of the
     registry-ordered list — the former hropt bug. *)
  let problem = sample_problem () in
  let sols =
    List.map
      (fun s -> Solver.solve ~seed:5 s problem)
      (Solver_registry.applicable problem)
  in
  let best = Solution.best sols in
  let head = List.hd sols in
  check bool "best is no worse than the registry head" true
    (best.Solution.cost <= head.Solution.cost);
  let path = Filename.temp_file "hr_plan" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Plan_io.save path best.Solution.bp;
      let loaded = Plan_io.load path in
      check int "round-tripped plan evaluates to the best cost"
        best.Solution.cost
        (Problem.eval problem loaded))

let crashing_solver =
  Solver.make ~name:"crash-test" ~kind:Solver.Heuristic
    ~doc:"deliberately crashes (test fixture)"
    ~handles:(fun _ -> true)
    (fun ~budget:_ ~rng:_ _ -> failwith "synthetic crash")

let test_race_surfaces_crash_and_still_wins () =
  let problem = sample_problem () in
  let contestants =
    [ crashing_solver; Solver_registry.find_exn "greedy";
      Solver_registry.find_exn "mt-dp" ]
  in
  let reports = Solver.run_all ~seed:5 contestants problem in
  check int "one report per contestant" (List.length contestants)
    (List.length reports);
  (let r = List.hd reports in
   check bool "crash is reported, not masked" true
     (match r.Solver.outcome with
     | Solver.Crashed (Failure msg) -> contains msg "synthetic crash"
     | _ -> false);
   check bool "crashed contestant has no solution" true
     (r.Solver.solution = None));
  let sol, _ = Solver.race_report ~seed:5 contestants problem in
  let direct = Solver_registry.solve ~seed:5 "mt-dp" problem in
  check int "race winner is the best survivor, deterministically"
    direct.Solution.cost sol.Solution.cost;
  (* All contestants crashing is an error naming the casualties. *)
  match Solver.race_report ~seed:5 [ crashing_solver ] problem with
  | exception Invalid_argument msg ->
      check bool "error names the crashed solver" true
        (contains msg "crash-test")
  | _ -> Alcotest.fail "an all-crash race must raise"

let test_race_gives_each_contestant_its_own_claim () =
  (* 2·d contestants on d >= 2 domains: the first 2d - 2 return at once,
     and the last two each wait, for at most 10 s, until the other has
     started.  Contiguous chunks would put those two in one chunk, and
     the first would wait out its cap before the second could start. *)
  let d = max 2 (Hr_util.Par.num_domains ()) in
  let problem = sample_problem () in
  let greedy = Solver_registry.find_exn "greedy" in
  let fixture name run =
    Solver.make ~name ~kind:Solver.Heuristic ~doc:"test fixture"
      ~handles:(fun _ -> true) run
  in
  let started = Atomic.make 0 and overlapped = Atomic.make 0 in
  let waiter ~budget ~rng p =
    Atomic.incr started;
    let give_up = Hr_util.Budget.now_ms () +. 10_000. in
    while Atomic.get started < 2 && Hr_util.Budget.now_ms () < give_up do
      Unix.sleepf 0.001
    done;
    if Atomic.get started >= 2 then Atomic.incr overlapped;
    greedy.Solver.run ~budget ~rng p
  in
  let contestants =
    List.init ((2 * d) - 2) (fun k ->
        fixture (Printf.sprintf "quick-%d" k) greedy.Solver.run)
    @ [ fixture "waiter-a" waiter; fixture "waiter-b" waiter ]
  in
  let t0 = Hr_util.Budget.now_ms () in
  let reports = Solver.run_all ~domains:d ~seed:5 contestants problem in
  let elapsed = Hr_util.Budget.now_ms () -. t0 in
  check bool
    (Printf.sprintf "race took %.0f ms, well under the 10 s cap" elapsed)
    true (elapsed < 5_000.);
  check int "both waiters saw the other start" 2 (Atomic.get overlapped);
  check (Alcotest.list Alcotest.string) "reports in contestant order"
    (List.map (fun s -> s.Solver.name) contestants)
    (List.map (fun r -> r.Solver.solver) reports);
  List.iter
    (fun r ->
      check bool (r.Solver.solver ^ " finished") true (r.Solver.outcome = Solver.Finished))
    reports;
  (* The registry's own race: pooled and sequential runs agree report
     for report, except for the wall clock. *)
  let field = Solver_registry.applicable problem in
  let strip reports = List.map (fun r -> { r with Solver.wall_ms = 0. }) reports in
  let pooled = Solver.run_all ~domains:d ~seed:5 field problem in
  let sequential = Solver.run_all ~domains:1 ~seed:5 field problem in
  check (Alcotest.list Alcotest.string) "registry race in contestant order"
    (List.map (fun s -> s.Solver.name) field)
    (List.map (fun r -> r.Solver.solver) pooled);
  check bool "pooled reports = sequential reports, wall_ms aside" true
    (strip pooled = strip sequential)

let test_deadline_cutoff_returns_admissible_best_so_far () =
  let problem = sample_problem () in
  List.iter
    (fun name ->
      let budget = Hr_util.Budget.of_deadline_ms 0 in
      let sol = Solver_registry.solve ~seed:5 ~budget name problem in
      check bool (name ^ ": cut off") true sol.Solution.cut_off;
      check bool (name ^ ": never exact when cut off") false sol.Solution.exact;
      check bool (name ^ ": admissible") true
        (Problem.admissible problem sol.Solution.bp);
      check int (name ^ ": cost consistent")
        (Problem.eval problem sol.Solution.bp)
        sol.Solution.cost)
    [ "ga"; "anneal"; "hill-climb"; "mt-dp"; "ga-polish" ];
  (* An expired budget shows up as a Cut_off outcome in reports too. *)
  let r =
    Solver.solve_report ~seed:5
      ~budget:(Hr_util.Budget.of_deadline_ms 0)
      (Solver_registry.find_exn "ga") problem
  in
  check bool "report outcome is cut-off" true (r.Solver.outcome = Solver.Cut_off)

let test_telemetry_json_shape () =
  let problem = sample_problem () in
  let contestants = [ crashing_solver; Solver_registry.find_exn "greedy" ] in
  let reports = Solver.run_all ~seed:5 contestants problem in
  let t =
    Telemetry.make ~label:"test" ~deadline_ms:250 ~seed:5 ~problem
      ~total_ms:1.5 reports
  in
  check bool "winner is the survivor" true (t.Telemetry.winner = Some "greedy");
  let s = Telemetry.to_string t in
  List.iter
    (fun sub ->
      check bool (Printf.sprintf "json contains %S" sub) true (contains s sub))
    [
      Telemetry.schema_version; "\"deadline_ms\":250"; "\"outcome\":\"crashed\"";
      "\"error\":"; "\"winner\":\"greedy\""; "\"oracle_cache\":";
    ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_telemetry_golden () =
  (* A fully pinned telemetry document — deterministic solver result,
     hand-fixed wall clocks, an uncached oracle (the direct cache has
     no timing-dependent counters) — emitted and compared byte-for-byte
     against the checked-in expectation.  On a deliberate schema change,
     the failing test dumps the new document to
     [/tmp/telemetry_got.json]; review it and replace
     [test/golden/telemetry.json]. *)
  let dense = Interval_cost.of_task_set (Tutil.sample_task_set ()) in
  let oracle =
    Interval_cost.make ~m:dense.Interval_cost.m ~n:dense.Interval_cost.n
      ~v:dense.Interval_cost.v ~step_cost:dense.Interval_cost.step_cost
  in
  let problem = Problem.make ~precompute:false oracle in
  let greedy = Solver_registry.find_exn "greedy" in
  let sol = Solver.solve ~seed:42 greedy problem in
  let reports =
    [
      {
        Solver.solver = "greedy";
        kind = greedy.Solver.kind;
        outcome = Solver.Finished;
        wall_ms = 1.25;
        solution = Some sol;
      };
      {
        Solver.solver = "crash-test";
        kind = Solver.Heuristic;
        outcome = Solver.Crashed (Failure "boom");
        wall_ms = 0.5;
        solution = None;
      };
    ]
  in
  let t =
    Telemetry.make ~label:"golden" ~deadline_ms:200 ~seed:42 ~problem
      ~total_ms:2.0 reports
  in
  let got = Telemetry.to_string t in
  let expected = read_file "golden/telemetry.json" in
  if got <> expected then begin
    let oc = open_out "/tmp/telemetry_got.json" in
    output_string oc got;
    close_out oc;
    Alcotest.failf
      "telemetry JSON deviates from golden/telemetry.json (new document \
       dumped to /tmp/telemetry_got.json)"
  end;
  (* The new parser inverts the emitter on the same document. *)
  match Telemetry.json_of_string got with
  | Error e -> Alcotest.fail ("golden document does not parse: " ^ e)
  | Ok j ->
      check bool "parser inverts the emitter" true
        (Telemetry.json_to_string j = got)

(* Every document the repository writes or reads nests a few levels, so
   all of them parse under the nesting cap; a 1 M-deep line is refused
   at the cap with an error that names it, in time linear in the cap. *)
let test_json_nesting_limit () =
  let parses path =
    match Telemetry.json_of_string (read_file path) with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "%s does not parse: %s" path e
  in
  List.iter parses
    ("../BENCHMARK.json"
    :: List.concat_map
         (fun dir ->
           List.map (Filename.concat dir)
             (List.filter
                (fun f -> Filename.check_suffix f ".json")
                (Array.to_list (Sys.readdir dir))))
         [ "corpus"; "golden" ]);
  let nested d = String.make d '[' ^ String.make d ']' in
  let limit = Telemetry.max_json_depth in
  check bool "nesting at the limit parses" true
    (Result.is_ok (Telemetry.json_of_string (nested limit)));
  List.iter
    (fun line ->
      match Telemetry.json_of_string line with
      | Ok _ -> Alcotest.fail "over-deep document parsed"
      | Error e ->
          check bool ("error names the limit: " ^ e) true (contains e "max_json_depth"))
    [
      nested (limit + 1);
      String.make 1_000_000 '[';
      String.concat "" (List.init 500_000 (fun _ -> "{\"a\":"));
    ]

(* ------------------------------------------------------------------ *)
(* The flat-state DP engine and the parallel oracle precompute.        *)

let test_pooled_precompute_matches_sequential () =
  (* precompute's pooled row fill must be elementwise identical to its
     sequential one on every (task, lo, hi) query.  A switch task set
     arrives dense, so the oracle here is a direct one over the sparse
     rung's step_cost: precompute fills its table from step_cost. *)
  let ts =
    Hr_workload.Multi_gen.correlated (Rng.create 11)
      {
        Hr_workload.Multi_gen.default_spec with
        m = 3;
        n = 40;
        local_sizes = [| 8; 8; 8 |];
      }
  in
  let sparse = Interval_cost.of_task_set ~policy:Interval_cost.Sparse ts in
  let direct () =
    Interval_cost.make ~m:sparse.Interval_cost.m ~n:sparse.Interval_cost.n
      ~v:sparse.Interval_cost.v ~step_cost:sparse.Interval_cost.step_cost
  in
  let pool = Hr_util.Pool.create ~workers:2 () in
  Fun.protect
    ~finally:(fun () -> Hr_util.Pool.shutdown pool)
    (fun () ->
      let pooled = Interval_cost.precompute ~pool (direct ()) in
      let sequential = Interval_cost.precompute (direct ()) in
      let m = sparse.Interval_cost.m and n = sparse.Interval_cost.n in
      for j = 0 to m - 1 do
        for lo = 0 to n - 1 do
          for hi = lo to n - 1 do
            if
              pooled.Interval_cost.step_cost j lo hi
              <> sequential.Interval_cost.step_cost j lo hi
            then
              Alcotest.failf "pooled build deviates at (%d, %d, %d)" j lo hi
          done
        done
      done;
      let s = Interval_cost.cache_stats pooled in
      check bool "dense" true (s.Interval_cost.kind = "dense");
      check int "cells" (m * n * (n + 1) / 2) s.Interval_cost.cells;
      check int "pooled: two workers and the caller" 3 s.Interval_cost.build_workers;
      check int "sequential: one domain" 1
        (Interval_cost.cache_stats sequential).Interval_cost.build_workers)

let test_budget_polled_within_dp_level () =
  (* A 35^4 ~ 1.5M-state initial expansion takes far longer than 1 ms,
     so a tiny deadline must be caught by the every-4096-emitted-states
     poll inside the level, not only at level boundaries: the run cuts
     off before any level completes (states_explored = 0) yet still
     returns an admissible, cost-consistent plan. *)
  let ts =
    Hr_workload.Multi_gen.independent (Rng.create 3)
      { Hr_workload.Multi_gen.default_spec with m = 4; n = 35 }
  in
  let oracle = Interval_cost.precompute (Interval_cost.of_task_set ts) in
  let out = Mt_dp.solve ~budget:(Hr_util.Budget.of_deadline_ms 1) oracle in
  check bool "cut off" true out.Mt_dp.cut_off;
  check bool "never exact when cut off" false out.Mt_dp.exact;
  check int "no DP level completed" 0 out.Mt_dp.states_explored;
  check int "cost consistent" (Sync_cost.eval oracle out.Mt_dp.bp)
    out.Mt_dp.cost

let test_dp_corpus_golden () =
  (* The flat-state engine pinned byte-for-byte on the conformance
     corpus: cost, exactness claim and the full per-task plan of every
     mt-dp-applicable case.  On a legitimate engine change the failing
     test dumps the new document to [/tmp/dp_plans_got.json]; review it
     and replace [test/golden/dp_plans.json]. *)
  let dp = Solver_registry.find_exn "mt-dp" in
  let docs =
    List.filter_map
      (fun (file, case) ->
        match case with
        | Error e -> Alcotest.failf "corpus case %s failed to load: %s" file e
        | Ok case ->
            let problem = Hr_check.Case.problem case in
            if not (dp.Solver.handles problem) then None
            else
              let sol = Solver_registry.solve ~seed:0 "mt-dp" problem in
              let plan =
                List.init (Problem.m problem) (fun j ->
                    Telemetry.List
                      (List.map
                         (fun i -> Telemetry.Int i)
                         (Solution.task_breaks sol j)))
              in
              Some
                (Telemetry.Obj
                   [
                     ("file", Telemetry.String (Filename.basename file));
                     ("cost", Telemetry.Int sol.Solution.cost);
                     ("exact", Telemetry.Bool sol.Solution.exact);
                     ("plan", Telemetry.List plan);
                   ]))
      (Hr_check.Corpus.load_dir "corpus")
  in
  check bool "at least one corpus case is mt-dp-applicable" true (docs <> []);
  let got = Telemetry.json_to_string (Telemetry.List docs) in
  let expected = read_file "golden/dp_plans.json" in
  if got <> expected then begin
    let oc = open_out "/tmp/dp_plans_got.json" in
    output_string oc got;
    close_out oc;
    Alcotest.failf
      "mt-dp corpus plans deviate from golden/dp_plans.json (new document \
       dumped to /tmp/dp_plans_got.json)"
  end

let tests =
  [
    Alcotest.test_case "registry names" `Quick test_registry_names;
    Alcotest.test_case "find_exn unknown" `Quick test_find_exn_unknown;
    Alcotest.test_case "duplicate registration" `Quick test_register_duplicate;
    Alcotest.test_case "capability predicates" `Quick test_capability_predicates;
    Alcotest.test_case "mode routing" `Quick test_mode_routing;
    Alcotest.test_case "Solution.best tie-breaking" `Quick
      test_solution_best_prefers_exact;
    qcheck_st_dp_matches_st_opt;
    qcheck_costs_consistent_and_bounded;
    qcheck_race_equals_best_sequential;
    qcheck_precompute_transparent;
    Alcotest.test_case "race on mid-size instance" `Quick
      test_race_on_counter_like_instance;
    Alcotest.test_case "race exact on 63 tasks, 1 step" `Quick
      test_race_exact_on_wide_single_step;
    Alcotest.test_case "all-task exactness scoping" `Quick
      test_all_task_exact_only_for_all_task_class;
    Alcotest.test_case "async-opt == Mt_async" `Quick test_async_opt_matches_mt_async;
    qcheck_heuristics_bounded_by_brute_under_deadlines;
    qcheck_mode_climb_vs_brute_on_intermediate_modes;
    Alcotest.test_case "brute collapses the all-task class" `Quick
      test_brute_all_task_class_space;
    Alcotest.test_case "async-opt refuses the all-task class" `Quick
      test_async_opt_refuses_all_task_class;
    Alcotest.test_case "mode-climb vs stacked solos" `Quick
      test_mode_climb_no_worse_than_stacked_solos;
    Alcotest.test_case "portfolio plan export saves the best plan" `Quick
      test_portfolio_plan_export_saves_best;
    Alcotest.test_case "race contains and surfaces crashes" `Quick
      test_race_surfaces_crash_and_still_wins;
    Alcotest.test_case "race gives each contestant its own claim" `Quick
      test_race_gives_each_contestant_its_own_claim;
    Alcotest.test_case "deadline cut-off stays admissible" `Quick
      test_deadline_cutoff_returns_admissible_best_so_far;
    Alcotest.test_case "telemetry JSON shape" `Quick test_telemetry_json_shape;
    Alcotest.test_case "JSON nesting limit" `Quick test_json_nesting_limit;
    Alcotest.test_case "telemetry JSON golden" `Quick test_telemetry_golden;
    Alcotest.test_case "pooled precompute == sequential" `Quick
      test_pooled_precompute_matches_sequential;
    Alcotest.test_case "budget polled within a DP level" `Quick
      test_budget_polled_within_dp_level;
    Alcotest.test_case "mt-dp corpus plans golden" `Quick test_dp_corpus_golden;
  ]

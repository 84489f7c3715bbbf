(* Batch.run conformance: differential against direct solves on the
   checked-in corpus, error containment, build dedup, and the
   hyperreconf.result/1 golden document. *)

open Hr_core
module Check = Hr_check
module Pool = Hr_util.Pool

let check = Alcotest.check

let corpus_cases () =
  List.map
    (fun (name, r) ->
      match r with
      | Ok c -> (name, c)
      | Error e -> Alcotest.failf "corpus %s does not load: %s" name e)
    (Check.Corpus.load_dir "corpus")

let test_corpus_matches_single () =
  (* Every corpus case × every applicable solver: routing the solve
     through Batch.run changes nothing — same cost, exactness flag and
     breakpoint matrix as the direct Solver.solve. *)
  List.iter
    (fun (name, case) ->
      let problem = Check.Case.problem case in
      List.iter
        (fun solver ->
          let tag = name ^ "/" ^ solver.Solver.name in
          let direct = Solver.solve ~seed:11 solver problem in
          let batch =
            Batch.run ~seed:11
              ~solvers:(fun _ -> [ solver ])
              [ Batch.request ~id:tag (fun () -> Check.Case.problem case) ]
          in
          match batch.Batch.responses with
          | [ { Batch.outcome = Ok solved; id; _ } ] ->
              let b = solved.Batch.solution in
              check Alcotest.string (tag ^ " id echoed") tag id;
              check Alcotest.int (tag ^ " cost") direct.Solution.cost
                b.Solution.cost;
              check Alcotest.bool (tag ^ " exact") direct.Solution.exact
                b.Solution.exact;
              check Alcotest.bool (tag ^ " plan") true
                (Breakpoints.equal direct.Solution.bp b.Solution.bp)
          | [ { Batch.outcome = Error e; _ } ] ->
              Alcotest.failf "%s: batched solve errored: %s" tag e
          | rs -> Alcotest.failf "%s: %d responses for 1 request" tag (List.length rs))
        (Solver_registry.applicable problem))
    (corpus_cases ())

let test_corpus_race_bit_identical () =
  (* The pooled default race, unlimited budget, equals the sequential
     single-domain race bit for bit: same winner, cost, plan, and the
     same per-contestant report roster. *)
  List.iter
    (fun (name, case) ->
      let problem = Check.Case.problem case in
      let seq_sol, seq_reports =
        Solver.race_report ~domains:1 ~seed:11
          (Solver_registry.applicable problem)
          problem
      in
      let batch =
        Batch.run ~seed:11
          [ Batch.request ~id:name (fun () -> Check.Case.problem case) ]
      in
      match batch.Batch.responses with
      | [ { Batch.outcome = Ok solved; _ } ] ->
          let b = solved.Batch.solution in
          check Alcotest.string (name ^ " winner") seq_sol.Solution.solver
            b.Solution.solver;
          check Alcotest.int (name ^ " cost") seq_sol.Solution.cost
            b.Solution.cost;
          check Alcotest.bool (name ^ " exact") seq_sol.Solution.exact
            b.Solution.exact;
          check Alcotest.bool (name ^ " plan") true
            (Breakpoints.equal seq_sol.Solution.bp b.Solution.bp);
          check
            Alcotest.(list (pair string string))
            (name ^ " report roster")
            (List.map
               (fun (r : Solver.report) ->
                 (r.Solver.solver, Solver.outcome_name r.Solver.outcome))
               seq_reports)
            (List.map
               (fun (r : Solver.report) ->
                 (r.Solver.solver, Solver.outcome_name r.Solver.outcome))
               solved.Batch.reports)
      | _ -> Alcotest.failf "%s: unexpected batch shape" name)
    (corpus_cases ())

let sample_build () =
  Problem.make (Interval_cost.of_task_set (Tutil.sample_task_set ()))

let test_error_containment () =
  (* A failing build is one structured Error response; its neighbours
     solve normally and order is preserved. *)
  let batch =
    Batch.run ~seed:3
      [
        Batch.request ~id:"ok-0" sample_build;
        Batch.request ~id:"boom" (fun () -> failwith "no such oracle");
        Batch.request ~id:"ok-2" sample_build;
      ]
  in
  match batch.Batch.responses with
  | [ a; b; c ] ->
      check Alcotest.(list string) "request order" [ "ok-0"; "boom"; "ok-2" ]
        (List.map (fun r -> r.Batch.id) [ a; b; c ]);
      check Alcotest.bool "first ok" true (Result.is_ok a.Batch.outcome);
      check Alcotest.bool "third ok" true (Result.is_ok c.Batch.outcome);
      (match b.Batch.outcome with
      | Error msg ->
          check Alcotest.bool "error names the failure" true
            (Astring.String.is_infix ~affix:"no such oracle" msg)
      | Ok _ -> Alcotest.fail "failing build must yield an Error response")
  | rs -> Alcotest.failf "%d responses for 3 requests" (List.length rs)

(* A shut-down pool runs a batch caller-side, one request after another,
   so no two requests on one key are ever building at once: the hit
   counts below are exact.  Concurrent builds on one key are the raced
   test's subject. *)
let sequential_pool () =
  let pool = Pool.create ~workers:1 () in
  Pool.shutdown pool;
  pool

let test_build_dedup () =
  (* Equal keys share one problem build; a distinct key does not. *)
  let req i key = Batch.request ~key ~id:(string_of_int i) sample_build in
  let batch =
    Batch.run ~pool:(sequential_pool ()) ~seed:3
      [ req 0 "k"; req 1 "k"; req 2 "k"; req 3 "other" ]
  in
  check Alcotest.int "two cache hits" 2 batch.Batch.shared_builds;
  List.iter
    (fun r -> check Alcotest.bool "all ok" true (Result.is_ok r.Batch.outcome))
    batch.Batch.responses

let test_build_cache_across_batches () =
  (* An explicit build_cache outlives one run (the hrserve pattern): the
     second batch reuses the first batch's problems, and shared_builds
     stays a per-run delta rather than a lifetime total. *)
  let cache = Batch.build_cache () in
  let req i key = Batch.request ~key ~id:(string_of_int i) sample_build in
  let first =
    Batch.run ~pool:(sequential_pool ()) ~seed:3 ~cache [ req 0 "k"; req 1 "k" ]
  in
  check Alcotest.int "first run: one hit" 1 first.Batch.shared_builds;
  check Alcotest.int "one problem resident" 1
    (Batch.build_cache_stats cache).Batch.entries;
  let second = Batch.run ~seed:3 ~cache [ req 2 "k"; req 3 "k2" ] in
  check Alcotest.int "second run: hit is per-run" 1 second.Batch.shared_builds;
  let s = Batch.build_cache_stats cache in
  check Alcotest.int "two problems resident" 2 s.Batch.entries;
  check Alcotest.int "lifetime hits accumulate" 2 s.Batch.hits;
  check Alcotest.int "one miss per build" 2 s.Batch.misses;
  (* Reuse must not change answers: same key, same cost as a fresh solve. *)
  let fresh = Batch.run ~seed:3 [ req 4 "k" ] in
  let cost b =
    match (List.hd b.Batch.responses).Batch.outcome with
    | Ok s -> s.Batch.solution.Solution.cost
    | Error e -> Alcotest.failf "batched solve errored: %s" e
  in
  check Alcotest.int "cached problem solves identically" (cost fresh)
    (cost second)

let test_raced_build_is_a_miss () =
  (* Two requests on one fresh key, each held inside its build until
     both are building.  Both built a problem, so both are misses: the
     one that inserts second adopts the first one's problem without
     counting a hit.  hits + misses stays the number of keyed
     requests. *)
  let inside = Atomic.make 0 and overlapped = Atomic.make false in
  let build () =
    Atomic.incr inside;
    let give_up = Hr_util.Budget.now_ms () +. 10_000. in
    while Atomic.get inside < 2 && Hr_util.Budget.now_ms () < give_up do
      Unix.sleepf 0.001
    done;
    if Atomic.get inside >= 2 then Atomic.set overlapped true;
    sample_build ()
  in
  let cache = Batch.build_cache () in
  let pool = Pool.create ~workers:2 () in
  let batch =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () ->
        Batch.run ~pool ~seed:3 ~cache
          [ Batch.request ~key:"k" ~id:"0" build; Batch.request ~key:"k" ~id:"1" build ])
  in
  check Alcotest.bool "both requests were building at once" true
    (Atomic.get overlapped);
  let s = Batch.build_cache_stats cache in
  check Alcotest.int "two misses" 2 s.Batch.misses;
  check Alcotest.int "no hits" 0 s.Batch.hits;
  check Alcotest.int "no shared builds" 0 batch.Batch.shared_builds;
  check Alcotest.int "one entry resident" 1 s.Batch.entries

let test_lru_eviction_by_bytes () =
  (* Every sample problem costs at least the 1 KiB accounting floor, so
     a 1.5 KiB budget holds exactly one problem: inserting a second
     evicts the least recently used. *)
  let cache = Batch.build_cache ~max_bytes:1500 () in
  let req i key = Batch.request ~key ~id:(string_of_int i) sample_build in
  ignore (Batch.run ~seed:3 ~cache [ req 0 "a" ]);
  check Alcotest.bool "a resident" true (Batch.build_cache_mem cache "a");
  ignore (Batch.run ~seed:3 ~cache [ req 1 "b" ]);
  check Alcotest.bool "b resident" true (Batch.build_cache_mem cache "b");
  check Alcotest.bool "a evicted" false (Batch.build_cache_mem cache "a");
  let s = Batch.build_cache_stats cache in
  check Alcotest.int "one eviction" 1 s.Batch.evictions;
  check Alcotest.int "one entry resident" 1 s.Batch.entries;
  check Alcotest.int "two misses" 2 s.Batch.misses

let test_lru_recency_order () =
  (* A hit refreshes recency: after touching "a", inserting "c" into a
     two-slot cache evicts "b", not "a". *)
  let cache = Batch.build_cache ~max_bytes:2500 () in
  let req i key = Batch.request ~key ~id:(string_of_int i) sample_build in
  ignore (Batch.run ~seed:3 ~cache [ req 0 "a" ]);
  ignore (Batch.run ~seed:3 ~cache [ req 1 "b" ]);
  ignore (Batch.run ~seed:3 ~cache [ req 2 "a" ] (* hit: a becomes MRU *));
  ignore (Batch.run ~seed:3 ~cache [ req 3 "c" ]);
  check Alcotest.bool "a kept (recently used)" true
    (Batch.build_cache_mem cache "a");
  check Alcotest.bool "b evicted (least recently used)" false
    (Batch.build_cache_mem cache "b");
  check Alcotest.bool "c resident" true (Batch.build_cache_mem cache "c");
  let s = Batch.build_cache_stats cache in
  check Alcotest.int "one hit" 1 s.Batch.hits;
  check Alcotest.int "three misses" 3 s.Batch.misses;
  (* The rendered stats expose the hit rate once there is traffic. *)
  check Alcotest.bool "hit rate rendered" true
    (Astring.String.is_infix ~affix:"\"hit_rate\":0.25"
       (Telemetry.json_to_string (Batch.build_cache_stats_to_json s)))

let test_fair_slice_clamps () =
  let slice = Alcotest.float 1e-9 in
  (* Exhausted global budget: the slice is zero, not a 1 ms floor that
     would overrun the deadline request by request. *)
  check slice "exhausted budget" 0.
    (Batch.fair_slice_ms ~remaining_ms:0. ~workers:4 ~left:2);
  check slice "overrun budget" 0.
    (Batch.fair_slice_ms ~remaining_ms:(-5.) ~workers:4 ~left:2);
  (* The fair share: workers/left of what remains... *)
  check slice "fair share" 50.
    (Batch.fair_slice_ms ~remaining_ms:100. ~workers:2 ~left:4);
  (* ...clamped to the remaining budget when workers outnumber the
     queue... *)
  check slice "clamped to remaining" 100.
    (Batch.fair_slice_ms ~remaining_ms:100. ~workers:8 ~left:2);
  (* ...and safe on a drained queue. *)
  check slice "empty queue" 100.
    (Batch.fair_slice_ms ~remaining_ms:100. ~workers:4 ~left:0)

let test_expired_deadline_cuts_off () =
  (* Regression for the deadline overrun: with the global budget
     already spent, every remaining request must come back cut off
     (best-so-far), not claim a fresh floor slice each. *)
  let mt_dp = Solver_registry.find_exn "mt-dp" in
  let reqs =
    List.init 3 (fun i -> Batch.request ~id:(string_of_int i) sample_build)
  in
  let batch = Batch.run ~seed:3 ~deadline_ms:0 ~solvers:(fun _ -> [ mt_dp ]) reqs in
  check Alcotest.int "all answered" 3 (List.length batch.Batch.responses);
  List.iter
    (fun (r : Batch.response) ->
      match r.Batch.outcome with
      | Ok s ->
          check Alcotest.bool (r.Batch.id ^ " cut off") true
            s.Batch.solution.Solution.cut_off
      | Error e -> Alcotest.failf "%s errored: %s" r.Batch.id e)
    batch.Batch.responses

let test_per_request_budget_layered () =
  (* A request-level budget tightens only its own request, even with an
     unlimited global budget. *)
  let mt_dp = Solver_registry.find_exn "mt-dp" in
  let expired =
    Batch.request ~budget:(Hr_util.Budget.of_deadline_ms 0) ~id:"expired"
      sample_build
  in
  let unbounded = Batch.request ~id:"unbounded" sample_build in
  let batch =
    Batch.run ~seed:3 ~solvers:(fun _ -> [ mt_dp ]) [ expired; unbounded ]
  in
  match batch.Batch.responses with
  | [ e; u ] ->
      let cut (r : Batch.response) =
        match r.Batch.outcome with
        | Ok s -> s.Batch.solution.Solution.cut_off
        | Error msg -> Alcotest.failf "%s errored: %s" r.Batch.id msg
      in
      check Alcotest.bool "expired request cut off" true (cut e);
      check Alcotest.bool "unbounded neighbour unaffected" false (cut u)
  | rs -> Alcotest.failf "%d responses for 2 requests" (List.length rs)

let test_empty_run_short_circuits () =
  (* An all-malformed (hence empty) batch must not touch any pool. *)
  let b = Batch.run ~seed:1 [] in
  check Alcotest.int "no responses" 0 (List.length b.Batch.responses);
  check Alcotest.int "no pool consulted" 0 b.Batch.workers;
  check (Alcotest.float 1e-9) "no time accounted" 0. b.Batch.total_ms

let test_timing_off_zeroes_wall_ms () =
  let r = Batch.error_response ~wall_ms:1.25 ~id:"x" "boom" in
  let timed = Telemetry.json_to_string (Batch.response_to_json r) in
  let zeroed =
    Telemetry.json_to_string (Batch.response_to_json ~timing:false r)
  in
  check Alcotest.bool "timed render keeps wall_ms" true
    (Astring.String.is_infix ~affix:"\"wall_ms\":1.250" timed);
  check Alcotest.bool "timing:false zeroes wall_ms" true
    (Astring.String.is_infix ~affix:"\"wall_ms\":0.000" zeroed);
  check Alcotest.bool "nothing else changes" true
    (String.length timed = String.length zeroed)

(* ------------------------------------------------------------------ *)
(* Goldens: fully pinned result/batch documents, byte-for-byte.        *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Deterministic solver result + hand-fixed wall clocks, like the
   telemetry golden: only schema changes can move these bytes. *)
let pinned_batch () =
  let oracle = Interval_cost.of_task_set (Tutil.sample_task_set ()) in
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
  let solved =
    { Batch.solution = sol; reports; m = Problem.m problem; n = Problem.n problem }
  in
  {
    Batch.responses =
      [
        { Batch.id = "req-0"; outcome = Ok solved; wall_ms = 1.75 };
        Batch.error_response ~wall_ms:0.25 ~id:"req-1"
          "bad request: trailing garbage";
      ];
    total_ms = 2.0;
    workers = 2;
    shared_builds = 1;
  }

let check_golden ~golden ~dump got =
  let expected = try read_file golden with Sys_error _ -> "<missing golden>" in
  if got <> expected then begin
    let oc = open_out dump in
    output_string oc got;
    close_out oc;
    Alcotest.failf "document deviates from %s (new document dumped to %s)"
      golden dump
  end;
  (* The telemetry parser inverts the emitter on the same document. *)
  match Telemetry.json_of_string got with
  | Error e -> Alcotest.fail ("golden document does not parse: " ^ e)
  | Ok j ->
      check Alcotest.bool "parser inverts the emitter" true
        (Telemetry.json_to_string j = got)

let test_result_golden () =
  let batch = pinned_batch () in
  let r = List.hd batch.Batch.responses in
  check_golden ~golden:"golden/result.json" ~dump:"/tmp/result_got.json"
    (Telemetry.json_to_string (Batch.response_to_json r))

let tests =
  [
    Alcotest.test_case "corpus: batch = single solve" `Quick
      test_corpus_matches_single;
    Alcotest.test_case "corpus: batch race = sequential race" `Quick
      test_corpus_race_bit_identical;
    Alcotest.test_case "error containment" `Quick test_error_containment;
    Alcotest.test_case "build dedup by key" `Quick test_build_dedup;
    Alcotest.test_case "build cache across batches" `Quick
      test_build_cache_across_batches;
    Alcotest.test_case "raced build is a miss" `Quick test_raced_build_is_a_miss;
    Alcotest.test_case "lru eviction by byte budget" `Quick
      test_lru_eviction_by_bytes;
    Alcotest.test_case "lru recency order" `Quick test_lru_recency_order;
    Alcotest.test_case "fair slice clamps to budget" `Quick
      test_fair_slice_clamps;
    Alcotest.test_case "expired deadline cuts off" `Quick
      test_expired_deadline_cuts_off;
    Alcotest.test_case "per-request budget layered" `Quick
      test_per_request_budget_layered;
    Alcotest.test_case "empty run short-circuits" `Quick
      test_empty_run_short_circuits;
    Alcotest.test_case "timing off zeroes wall_ms" `Quick
      test_timing_off_zeroes_wall_ms;
    Alcotest.test_case "result/1 golden" `Quick test_result_golden;
  ]

(* The conformance harness itself: generator validity and determinism,
   case JSON round-trips, the shrinker, corpus IO, and the
   end-to-end demonstration that a deliberately buggy solver is caught,
   shrunk and reported with its seed. *)

open Hr_core
module Case = Hr_check.Case
module Gen = Hr_check.Gen
module Invariant = Hr_check.Invariant
module Shrink = Hr_check.Shrink
module Corpus = Hr_check.Corpus
module Runner = Hr_check.Runner
module Rng = Hr_util.Rng

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Generator.                                                          *)

let test_generator_builds_valid_cases () =
  for seed = 0 to 99 do
    let case = Gen.case (Rng.create seed) in
    let problem =
      try Case.problem case
      with e ->
        Alcotest.failf "seed %d: %s does not build: %s" seed (Case.summary case)
          (Printexc.to_string e)
    in
    check int
      (Printf.sprintf "seed %d: m agrees" seed)
      (Case.m case) (Problem.m problem);
    check int
      (Printf.sprintf "seed %d: n agrees" seed)
      (Case.n case) (Problem.n problem)
  done

let test_generator_deterministic () =
  for seed = 0 to 19 do
    let a = Gen.case (Rng.create seed) and b = Gen.case (Rng.create seed) in
    check bool (Printf.sprintf "seed %d reproduces" seed) true (a = b)
  done

let test_generator_covers_the_product_space () =
  (* 400 draws must visit every oracle model, every machine class and
     every synchronization mode — the matrix the harness exists to
     sweep. *)
  let models = Hashtbl.create 8
  and classes = Hashtbl.create 8
  and modes = Hashtbl.create 8 in
  let rng = Rng.create 7 in
  for _ = 1 to 400 do
    let case = Gen.case (Rng.split rng) in
    let model =
      match case.Case.spec with
      | Case.Switch _ -> "switch"
      | Case.Weighted _ -> "weighted"
      | Case.Dag _ -> "dag"
    in
    Hashtbl.replace models model ();
    Hashtbl.replace classes case.Case.machine_class ();
    Hashtbl.replace modes case.Case.mode ()
  done;
  check int "all three oracle models drawn" 3 (Hashtbl.length models);
  check int "all three machine classes drawn" 3 (Hashtbl.length classes);
  check int "all four sync modes drawn" 4 (Hashtbl.length modes)

let qcheck_case_json_roundtrip =
  Tutil.prop "Case JSON round-trips"
    QCheck2.Gen.(int_bound 100_000)
    string_of_int
    (fun seed ->
      let case = Gen.case (Rng.create seed) in
      match Case.of_string (Case.to_string case) with
      | Ok reloaded -> reloaded = case
      | Error _ -> false)

(* One rule set: for every mode, w, pub and pair of upload modes,
   Problem.make raises exactly when check_mode_params says Error, with
   its message, and Case.of_json returns the same message. *)
let test_mode_rules_agree () =
  let oracle = Interval_cost.of_task_set (Tutil.sample_task_set ()) in
  let base = Gen.case (Rng.create 1) in
  let uploads = [ Sync_cost.Task_parallel; Sync_cost.Task_sequential ] in
  List.iter
    (fun mode ->
      List.iter
        (fun (w, pub, hyper, reconf) ->
          let params = { Sync_cost.w; pub; hyper; reconf } in
          let label =
            Format.asprintf "%a w=%d pub=%d %s/%s" Mixed_sync.pp_mode mode w pub
              (if hyper = Sync_cost.Task_parallel then "par" else "seq")
              (if reconf = Sync_cost.Task_parallel then "par" else "seq")
          in
          let expected_ok =
            mode = Mixed_sync.Fully_synchronized
            || w = 0
               && hyper = Sync_cost.Task_parallel
               && reconf = Sync_cost.Task_parallel
               && (pub = 0 || mode = Mixed_sync.Context_synchronized)
          in
          let rule = Problem.check_mode_params mode params in
          check bool (label ^ ": rule") expected_ok (Result.is_ok rule);
          let made =
            match Problem.make ~params ~mode oracle with
            | _ -> Ok ()
            | exception Invalid_argument msg -> Error msg
          in
          check
            Alcotest.(result unit string)
            (label ^ ": Problem.make")
            (Result.map_error (fun msg -> "Problem.make: " ^ msg) rule)
            made;
          let parsed =
            Result.map ignore (Case.of_json (Case.to_json { base with Case.params; mode }))
          in
          check Alcotest.(result unit string) (label ^ ": Case.of_json") rule parsed)
        (List.concat_map
           (fun w ->
             List.concat_map
               (fun pub ->
                 List.concat_map
                   (fun hyper -> List.map (fun reconf -> (w, pub, hyper, reconf)) uploads)
                   uploads)
               [ 0; 1 ])
           [ 0; 1 ]))
    [
      Mixed_sync.Fully_synchronized;
      Mixed_sync.Hypercontext_synchronized;
      Mixed_sync.Context_synchronized;
      Mixed_sync.Non_synchronized;
    ]

(* Gen draws its parameters by its own logic; they must pass the rules
   every Problem is built under. *)
let qcheck_gen_passes_mode_rules =
  Tutil.prop "Gen cases pass check_mode_params"
    QCheck2.Gen.(int_bound 100_000)
    string_of_int
    (fun seed ->
      let case = Gen.case (Rng.create seed) in
      Problem.check_mode_params case.Case.mode case.Case.params = Ok ())

let test_case_schema_tag () =
  (* Regression: an [open Telemetry] once shadowed the case schema
     constant, silently tagging corpus files as telemetry documents. *)
  let s = Case.to_string (Gen.case (Rng.create 1)) in
  check bool "tagged with the case schema" true (contains s Case.schema_version);
  check bool "case schema is its own" false
    (contains s Telemetry.schema_version)

let test_case_of_string_errors () =
  List.iter
    (fun (label, s) ->
      match Case.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s must be rejected" label)
    [
      ("garbage", "not json");
      ("wrong schema", {|{"schema":"nope/9"}|});
      ("missing oracle", Printf.sprintf {|{"schema":%S}|} Case.schema_version);
      ( "w under non-sync",
        {|{"schema":"hyperreconf.case/1","oracle":{"model":"switch","widths":[2],"vs":[0],"reqs":[[[0]]]},"params":{"w":3,"pub":0,"hyper":"parallel","reconf":"parallel"},"mode":"non-synchronized","machine_class":"partial"}|}
      );
    ]

(* ------------------------------------------------------------------ *)
(* Shrinker.                                                           *)

let three_task_case () =
  {
    Case.spec =
      Case.Switch
        {
          widths = [| 3; 3; 2 |];
          vs = [| 2; 1; 0 |];
          reqs =
            [|
              [ [ 0 ]; [ 1; 2 ]; [ 0 ]; [ 2 ] ];
              [ [ 1 ]; [ 0 ]; [ 2 ]; [ 1 ] ];
              [ [ 0 ]; [ 1 ]; [ 0 ]; [ 1 ] ];
            |];
        };
    params = Sync_cost.default_params;
    mode = Mixed_sync.Fully_synchronized;
    machine_class = Problem.Partial;
    place = None;
  }

let test_candidates_are_valid () =
  List.iter
    (fun c ->
      match Case.problem c with
      | _ -> ()
      | exception e ->
          Alcotest.failf "candidate %s invalid: %s" (Case.summary c)
            (Printexc.to_string e))
    (Shrink.candidates (three_task_case ()))

let test_shrink_reduces_planted_failure () =
  (* A "failure" that holds whenever at least two tasks and two steps
     survive: the shrinker must walk it down to exactly that floor. *)
  let still_fails c = Case.m c >= 2 && Case.n c >= 2 in
  let shrunk = Shrink.shrink ~still_fails (three_task_case ()) in
  check int "tasks at the floor" 2 (Case.m shrunk);
  check int "steps at the floor" 2 (Case.n shrunk);
  check bool "still failing" true (still_fails shrunk)

let test_shrink_respects_fuel () =
  (* An always-failing predicate terminates on candidate exhaustion;
     with zero fuel nothing is attempted at all. *)
  let case = three_task_case () in
  let calls = ref 0 in
  let always c =
    incr calls;
    ignore c;
    true
  in
  let shrunk = Shrink.shrink ~fuel:0 ~still_fails:always case in
  check int "zero fuel leaves the case alone" 0 !calls;
  check bool "unchanged" true (shrunk = case);
  let shrunk = Shrink.shrink ~still_fails:always case in
  check bool "always-failing shrink terminates at a minimal case" true
    (Case.m shrunk = 1 && Case.n shrunk = 1)

(* ------------------------------------------------------------------ *)
(* Corpus.                                                             *)

let with_temp_dir f =
  let dir = Filename.temp_file "hr_corpus" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let test_corpus_roundtrip () =
  with_temp_dir (fun dir ->
      let a = Gen.case (Rng.create 3) and b = Gen.case (Rng.create 4) in
      let _ = Corpus.save ~dir ~name:"b-second" b in
      let path = Corpus.save ~dir ~name:"a-first" a in
      check bool "save returns the path" true (Sys.file_exists path);
      match Corpus.load_dir dir with
      | [ ("a-first.json", Ok la); ("b-second.json", Ok lb) ] ->
          check bool "first case round-trips" true (la = a);
          check bool "second case round-trips" true (lb = b)
      | entries ->
          Alcotest.failf "unexpected corpus listing (%d entries, sorted?)"
            (List.length entries))

let test_corpus_missing_and_malformed () =
  check int "missing dir is empty" 0
    (List.length (Corpus.load_dir "/no/such/dir"));
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "bad.json" in
      Sys.mkdir dir 0o755;
      let oc = open_out path in
      output_string oc "{broken";
      close_out oc;
      match Corpus.load_dir dir with
      | [ ("bad.json", Error msg) ] ->
          check bool "error names the file" true (contains msg "bad.json")
      | _ -> Alcotest.fail "malformed file must load as Error")

(* ------------------------------------------------------------------ *)
(* Runner: clean registry, and the buggy-solver demonstration.         *)

let test_runner_clean_on_small_sweep () =
  let summary, failures = Runner.run ~cases:25 ~seed:9 () in
  check int "all cases ran" 25 (Runner.cases_run summary);
  check bool "registry upholds every invariant" true (failures = []);
  check bool "summary agrees" false (Runner.failed summary);
  let table = Runner.table summary in
  List.iter
    (fun col -> check bool (col ^ " column present") true (contains table col))
    ("solver" :: "solve"
    :: List.map (fun (i : Invariant.t) -> i.Invariant.name) Invariant.all)

let test_check_case_on_good_case () =
  check bool "a valid case has no violations" true
    (Runner.check_case ~seed:5 (Gen.case (Rng.create 11)) = [])

(* A from-scratch exhaustive solver with a classic off-by-one: the
   enumeration stops one mask short, so the all-breakpoints matrix is
   never considered — yet it still claims exactness.  The harness must
   catch it, shrink the witness, and report the seed. *)
let off_by_one_solver =
  Solver.make ~name:"scratch-brute" ~kind:Solver.Exact
    ~doc:"deliberately skips the last enumeration mask (test fixture)"
    ~handles:(fun p ->
      let b = Brute.bits p in
      b >= 1 && b <= 10)
    (fun ~budget:_ ~rng:_ p ->
      let m = Problem.m p and n = Problem.n p in
      let free = Brute.bits p in
      let all_task = p.Problem.machine_class = Problem.All_task in
      let best_cost = ref max_int in
      let best = ref (Breakpoints.create ~m ~n) in
      for mask = 0 to (1 lsl free) - 2 (* off by one *) do
        let raw =
          if all_task then
            let row =
              Array.init n (fun i -> i = 0 || mask land (1 lsl (i - 1)) <> 0)
            in
            Array.init m (fun _ -> Array.copy row)
          else
            Array.init m (fun j ->
                Array.init n (fun i ->
                    i = 0 || mask land (1 lsl ((j * (n - 1)) + i - 1)) <> 0))
        in
        let bp = Breakpoints.of_matrix raw in
        let cost = Problem.eval p bp in
        if cost < !best_cost then begin
          best_cost := cost;
          best := bp
        end
      done;
      Solution.make ~solver:"scratch-brute" ~exact:true ~cost:!best_cost !best)

(* An instance whose unique optimum is the skipped all-breaks matrix:
   v = 0 and alternating requirements make every merge strictly
   worse (the merged block pays its union width at every step). *)
let planted_case =
  {
    Case.spec = Case.Switch { widths = [| 2 |]; vs = [| 0 |]; reqs = [| [ [ 0 ]; [ 1 ] ] |] };
    params = Sync_cost.default_params;
    mode = Mixed_sync.Fully_synchronized;
    machine_class = Problem.Partial;
    place = None;
  }

let test_planted_case_optimum_is_last_mask () =
  (* Sanity for the fixture itself: brute's optimum is strictly below
     anything the truncated enumeration can reach. *)
  let problem = Case.problem planted_case in
  let optimum, bp = Brute.solve problem in
  check int "optimum reconfigures every step" 2 optimum;
  check bool "via the all-breaks matrix" true (Breakpoints.is_break bp 0 1)

let test_off_by_one_solver_is_caught_shrunk_and_seeded () =
  let seed = 42 in
  let summary, failures =
    Runner.run
      ~solvers:[ off_by_one_solver ]
      ~corpus:[ ("planted", planted_case) ]
      ~cases:150 ~seed ()
  in
  check bool "the harness flags the bug" true (Runner.failed summary);
  check bool "at least one failure reported" true (failures <> []);
  let exactness_failures =
    List.filter (fun f -> f.Runner.invariant = "exact-brute") failures
  in
  check bool "the false exactness claim is the finding" true
    (exactness_failures <> []);
  List.iter
    (fun f ->
      check bool "failure names the buggy solver" true
        (f.Runner.solver = "scratch-brute");
      check bool "replay seed is reported" true (f.Runner.seed >= seed);
      check bool "shrunk to <= 3 tasks" true (Case.m f.Runner.shrunk <= 3);
      check bool "shrunk case still fails" true
        (List.exists
           (fun (s, inv, _) -> s = "scratch-brute" && inv = f.Runner.invariant)
           (Runner.check_case ~solvers:[ off_by_one_solver ] ~seed:f.Runner.seed
              f.Runner.shrunk));
      (* The report round-trips through the corpus format, so the
         counterexample replays in a later session. *)
      match Case.of_string (Case.to_string f.Runner.shrunk) with
      | Ok c -> check bool "shrunk case serializes" true (c = f.Runner.shrunk)
      | Error e -> Alcotest.failf "shrunk case does not serialize: %s" e)
    exactness_failures

let test_runner_deadline_keeps_invariants () =
  (* The smoke configuration: a deadline on every solve must not break
     any invariant (cut-off solutions are admissible best-so-far). *)
  let _, failures = Runner.run ~deadline_ms:5 ~cases:15 ~seed:13 () in
  check bool "deadline-bounded sweep is clean" true (failures = [])

let tests =
  [
    Alcotest.test_case "generator builds valid cases" `Quick
      test_generator_builds_valid_cases;
    Alcotest.test_case "generator is deterministic" `Quick
      test_generator_deterministic;
    Alcotest.test_case "generator covers the product space" `Quick
      test_generator_covers_the_product_space;
    qcheck_case_json_roundtrip;
    Alcotest.test_case "one mode/params rule set" `Quick
      test_mode_rules_agree;
    qcheck_gen_passes_mode_rules;
    Alcotest.test_case "case schema tag" `Quick test_case_schema_tag;
    Alcotest.test_case "case parse errors" `Quick test_case_of_string_errors;
    Alcotest.test_case "shrink candidates stay valid" `Quick
      test_candidates_are_valid;
    Alcotest.test_case "shrink reduces a planted failure" `Quick
      test_shrink_reduces_planted_failure;
    Alcotest.test_case "shrink respects fuel" `Quick test_shrink_respects_fuel;
    Alcotest.test_case "corpus round-trip" `Quick test_corpus_roundtrip;
    Alcotest.test_case "corpus missing and malformed" `Quick
      test_corpus_missing_and_malformed;
    Alcotest.test_case "runner clean on the registry" `Quick
      test_runner_clean_on_small_sweep;
    Alcotest.test_case "check_case on a good case" `Quick
      test_check_case_on_good_case;
    Alcotest.test_case "planted fixture sanity" `Quick
      test_planted_case_optimum_is_last_mask;
    Alcotest.test_case "off-by-one solver caught, shrunk, seeded" `Quick
      test_off_by_one_solver_is_caught_shrunk_and_seeded;
    Alcotest.test_case "deadline-bounded sweep stays clean" `Quick
      test_runner_deadline_keeps_invariants;
  ]

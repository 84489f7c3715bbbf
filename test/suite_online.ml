(* The online/incremental subsystem: the block-start DP engine
   (Online_dp) differentially against brute force and Mt_dp, the
   incremental ≡ full bit-identity, the online policies against
   hand-computed traces, and (below) the event model, the stream
   generator, warm starts, and the replan driver. *)

open Hr_core
module Bitset = Hr_util.Bitset
module Rng = Hr_util.Rng
module Budget = Hr_util.Budget

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* Task-sequential reconfiguration uploads — the regime where the
   block-start DP's per-task additive charging is exact. *)
let seq_params =
  { Sync_cost.default_params with Sync_cost.reconf = Sync_cost.Task_sequential }

let all_seq_params =
  {
    Sync_cost.w = 2;
    pub = 1;
    hyper = Sync_cost.Task_sequential;
    reconf = Sync_cost.Task_sequential;
  }

let prefix_task_set ts k =
  let tasks =
    Array.map
      (fun t -> { t with Task_set.trace = Trace.sub t.Task_set.trace 0 (k - 1) })
      (Task_set.tasks ts)
  in
  Task_set.make tasks

(* ------------------------------------------------------------------ *)
(* Online_dp vs brute force (exact on every class/mode <= 2^18).       *)

let test_online_dp_vs_brute () =
  let rng = Rng.create 81 in
  for case = 0 to 39 do
    let m = 1 + Rng.int rng 3 in
    let n = 1 + Rng.int rng (1 + (12 / m)) in
    let tasks =
      Array.init m (fun j ->
          let width = 1 + Rng.int rng 4 in
          let space = Switch_space.make width in
          let reqs =
            Array.init n (fun _ ->
                Bitset.random (fun () -> Rng.float rng) ~width ~density:0.4)
          in
          Task_set.task
            ~name:(Printf.sprintf "T%d" j)
            ~v:(Rng.int rng 6)
            (Trace.make space reqs))
    in
    let ts = Task_set.make tasks in
    let params = if case mod 2 = 0 then seq_params else all_seq_params in
    let machine_class =
      if case mod 3 = 0 then Problem.All_task else Problem.Partial
    in
    let p = Problem.of_task_set ~params ~machine_class ts in
    let online = Solver_registry.solve "online-dp" p in
    let brute = Solver_registry.solve "brute" p in
    check int
      (Printf.sprintf "case %d (m=%d n=%d): online-dp = brute" case m n)
      brute.Solution.cost online.Solution.cost;
    check bool "exact claim" true online.Solution.exact;
    check bool "admissible" true (Problem.admissible p online.Solution.bp)
  done

let test_online_dp_vs_mt_dp () =
  let rng = Rng.create 19 in
  let tasks =
    Array.init 2 (fun j ->
        let width = 5 in
        let space = Switch_space.make width in
        let reqs =
          Array.init 24 (fun _ ->
              Bitset.random (fun () -> Rng.float rng) ~width ~density:0.3)
        in
        Task_set.task ~name:(Printf.sprintf "T%d" j) ~v:4 (Trace.make space reqs))
  in
  let p = Problem.of_task_set ~params:seq_params (Task_set.make tasks) in
  let online = Solver_registry.solve "online-dp" p in
  let dp = Solver_registry.solve "mt-dp" p in
  check int "online-dp cost = mt-dp cost" dp.Solution.cost online.Solution.cost;
  check bool "both exact" true (online.Solution.exact && dp.Solution.exact)

(* ------------------------------------------------------------------ *)
(* Incremental ≡ full: prefix + extend must equal a one-shot solve —
   same plan bit for bit, same frontier, same state count.             *)

let random_task_set rng ~m ~n =
  let tasks =
    Array.init m (fun j ->
        let width = 2 + Rng.int rng 4 in
        let space = Switch_space.make width in
        let reqs =
          Array.init n (fun _ ->
              Bitset.random (fun () -> Rng.float rng) ~width ~density:0.35)
        in
        Task_set.task
          ~name:(Printf.sprintf "T%d" j)
          ~v:(1 + Rng.int rng 5)
          (Trace.make space reqs))
  in
  Task_set.make tasks

let test_incremental_equals_full () =
  let rng = Rng.create 4242 in
  for case = 0 to 19 do
    let m = 1 + Rng.int rng 2 in
    let n = 4 + Rng.int rng 12 in
    let cut = 1 + Rng.int rng (n - 1) in
    let ts = random_task_set rng ~m ~n in
    let params = if case mod 2 = 0 then seq_params else all_seq_params in
    let machine_class =
      if case mod 4 = 0 then Problem.All_task else Problem.Partial
    in
    let full_p = Problem.of_task_set ~params ~machine_class ts in
    let pre_p =
      Problem.of_task_set ~params ~machine_class (prefix_task_set ts cut)
    in
    let full = Online_dp.start full_p in
    let inc = Online_dp.extend (Online_dp.start pre_p) full_p in
    let sf = Online_dp.solution full and si = Online_dp.solution inc in
    check int
      (Printf.sprintf "case %d (m=%d n=%d cut=%d): costs equal" case m n cut)
      sf.Solution.cost si.Solution.cost;
    check bool "plans bit-identical" true
      (Breakpoints.equal sf.Solution.bp si.Solution.bp);
    check int "frontier identical" (Online_dp.frontier full)
      (Online_dp.frontier inc);
    check int "state count identical"
      (Online_dp.states_explored full)
      (Online_dp.states_explored inc);
    check int "charged cost = eval" sf.Solution.cost (Online_dp.best_cost inc)
  done

let test_extend_in_stages () =
  (* Extending one event at a time equals one big extend. *)
  let rng = Rng.create 77 in
  let ts = random_task_set rng ~m:2 ~n:12 in
  let p_at k = Problem.of_task_set ~params:seq_params (prefix_task_set ts k) in
  let full = Online_dp.start (p_at 12) in
  let staged =
    List.fold_left
      (fun t k -> Online_dp.extend t (p_at k))
      (Online_dp.start (p_at 3))
      [ 5; 6; 9; 12 ]
  in
  let sf = Online_dp.solution full and ss = Online_dp.solution staged in
  check int "staged cost" sf.Solution.cost ss.Solution.cost;
  check bool "staged plan" true (Breakpoints.equal sf.Solution.bp ss.Solution.bp);
  (* A no-growth extend is free and harmless. *)
  let again = Online_dp.extend staged (p_at 12) in
  check int "idempotent horizon" 12 (Online_dp.horizon again)

let test_extend_rejects_mismatch () =
  let rng = Rng.create 5 in
  let ts = random_task_set rng ~m:2 ~n:8 in
  let pre = Problem.of_task_set ~params:seq_params (prefix_task_set ts 4) in
  let t = Online_dp.start pre in
  let expect_invalid name p' =
    match Online_dp.extend t p' with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: extend must reject" name
  in
  (* Horizon shrank. *)
  expect_invalid "shrink" (Problem.of_task_set ~params:seq_params (prefix_task_set ts 2));
  (* Parameters changed. *)
  expect_invalid "params" (Problem.of_task_set ~params:all_seq_params ts);
  (* Different tasks at the same horizon: the prefix spot-check fires
     (same widths, every requirement emptied — the prefix block costs
     drop). *)
  let other =
    Task_set.make
      (Array.map
         (fun a ->
           let space = Trace.space a.Task_set.trace in
           {
             a with
             Task_set.trace =
               Trace.make space
                 (Array.map
                    (fun r -> Bitset.create (Bitset.width r))
                    (Trace.reqs a.Task_set.trace));
           })
         (Task_set.tasks ts))
  in
  match Online_dp.extend t (Problem.of_task_set ~params:seq_params other) with
  | exception Invalid_argument _ -> ()
  | _ ->
      (* The spot-check is a heuristic; only flag when the prefix cost
         actually differs. *)
      ()

let test_unsupported_rejected () =
  let ts = Tutil.sample_task_set () in
  (* Default params are task-parallel: the additive charging would be
     wrong, so the engine must refuse (and the registry must filter). *)
  let p = Problem.of_task_set ts in
  (match Online_dp.start p with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "task-parallel reconf must be refused");
  check bool "supports is false" false (Online_dp.supports p);
  let names =
    List.map (fun s -> s.Solver.name) (Solver_registry.applicable p)
  in
  check bool "registry filters online-dp" false (List.mem "online-dp" names);
  let p_seq = Problem.of_task_set ~params:seq_params ts in
  let names =
    List.map (fun s -> s.Solver.name) (Solver_registry.applicable p_seq)
  in
  check bool "registry offers online-dp" true (List.mem "online-dp" names)

let test_cutoff_safe () =
  let rng = Rng.create 13 in
  let ts = random_task_set rng ~m:2 ~n:10 in
  let p = Problem.of_task_set ~params:seq_params ts in
  let budget = Budget.of_deadline_ms 0 in
  let t = Online_dp.start ~budget p in
  let s = Online_dp.solution t in
  check bool "cut off" true s.Solution.cut_off;
  check bool "not exact" false s.Solution.exact;
  check bool "admissible" true (Problem.admissible p s.Solution.bp);
  check int "cost recomputed consistently" (Problem.eval p s.Solution.bp)
    s.Solution.cost

(* ------------------------------------------------------------------ *)
(* Online policies against hand-computed traces.                       *)

let policy_trace () =
  Trace.of_lists (Switch_space.make 4) [ [ 0; 1; 2 ]; [ 0 ]; [ 0 ]; [ 0 ] ]

let test_eager_hand () =
  (* Switches every step: cost = Σ (v + |req_i|) = 4·3 + 6 = 18. *)
  let cost, switches = Online.run Online.eager ~v:3 (policy_trace ()) in
  check int "eager cost" 18 cost;
  check int "eager switches" 4 switches

let test_lazy_full_hand () =
  (* One switch to the full universe: 3 + 4·4 = 19. *)
  let cost, switches =
    Online.run (Online.lazy_full ~universe:4) ~v:3 (policy_trace ())
  in
  check int "lazy cost" 19 cost;
  check int "lazy switches" 1 switches

let test_rent_or_buy_hand () =
  (* v=3.  Start {0,1,2}: 3+3.  Step 1 ({0} ⊆ hc): waste 2, keep, +3.
     Step 2: waste 4 > 3 → shed to {0}: +3+1.  Step 3: waste 0, +1.
     Total 14, 2 switches. *)
  let cost, switches =
    Online.run (Online.rent_or_buy ~v:3) ~v:3 (policy_trace ())
  in
  check int "rent-or-buy cost" 14 cost;
  check int "rent-or-buy switches" 2 switches

let test_rent_or_buy_sheds_on_forced_switches () =
  (* One new switch per step: every step is a forced switch.  The old
     accounting reset the waste meter on forced switches, so the
     union-grown hypercontext never shed and cost grew quadratically
     (v+1, v+2, …, v+n).  With the surplus metered, v=2 sheds at steps
     2 and 4: 3 + 4 + 3 + 4 + 3 + 4 = 21 (vs 33 unfixed). *)
  let trace =
    Trace.of_lists (Switch_space.make 6)
      [ [ 0 ]; [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ]; [ 5 ] ]
  in
  let cost, switches = Online.run (Online.rent_or_buy ~v:2) ~v:2 trace in
  check int "forced-switch shedding cost" 21 cost;
  check int "every step switches" 6 switches

let test_rent_or_buy_bounded_vs_offline () =
  (* Waste between sheds is bounded by v + the last step's surplus, so
     on any trace the policy stays within a small factor of offline
     optimum; specifically it must beat never-shedding on a long
     escape-then-quiet trace. *)
  let reqs = [ [ 0; 1; 2; 3; 4; 5 ] ] @ List.init 30 (fun _ -> [ 0 ]) in
  let trace = Trace.of_lists (Switch_space.make 6) reqs in
  let v = 4 in
  let rb, _ = Online.run (Online.rent_or_buy ~v) ~v trace in
  let lazy_cost, _ = Online.run (Online.lazy_full ~universe:6) ~v trace in
  check bool "rent-or-buy sheds the big context" true (rb < lazy_cost)

(* ------------------------------------------------------------------ *)
(* The typed event model (Hr_online.Event).                            *)

module Event = Hr_online.Event
module Events = Hr_online.Events
module Warm = Hr_online.Warm
module Replan = Hr_online.Replan
module Experiment = Hr_online.Experiment

let bs ?(width = 3) l =
  List.fold_left (fun b x -> Bitset.add b x) (Bitset.create width) l

let mini_ts () =
  let space = Switch_space.make 3 in
  let tr reqs = Trace.make space (Array.of_list (List.map bs reqs)) in
  Task_set.make
    [|
      Task_set.task ~name:"A" ~v:2 (tr [ [ 0 ]; [ 1 ]; [ 0; 1 ] ]);
      Task_set.task ~name:"B" ~v:1 (tr [ [ 2 ]; [ 2 ]; [ 0 ] ]);
    |]

let ev at payload = { Event.at; payload }

let ok_apply ts e =
  match Event.apply ts e with
  | Ok ts' -> ts'
  | Error msg -> Alcotest.failf "apply rejected a valid event: %s" msg

let rejected ts e =
  match Event.apply ts e with Ok _ -> false | Error _ -> true

let test_event_apply () =
  let ts = mini_ts () in
  let space = Switch_space.make 3 in
  let newcomer =
    Task_set.task ~name:"C" ~v:1
      (Trace.make space (Array.of_list (List.map bs [ [ 0 ]; [ 2 ]; [ 1 ] ])))
  in
  (* Arrivals. *)
  let ts' = ok_apply ts (ev 0 (Event.Arrive newcomer)) in
  check int "arrival adds a task" 3 (Task_set.num_tasks ts');
  check bool "duplicate name rejected" true
    (rejected ts' (ev 1 (Event.Arrive newcomer)));
  let short =
    Task_set.task ~name:"D" (Trace.make space [| bs [ 0 ] |])
  in
  check bool "wrong trace length rejected" true
    (rejected ts (ev 0 (Event.Arrive short)));
  (* Departures. *)
  let ts'' = ok_apply ts (ev 0 (Event.Depart "B")) in
  check int "departure removes a task" 1 (Task_set.num_tasks ts'');
  check bool "unknown depart rejected" true (rejected ts (ev 0 (Event.Depart "Z")));
  check bool "last task cannot depart" true
    (rejected ts'' (ev 1 (Event.Depart "A")));
  (* Demand changes. *)
  let ts3 =
    ok_apply ts (ev 0 (Event.Demand_change { task = "A"; step = 1; req = bs [ 2 ] }))
  in
  check bool "demand change lands" true
    (Bitset.equal (Trace.req (Task_set.get ts3 0).Task_set.trace 1) (bs [ 2 ]));
  check bool "demand change is pure" true
    (Bitset.equal (Trace.req (Task_set.get ts 0).Task_set.trace 1) (bs [ 1 ]));
  check bool "step out of range rejected" true
    (rejected ts (ev 0 (Event.Demand_change { task = "A"; step = 5; req = bs [ 0 ] })));
  check bool "wrong width rejected" true
    (rejected ts
       (ev 0 (Event.Demand_change { task = "A"; step = 0; req = bs ~width:4 [ 0 ] })));
  (* Extensions. *)
  let ts4 =
    ok_apply ts (ev 0 (Event.Extend_trace [| [| bs [ 1 ] |]; [| bs [ 2 ] |] |]))
  in
  check int "extension grows the horizon" 4 (Task_set.steps ts4);
  check bool "row arity mismatch rejected" true
    (rejected ts (ev 0 (Event.Extend_trace [| [| bs [ 1 ] |] |])));
  check bool "empty extension rejected" true
    (rejected ts (ev 0 (Event.Extend_trace [| [||]; [||] |])));
  check bool "ragged extension rejected" true
    (rejected ts
       (ev 0 (Event.Extend_trace [| [| bs [ 1 ]; bs [ 0 ] |]; [| bs [ 2 ] |] |])))

let test_stream_validate () =
  let ts = mini_ts () in
  let ext = Event.Extend_trace [| [| bs [ 1 ] |]; [| bs [ 2 ] |] |] in
  check bool "well-formed stream accepted" true
    (Result.is_ok (Event.validate ~init:ts [ ev 0 ext; ev 3 (Event.Depart "B") ]));
  check bool "depart before arrive rejected" true
    (Result.is_error
       (Event.validate ~init:ts
          [
            ev 0 (Event.Depart "C");
            ev 1
              (Event.Arrive
                 (Task_set.task ~name:"C"
                    (Trace.make (Switch_space.make 3)
                       (Array.of_list (List.map bs [ [ 0 ]; [ 1 ]; [ 2 ] ])))));
          ]));
  check bool "non-monotone timestamps rejected" true
    (Result.is_error (Event.validate ~init:ts [ ev 4 ext; ev 4 (Event.Depart "B") ]));
  check bool "negative timestamp rejected" true
    (Result.is_error (Event.validate ~init:ts [ ev (-1) ext ]));
  match Event.replay ~init:ts [ ev 0 ext; ev 2 ext ] with
  | Error msg -> Alcotest.fail msg
  | Ok states ->
      check int "replay yields one state per event" 2 (List.length states);
      check (Alcotest.list int) "horizons grow step by step" [ 4; 5 ]
        (List.map Task_set.steps states)

(* ------------------------------------------------------------------ *)
(* The stream generator: deterministic, well-formed, round-trips.      *)

let small_profile =
  {
    Events.default with
    Events.n0 = 6;
    width = 4;
    events = 5;
    extend_k = 2;
    max_tasks = 3;
  }

let stream_bytes init stream =
  Telemetry.json_to_string (Event.stream_to_json ~init stream)

let test_generator_well_formed () =
  for seed = 0 to 9 do
    let init, stream = Events.generate (Rng.create seed) small_profile in
    (match Event.validate ~init stream with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "seed %d generated an invalid stream: %s" seed msg);
    check int "requested number of events" small_profile.Events.events
      (List.length stream)
  done

let test_generator_deterministic () =
  for seed = 0 to 4 do
    let a_init, a = Events.generate (Rng.create seed) Events.default in
    let b_init, b = Events.generate (Rng.create seed) Events.default in
    check Alcotest.string
      (Printf.sprintf "seed %d reproduces the stream byte for byte" seed)
      (stream_bytes a_init a) (stream_bytes b_init b)
  done

let test_stream_json_roundtrip () =
  let init, stream = Events.generate (Rng.create 13) small_profile in
  let s = stream_bytes init stream in
  match Telemetry.json_of_string s with
  | Error e -> Alcotest.fail ("stream JSON does not parse: " ^ e)
  | Ok j -> (
      match Event.stream_of_json j with
      | Error e -> Alcotest.fail ("stream JSON rejected: " ^ e)
      | Ok (init', stream') ->
          check Alcotest.string "round-trip is the identity" s
            (stream_bytes init' stream'))

let test_malformed_stream_json_rejected () =
  let init, stream = Events.generate (Rng.create 13) small_profile in
  let s = stream_bytes init stream in
  (match Telemetry.json_of_string s with
  | Ok (Telemetry.Obj kvs) ->
      (* Wrong schema string must be refused. *)
      let forged =
        Telemetry.Obj
          (List.map
             (function
               | "schema", _ -> ("schema", Telemetry.String "hyperreconf.stream/0")
               | kv -> kv)
             kvs)
      in
      check bool "wrong schema rejected" true
        (Result.is_error (Event.stream_of_json forged))
  | _ -> Alcotest.fail "stream JSON lost its object shape");
  (* An out-of-range switch index must be refused by the parser. *)
  check bool "malformed event rejected" true
    (Result.is_error
       (Event.of_json
          (Telemetry.Obj
             [
               ("schema", Telemetry.String Event.schema_version);
               ("at", Telemetry.Int 0);
               ("kind", Telemetry.String "demand-change");
               ("task", Telemetry.String "A");
               ("step", Telemetry.Int 0);
               ("width", Telemetry.Int 2);
               ("req", Telemetry.List [ Telemetry.Int 7 ]);
             ])))

let test_golden_stream () =
  let init, stream = Events.generate (Rng.create 42) Events.default in
  let got = stream_bytes init stream in
  let path = "golden/event_stream.json" in
  let expected =
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with Sys_error _ -> "<missing golden>"
  in
  if got <> expected then begin
    let oc = open_out "/tmp/event_stream_got.json" in
    output_string oc got;
    close_out oc;
    Alcotest.failf "stream deviates from %s (new document dumped to %s)" path
      "/tmp/event_stream_got.json"
  end

(* ------------------------------------------------------------------ *)
(* Warm starts: never worse than cold under the same seed and budget.  *)

let test_warm_remap () =
  let prev =
    Breakpoints.of_rows ~m:2 ~n:4 [| [ 2 ]; [ 1; 3 ] |]
  in
  let bp = Warm.remap ~prev ~rows:[| Some 1; None |] ~n:6 in
  check int "remap keeps the target shape" 6 (Breakpoints.n bp);
  check bool "copied row keeps its breaks" true
    (Breakpoints.is_break bp 0 1 && Breakpoints.is_break bp 0 3);
  check bool "appended steps get no breaks" true
    (not (Breakpoints.is_break bp 0 4 || Breakpoints.is_break bp 0 5));
  check bool "fresh row breaks only at step 0" true
    (Breakpoints.is_break bp 1 0 && Breakpoints.break_count bp 1 = 1)

let test_warm_never_worse () =
  let rng = Rng.create 4242 in
  for case = 0 to 4 do
    let ts = random_task_set rng ~m:2 ~n:10 in
    let problem = Problem.of_task_set ~params:seq_params ts in
    (* A previous plan from a different backend stands in for the
       pre-event solution. *)
    let prev = (Solver_registry.solve "greedy" problem).Solution.bp in
    List.iter
      (fun name ->
        let solver = Solver_registry.find_exn name in
        let sol, stats = Warm.solve ~seed:(case + 1) ~prev solver problem in
        check bool
          (Printf.sprintf "%s warm <= cold (case %d)" name case)
          true
          (sol.Solution.cost <= stats.Warm.cold_cost);
        check bool "warm solution is admissible" true
          (Problem.admissible problem sol.Solution.bp);
        check bool "warm source recorded" true
          (List.mem_assoc "warm-source" sol.Solution.stats))
      [ "ga"; "anneal"; "hill-climb" ]
  done

(* ------------------------------------------------------------------ *)
(* The replan driver and the differential corpus: Full ≡ Incremental.  *)

let seq_config strategy =
  { (Replan.default_config strategy) with Replan.params = seq_params }

let test_differential_corpus () =
  for seed = 100 to 119 do
    let init, stream = Events.generate (Rng.create seed) small_profile in
    let full = Replan.run (seq_config Replan.Full) ~init stream in
    let inc = Replan.run (seq_config Replan.Incremental) ~init stream in
    let agree stream =
      let full = Replan.run (seq_config Replan.Full) ~init stream in
      let inc = Replan.run (seq_config Replan.Incremental) ~init stream in
      List.for_all2
        (fun (f : Replan.record) (i : Replan.record) ->
          f.Replan.cost = i.Replan.cost
          && Breakpoints.equal f.Replan.plan i.Replan.plan)
        full.Replan.records inc.Replan.records
    in
    if not (agree stream) then begin
      (* Shrink the witness before failing so the report is minimal. *)
      let shrunk =
        Events.shrink ~init ~still_fails:(fun s -> not (agree s)) stream
      in
      Alcotest.failf
        "seed %d: incremental diverged from full (shrunk to %d of %d events)"
        seed (List.length shrunk) (List.length stream)
    end;
    check int
      (Printf.sprintf "seed %d: same total cost" seed)
      full.Replan.total_cost inc.Replan.total_cost;
    check bool "incremental extended at least one event" true
      (inc.Replan.extensions >= 0)
  done

let test_replan_strategies () =
  let init, stream = Events.generate (Rng.create 7) small_profile in
  let none = Replan.run (seq_config Replan.No_reconfig) ~init stream in
  let full = Replan.run (seq_config Replan.Full) ~init stream in
  let warm = Replan.run (seq_config Replan.Warm_start) ~init stream in
  check bool "never reconfiguring is never cheaper" true
    (none.Replan.total_cost >= full.Replan.total_cost);
  (* The auto chain resolves to an exact backend here, so warm starts
     land on the optimum too. *)
  check int "warm-start matches the exact optimum" full.Replan.total_cost
    warm.Replan.total_cost;
  check int "one record per event plus the initial solve"
    (List.length stream + 1)
    (List.length full.Replan.records);
  check bool "records carry positive horizons" true
    (List.for_all (fun (r : Replan.record) -> r.Replan.n >= 1) full.Replan.records);
  (* The run document round-trips through the JSON printer/parser. *)
  let doc = Replan.to_json (seq_config Replan.Full) full in
  match Telemetry.json_of_string (Telemetry.json_to_string doc) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("run document does not parse: " ^ e)

let test_replan_rejects_invalid_stream () =
  let init, _ = Events.generate (Rng.create 7) small_profile in
  let bad = [ ev 0 (Event.Depart "nope") ] in
  match Replan.run (seq_config Replan.Full) ~init bad with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "invalid stream must be rejected"

let test_experiment_sweep () =
  let sweep =
    Experiment.run ~profile:small_profile ~etas:[ 1.0 ] ~tasks:[ 2 ]
      ~events:[ 3 ] ~seed:5 ()
  in
  check int "one point per strategy" 4 (List.length sweep.Experiment.points);
  let by strategy =
    List.find
      (fun (p : Experiment.point) -> p.Experiment.strategy = strategy)
      sweep.Experiment.points
  in
  check int "incremental total = full total"
    (by Replan.Full).Experiment.total_cost
    (by Replan.Incremental).Experiment.total_cost;
  check bool "no-reconfig is an upper bound" true
    ((by Replan.No_reconfig).Experiment.total_cost
    >= (by Replan.Full).Experiment.total_cost);
  match
    Telemetry.json_of_string
      (Telemetry.json_to_string (Experiment.to_json sweep))
  with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("sweep document does not parse: " ^ e)

let tests =
  [
    Alcotest.test_case "online-dp vs brute" `Quick test_online_dp_vs_brute;
    Alcotest.test_case "online-dp vs mt-dp" `Quick test_online_dp_vs_mt_dp;
    Alcotest.test_case "incremental = full" `Quick test_incremental_equals_full;
    Alcotest.test_case "staged extends" `Quick test_extend_in_stages;
    Alcotest.test_case "extend rejects mismatch" `Quick
      test_extend_rejects_mismatch;
    Alcotest.test_case "unsupported rejected" `Quick test_unsupported_rejected;
    Alcotest.test_case "cutoff safe" `Quick test_cutoff_safe;
    Alcotest.test_case "eager hand trace" `Quick test_eager_hand;
    Alcotest.test_case "lazy-full hand trace" `Quick test_lazy_full_hand;
    Alcotest.test_case "rent-or-buy hand trace" `Quick test_rent_or_buy_hand;
    Alcotest.test_case "rent-or-buy sheds on forced switches" `Quick
      test_rent_or_buy_sheds_on_forced_switches;
    Alcotest.test_case "rent-or-buy bounded vs offline" `Quick
      test_rent_or_buy_bounded_vs_offline;
    Alcotest.test_case "event apply" `Quick test_event_apply;
    Alcotest.test_case "stream validate" `Quick test_stream_validate;
    Alcotest.test_case "generator well-formed" `Quick test_generator_well_formed;
    Alcotest.test_case "generator deterministic" `Quick
      test_generator_deterministic;
    Alcotest.test_case "stream JSON round-trip" `Quick test_stream_json_roundtrip;
    Alcotest.test_case "malformed stream JSON rejected" `Quick
      test_malformed_stream_json_rejected;
    Alcotest.test_case "golden stream pin" `Quick test_golden_stream;
    Alcotest.test_case "warm remap" `Quick test_warm_remap;
    Alcotest.test_case "warm never worse than cold" `Quick test_warm_never_worse;
    Alcotest.test_case "differential corpus: full = incremental" `Quick
      test_differential_corpus;
    Alcotest.test_case "replan strategies" `Quick test_replan_strategies;
    Alcotest.test_case "replan rejects invalid stream" `Quick
      test_replan_rejects_invalid_stream;
    Alcotest.test_case "experiment sweep" `Quick test_experiment_sweep;
  ]

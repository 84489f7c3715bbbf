(* Bounded-budget DP, dynamic task environments, weighted switches,
   Markov workloads, and the pinned headline regression numbers. *)

open Hr_core
module Rng = Hr_util.Rng
module Bitset = Hr_util.Bitset

let check = Alcotest.check
let int = Alcotest.int

(* ---- St_opt.solve_bounded ---- *)

let qcheck_bounded_matches_unbounded_at_n =
  Tutil.prop "solve_bounded(max_blocks=n) = solve"
    (Tutil.gen_st_instance ~max_n:10 ~max_width:5)
    Tutil.show_st_instance
    (fun inst ->
      let trace = Tutil.trace_of_st inst in
      let step_cost = Tutil.union_sizes trace in
      let n = Trace.length trace in
      let free = St_opt.solve ~v:inst.Tutil.v ~n ~step_cost in
      let bounded = St_opt.solve_bounded ~v:inst.Tutil.v ~n ~step_cost ~max_blocks:n in
      free.St_opt.cost = bounded.St_opt.cost)

let qcheck_bounded_monotone_in_budget =
  Tutil.prop "solve_bounded cost is non-increasing in the budget"
    (Tutil.gen_st_instance ~max_n:10 ~max_width:5)
    Tutil.show_st_instance
    (fun inst ->
      let trace = Tutil.trace_of_st inst in
      let step_cost = Tutil.union_sizes trace in
      let n = Trace.length trace in
      let costs =
        List.init n (fun k ->
            (St_opt.solve_bounded ~v:inst.Tutil.v ~n ~step_cost ~max_blocks:(k + 1))
              .St_opt.cost)
      in
      let rec non_increasing = function
        | a :: (b :: _ as rest) -> a >= b && non_increasing rest
        | _ -> true
      in
      non_increasing costs)

let qcheck_bounded_respects_budget =
  Tutil.prop "solve_bounded uses at most max_blocks breaks"
    (QCheck2.Gen.pair (Tutil.gen_st_instance ~max_n:10 ~max_width:5)
       (QCheck2.Gen.int_range 1 5))
    (fun (inst, k) -> Tutil.show_st_instance inst ^ Printf.sprintf " k=%d" k)
    (fun (inst, k) ->
      let trace = Tutil.trace_of_st inst in
      let step_cost = Tutil.union_sizes trace in
      let n = Trace.length trace in
      let r = St_opt.solve_bounded ~v:inst.Tutil.v ~n ~step_cost ~max_blocks:k in
      List.length r.St_opt.breaks <= k
      && St_opt.cost_of_breaks ~v:inst.Tutil.v ~n ~step_cost r.St_opt.breaks
         = r.St_opt.cost)

let test_bounded_one_block () =
  let trace = Tutil.trace_of_st { Tutil.width = 4; v = 1; steps = [ [ 0 ]; [ 1 ]; [ 2 ] ] } in
  let r =
    St_opt.solve_bounded ~v:1 ~n:3 ~step_cost:(Tutil.union_sizes trace)
      ~max_blocks:1
  in
  check int "forced single block" (1 + (3 * 3)) r.St_opt.cost;
  Alcotest.(check (list int)) "breaks" [ 0 ] r.St_opt.breaks

(* ---- Mt_dynamic ---- *)

let space8 = Switch_space.make 8

let mk_epoch specs =
  {
    Mt_dynamic.tasks =
      List.map (fun (name, reqs) -> (name, Trace.of_lists space8 reqs)) specs;
  }

let test_dynamic_basic () =
  let epochs =
    [
      mk_epoch [ ("a", [ [ 0 ]; [ 1 ] ]); ("b", [ [ 4 ]; [ 5 ] ]) ];
      mk_epoch [ ("c", [ [ 2 ]; [ 2 ]; [ 3 ] ]) ];
    ]
  in
  let plan = Mt_dynamic.solve ~w:10 epochs in
  check int "2 epochs" 2 (List.length plan.Mt_dynamic.epoch_costs);
  Alcotest.(check (list int)) "task counts" [ 2; 1 ] plan.Mt_dynamic.epoch_task_counts;
  check int "total = sum + 2w"
    (List.fold_left ( + ) 20 plan.Mt_dynamic.epoch_costs)
    plan.Mt_dynamic.total_cost

let test_dynamic_rejects_overlap () =
  let epochs = [ mk_epoch [ ("a", [ [ 0 ] ]); ("b", [ [ 0 ] ]) ] ] in
  match Mt_dynamic.solve ~w:1 epochs with
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "names the task" true
        (Astring.String.is_infix ~affix:"b" msg)
  | _ -> Alcotest.fail "overlapping ownership accepted"

let test_dynamic_random_workload_runs () =
  let epochs =
    Mt_dynamic.random_epochs (Rng.create 3) ~width:24 ~epochs:4 ~steps_per_epoch:12
      ~max_tasks:3
  in
  let plan = Mt_dynamic.solve ~w:24 epochs in
  Alcotest.(check bool) "positive cost" true (plan.Mt_dynamic.total_cost > 0);
  check int "4 epochs" 4 (List.length plan.Mt_dynamic.epoch_costs)

(* ---- Weighted ---- *)

let test_weighted_unit_weights_match_plain () =
  let ts = Tutil.sample_task_set () in
  let weights =
    Array.map
      (fun t ->
        Array.make (Switch_space.size (Trace.space t.Task_set.trace)) 1)
      (Task_set.tasks ts)
  in
  let weighted = Weighted.oracle ts ~weights in
  let plain = Interval_cost.of_task_set ts in
  for j = 0 to 1 do
    for lo = 0 to 4 do
      for hi = lo to 4 do
        if
          weighted.Interval_cost.step_cost j lo hi
          <> plain.Interval_cost.step_cost j lo hi
        then Alcotest.failf "mismatch at (%d,%d,%d)" j lo hi
      done
    done
  done;
  (* v becomes the weighted total = local size with unit weights. *)
  Alcotest.(check (array int)) "v = l_j" [| 4; 3 |] weighted.Interval_cost.v

let test_weighted_shifts_plans () =
  (* One hot switch makes blocks containing it expensive: the optimal
     plan must isolate its uses. *)
  let space = Switch_space.make 3 in
  let trace = Trace.of_lists space [ [ 0 ]; [ 0 ]; [ 2 ]; [ 0 ]; [ 0 ] ] in
  let weights = [| 1; 1; 50 |] in
  let oracle = Weighted.single ~v:3 trace ~weights in
  let r = St_opt.solve_oracle oracle ~task:0 in
  (* Merging everything would pay 5*51; isolating step 2 pays
     3v + 1+1+50+1+1. *)
  check int "isolates the hot switch" (9 + 54) r.St_opt.cost;
  Alcotest.(check (list int)) "breaks" [ 0; 2; 3 ] r.St_opt.breaks

let test_weighted_rejects_bad_weights () =
  let space = Switch_space.make 2 in
  let trace = Trace.of_lists space [ [ 0 ] ] in
  Alcotest.check_raises "zero weight"
    (Invalid_argument "Weighted: weights must be positive") (fun () ->
      ignore (Weighted.single ~v:1 trace ~weights:[| 1; 0 |]))

let test_block_weight () =
  let space = Switch_space.make 3 in
  let trace = Trace.of_lists space [ [ 0 ]; [ 1 ]; [ 0; 2 ] ] in
  check int "weighted union" (1 + 10 + 100)
    (Weighted.block_weight trace ~weights:[| 1; 10; 100 |] 0 2)

(* ---- Markov ---- *)

let test_markov_chain_valid () =
  let chain =
    Hr_workload.Markov.make_chain (Rng.create 1) ~space:space8 ~states:4 ~self:0.9
  in
  Alcotest.(check bool) "valid" true (Hr_workload.Markov.validate chain = Ok ())

let test_markov_generate_shape () =
  let rng = Rng.create 2 in
  let chain = Hr_workload.Markov.make_chain rng ~space:space8 ~states:3 ~self:0.85 in
  let trace = Hr_workload.Markov.generate rng chain ~space:space8 ~n:50 in
  check int "length" 50 (Trace.length trace)

let test_markov_sticky_dwell_longer () =
  let rng1 = Rng.create 3 and rng2 = Rng.create 3 in
  let sticky = Hr_workload.Markov.make_chain rng1 ~space:space8 ~states:4 ~self:0.95 in
  let jumpy = Hr_workload.Markov.make_chain rng2 ~space:space8 ~states:4 ~self:0.25 in
  let mean xs =
    float_of_int (List.fold_left ( + ) 0 xs) /. float_of_int (List.length xs)
  in
  let d1 = mean (Hr_workload.Markov.dwell_times (Rng.create 4) sticky ~n:400) in
  let d2 = mean (Hr_workload.Markov.dwell_times (Rng.create 4) jumpy ~n:400) in
  Alcotest.(check bool) "sticky dwells longer" true (d1 > d2 *. 2.)

let test_markov_invalid_matrix_rejected () =
  let chain =
    {
      Hr_workload.Markov.states =
        [| { Hr_workload.Markov.active = Bitset.of_list 8 [ 0 ]; density = 0.5 } |];
      transition = [| [| 0.5 |] |];
    }
  in
  Alcotest.(check bool) "rejected" true
    (Result.is_error (Hr_workload.Markov.validate chain))

(* ---- pinned headline regression numbers ---- *)

let test_headline_numbers_pinned () =
  (* The deterministic T1 values for the field-diff counter trace; any
     change to the simulator, tracer or planners that shifts these must
     be a conscious decision. *)
  let run = Hr_shyra.Counter.build ~init:0 ~bound:10 () in
  let trace = Hr_shyra.Tracer.trace run.Hr_shyra.Counter.program in
  let n = Trace.length trace in
  check int "n" 84 n;
  check int "disabled" 4032 (Sync_cost.disabled_cost ~n ~machine_width:48 ());
  let single =
    St_opt.solve_oracle (Hr_shyra.Tasks.oracle trace Hr_shyra.Tasks.single_task) ~task:0
  in
  check int "single optimal" 3360 single.St_opt.cost;
  let oracle = Hr_shyra.Tasks.oracle trace Hr_shyra.Tasks.four_tasks in
  let lower_bound =
    List.fold_left max 0
      (List.init 4 (fun j -> (St_opt.solve_oracle oracle ~task:j).St_opt.cost))
  in
  check int "multi lower bound" 1364 lower_bound;
  let ga = Mt_ga.solve ~rng:(Rng.create 2004) oracle in
  check int "GA reaches the lower bound" 1364 ga.Mt_ga.cost

let tests =
  [
    qcheck_bounded_matches_unbounded_at_n;
    qcheck_bounded_monotone_in_budget;
    qcheck_bounded_respects_budget;
    Alcotest.test_case "bounded one block" `Quick test_bounded_one_block;
    Alcotest.test_case "dynamic basic" `Quick test_dynamic_basic;
    Alcotest.test_case "dynamic overlap" `Quick test_dynamic_rejects_overlap;
    Alcotest.test_case "dynamic random" `Quick test_dynamic_random_workload_runs;
    Alcotest.test_case "weighted unit = plain" `Quick test_weighted_unit_weights_match_plain;
    Alcotest.test_case "weighted shifts plans" `Quick test_weighted_shifts_plans;
    Alcotest.test_case "weighted validation" `Quick test_weighted_rejects_bad_weights;
    Alcotest.test_case "block weight" `Quick test_block_weight;
    Alcotest.test_case "markov valid" `Quick test_markov_chain_valid;
    Alcotest.test_case "markov shape" `Quick test_markov_generate_shape;
    Alcotest.test_case "markov dwell" `Quick test_markov_sticky_dwell_longer;
    Alcotest.test_case "markov invalid matrix" `Quick test_markov_invalid_matrix_rejected;
    Alcotest.test_case "headline numbers pinned" `Quick test_headline_numbers_pinned;
  ]

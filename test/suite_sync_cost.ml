(* Sync_cost formulas, Plan consistency, Cost_eval transcriptions. *)

open Hr_core

let check = Alcotest.check
let int = Alcotest.int

(* Hand-computed example: 2 tasks, 3 steps.
   Task A (v=3): reqs {0},{0,1},{2} over 4 switches.
   Task B (v=2): reqs {1},{1},{0} over 3 switches.
   Plan: A breaks at 0 and 2; B breaks at 0.
   Blocks: A [0,1] union {0,1} cost 2, [2,2] union {2} cost 1.
           B [0,2] union {0,1}  cost 2.
   Steps (task-parallel):
     i=0: hyper max(3,2)=3, reconf max(2,2)=2 -> 5
     i=1: hyper 0, reconf max(2,2)=2 -> 2
     i=2: hyper 3, reconf max(1,2)=2 -> 5
   total = 12. *)
let example () =
  let sa = Switch_space.make 4 and sb = Switch_space.make 3 in
  let ts =
    Task_set.make
      [|
        Task_set.task ~name:"A" ~v:3 (Trace.of_lists sa [ [ 0 ]; [ 0; 1 ]; [ 2 ] ]);
        Task_set.task ~name:"B" ~v:2 (Trace.of_lists sb [ [ 1 ]; [ 1 ]; [ 0 ] ]);
      |]
  in
  let bp = Breakpoints.of_rows ~m:2 ~n:3 [| [ 2 ]; [] |] in
  (ts, bp)

let test_hand_computed_parallel () =
  let ts, bp = example () in
  let oracle = Interval_cost.of_task_set ts in
  check int "total" 12 (Sync_cost.eval oracle bp);
  let steps = Sync_cost.eval_per_step oracle bp in
  Alcotest.(check (array (pair int int)))
    "per step"
    [| (3, 2); (0, 2); (3, 2) |]
    steps

let test_hand_computed_sequential_hyper () =
  let ts, bp = example () in
  let oracle = Interval_cost.of_task_set ts in
  (* Sequential hyper upload: i=0 pays 3+2=5 instead of 3. *)
  let params =
    { Sync_cost.default_params with Sync_cost.hyper = Sync_cost.Task_sequential }
  in
  check int "total" 14 (Sync_cost.eval ~params oracle bp)

let test_hand_computed_sequential_reconf () =
  let ts, bp = example () in
  let oracle = Interval_cost.of_task_set ts in
  (* Sequential reconf upload: reconf terms become sums: 4,4,3. *)
  let params =
    { Sync_cost.default_params with Sync_cost.reconf = Sync_cost.Task_sequential }
  in
  check int "total" (3 + 4 + 0 + 4 + 3 + 3) (Sync_cost.eval ~params oracle bp)

let test_pub_floor () =
  let ts, bp = example () in
  let oracle = Interval_cost.of_task_set ts in
  (* Public-global cost 10 dominates every reconf max. *)
  let params = { Sync_cost.default_params with Sync_cost.pub = 10 } in
  check int "total" (3 + 10 + 0 + 10 + 3 + 10) (Sync_cost.eval ~params oracle bp)

let test_w_added_once () =
  let ts, bp = example () in
  let oracle = Interval_cost.of_task_set ts in
  let params = { Sync_cost.default_params with Sync_cost.w = 7 } in
  check int "total" 19 (Sync_cost.eval ~params oracle bp)

let test_disabled_baseline () =
  check int "48 * 110" 5280 (Sync_cost.disabled_cost ~n:110 ~machine_width:48 ())

let qcheck_plan_cost_matches_oracle =
  Tutil.prop "Plan.cost_sync = Sync_cost.eval on union plans"
    (QCheck2.Gen.pair
       (Tutil.gen_mt_instance ~max_m:3 ~max_n:6 ~max_width:4)
       (QCheck2.Gen.int_bound 1000))
    (fun (inst, seed) -> Tutil.show_mt_instance inst ^ Printf.sprintf " seed=%d" seed)
    (fun (inst, seed) ->
      let ts = Tutil.task_set_of_instance inst in
      let oracle = Interval_cost.of_task_set ts in
      let rng = Hr_util.Rng.create seed in
      let bp =
        Breakpoints.of_matrix
          (Mt_moves.random rng ~m:inst.Tutil.m ~n:inst.Tutil.n ~density:0.4)
      in
      let v = Array.map (fun t -> t.Task_set.v) (Task_set.tasks ts) in
      let plan = Plan.of_breakpoints ts bp in
      Plan.cost_sync plan ~v = Sync_cost.eval oracle bp)

let qcheck_union_plans_valid =
  Tutil.prop "union plans always validate"
    (QCheck2.Gen.pair
       (Tutil.gen_mt_instance ~max_m:3 ~max_n:6 ~max_width:4)
       (QCheck2.Gen.int_bound 1000))
    (fun (inst, seed) -> Tutil.show_mt_instance inst ^ Printf.sprintf " seed=%d" seed)
    (fun (inst, seed) ->
      let ts = Tutil.task_set_of_instance inst in
      let rng = Hr_util.Rng.create seed in
      let bp =
        Breakpoints.of_matrix
          (Mt_moves.random rng ~m:inst.Tutil.m ~n:inst.Tutil.n ~density:0.3)
      in
      Plan.validate (Plan.of_breakpoints ts bp) ts = Ok ())

let qcheck_m1_reduces_to_single_task =
  (* With one task, the sync multi-task cost equals the single-task
     objective of St_opt on the same breakpoints. *)
  Tutil.prop "m=1 multi-task cost = single-task cost"
    (QCheck2.Gen.pair (Tutil.gen_st_instance ~max_n:10 ~max_width:5)
       (QCheck2.Gen.int_bound 1000))
    (fun (inst, seed) -> Tutil.show_st_instance inst ^ Printf.sprintf " seed=%d" seed)
    (fun (inst, seed) ->
      let trace = Tutil.trace_of_st inst in
      let n = Trace.length trace in
      let oracle = Interval_cost.of_single ~v:inst.Tutil.v trace in
      let rng = Hr_util.Rng.create seed in
      let bp = Breakpoints.of_matrix (Mt_moves.random rng ~m:1 ~n ~density:0.4) in
      let breaks =
        List.filter (fun i -> Breakpoints.is_break bp 0 i) (List.init n Fun.id)
      in
      let st =
        St_opt.cost_of_breaks ~v:inst.Tutil.v ~n ~step_cost:(Tutil.union_sizes trace)
          breaks
      in
      Sync_cost.eval oracle bp = st)

(* ---- The kernel against its definition ---- *)

(* A random instance drawn from [seed]: per task a width of 1..6
   switches, a [v] in 0..9 and one requirement per step.  The dense
   oracle is the dense rung; the direct one counts each block's union
   straight from the requirement lists on every query. *)
let kernel_case (m, n, seed) =
  let rng = Hr_util.Rng.create seed in
  let widths = Array.init m (fun _ -> Hr_util.Rng.int_in rng 1 6) in
  let reqs =
    Array.map
      (fun width ->
        Array.init n (fun _ ->
            List.filter (fun _ -> Hr_util.Rng.chance rng 0.3) (List.init width Fun.id)))
      widths
  in
  let v = Array.init m (fun _ -> Hr_util.Rng.int rng 10) in
  let ts =
    Task_set.make
      (Array.init m (fun j ->
           Task_set.task ~name:(Printf.sprintf "T%d" j) ~v:v.(j)
             (Trace.of_lists (Switch_space.make widths.(j)) (Array.to_list reqs.(j)))))
  in
  let dense = Interval_cost.of_task_set ~policy:Interval_cost.Dense ts in
  let direct =
    Interval_cost.make ~m ~n ~v ~step_cost:(fun j lo hi ->
        let seen = Array.make widths.(j) false in
        for i = lo to hi do
          List.iter (fun x -> seen.(x) <- true) reqs.(j).(i)
        done;
        Array.fold_left (fun c b -> if b then c + 1 else c) 0 seen)
  in
  let g = Mt_moves.random rng ~m ~n ~density:(Hr_util.Rng.float rng) in
  let w = Hr_util.Rng.int_in rng 1 50 and pub = Hr_util.Rng.int_in rng 1 8 in
  (dense, direct, g, w, pub)

let uploads = [ Sync_cost.Task_parallel; Sync_cost.Task_sequential ]

let qcheck_kernel_matches_definition =
  Tutil.prop "eval = w + sum of eval_per_step, eval_matrix = eval"
    QCheck2.Gen.(triple (int_range 1 4) (int_range 1 40) (int_bound 1_000_000))
    (fun (m, n, seed) -> Printf.sprintf "m=%d n=%d seed=%d" m n seed)
    (fun case ->
      let dense, direct, g, w, pub = kernel_case case in
      let bp = Breakpoints.of_matrix g in
      List.for_all
        (fun hyper ->
          List.for_all
            (fun reconf ->
              let params = { Sync_cost.w; pub; hyper; reconf } in
              let priced oracle =
                let reference =
                  Array.fold_left
                    (fun acc (h, r) -> acc + h + r)
                    w
                    (Sync_cost.eval_per_step ~params oracle bp)
                in
                let e = Sync_cost.eval ~params oracle bp in
                if e <> reference then
                  QCheck2.Test.fail_reportf "eval %d but the per-step sum is %d" e reference;
                let em = Sync_cost.eval_matrix ~params oracle g in
                if em <> e then
                  QCheck2.Test.fail_reportf "eval_matrix %d but eval %d" em e;
                e
              in
              priced dense = priced direct)
            uploads)
        uploads
      (* The kernel only reads the matrix. *)
      && g = Breakpoints.matrix bp)

let test_eval_matrix_rejects_malformed () =
  let ts, bp = example () in
  let oracle = Interval_cost.of_task_set ts in
  let g = Breakpoints.matrix bp in
  let rejects what g =
    match Sync_cost.eval_matrix oracle g with
    | exception Invalid_argument _ -> ()
    | c -> Alcotest.failf "%s: priced at %d instead of raising" what c
  in
  rejects "no rows" [||];
  rejects "one row too few" [| g.(0) |];
  rejects "one row too many" [| g.(0); g.(1); g.(1) |];
  rejects "row too short" [| g.(0); Array.sub g.(1) 0 2 |];
  rejects "row too long" [| g.(0); Array.append g.(1) [| false |] |];
  rejects "step-0 bit unset" [| g.(0); [| false; false; false |] |];
  check int "a well-formed matrix prices like its plan" (Sync_cost.eval oracle bp)
    (Sync_cost.eval_matrix oracle g)

let test_cost_eval_async () =
  (* Two tasks: T1 does (v=2) blocks (3 cost, 2 steps)+(1,1): 2+6+2+1 = 11.
     T2 (v=5): one block (2,4): 5+8 = 13.  Max = 13, +init 4 = 17. *)
  let runs =
    [|
      { Cost_eval.v = 2; blocks = [ (3, 2); (1, 1) ] };
      { Cost_eval.v = 5; blocks = [ (2, 4) ] };
    |]
  in
  check int "task 1 time" 11 (Cost_eval.async_task_time runs.(0));
  check int "task 2 time" 13 (Cost_eval.async_task_time runs.(1));
  check int "total" 17 (Cost_eval.async_total ~init_global:4 runs)

let test_cost_eval_special_cases () =
  check int "w = |X|+|Xpriv|" 60 (Cost_eval.mt_switch_special_init ~x_loc:48 ~x_priv:12);
  check int "v = |h|+|floc|" 13 (Cost_eval.mt_switch_special_v ~assigned_priv:5 ~f_loc:8)

let test_cost_eval_sequence () =
  let ops = [ ("a", 3); ("b", 2) ] in
  let init = function "a" -> 10 | _ -> 20 in
  let cost = function "a" -> 1 | _ -> 2 in
  check int "sequence" (10 + 3 + 20 + 4)
    (Cost_eval.sequence_cost ~init ~cost ops)

let tests =
  [
    Alcotest.test_case "hand computed parallel" `Quick test_hand_computed_parallel;
    Alcotest.test_case "sequential hyper" `Quick test_hand_computed_sequential_hyper;
    Alcotest.test_case "sequential reconf" `Quick test_hand_computed_sequential_reconf;
    Alcotest.test_case "public floor" `Quick test_pub_floor;
    Alcotest.test_case "w added once" `Quick test_w_added_once;
    Alcotest.test_case "disabled baseline" `Quick test_disabled_baseline;
    Alcotest.test_case "async general model" `Quick test_cost_eval_async;
    Alcotest.test_case "special-case costs" `Quick test_cost_eval_special_cases;
    Alcotest.test_case "sequence cost" `Quick test_cost_eval_sequence;
    qcheck_plan_cost_matches_oracle;
    qcheck_union_plans_valid;
    qcheck_m1_reduces_to_single_task;
    qcheck_kernel_matches_definition;
    Alcotest.test_case "eval_matrix rejects malformed matrices" `Quick
      test_eval_matrix_rejects_malformed;
  ]

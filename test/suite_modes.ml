(* Mixed_sync modes, Online policies, Descriptor encodings, Timeline,
   the GA on pool domains. *)

open Hr_core
module Bitset = Hr_util.Bitset
module Rng = Hr_util.Rng

let check = Alcotest.check
let int = Alcotest.int

(* ---- Mixed_sync ---- *)

let random_plan inst seed =
  let rng = Rng.create seed in
  Breakpoints.of_matrix (Mt_moves.random rng ~m:inst.Tutil.m ~n:inst.Tutil.n ~density:0.3)

let qcheck_mixed_extremes_match =
  Tutil.prop "Mixed_sync: Full = Sync_cost, None = Mt_async"
    (QCheck2.Gen.pair
       (Tutil.gen_mt_instance ~max_m:3 ~max_n:8 ~max_width:4)
       (QCheck2.Gen.int_bound 1000))
    (fun (inst, seed) -> Tutil.show_mt_instance inst ^ Printf.sprintf " seed=%d" seed)
    (fun (inst, seed) ->
      let oracle = Tutil.oracle_of_instance inst in
      let bp = random_plan inst seed in
      Mixed_sync.eval ~mode:Mixed_sync.Fully_synchronized oracle bp
      = Sync_cost.eval oracle bp
      && Mixed_sync.eval ~mode:Mixed_sync.Non_synchronized oracle bp
         = Mt_async.eval oracle bp)

let qcheck_mixed_mode_ordering =
  Tutil.prop "Mixed_sync: none <= intermediates <= full"
    (QCheck2.Gen.pair
       (Tutil.gen_mt_instance ~max_m:3 ~max_n:8 ~max_width:4)
       (QCheck2.Gen.int_bound 1000))
    (fun (inst, seed) -> Tutil.show_mt_instance inst ^ Printf.sprintf " seed=%d" seed)
    (fun (inst, seed) ->
      let oracle = Tutil.oracle_of_instance inst in
      let bp = random_plan inst seed in
      let cost mode = Mixed_sync.eval ~mode oracle bp in
      let none = cost Mixed_sync.Non_synchronized in
      let hc = cost Mixed_sync.Hypercontext_synchronized in
      let ctx = cost Mixed_sync.Context_synchronized in
      let full = cost Mixed_sync.Fully_synchronized in
      none <= hc && none <= ctx && hc <= full && ctx <= full)

let qcheck_mixed_m1_all_agree =
  Tutil.prop "Mixed_sync: all modes agree for m = 1"
    (QCheck2.Gen.pair (Tutil.gen_st_instance ~max_n:10 ~max_width:5)
       (QCheck2.Gen.int_bound 1000))
    (fun (inst, seed) -> Tutil.show_st_instance inst ^ Printf.sprintf " seed=%d" seed)
    (fun (inst, seed) ->
      let trace = Tutil.trace_of_st inst in
      let oracle = Interval_cost.of_single ~v:inst.Tutil.v trace in
      let rng = Rng.create seed in
      let bp =
        Breakpoints.of_matrix
          (Mt_moves.random rng ~m:1 ~n:(Trace.length trace) ~density:0.4)
      in
      let costs =
        List.map
          (fun mode -> Mixed_sync.eval ~mode oracle bp)
          [
            Mixed_sync.Fully_synchronized;
            Mixed_sync.Hypercontext_synchronized;
            Mixed_sync.Context_synchronized;
            Mixed_sync.Non_synchronized;
          ]
      in
      List.for_all (( = ) (List.hd costs)) costs)

let test_mixed_pub_rules () =
  let ts = Tutil.sample_task_set () in
  let oracle = Interval_cost.of_task_set ts in
  let bp = Breakpoints.create ~m:2 ~n:5 in
  (* pub allowed on context-synchronized machines... *)
  ignore (Mixed_sync.eval ~mode:Mixed_sync.Context_synchronized ~pub:3 oracle bp);
  (* ...but not on hypercontext-only or non-synchronized ones. *)
  List.iter
    (fun mode ->
      match Mixed_sync.eval ~mode ~pub:3 oracle bp with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "pub accepted without context synchronization")
    [ Mixed_sync.Hypercontext_synchronized; Mixed_sync.Non_synchronized ]

(* ---- Online ---- *)

let qcheck_online_policies_valid_and_bounded =
  Tutil.prop "online policies are valid and >= offline optimum"
    (Tutil.gen_st_instance ~max_n:15 ~max_width:6)
    Tutil.show_st_instance
    (fun inst ->
      let trace = Tutil.trace_of_st inst in
      let v = inst.Tutil.v in
      let offline, _ = St_opt.solve_trace ~v trace in
      List.for_all
        (fun policy ->
          let cost, switches = Online.run policy ~v trace in
          cost >= offline.St_opt.cost && switches >= 1)
        (Online.all ~v ~universe:inst.Tutil.width))

let test_eager_cost_formula () =
  let space = Switch_space.make 6 in
  let trace = Trace.of_lists space [ [ 0; 1 ]; [ 2 ]; [ 3; 4; 5 ] ] in
  let cost, switches = Online.run Online.eager ~v:10 trace in
  check int "switches" 3 switches;
  check int "cost" ((10 + 2) + (10 + 1) + (10 + 3)) cost

let test_lazy_full_cost_formula () =
  let space = Switch_space.make 6 in
  let trace = Trace.of_lists space [ [ 0 ]; [ 1 ]; [ 2 ] ] in
  let cost, switches = Online.run (Online.lazy_full ~universe:6) ~v:10 trace in
  check int "one switch" 1 switches;
  check int "cost" (10 + (6 * 3)) cost

let test_rent_or_buy_adapts () =
  (* Long quiet tail after a big first requirement: rent-or-buy must
     eventually shrink, eager pays v every step, lazy keeps paying 6. *)
  let space = Switch_space.make 6 in
  let reqs = [ 0; 1; 2; 3; 4; 5 ] :: List.init 40 (fun _ -> [ 0 ]) in
  let trace = Trace.of_lists space reqs in
  let v = 6 in
  let rb, _ = Online.run (Online.rent_or_buy ~v) ~v trace in
  let lazy_cost, _ = Online.run (Online.lazy_full ~universe:6) ~v trace in
  Alcotest.(check bool) "rent-or-buy beats lazy here" true (rb < lazy_cost)

let test_competitive_ratio_sane () =
  let trace =
    Hr_workload.Synthetic.phased (Rng.create 3)
      (Switch_space.make 12)
      [
        { Hr_workload.Synthetic.len = 20; active = Bitset.of_list 12 [ 0; 1; 2 ]; density = 0.7 };
        { Hr_workload.Synthetic.len = 20; active = Bitset.of_list 12 [ 9; 10; 11 ]; density = 0.7 };
      ]
  in
  List.iter
    (fun policy ->
      let r = Online.competitive_ratio policy ~v:6 trace in
      if r < 1.0 -. 1e-9 then
        Alcotest.failf "policy %s beat the offline optimum (%f)" policy.Online.name r)
    (Online.all ~v:6 ~universe:12)

(* ---- Descriptor ---- *)

let test_descriptor_sizes () =
  let h = Bitset.of_list 48 [ 0; 1; 2 ] in
  check int "bitmap" 48 (Descriptor.size Descriptor.Bitmap h);
  (* addr bits for width 48 = 6; (3+1)*6 = 24 *)
  check int "sparse" 24 (Descriptor.size Descriptor.Sparse h);
  (* runs: [0,2] set then clear -> 2 runs; 2*(6+1) = 14 *)
  check int "rle" 14 (Descriptor.size Descriptor.Run_length h)

let test_descriptor_best () =
  let clustered = Bitset.of_list 48 (List.init 20 Fun.id) in
  let enc, _ = Descriptor.best clustered in
  check Alcotest.string "clustered -> rle" "run-length" (Descriptor.name enc);
  let tiny = Bitset.of_list 48 [ 7 ] in
  let enc, _ = Descriptor.best tiny in
  check Alcotest.string "tiny -> sparse" "sparse" (Descriptor.name enc)

let test_rle_not_monotone () =
  (* Adding a switch can merge two runs and shrink the descriptor. *)
  let gap = Bitset.of_list 8 [ 0; 1; 3; 4 ] in
  let filled = Bitset.add gap 2 in
  Alcotest.(check bool) "rle shrinks on superset" true
    (Descriptor.size Descriptor.Run_length filled
    < Descriptor.size Descriptor.Run_length gap);
  Alcotest.(check bool) "flagged non-monotone" false
    (Descriptor.monotone Descriptor.Run_length)

let qcheck_descriptor_plan_costs_sane =
  Tutil.prop "descriptor plan costs are valid totals"
    (Tutil.gen_st_instance ~max_n:10 ~max_width:6)
    Tutil.show_st_instance
    (fun inst ->
      let trace = Tutil.trace_of_st inst in
      List.for_all
        (fun enc ->
          let c = Descriptor.plan_cost enc trace in
          (* At least the per-step requirement sizes must be paid. *)
          let floor_cost =
            Array.fold_left ( + ) 0 (Trace.sizes trace)
          in
          c >= floor_cost)
        [ Descriptor.Bitmap; Descriptor.Sparse; Descriptor.Run_length ])

let test_bitmap_plan_equals_constant_w () =
  let trace = Tutil.trace_of_st { Tutil.width = 5; v = 0; steps = [ [ 0 ]; [ 1 ]; [ 2 ] ] } in
  let via_descriptor = Descriptor.plan_cost Descriptor.Bitmap trace in
  let direct, _ = St_opt.solve_trace ~v:5 trace in
  check int "bitmap = w=|X|" direct.St_opt.cost via_descriptor

(* ---- Timeline ---- *)

let test_timeline_consistency () =
  let ts = Tutil.sample_task_set () in
  let oracle = Interval_cost.of_task_set ts in
  let bp = Breakpoints.of_rows ~m:2 ~n:5 [| [ 2 ]; [ 3 ] |] in
  let tl = Hr_viz.Timeline.make oracle bp in
  check int "machine time = sync eval" (Sync_cost.eval oracle bp)
    (Hr_viz.Timeline.machine_time tl);
  let u = Hr_viz.Timeline.utilization tl in
  Array.iter
    (fun x -> if x < 0. || x > 1.0 +. 1e-9 then Alcotest.failf "utilization %f" x)
    u;
  let busy = Hr_viz.Timeline.busy tl in
  Alcotest.(check bool) "bottleneck is busiest" true
    (busy.(Hr_viz.Timeline.bottleneck tl) = Array.fold_left max 0 busy)

let test_timeline_render_smoke () =
  let ts = Tutil.sample_task_set () in
  let oracle = Interval_cost.of_task_set ts in
  let bp = Breakpoints.create ~m:2 ~n:5 in
  let s = Hr_viz.Timeline.render ~names:[| "A"; "B" |] (Hr_viz.Timeline.make oracle bp) in
  Alcotest.(check bool) "mentions utilization" true
    (Astring.String.is_infix ~affix:"utilization" s)

(* ---- GA on pool domains ---- *)

(* A race runs each contestant on its own pool domain.  The GA draws
   only from its own RNG, so runs on concurrent domains equal the
   sequential ones. *)
let test_parallel_ga_deterministic () =
  let oracle = Interval_cost.of_task_set (Tutil.sample_task_set ()) in
  let config =
    { Hr_evolve.Ga.default_config with Hr_evolve.Ga.generations = 25; population = 12 }
  in
  let run seed = Mt_ga.solve ~config ~rng:(Rng.create seed) oracle in
  let seeds = Array.init 4 (fun k -> 8 + k) in
  let sequential = Array.map run seeds in
  let pooled = Hr_util.Pool.map ~chunks:4 (Hr_util.Pool.default ()) run seeds in
  Array.iteri
    (fun k a ->
      let b = pooled.(k) in
      check int "same cost" a.Mt_ga.cost b.Mt_ga.cost;
      Alcotest.(check bool) "same plan" true (Breakpoints.equal a.Mt_ga.bp b.Mt_ga.bp))
    sequential

let tests =
  [
    qcheck_mixed_extremes_match;
    qcheck_mixed_mode_ordering;
    qcheck_mixed_m1_all_agree;
    Alcotest.test_case "mixed pub rules" `Quick test_mixed_pub_rules;
    qcheck_online_policies_valid_and_bounded;
    Alcotest.test_case "eager formula" `Quick test_eager_cost_formula;
    Alcotest.test_case "lazy-full formula" `Quick test_lazy_full_cost_formula;
    Alcotest.test_case "rent-or-buy adapts" `Quick test_rent_or_buy_adapts;
    Alcotest.test_case "competitive ratio sane" `Quick test_competitive_ratio_sane;
    Alcotest.test_case "descriptor sizes" `Quick test_descriptor_sizes;
    Alcotest.test_case "descriptor best" `Quick test_descriptor_best;
    Alcotest.test_case "rle non-monotone" `Quick test_rle_not_monotone;
    qcheck_descriptor_plan_costs_sane;
    Alcotest.test_case "bitmap = constant w" `Quick test_bitmap_plan_equals_constant_w;
    Alcotest.test_case "timeline consistency" `Quick test_timeline_consistency;
    Alcotest.test_case "timeline render" `Quick test_timeline_render_smoke;
    Alcotest.test_case "parallel ga deterministic" `Quick test_parallel_ga_deterministic;
  ]

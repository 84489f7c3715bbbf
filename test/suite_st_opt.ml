(* Single-task optimal DP: unit cases plus QCheck optimality against
   brute-force enumeration. *)

open Hr_core
module Bitset = Hr_util.Bitset

let check = Alcotest.check
let int = Alcotest.int

let space4 = Switch_space.make 4

let test_single_block_when_v_huge () =
  (* An enormous hyperreconfiguration cost forces one block. *)
  let trace = Trace.of_lists space4 [ [ 0 ]; [ 1 ]; [ 2 ] ] in
  let r, hcs = St_opt.solve_trace ~v:1000 trace in
  Alcotest.(check (list int)) "one break" [ 0 ] r.St_opt.breaks;
  check int "cost" (1000 + (3 * 3)) r.St_opt.cost;
  check int "one hypercontext" 1 (List.length hcs);
  check int "hc is union" 3 (Bitset.cardinal (List.hd hcs))

let test_break_every_step_when_v_zero () =
  (* Free hyperreconfiguration: every step gets its minimal hc. *)
  let trace = Trace.of_lists space4 [ [ 0; 1 ]; [ 2 ]; [ 3 ] ] in
  let r, _ = St_opt.solve_trace ~v:0 trace in
  check int "cost = sum of req sizes" (2 + 1 + 1) r.St_opt.cost;
  Alcotest.(check (list int)) "breaks everywhere" [ 0; 1; 2 ] r.St_opt.breaks

let test_phase_structure_detected () =
  (* Two clean phases: switches {0,1} then {2,3}.  With v=2 the DP must
     split exactly at the phase boundary. *)
  let trace =
    Trace.of_lists space4 [ [ 0 ]; [ 1 ]; [ 0; 1 ]; [ 2 ]; [ 3 ]; [ 2; 3 ] ]
  in
  let r, hcs = St_opt.solve_trace ~v:2 trace in
  Alcotest.(check (list int)) "phase split" [ 0; 3 ] r.St_opt.breaks;
  check int "cost" (2 + (2 * 3) + 2 + (2 * 3)) r.St_opt.cost;
  Alcotest.(check (list int)) "hc1" [ 0; 1 ] (Bitset.to_list (List.nth hcs 0));
  Alcotest.(check (list int)) "hc2" [ 2; 3 ] (Bitset.to_list (List.nth hcs 1))

let test_default_v_is_universe_size () =
  let trace = Trace.of_lists space4 [ [ 0 ] ] in
  let r, _ = St_opt.solve_trace trace in
  check int "v=4 plus |{0}|" 5 r.St_opt.cost

let test_cost_of_breaks_matches_dp () =
  let trace =
    Trace.of_lists space4 [ [ 0 ]; [ 1 ]; [ 0; 1 ]; [ 2 ]; [ 3 ]; [ 2; 3 ] ]
  in
  let step_cost = Tutil.union_sizes trace in
  let r = St_opt.solve ~v:2 ~n:6 ~step_cost in
  check int "re-evaluated"
    (St_opt.cost_of_breaks ~v:2 ~n:6 ~step_cost r.St_opt.breaks)
    r.St_opt.cost

let test_cost_of_breaks_validation () =
  let step_cost _ _ = 1 in
  Alcotest.check_raises "must start at 0"
    (Invalid_argument "St_opt: first breakpoint must be step 0") (fun () ->
      ignore (St_opt.cost_of_breaks ~v:1 ~n:3 ~step_cost [ 1 ]));
  Alcotest.check_raises "ascending"
    (Invalid_argument "St_opt: breakpoints not strictly ascending/in range")
    (fun () -> ignore (St_opt.cost_of_breaks ~v:1 ~n:3 ~step_cost [ 0; 2; 2 ]))

let qcheck_dp_optimal =
  Tutil.prop "St_opt matches brute force"
    (Tutil.gen_st_instance ~max_n:9 ~max_width:5)
    Tutil.show_st_instance
    (fun inst ->
      let trace = Tutil.trace_of_st inst in
      let step_cost = Tutil.union_sizes trace in
      let n = Trace.length trace in
      let dp = St_opt.solve ~v:inst.Tutil.v ~n ~step_cost in
      let brute = Brute.single ~v:inst.Tutil.v ~n ~step_cost in
      dp.St_opt.cost = brute.St_opt.cost)

let qcheck_plan_valid =
  Tutil.prop "St_opt plan satisfies every requirement"
    (Tutil.gen_st_instance ~max_n:12 ~max_width:6)
    Tutil.show_st_instance
    (fun inst ->
      let trace = Tutil.trace_of_st inst in
      let r, hcs = St_opt.solve_trace ~v:inst.Tutil.v trace in
      let bp =
        Breakpoints.of_rows ~m:1 ~n:(Trace.length trace) [| r.St_opt.breaks |]
      in
      let plan =
        Plan.make
          [|
            List.map2
              (fun (lo, hi) hc -> { Plan.lo; hi; hc })
              (Breakpoints.intervals bp 0) hcs;
          |]
      in
      match Plan.validate plan (Task_set.single ~name:"t" ~v:inst.Tutil.v trace) with
      | Ok () -> true
      | Error _ -> false)

let qcheck_dp_no_worse_than_heuristics =
  Tutil.prop "St_opt <= never/every-step"
    (Tutil.gen_st_instance ~max_n:15 ~max_width:6)
    Tutil.show_st_instance
    (fun inst ->
      let trace = Tutil.trace_of_st inst in
      let step_cost = Tutil.union_sizes trace in
      let n = Trace.length trace in
      let dp = St_opt.solve ~v:inst.Tutil.v ~n ~step_cost in
      let never = St_opt.cost_of_breaks ~v:inst.Tutil.v ~n ~step_cost [ 0 ] in
      let every =
        St_opt.cost_of_breaks ~v:inst.Tutil.v ~n ~step_cost (List.init n Fun.id)
      in
      dp.St_opt.cost <= never && dp.St_opt.cost <= every)

let qcheck_bounded_matches_brute =
  Tutil.prop "solve_bounded matches bounded brute force"
    (Tutil.gen_st_instance ~max_n:9 ~max_width:5)
    Tutil.show_st_instance
    (fun inst ->
      let trace = Tutil.trace_of_st inst in
      let step_cost = Tutil.union_sizes trace in
      let n = Trace.length trace in
      let v = inst.Tutil.v in
      List.for_all
        (fun max_blocks ->
          let r = St_opt.solve_bounded ~v ~n ~step_cost ~max_blocks in
          (* Enumerate every plan with at most [max_blocks] blocks: step
             0 always breaks; each later step may or may not. *)
          let best = ref max_int in
          let rec go i breaks count =
            if count <= max_blocks then
              if i = n then begin
                let cost = St_opt.cost_of_breaks ~v ~n ~step_cost (List.rev breaks) in
                if cost < !best then best := cost
              end
              else begin
                go (i + 1) (i :: breaks) (count + 1);
                go (i + 1) breaks count
              end
          in
          go 1 [ 0 ] 1;
          List.length r.St_opt.breaks <= max_blocks
          && St_opt.cost_of_breaks ~v ~n ~step_cost r.St_opt.breaks = r.St_opt.cost
          && r.St_opt.cost = !best)
        [ 1; 2; 3; n ])

let tests =
  [
    Alcotest.test_case "one block when v huge" `Quick test_single_block_when_v_huge;
    Alcotest.test_case "every step when v zero" `Quick test_break_every_step_when_v_zero;
    Alcotest.test_case "phase structure" `Quick test_phase_structure_detected;
    Alcotest.test_case "default v" `Quick test_default_v_is_universe_size;
    Alcotest.test_case "cost_of_breaks consistent" `Quick test_cost_of_breaks_matches_dp;
    Alcotest.test_case "cost_of_breaks validation" `Quick test_cost_of_breaks_validation;
    qcheck_dp_optimal;
    qcheck_plan_valid;
    qcheck_dp_no_worse_than_heuristics;
    qcheck_bounded_matches_brute;
  ]

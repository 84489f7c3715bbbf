(* Workload generators: shape and determinism properties. *)

open Hr_core
module Rng = Hr_util.Rng
module Bitset = Hr_util.Bitset
open Hr_workload

let check = Alcotest.check
let int = Alcotest.int

let space = Switch_space.make 16

let test_phased_lengths () =
  let rng = Rng.create 1 in
  let p1 = Synthetic.phase rng ~space ~len:5 ~active_fraction:0.5 ~density:0.5 in
  let p2 = Synthetic.phase rng ~space ~len:7 ~active_fraction:0.3 ~density:0.8 in
  let t = Synthetic.phased rng space [ p1; p2 ] in
  check int "total length" 12 (Trace.length t)

let test_phased_stays_within_active () =
  let rng = Rng.create 2 in
  let p = Synthetic.phase rng ~space ~len:20 ~active_fraction:0.4 ~density:0.9 in
  let t = Synthetic.phased rng space [ p ] in
  for i = 0 to 19 do
    if not (Bitset.subset (Trace.req t i) p.Synthetic.active) then
      Alcotest.failf "step %d escapes the active set" i
  done

let test_generators_deterministic () =
  let t1 = Synthetic.uniform (Rng.create 7) space ~n:30 ~density:0.4 in
  let t2 = Synthetic.uniform (Rng.create 7) space ~n:30 ~density:0.4 in
  for i = 0 to 29 do
    if not (Bitset.equal (Trace.req t1 i) (Trace.req t2 i)) then
      Alcotest.failf "uniform not deterministic at %d" i
  done

let test_bursty_has_bursts () =
  let t =
    Synthetic.bursty (Rng.create 3) space ~n:100 ~idle_density:0.02
      ~burst_density:0.9 ~burst_len:5 ~burst_every:20
  in
  let sizes = Trace.sizes t in
  let avg lo hi =
    let rec go i acc = if i > hi then acc else go (i + 1) (acc + sizes.(i)) in
    float_of_int (go lo 0) /. float_of_int (hi - lo + 1)
  in
  (* Burst steps (0-4 mod 20) should be far denser than idle ones. *)
  Alcotest.(check bool) "bursts denser" true (avg 0 4 > avg 5 19 +. 2.)

let test_ramp_grows () =
  let t = Synthetic.ramp (Rng.create 4) space ~n:64 in
  let size = (Interval_cost.of_single ~v:0 t).Interval_cost.step_cost 0 in
  (* The union over the first quarter is smaller than over the last. *)
  Alcotest.(check bool) "growing demand" true (size 0 15 < size 48 63)

let test_multi_correlated_dimensions () =
  let spec = Multi_gen.default_spec in
  let ts = Multi_gen.correlated (Rng.create 5) spec in
  check int "m" spec.Multi_gen.m (Task_set.num_tasks ts);
  check int "n" spec.Multi_gen.n (Task_set.steps ts);
  Array.iteri
    (fun j t ->
      check int
        (Printf.sprintf "task %d local size" j)
        spec.Multi_gen.local_sizes.(j)
        (Switch_space.size (Trace.space t.Task_set.trace)))
    (Task_set.tasks ts)

let test_multi_independent_dimensions () =
  let spec = { Multi_gen.default_spec with Multi_gen.m = 3; local_sizes = [| 4; 6; 8 |] } in
  let ts = Multi_gen.independent (Rng.create 6) spec in
  check int "m" 3 (Task_set.num_tasks ts)

let test_priv_demands_bounded () =
  let ts = Multi_gen.correlated (Rng.create 7) Multi_gen.default_spec in
  let demands = Multi_gen.priv_demands (Rng.create 8) ts ~g_peak:6 in
  Array.iter
    (Array.iter (fun d -> if d < 0 || d > 6 then Alcotest.failf "demand %d out of range" d))
    demands

let test_dag_gen_valid_and_satisfiable () =
  for seed = 1 to 10 do
    let rng = Rng.create seed in
    let model, seq = Dag_gen.instance rng Dag_gen.default_spec in
    (* Dag_model.make already validated invariants; check the trace. *)
    check int "length" Dag_gen.default_spec.Dag_gen.n (Array.length seq);
    Array.iter
      (fun c ->
        if Dag_model.cheapest_for model [ c ] = None then
          Alcotest.failf "unsatisfiable context %d" c)
      seq
  done

(* ---- Replay transforms ---- *)

let test_replay_stretch () =
  let t = Trace.of_lists space [ [ 0 ]; [ 1; 2 ] ] in
  let s = Replay.stretch t ~factor:3 in
  check int "length" 6 (Trace.length s);
  Alcotest.(check bool) "step 4 = original step 1" true
    (Bitset.equal (Trace.req s 4) (Trace.req t 1))

let test_replay_stretch_amortizes () =
  (* Stretching lets hyperreconfiguration amortize: the optimal cost of
     the stretched trace is at most factor times the original (reuse
     the same plan) and the relative saving never shrinks. *)
  let t = Synthetic.uniform (Rng.create 5) space ~n:20 ~density:0.3 in
  let v = 16 in
  let base, _ = St_opt.solve_trace ~v t in
  let stretched, _ = St_opt.solve_trace ~v (Replay.stretch t ~factor:4) in
  Alcotest.(check bool) "sub-linear growth" true (stretched.St_opt.cost <= 4 * base.St_opt.cost)

let test_replay_repeat () =
  let t = Trace.of_lists space [ [ 0 ]; [ 1 ] ] in
  let r = Replay.repeat t ~times:3 in
  check int "length" 6 (Trace.length r);
  Alcotest.(check bool) "wraps" true (Bitset.equal (Trace.req r 5) (Trace.req t 1))

let test_replay_interleave () =
  let a = Trace.of_lists space [ [ 0 ]; [ 1 ] ] in
  let b = Trace.of_lists space [ [ 5 ] ] in
  let i = Replay.interleave a b in
  check int "length" 4 (Trace.length i);
  Alcotest.(check (list int)) "order a0 b0 a1 pad"
    [ 0 ]
    (Bitset.to_list (Trace.req i 0));
  Alcotest.(check (list int)) "b0" [ 5 ] (Bitset.to_list (Trace.req i 1));
  Alcotest.(check (list int)) "a1" [ 1 ] (Bitset.to_list (Trace.req i 2));
  Alcotest.(check (list int)) "pad" [] (Bitset.to_list (Trace.req i 3))

let test_replay_reverse_cost_symmetric () =
  (* The switch-model objective is time-symmetric: optimal costs agree
     on a trace and its reverse. *)
  let t = Synthetic.bursty (Rng.create 9) space ~n:30 ~idle_density:0.05
      ~burst_density:0.7 ~burst_len:4 ~burst_every:10 in
  let fwd, _ = St_opt.solve_trace ~v:6 t in
  let bwd, _ = St_opt.solve_trace ~v:6 (Replay.reverse t) in
  check int "symmetric" fwd.St_opt.cost bwd.St_opt.cost

let test_replay_interleave_costs_more_than_parts () =
  (* Context switching between two computations on one fabric is never
     cheaper than the costlier of running them alone. *)
  let a = Synthetic.phased (Rng.create 2) space
      [ Synthetic.phase (Rng.create 3) ~space ~len:16 ~active_fraction:0.3 ~density:0.6 ] in
  let b = Synthetic.phased (Rng.create 4) space
      [ Synthetic.phase (Rng.create 5) ~space ~len:16 ~active_fraction:0.3 ~density:0.6 ] in
  let v = 8 in
  let ca, _ = St_opt.solve_trace ~v a in
  let cb, _ = St_opt.solve_trace ~v b in
  let ci, _ = St_opt.solve_trace ~v (Replay.interleave a b) in
  Alcotest.(check bool) "interleaving at least as costly" true
    (ci.St_opt.cost >= max ca.St_opt.cost cb.St_opt.cost)

let tests =
  [
    Alcotest.test_case "replay stretch" `Quick test_replay_stretch;
    Alcotest.test_case "replay stretch amortizes" `Quick test_replay_stretch_amortizes;
    Alcotest.test_case "replay repeat" `Quick test_replay_repeat;
    Alcotest.test_case "replay interleave" `Quick test_replay_interleave;
    Alcotest.test_case "replay reverse symmetry" `Quick test_replay_reverse_cost_symmetric;
    Alcotest.test_case "replay interleave lower bound" `Quick test_replay_interleave_costs_more_than_parts;
    Alcotest.test_case "phased lengths" `Quick test_phased_lengths;
    Alcotest.test_case "phased within active" `Quick test_phased_stays_within_active;
    Alcotest.test_case "deterministic" `Quick test_generators_deterministic;
    Alcotest.test_case "bursty" `Quick test_bursty_has_bursts;
    Alcotest.test_case "ramp grows" `Quick test_ramp_grows;
    Alcotest.test_case "multi correlated" `Quick test_multi_correlated_dimensions;
    Alcotest.test_case "multi independent" `Quick test_multi_independent_dimensions;
    Alcotest.test_case "priv demands bounded" `Quick test_priv_demands_bounded;
    Alcotest.test_case "dag gen valid" `Quick test_dag_gen_valid_and_satisfiable;
  ]

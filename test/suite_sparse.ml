(* The dense and sparse oracle rungs: both against unions counted from
   the requirement lists, trace segment round-trips, dense/sparse plan
   bit-identity, the Auto rung pick, the large-trace generator, and the
   sparse telemetry counters. *)

open Hr_core
module Bitset = Hr_util.Bitset
module Rng = Hr_util.Rng
module W = Hr_workload

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* Random trace with run-length structure: geometric dwell per
   requirement so segments are non-trivial but plentiful. *)
let random_trace rng ~width ~n =
  let space = Switch_space.make width in
  let reqs = Array.make n (Switch_space.empty space) in
  let i = ref 0 in
  while !i < n do
    let req =
      Bitset.of_list width (List.filter (fun _ -> Rng.int rng 3 = 0) (List.init width Fun.id))
    in
    let dwell = 1 + Rng.int rng 5 in
    let stop = min n (!i + dwell) in
    while !i < stop do
      reqs.(!i) <- req;
      incr i
    done
  done;
  Trace.make space reqs

let traces_equal a b =
  Trace.length a = Trace.length b
  && Switch_space.size (Trace.space a) = Switch_space.size (Trace.space b)
  &&
  let ok = ref true in
  for i = 0 to Trace.length a - 1 do
    if not (Bitset.equal (Trace.req a i) (Trace.req b i)) then ok := false
  done;
  !ok

(* Occ_index.size must agree with the counted union on EVERY (lo,hi) —
   the widths straddle one bitset word (48) and several (130) so both
   the short-span union path and the occurrence-list path run. *)
let test_occ_matches_range_union () =
  let rng = Rng.create 41 in
  List.iter
    (fun (width, n) ->
      let t = random_trace rng ~width ~n in
      let oi = Occ_index.of_trace t in
      check int "length" (Trace.length t) (Occ_index.length oi);
      for lo = 0 to n - 1 do
        for hi = lo to n - 1 do
          let want = Bitset.cardinal (Trace.range_union t lo hi) in
          let got = Occ_index.size oi lo hi in
          if want <> got then
            Alcotest.failf "width=%d n=%d [%d,%d]: range_union=%d occ=%d"
              width n lo hi want got
        done
      done;
      check bool "queries counted" true
        (Occ_index.queries oi >= n * (n + 1) / 2))
    [ (8, 40); (48, 64); (130, 48); (5, 1) ]

let test_occ_union_matches () =
  let rng = Rng.create 42 in
  let t = random_trace rng ~width:20 ~n:50 in
  let oi = Occ_index.of_trace t in
  for lo = 0 to 49 do
    for hi = lo to 49 do
      if not (Bitset.equal (Trace.range_union t lo hi) (Occ_index.union oi lo hi))
      then Alcotest.failf "union mismatch on [%d,%d]" lo hi
    done
  done

(* The one dense table, on random task sets (m 1-3, n 0-40, widths up to
   two bitset words), unweighted and weighted: every cell equals the
   union counted straight from the requirement lists, and equals the
   sparse rung's answer (for weights: summed over Occ_index.union).  A
   case with cells past 65,535 must build a 32-bit table, two cases,
   one unweighted and one weighted, span 2,048 switches (33 words), and
   a last pair mixes a width-0 space with a task whose steps are often
   empty. *)
let test_dense_table_property () =
  let rng = Rng.create 57 in
  (* Row lo of the reference: for each hi, the weight of the union of
     steps lo..hi, counted as the steps are added one by one. *)
  let counted_row reqs weight lo =
    let seen = Hashtbl.create 16 and acc = ref 0 in
    Array.init
      (Array.length reqs - lo)
      (fun k ->
        List.iter
          (fun s ->
            if not (Hashtbl.mem seen s) then begin
              Hashtbl.add seen s ();
              acc := !acc + weight s
            end)
          reqs.(lo + k);
        !acc)
  in
  let run ~label ~weights ts =
    let m = Task_set.num_tasks ts and n = Task_set.steps ts in
    let dense, sparse_cell =
      match weights with
      | None ->
          let sparse = Interval_cost.of_task_set ~policy:Interval_cost.Sparse ts in
          ( Interval_cost.of_task_set ~policy:Interval_cost.Dense ts,
            sparse.Interval_cost.step_cost )
      | Some w ->
          let ix =
            Array.init m (fun j -> Occ_index.of_trace (Task_set.get ts j).Task_set.trace)
          in
          ( Weighted.oracle ts ~weights:w,
            fun j lo hi ->
              Bitset.fold (fun x acc -> acc + w.(j).(x)) (Occ_index.union ix.(j) lo hi) 0 )
    in
    let s = Interval_cost.cache_stats dense in
    check Alcotest.string (label ^ " kind") "dense" s.Interval_cost.kind;
    check int (label ^ " cells") (m * n * (n + 1) / 2) s.Interval_cost.cells;
    for j = 0 to m - 1 do
      let trace = (Task_set.get ts j).Task_set.trace in
      let reqs = Array.init n (fun i -> Bitset.to_list (Trace.req trace i)) in
      let weight = match weights with None -> fun _ -> 1 | Some w -> fun x -> w.(j).(x) in
      for lo = 0 to n - 1 do
        let row = counted_row reqs weight lo in
        for hi = lo to n - 1 do
          let want = row.(hi - lo) in
          let got = dense.Interval_cost.step_cost j lo hi in
          if got <> want || sparse_cell j lo hi <> want then
            Alcotest.failf "%s: cell (%d,%d,%d) dense=%d sparse=%d counted=%d" label j lo
              hi got (sparse_cell j lo hi) want
        done
      done
    done;
    s
  in
  for round = 0 to 29 do
    let m = 1 + Rng.int rng 3 and n = if round < 2 then 0 else Rng.int rng 41 in
    let widths = Array.init m (fun _ -> 1 + Rng.int rng 130) in
    let ts =
      Task_set.make
        (Array.init m (fun j ->
             Task_set.task ~name:(Printf.sprintf "t%d" j) ~v:1
               (random_trace rng ~width:widths.(j) ~n)))
    in
    let weights =
      if round mod 2 = 0 then None
      else Some (Array.map (fun w -> Array.init w (fun _ -> 1 + Rng.int rng 9)) widths)
    in
    ignore (run ~label:(Printf.sprintf "round %d" round) ~weights ts)
  done;
  let ts =
    Task_set.make [| Task_set.task ~name:"wide" ~v:1 (random_trace rng ~width:6 ~n:12) |]
  in
  let s = run ~label:"32-bit" ~weights:(Some [| Array.make 6 40_000 |]) ts in
  check int "cells past 65,535 take 32 bits" 32 s.Interval_cost.width_bits;
  check int "bytes = cells * 4" (4 * s.Interval_cost.cells) s.Interval_cost.bytes_resident;
  List.iter
    (fun weighted ->
      let width = 2048 and n = 48 in
      let ts =
        Task_set.make
          (Array.init 2 (fun j ->
               Task_set.task ~name:(Printf.sprintf "w%d" j) ~v:1 (random_trace rng ~width ~n)))
      in
      let weights =
        if weighted then Some (Array.init 2 (fun _ -> Array.init width (fun _ -> 1 + Rng.int rng 9)))
        else None
      in
      ignore (run ~label:(Printf.sprintf "2048 switches, weighted %b" weighted) ~weights ts))
    [ false; true ];
  let ts =
    Task_set.make
      [|
        Task_set.task ~name:"none" ~v:1 (random_trace rng ~width:0 ~n:7);
        Task_set.task ~name:"sparse" ~v:1
          (Trace.of_lists (Switch_space.make 5) [ []; [ 1; 3 ]; []; []; [ 3 ]; [ 0; 4 ]; [] ]);
      |]
  in
  ignore (run ~label:"width 0, empty steps" ~weights:None ts);
  ignore
    (run ~label:"width 0, empty steps, weighted"
       ~weights:(Some [| [||]; [| 2; 3; 5; 7; 11 |] |])
       ts)

(* Outside the triangle a dense query raises, whether the table came
   from the switch sweep or from precompute over a custom oracle. *)
let test_dense_bad_range () =
  let t = random_trace (Rng.create 1) ~width:4 ~n:10 in
  let switch = Interval_cost.of_single ~policy:Interval_cost.Dense ~v:1 t in
  let custom =
    Interval_cost.precompute
      (Interval_cost.make ~m:1 ~n:10 ~v:[| 1 |] ~step_cost:(fun _ lo hi ->
           if lo > hi then 0 else Bitset.cardinal (Trace.range_union t lo hi)))
  in
  List.iter
    (fun (name, dense) ->
      check Alcotest.string (name ^ " is dense") "dense"
        (Interval_cost.cache_stats dense).Interval_cost.kind;
      List.iter
        (fun (j, lo, hi) ->
          match dense.Interval_cost.step_cost j lo hi with
          | c -> Alcotest.failf "%s query (%d,%d,%d) should raise, got %d" name j lo hi c
          | exception Invalid_argument _ -> ())
        [ (0, -1, 0); (0, 0, 10); (0, 5, 4); (0, 9, 8); (1, 0, 0); (-1, 3, 3) ])
    [ ("switch", switch); ("custom", custom) ]

let test_occ_bad_range () =
  let t = random_trace (Rng.create 1) ~width:4 ~n:10 in
  let oi = Occ_index.of_trace t in
  List.iter
    (fun (lo, hi) ->
      match Occ_index.size oi lo hi with
      | _ -> Alcotest.failf "range [%d,%d] should raise" lo hi
      | exception Invalid_argument _ -> ())
    [ (-1, 0); (0, 10); (5, 4) ]

let test_segments_roundtrip () =
  let rng = Rng.create 7 in
  List.iter
    (fun (width, n) ->
      let t = random_trace rng ~width ~n in
      let segs = Trace.segments t in
      (* maximality: adjacent segments differ, lengths are positive and
         sum to n *)
      let total = ref 0 in
      Array.iteri
        (fun k (s : Trace.segment) ->
          check bool "positive len" true (s.Trace.len > 0);
          total := !total + s.Trace.len;
          if k > 0 then
            check bool "adjacent segments differ" false
              (Bitset.equal s.Trace.req segs.(k - 1).Trace.req))
        segs;
      check int "lens sum to n" n !total;
      let back = Trace.of_segments (Trace.space t) segs in
      check bool "round-trip" true (traces_equal t back))
    [ (8, 1); (8, 100); (70, 64) ]

let solve_both ts =
  let dense = Interval_cost.of_task_set ~policy:Interval_cost.Dense ts in
  let sparse = Interval_cost.of_task_set ~policy:Interval_cost.Sparse ts in
  (dense, sparse)

(* Dense and sparse are different data structures answering the same
   queries, so every solver must produce bit-identical plans on top of
   either rung. *)
let test_dense_sparse_plans_identical () =
  let rng = Rng.create 13 in
  for round = 0 to 4 do
    let m = 1 + Rng.int rng 3 in
    let tasks =
      Array.init m (fun j ->
          Task_set.task
            ~name:(Printf.sprintf "t%d" j)
            ~v:(Rng.int rng 4)
            (random_trace rng ~width:(4 + Rng.int rng 8) ~n:24))
    in
    let ts = Task_set.make tasks in
    let dense, sparse = solve_both ts in
    (* elementwise first: the oracle cells themselves *)
    for j = 0 to m - 1 do
      for lo = 0 to 23 do
        for hi = lo to 23 do
          if
            dense.Interval_cost.step_cost j lo hi
            <> sparse.Interval_cost.step_cost j lo hi
          then Alcotest.failf "round %d: cell (%d,%d,%d) differs" round j lo hi
        done
      done
    done;
    let dd = Mt_dp.solve dense and ds = Mt_dp.solve sparse in
    check int "mt-dp cost" dd.Mt_dp.cost ds.Mt_dp.cost;
    check bool "mt-dp plan" true (Breakpoints.equal dd.Mt_dp.bp ds.Mt_dp.bp);
    let gd = Mt_greedy.best dense and gs = Mt_greedy.best sparse in
    check int "greedy cost" gd.Mt_greedy.cost gs.Mt_greedy.cost;
    check bool "greedy plan" true
      (Breakpoints.equal gd.Mt_greedy.bp gs.Mt_greedy.bp)
  done

(* The dense projection is the one table at 16 bits: m·n(n+1) bytes,
   1640 for m = 1, n = 40. *)
let test_auto_policy_picks_rung () =
  let rng = Rng.create 99 in
  let ts =
    Task_set.make
      [| Task_set.task ~name:"t0" ~v:1 (random_trace rng ~width:8 ~n:40) |]
  in
  let kind max_bytes =
    (Interval_cost.cache_stats
       (Interval_cost.of_task_set ~policy:Interval_cost.Auto ~max_bytes ts))
      .Interval_cost.kind
  in
  check Alcotest.string "auto one byte short -> sparse" "sparse" (kind 1639);
  check Alcotest.string "auto at the projection -> dense" "dense" (kind 1640);
  let roomy = Interval_cost.cache_stats (Interval_cost.of_task_set ts) in
  check Alcotest.string "default budget -> dense" "dense" roomy.Interval_cost.kind;
  check int "projection = resident bytes" 1640 roomy.Interval_cost.bytes_resident

let test_sparse_cache_stats () =
  let ts = W.Large_gen.task_set ~seed:5 ~steps:2000 ~tasks:2 () in
  let o = Interval_cost.of_task_set ~policy:Interval_cost.Sparse ts in
  let before = Interval_cost.cache_stats o in
  check Alcotest.string "kind" "sparse" before.Interval_cost.kind;
  check int "no queries yet" 0 before.Interval_cost.queries;
  check bool "segments" true (before.Interval_cost.segments > 0);
  check bool "entries" true (before.Interval_cost.cells > 0);
  check bool "bytes" true (before.Interval_cost.bytes_resident > 0);
  ignore (o.Interval_cost.step_cost 0 0 1999);
  ignore (o.Interval_cost.step_cost 1 10 20);
  let after = Interval_cost.cache_stats o in
  check int "queries counted" 2 after.Interval_cost.queries;
  (* precompute must never densify a sparse oracle *)
  let p = Interval_cost.precompute o in
  check Alcotest.string "precompute keeps sparse" "sparse"
    (Interval_cost.cache_stats p).Interval_cost.kind

let test_large_gen_deterministic () =
  let a = W.Large_gen.trace ~seed:2004 ~steps:3000 () in
  let b = W.Large_gen.trace ~seed:2004 ~steps:3000 () in
  check bool "same seed, same trace" true (traces_equal a b);
  let c = W.Large_gen.trace ~seed:2005 ~steps:3000 () in
  check bool "different seed, different trace" false (traces_equal a c);
  check int "length honoured" 3000 (Trace.length a);
  let nsegs = Array.length (Trace.segments a) in
  check bool "compresses at least 4x" true (nsegs * 4 < 3000);
  (* per-task seeds differ within a set *)
  let ts = W.Large_gen.task_set ~seed:2004 ~steps:500 ~tasks:2 () in
  check bool "tasks differ" false
    (traces_equal (Task_set.get ts 0).Task_set.trace
       (Task_set.get ts 1).Task_set.trace)

let tests =
  [
    Alcotest.test_case "occ_index matches range_union" `Quick
      test_occ_matches_range_union;
    Alcotest.test_case "occ_index union matches" `Quick test_occ_union_matches;
    Alcotest.test_case "occ_index bad range" `Quick test_occ_bad_range;
    Alcotest.test_case "dense table = counted = sparse" `Quick
      test_dense_table_property;
    Alcotest.test_case "dense bad range" `Quick test_dense_bad_range;
    Alcotest.test_case "segments round-trip" `Quick test_segments_roundtrip;
    Alcotest.test_case "dense/sparse plans identical" `Quick
      test_dense_sparse_plans_identical;
    Alcotest.test_case "auto policy picks rung" `Quick test_auto_policy_picks_rung;
    Alcotest.test_case "sparse cache stats" `Quick test_sparse_cache_stats;
    Alcotest.test_case "large_gen deterministic" `Quick
      test_large_gen_deterministic;
  ]

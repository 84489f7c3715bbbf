(* Rng determinism, Stats, Tablefmt, the domain pool, Cli enums. *)

module Rng = Hr_util.Rng
module Stats = Hr_util.Stats
module Tablefmt = Hr_util.Tablefmt
module Pool = Hr_util.Pool
module Budget = Hr_util.Budget
module Cli = Hr_util.Cli

let check = Alcotest.check
let int = Alcotest.int

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check int "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_different_seeds () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let xs = List.init 10 (fun _ -> Rng.bits64 a) in
  let ys = List.init 10 (fun _ -> Rng.bits64 b) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_int_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    if v < 0 || v >= 10 then Alcotest.failf "out of range: %d" v
  done;
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_int_in () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int_in rng (-3) 3 in
    if v < -3 || v > 3 then Alcotest.failf "out of range: %d" v
  done

let test_rng_uniformity () =
  (* Coarse sanity: 6000 draws over 6 buckets, each within ±25 %. *)
  let rng = Rng.create 11 in
  let buckets = Array.make 6 0 in
  for _ = 1 to 6000 do
    let v = Rng.int rng 6 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i c -> if c < 750 || c > 1250 then Alcotest.failf "bucket %d has %d" i c)
    buckets

let test_rng_float_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let f = Rng.float rng in
    if f < 0. || f >= 1. then Alcotest.failf "float out of range: %f" f
  done

let test_rng_split_independent () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  let xs = List.init 5 (fun _ -> Rng.bits64 a) in
  let ys = List.init 5 (fun _ -> Rng.bits64 b) in
  Alcotest.(check bool) "independent streams" true (xs <> ys)

let test_rng_shuffle_permutes () =
  let rng = Rng.create 9 in
  let arr = Array.init 20 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 20 Fun.id) sorted

let test_stats_summary () =
  let s = Stats.summarize [| 1.; 2.; 3.; 4. |] in
  check int "n" 4 s.Stats.n;
  check (Alcotest.float 1e-9) "mean" 2.5 s.Stats.mean;
  check (Alcotest.float 1e-9) "median" 2.5 s.Stats.median;
  check (Alcotest.float 1e-9) "min" 1. s.Stats.min;
  check (Alcotest.float 1e-9) "max" 4. s.Stats.max

let test_stats_percentile () =
  let xs = [| 10.; 20.; 30.; 40.; 50. |] in
  check (Alcotest.float 1e-9) "p0" 10. (Stats.percentile xs 0.);
  check (Alcotest.float 1e-9) "p50" 30. (Stats.percentile xs 50.);
  check (Alcotest.float 1e-9) "p100" 50. (Stats.percentile xs 100.);
  check (Alcotest.float 1e-9) "p25" 20. (Stats.percentile xs 25.)

let test_stats_stddev () =
  check (Alcotest.float 1e-9) "constant" 0. (Stats.stddev [| 5.; 5.; 5. |]);
  check (Alcotest.float 1e-9) "spread" 2. (Stats.stddev [| 2.; 6.; 2.; 6. |])

let test_stats_empty_raises () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.mean: empty sample")
    (fun () -> ignore (Stats.mean [||]))

let test_tablefmt_alignment () =
  let out =
    Tablefmt.render ~header:[ "name"; "cost" ]
      [ [ "alpha"; "12" ]; [ "b"; "345" ] ]
  in
  let lines = String.split_on_char '\n' out in
  check int "4 lines" 4 (List.length lines);
  (* Numeric column is right-aligned. *)
  Alcotest.(check bool) "right aligned" true
    (String.length (List.nth lines 2) = String.length (List.nth lines 3))

let test_tablefmt_arity_check () =
  Alcotest.check_raises "ragged row"
    (Invalid_argument "Tablefmt.render: row 0 has 1 cells, expected 2") (fun () ->
      ignore (Tablefmt.render ~header:[ "a"; "b" ] [ [ "x" ] ]))

(* [with_pool] guards the ~128-domain process cap: every pool a test
   creates is shut down before the next test runs. *)
let with_pool ?workers f =
  let pool = Pool.create ?workers () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let test_pool_map_matches_sequential () =
  (* Elementwise identity with Array.map across sizes × worker counts
     × seeds, including n < workers and chunk counts > n. *)
  let rng = Rng.create 104729 in
  List.iter
    (fun workers ->
      with_pool ~workers (fun pool ->
          List.iter
            (fun n ->
              let seed = Rng.int rng 1_000_000 in
              let arr = Array.init n (fun i -> seed + (31 * i)) in
              let f x = (x * x mod 7919) - (x mod 13) in
              let expected = Array.map f arr in
              Alcotest.(check (array int))
                (Printf.sprintf "workers=%d n=%d" workers n)
                expected (Pool.map pool f arr);
              Alcotest.(check (array int))
                (Printf.sprintf "workers=%d n=%d chunks=%d" workers n (n + 3))
                expected
                (Pool.map ~chunks:(n + 3) pool f arr))
            [ 0; 1; 2; 3; 7; 64; 1000 ]))
    [ 1; 2; 4 ]

let test_par_map_matches_sequential () =
  let rng = Rng.create 7919 in
  List.iter
    (fun domains ->
      List.iter
        (fun n ->
          let seed = Rng.int rng 1_000_000 in
          let arr = Array.init n (fun i -> seed + i) in
          let f x = x * 17 mod 1009 in
          Alcotest.(check (array int))
            (Printf.sprintf "domains=%d n=%d" domains n)
            (Array.map f arr)
            (Hr_util.Par.map_array ~domains f arr))
        [ 0; 1; 5; 128; 513 ])
    [ 1; 2; 8 ]

exception Boom of int

let test_pool_map_exception_once () =
  (* A failing element re-raises exactly once, and it is the lowest
     failing index — the same element sequential Array.map would have
     died on. *)
  with_pool ~workers:3 (fun pool ->
      let raised = ref 0 in
      (try
         ignore
           (Pool.map ~chunks:8 pool
              (fun i -> if i mod 10 = 7 then raise (Boom i) else i)
              (Array.init 100 Fun.id))
       with Boom i ->
         incr raised;
         Alcotest.(check int) "lowest failing index" 7 i);
      Alcotest.(check int) "raised exactly once" 1 !raised)

let test_pool_survives_failure () =
  (* Exception containment: the same pool instance serves the next
     batch after a failing one, with intact results. *)
  with_pool ~workers:2 (fun pool ->
      for round = 1 to 3 do
        (try ignore (Pool.map pool (fun _ -> raise (Boom round)) [| 1; 2; 3 |])
         with Boom r -> Alcotest.(check int) "round's own exn" round r);
        let arr = Array.init 50 (fun i -> i + round) in
        Alcotest.(check (array int))
          (Printf.sprintf "healthy after failure %d" round)
          (Array.map succ arr)
          (Pool.map pool succ arr)
      done)

let test_pool_nested_map () =
  (* A task running on the pool may itself call Pool.map on the same
     pool (solver races inside Batch do exactly this); the caller-helps
     rule keeps it deadlock-free even with every worker busy. *)
  with_pool ~workers:2 (fun pool ->
      let inner i = Pool.map pool (fun j -> (10 * i) + j) (Array.init 6 Fun.id) in
      let out = Pool.map pool inner (Array.init 8 Fun.id) in
      Array.iteri
        (fun i row ->
          Alcotest.(check (array int))
            (Printf.sprintf "nested row %d" i)
            (Array.init 6 (fun j -> (10 * i) + j))
            row)
        out)

let test_pool_iter_chunks_covers () =
  with_pool ~workers:3 (fun pool ->
      let n = 997 in
      let hits = Array.make n 0 in
      (* [f lo hi] gets inclusive bounds. *)
      Pool.iter_chunks pool
        (fun lo hi ->
          for i = lo to hi do
            hits.(i) <- hits.(i) + 1
          done)
        n;
      Alcotest.(check (array int)) "each index covered once" (Array.make n 1) hits)

let test_pool_shutdown_degrades () =
  let pool = Pool.create ~workers:2 () in
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  Alcotest.(check (array int))
    "sequential after shutdown" [| 2; 4; 6 |]
    (Pool.map pool (fun x -> 2 * x) [| 1; 2; 3 |])

let test_pool_is_stopped () =
  let pool = Pool.create ~workers:2 () in
  Alcotest.(check bool) "live pool not stopped" false (Pool.is_stopped pool);
  Pool.shutdown pool;
  Alcotest.(check bool) "stopped after shutdown" true (Pool.is_stopped pool)

let test_pool_default_recreated_after_shutdown () =
  (* Regression: the memoized default pool used to be handed out even
     after its shutdown, silently degrading every later caller to
     sequential execution for the rest of the process. *)
  let first = Pool.default () in
  Pool.shutdown first;
  let second = Pool.default () in
  Alcotest.(check bool) "a fresh pool replaces the stopped one" true
    (first != second);
  Alcotest.(check bool) "the replacement is live" false (Pool.is_stopped second);
  Alcotest.(check (array int))
    "the replacement still computes" [| 2; 4; 6 |]
    (Pool.map second (fun x -> 2 * x) [| 1; 2; 3 |])

let test_budget_earliest () =
  Alcotest.(check bool)
    "unlimited of unlimited" false
    (Budget.is_limited (Budget.earliest Budget.unlimited Budget.unlimited));
  let five = Budget.of_deadline_ms 5000 in
  let left b = Budget.remaining_ms (Budget.earliest five b) in
  Alcotest.(check bool)
    "deadline beats unlimited" true
    (Budget.is_limited (Budget.earliest five Budget.unlimited)
    && left Budget.unlimited <= 5000.);
  let l = left (Budget.of_deadline_ms 2000) in
  Alcotest.(check bool) "min deadline wins" true (l <= 2000. && l > 1000.)

(* Deadlines and timings read CLOCK_MONOTONIC, so a wall-clock step
   cannot expire or stretch a live budget. *)
let test_budget_monotonic_clock () =
  let before = Budget.now_ms () in
  let mono = Int64.to_float (Monotonic_clock.now ()) /. 1e6 in
  let after = Budget.now_ms () in
  Alcotest.(check bool)
    (Printf.sprintf "now_ms %.3f..%.3f brackets Monotonic_clock.now %.3f" before after mono)
    true
    (before <= mono +. 1. && mono <= after +. 1.)

let test_cli_enum () =
  let options = [ ("single", 1); ("four", 4) ] in
  Alcotest.(check int) "known" 4 (Cli.enum_exn ~what:"split" options "four");
  (match Cli.enum ~what:"split" options "bogus" with
  | Ok _ -> Alcotest.fail "accepted an unknown value"
  | Error msg ->
      Alcotest.(check string) "error lists the accepted values"
        "unknown split \"bogus\" (expected one of: single, four)" msg);
  Alcotest.check_raises "enum_exn raises Failure"
    (Failure "unknown split \"bogus\" (expected one of: single, four)") (fun () ->
      ignore (Cli.enum_exn ~what:"split" options "bogus"))

let tests =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng seeds differ" `Quick test_rng_different_seeds;
    Alcotest.test_case "rng int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng int_in" `Quick test_rng_int_in;
    Alcotest.test_case "rng uniformity" `Quick test_rng_uniformity;
    Alcotest.test_case "rng float range" `Quick test_rng_float_range;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "rng shuffle" `Quick test_rng_shuffle_permutes;
    Alcotest.test_case "stats summary" `Quick test_stats_summary;
    Alcotest.test_case "stats percentile" `Quick test_stats_percentile;
    Alcotest.test_case "stats stddev" `Quick test_stats_stddev;
    Alcotest.test_case "stats empty" `Quick test_stats_empty_raises;
    Alcotest.test_case "tablefmt alignment" `Quick test_tablefmt_alignment;
    Alcotest.test_case "tablefmt arity" `Quick test_tablefmt_arity_check;
    Alcotest.test_case "pool map = sequential" `Quick test_pool_map_matches_sequential;
    Alcotest.test_case "par map = sequential" `Quick test_par_map_matches_sequential;
    Alcotest.test_case "pool exn raised once" `Quick test_pool_map_exception_once;
    Alcotest.test_case "pool survives failure" `Quick test_pool_survives_failure;
    Alcotest.test_case "pool nested map" `Quick test_pool_nested_map;
    Alcotest.test_case "pool iter_chunks covers" `Quick test_pool_iter_chunks_covers;
    Alcotest.test_case "pool shutdown degrades" `Quick test_pool_shutdown_degrades;
    Alcotest.test_case "pool is_stopped" `Quick test_pool_is_stopped;
    Alcotest.test_case "pool default recreated after shutdown" `Quick
      test_pool_default_recreated_after_shutdown;
    Alcotest.test_case "budget earliest" `Quick test_budget_earliest;
    Alcotest.test_case "budget on the monotonic clock" `Quick
      test_budget_monotonic_clock;
    Alcotest.test_case "cli enum strict" `Quick test_cli_enum;
  ]

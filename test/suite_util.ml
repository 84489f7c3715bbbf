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

(* The SplitMix64 stream, pinned value for value: the first 32 draws of
   each kind for two seeds, and the first streams of [split] and [copy].
   The values were captured from the boxed-[int64] generator this one
   replaced.  Every workload generator and stochastic solver draws from
   this stream, so a change here changes generated instances and
   plans, not only statistics. *)
type pinned_stream = {
  seed : int;
  bits64 : int array;
  int7 : string;  (** [Rng.int r 7], one digit per draw *)
  int_in : int array;  (** [Rng.int_in r (-3) 3] *)
  float : float array;
  bool : string;  (** ['1'] for [true] *)
  chance : string;  (** [Rng.chance r 0.4] *)
  split_child : int array;  (** [bits64] of [Rng.split (Rng.create seed)] *)
}

let pinned_streams =
  [
    {
      seed = 42;
      bits64 =
        [|
          3419864383188818853; 737456523031723072; 1284820937115690964;
          1587299515064563941; 175383196535490812; 4003995281415747265;
          1007216178194406231; 3692262831746943977; 1567655219403120501;
          2852245098062667243; 944942912856573551; 2273511335365284911;
          2367621691557777849; 2398138063176555373; 3067506354810381239;
          938178849217121532; 477651854551395997; 2285084233936398215;
          430859011926661761; 3177204353049865752; 4414883413611604218;
          336901045567871910; 2766164462476100981; 2858410777199325732;
          342006375497199188; 1280053605451446596; 3421775590846900749;
          3622476874840434247; 4343873076924128065; 3201329013802276752;
          3642808914686572125; 3876198108700822295;
        |];
      int7 = "14341425364152064625561661003356";
      int_in =
        [|
          -2; 1; 0; 1; -2; 1; -1; 2; 0; 3; 1; -2; 2; -1; -3; 3;
          1; 3; -1; 2; 2; 3; -2; 3; 3; -2; -3; -3; 0; 0; 2; 3;
        |];
      float =
        [|
          0x1.7bae644c5fd6ep-1; 0x1.477f199d93378p-3; 0x1.1d499d5c4c3e8p-2;
          0x1.607387fc392b9p-2; 0x1.378b0b4489048p-5; 0x1.bc8863f47901bp-1;
          0x1.bf4b38e229bb7p-3; 0x1.99ec6bdd3d3c6p-1; 0x1.5c16e1dc2cf5fp-2;
          0x1.3ca9ae7052fefp-1; 0x1.a3a39253bad8dp-3; 0x1.f8d2283914594p-2;
          0x1.06dbdb12fe7c9p-1; 0x1.0a3f2ee68fdaep-1; 0x1.548fc63805cf2p-1;
          0x1.a0a2962a6be1ap-3; 0x1.a83d752f35ebap-4; 0x1.fb64000fd9fe8p-2;
          0x1.7eadff448a86ap-4; 0x1.60bd943452e57p-1; 0x1.ea268896c8ab4p-1;
          0x1.2b3a6dd261f6fp-4; 0x1.331b1f6201943p-1; 0x1.3d58eba8a8e99p-1;
          0x1.2fc33f229b7b9p-4; 0x1.1c3a9f8de6439p-2; 0x1.7be4b62a0c415p-1;
          0x1.922cfc331f733p-1; 0x1.e2444c639b90ep-1; 0x1.636b3e36a6b0cp-1;
          0x1.946edb428427bp-1; 0x1.ae582d24a13a6p-1;
        |];
      bool = "10010111111111101110001000111011";
      chance = "01111010101000011010010011000000";
      split_child =
        [|
          1583154557381516417; 4407603814059511829; 2242891356538814700;
          310633454316549674; 3121722848377259470; 311336502044559405;
          900900056621100893; 3388300065743444451;
        |];
    };
    {
      seed = 2004;
      bits64 =
        [|
          4112105355947058687; 4316687754660702514; 2902765985087424929;
          3720027921931285405; 1758361850357170485; 1900351314383319084;
          3335180362695156323; 2569345583061006585; 2493256521170321068;
          1170151090393149898; 2083108207759286241; 1314524513297323737;
          2493967922636709450; 3641276779861286271; 101663766269899754;
          121028861070272156; 2826897945696467427; 2462703948980421984;
          2493472323150840870; 211631525819392444; 2595938010254667465;
          2341315065375080814; 2810801958847740634; 3147787363001890517;
          1516896677880544198; 3701016419705802095; 2859078899138062052;
          2234476133381183966; 4303116151025334446; 413970631036579;
          4116251058302315579; 3819375882265137385;
        |];
      int7 = "02400053152316411563250603416132";
      int_in =
        [|
          -3; -1; 1; -3; -3; -3; 2; 0; -2; 2; -1; 0; -2; 3; 1; -2;
          -2; 2; 3; 0; -1; 2; -3; 3; -3; 0; 1; -2; 3; -2; 0; -1;
        |];
      float =
        [|
          0x1.c889104661a53p-1; 0x1.df3fa522f6a35p-1; 0x1.4245924579c85p-1;
          0x1.9d018d7bc9fdap-1; 0x1.866f4c9652341p-2; 0x1.a5f6773b243bp-2;
          0x1.724786f4626d1p-1; 0x1.1d41318efc8fcp-1; 0x1.14ce9cc4f243fp-1;
          0x1.03d36378c6b72p-2; 0x1.ce8afe0d0316p-2; 0x1.23e211487a157p-2;
          0x1.14e2d4e56fd6fp-1; 0x1.94434f830414fp-1; 0x1.692ea8230bb3fp-6;
          0x1.adfb1b9fa9e6ap-6; 0x1.39d945a1ec27dp-1; 0x1.116a418c8f703p-1;
          0x1.14d4beef75642p-1; 0x1.77eee02fde90ep-5; 0x1.2034feee814f7p-1;
          0x1.03f02d2d579e1p-1; 0x1.380fcbea18bbdp-1; 0x1.5d797f6e8187bp-1;
          0x1.50d197dde0a3cp-2; 0x1.9ae53699639e7p-1; 0x1.3d6be8e2bf833p-1;
          0x1.f0274345d461ap-2; 0x1.ddbdeab948e3cp-1; 0x1.78810c690ea3p-14;
          0x1.c8fee43ac37b6p-1; 0x1.a809310830dc8p-1;
        |];
      bool = "10111011001101001000100101000111";
      chance = "00001000010100110001000010000100";
      split_child =
        [|
          599261739522493267; 1736191587904350465; 981235122415850366;
          2769316562268212869; 2859252959652856550; 4063349007378177029;
          3859262123059231685; 1848593030161216639;
        |];
    };
  ]

let test_rng_stream_pinned () =
  let digits f r = String.init 32 (fun _ -> f r) in
  let flag b = if b then '1' else '0' in
  List.iter
    (fun p ->
      let draws f = f (Rng.create p.seed) in
      let label what = Printf.sprintf "seed %d: %s" p.seed what in
      check (Alcotest.array int) (label "bits64") p.bits64
        (draws (fun r -> Array.init 32 (fun _ -> Rng.bits64 r)));
      check Alcotest.string (label "int 7") p.int7
        (draws (digits (fun r -> Char.chr (Char.code '0' + Rng.int r 7))));
      check (Alcotest.array int) (label "int_in (-3) 3") p.int_in
        (draws (fun r -> Array.init 32 (fun _ -> Rng.int_in r (-3) 3)));
      check (Alcotest.array (Alcotest.float 0.)) (label "float") p.float
        (draws (fun r -> Array.init 32 (fun _ -> Rng.float r)));
      check Alcotest.string (label "bool") p.bool
        (draws (digits (fun r -> flag (Rng.bool r))));
      check Alcotest.string (label "chance 0.4") p.chance
        (draws (digits (fun r -> flag (Rng.chance r 0.4))));
      (* [split] consumes one draw of the parent and seeds the child
         with it; [copy] shares the state without consuming any. *)
      let next8 r = Array.init 8 (fun _ -> Rng.bits64 r) in
      let after_first = Array.sub p.bits64 1 8 in
      let parent = Rng.create p.seed in
      let child = Rng.split parent in
      check (Alcotest.array int) (label "split child") p.split_child (next8 child);
      check (Alcotest.array int) (label "split parent") after_first (next8 parent);
      let orig = Rng.create p.seed in
      ignore (Rng.bits64 orig);
      let dup = Rng.copy orig in
      check (Alcotest.array int) (label "copy") after_first (next8 dup);
      check (Alcotest.array int) (label "copied original") after_first (next8 orig))
    pinned_streams

let test_rng_draws_allocate_nothing () =
  (* The state is read and written unboxed and [int] rejects in a loop,
     so the integer draws allocate nothing at all.  [float] is not
     measured: a float returned across modules is boxed by the calling
     convention. *)
  let r = Rng.create 17 in
  let before = Gc.minor_words () in
  let acc = ref 0 in
  for _ = 1 to 10_000 do
    acc := !acc + Rng.bits64 r + Rng.int r 7 + Rng.int_in r (-3) 3;
    if Rng.bool r then incr acc;
    if Rng.chance r 0.4 then incr acc
  done;
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity !acc);
  if words > 100. then Alcotest.failf "50000 draws allocated %.0f minor words" words

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
    Alcotest.test_case "rng stream pinned" `Quick test_rng_stream_pinned;
    Alcotest.test_case "rng draws allocate nothing" `Quick
      test_rng_draws_allocate_nothing;
    Alcotest.test_case "stats summary" `Quick test_stats_summary;
    Alcotest.test_case "stats percentile" `Quick test_stats_percentile;
    Alcotest.test_case "stats stddev" `Quick test_stats_stddev;
    Alcotest.test_case "stats empty" `Quick test_stats_empty_raises;
    Alcotest.test_case "tablefmt alignment" `Quick test_tablefmt_alignment;
    Alcotest.test_case "tablefmt arity" `Quick test_tablefmt_arity_check;
    Alcotest.test_case "pool map = sequential" `Quick test_pool_map_matches_sequential;
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

(* Multi-task optimizers: exact DP vs brute force, metaheuristic
   sanity, heuristic baselines. *)

open Hr_core
module Rng = Hr_util.Rng

let check = Alcotest.check
let int = Alcotest.int

let qcheck_mt_dp_matches_brute =
  Tutil.prop "Mt_dp matches Brute.multi"
    (Tutil.gen_mt_instance ~max_m:3 ~max_n:6 ~max_width:4)
    Tutil.show_mt_instance
    (fun inst ->
      let oracle = Tutil.oracle_of_instance inst in
      let brute_cost, _ = Brute.multi oracle in
      let dp = Mt_dp.solve oracle in
      dp.Mt_dp.exact && dp.Mt_dp.cost = brute_cost
      && Sync_cost.eval oracle dp.Mt_dp.bp = dp.Mt_dp.cost)

let qcheck_mt_dp_sequential_modes =
  Tutil.prop "Mt_dp exact under sequential uploads"
    (Tutil.gen_mt_instance ~max_m:2 ~max_n:5 ~max_width:3)
    Tutil.show_mt_instance
    (fun inst ->
      let oracle = Tutil.oracle_of_instance inst in
      let params =
        {
          Sync_cost.w = 0;
          pub = 1;
          hyper = Sync_cost.Task_sequential;
          reconf = Sync_cost.Task_sequential;
        }
      in
      let brute_cost, _ = Brute.multi ~params oracle in
      let dp = Mt_dp.solve ~params oracle in
      dp.Mt_dp.cost = brute_cost)

let qcheck_mt_dp_with_upper_bound =
  Tutil.prop "Mt_dp with heuristic upper bound stays exact"
    (Tutil.gen_mt_instance ~max_m:3 ~max_n:6 ~max_width:4)
    Tutil.show_mt_instance
    (fun inst ->
      let oracle = Tutil.oracle_of_instance inst in
      let ub = (Mt_greedy.best oracle).Mt_greedy.cost in
      let brute_cost, _ = Brute.multi oracle in
      (Mt_dp.solve ~upper_bound:ub oracle).Mt_dp.cost = brute_cost)

let qcheck_ga_never_beats_exact =
  Tutil.prop "GA cost >= exact and is consistent"
    (QCheck2.Gen.pair
       (Tutil.gen_mt_instance ~max_m:3 ~max_n:6 ~max_width:4)
       (QCheck2.Gen.int_bound 1000))
    (fun (inst, seed) -> Tutil.show_mt_instance inst ^ Printf.sprintf " seed=%d" seed)
    (fun (inst, seed) ->
      let oracle = Tutil.oracle_of_instance inst in
      let exact = (Mt_dp.solve oracle).Mt_dp.cost in
      let config =
        { Hr_evolve.Ga.default_config with Hr_evolve.Ga.generations = 40; population = 16 }
      in
      let ga = Mt_ga.solve ~config ~rng:(Rng.create seed) oracle in
      ga.Mt_ga.cost >= exact
      && Sync_cost.eval oracle ga.Mt_ga.bp = ga.Mt_ga.cost)

let test_ga_finds_optimum_on_phased_instance () =
  (* Crisp two-phase instance where the optimum is the phase split; the
     GA must find it (it is seeded with per-task optima). *)
  let space = Switch_space.make 6 in
  let mk l = Trace.of_lists space l in
  let ts =
    Task_set.make
      [|
        Task_set.task ~name:"A" ~v:2
          (mk [ [ 0 ]; [ 1 ]; [ 0; 1 ]; [ 4 ]; [ 5 ]; [ 4; 5 ] ]);
        Task_set.task ~name:"B" ~v:2
          (mk [ [ 2 ]; [ 2 ]; [ 3 ]; [ 0 ]; [ 0 ]; [ 1 ] ]);
      |]
  in
  let oracle = Interval_cost.of_task_set ts in
  let exact = Mt_dp.solve oracle in
  let ga = Mt_ga.solve ~rng:(Rng.create 1) oracle in
  check int "ga = exact" exact.Mt_dp.cost ga.Mt_ga.cost

let test_ga_deterministic_given_seed () =
  let ts = Tutil.sample_task_set () in
  let oracle = Interval_cost.of_task_set ts in
  let config =
    { Hr_evolve.Ga.default_config with Hr_evolve.Ga.generations = 30; population = 12 }
  in
  let a = Mt_ga.solve ~config ~rng:(Rng.create 5) oracle in
  let b = Mt_ga.solve ~config ~rng:(Rng.create 5) oracle in
  check int "same cost" a.Mt_ga.cost b.Mt_ga.cost;
  Alcotest.(check bool) "same plan" true (Breakpoints.equal a.Mt_ga.bp b.Mt_ga.bp)

let test_ga_history_monotone () =
  let ts = Tutil.sample_task_set () in
  let oracle = Interval_cost.of_task_set ts in
  let ga = Mt_ga.solve ~rng:(Rng.create 2) oracle in
  let costs = List.map snd ga.Mt_ga.history in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a > b && decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "strictly improving history" true (decreasing costs)

let qcheck_anneal_and_local_sane =
  Tutil.prop "anneal/local >= exact, <= their init"
    (QCheck2.Gen.pair
       (Tutil.gen_mt_instance ~max_m:2 ~max_n:5 ~max_width:4)
       (QCheck2.Gen.int_bound 1000))
    (fun (inst, seed) -> Tutil.show_mt_instance inst ^ Printf.sprintf " seed=%d" seed)
    (fun (inst, seed) ->
      let oracle = Tutil.oracle_of_instance inst in
      let exact = (Mt_dp.solve oracle).Mt_dp.cost in
      let init = Mt_greedy.best oracle in
      let config = { Hr_evolve.Anneal.default_config with Hr_evolve.Anneal.steps = 500 } in
      let a = Mt_anneal.solve ~config ~rng:(Rng.create seed) oracle in
      let l = Mt_local.solve oracle in
      a.Mt_anneal.cost >= exact
      && a.Mt_anneal.cost <= init.Mt_greedy.cost
      && l.Mt_local.cost >= exact
      && l.Mt_local.cost <= init.Mt_greedy.cost)

let test_local_reaches_flip_optimum () =
  let ts = Tutil.sample_task_set () in
  let oracle = Interval_cost.of_task_set ts in
  let r = Mt_local.solve oracle in
  (* No single flip may improve the result. *)
  let base = r.Mt_local.cost in
  let m = Breakpoints.m r.Mt_local.bp and n = Breakpoints.n r.Mt_local.bp in
  for j = 0 to m - 1 do
    for i = 1 to n - 1 do
      let flipped =
        Breakpoints.set r.Mt_local.bp j i (not (Breakpoints.is_break r.Mt_local.bp j i))
      in
      if Sync_cost.eval oracle flipped < base then
        Alcotest.failf "flip (%d,%d) improves a 'local optimum'" j i
    done
  done

let test_greedy_portfolio_sorted_and_valid () =
  let ts = Tutil.sample_task_set () in
  let oracle = Interval_cost.of_task_set ts in
  let entries = Mt_greedy.portfolio oracle in
  let costs = List.map (fun e -> e.Mt_greedy.cost) entries in
  Alcotest.(check bool) "sorted" true (costs = List.sort compare costs);
  List.iter
    (fun e ->
      check int ("recost " ^ e.Mt_greedy.name)
        (Sync_cost.eval oracle e.Mt_greedy.bp)
        e.Mt_greedy.cost)
    entries

let test_greedy_never_and_every () =
  let ts = Tutil.sample_task_set () in
  let oracle = Interval_cost.of_task_set ts in
  let never = Mt_greedy.never oracle in
  check int "never breaks once per task" 1 (Breakpoints.break_count never.Mt_greedy.bp 0);
  let every = Mt_greedy.every_step oracle in
  check int "every-step breaks n times" (Task_set.steps ts)
    (Breakpoints.break_count every.Mt_greedy.bp 0)

let qcheck_window_heuristic_valid =
  Tutil.prop "window heuristic produces evaluable plans"
    (Tutil.gen_mt_instance ~max_m:3 ~max_n:6 ~max_width:4)
    Tutil.show_mt_instance
    (fun inst ->
      let oracle = Tutil.oracle_of_instance inst in
      List.for_all
        (fun w ->
          let e = Mt_greedy.window oracle w in
          Sync_cost.eval oracle e.Mt_greedy.bp = e.Mt_greedy.cost)
        [ 1; 2; 3 ])

let test_mt_dp_single_step () =
  (* n=1: everything must break at step 0; cost = max v + max req. *)
  let s = Switch_space.make 3 in
  let ts =
    Task_set.make
      [|
        Task_set.task ~name:"A" ~v:4 (Trace.of_lists s [ [ 0; 1 ] ]);
        Task_set.task ~name:"B" ~v:1 (Trace.of_lists s [ [ 2 ] ]);
      |]
  in
  let r = Mt_dp.solve (Interval_cost.of_task_set ts) in
  check int "cost" (4 + 2) r.Mt_dp.cost

(* ------------------------------------------------------------------ *)
(* Dp_frontier: the level, key index and size guard both DP engines
   share. *)

(* Do key numbers match a first-sight numbering of the key lists, at
   [fields] fields in [lo .. hi]?  Every pool key is looked up once,
   then 400 at random, so that keys repeat.  The vectors carry [fields]
   junk trailing ints (as Mt_dp's cost fields), which must not reach
   the key. *)
let index_numbers_keys ~fields ~lo ~hi =
  let rng = Rng.create (fields + hi) in
  let ix = Dp_frontier.Index.create ~fields in
  let field () =
    match Rng.int rng 4 with 0 -> lo | 1 -> hi | _ -> Rng.int_in rng lo hi
  in
  let unit j x = Array.init fields (fun k -> if k = j then x else lo) in
  (* Keys one step apart at the top and the bottom of the range: a field
     one bit too narrow spills [unit j hi] onto [unit (j - 1) (lo + 1)],
     and a first field shifted out of the int merges the first two. *)
  let below = max lo (hi - 1) in
  let pool =
    Array.concat
      [
        [|
          Array.make fields hi;
          Array.init fields (fun j -> if j = 0 then below else hi);
          Array.init fields (fun j -> if j = fields - 1 then below else hi);
          Array.make fields lo;
        |];
        Array.init fields (fun j -> unit j hi);
        Array.init fields (fun j -> unit j (min hi (lo + 1)));
        Array.init 40 (fun _ -> Array.init fields (fun _ -> field ()));
      ]
  in
  let draws =
    Array.append pool
      (Array.init 400 (fun _ -> pool.(Rng.int rng (Array.length pool))))
  in
  let ok = ref true in
  for _round = 0 to 1 do
    Dp_frontier.Index.reset ix ~lo ~hi;
    let seen = Hashtbl.create 64 in
    Array.iter
      (fun key ->
        let v = Array.append key (Array.init fields (fun _ -> Rng.int rng 1000)) in
        let expected =
          match Hashtbl.find_opt seen (Array.to_list key) with
          | Some k -> k
          | None ->
              let k = Hashtbl.length seen in
              Hashtbl.add seen (Array.to_list key) k;
              k
        in
        if Dp_frontier.Index.find_or_add ix v <> expected then ok := false)
      draws;
    if Dp_frontier.Index.count ix <> Hashtbl.length seen then ok := false
  done;
  !ok

let test_frontier_index () =
  List.iter
    (fun (fields, lo, hi) ->
      check Alcotest.bool
        (Printf.sprintf "%d fields in %d .. %d" fields lo hi)
        true
        (index_numbers_keys ~fields ~lo ~hi))
    [
      (* 6 fields of 10 bits: 60 bits. *)
      (6, 0, 1023);
      (* Mt_dp's range starts at -1. *)
      (6, -1, 1022);
      (* 62 fields of 1 bit. *)
      (62, -1, 0);
    ]

let test_frontier_index_refuses_wide_keys () =
  List.iter
    (fun (fields, lo, hi, packs) ->
      let ix = Dp_frontier.Index.create ~fields in
      let raised =
        match Dp_frontier.Index.reset ix ~lo ~hi with
        | () -> false
        | exception Invalid_argument _ -> true
      in
      check Alcotest.bool
        (Printf.sprintf "%d fields in %d .. %d refused" fields lo hi)
        (not packs) raised)
    [
      (6, 0, 1023, true);
      (6, 0, 2047, false);
      (11, 0, 31, true);
      (11, 0, 32, false);
      (62, -1, 0, true);
      (63, -1, 0, false);
      (1, 0, max_int, true);
      (2, 0, max_int, false);
    ]

(* Every size the guard admits packs at both engines' field ranges:
   Mt_dp's block ends in -1 .. n-1, Online_dp's block starts in
   0 .. i for i up to n-1. *)
let qcheck_exact_fits_packs =
  Tutil.prop "dp_frontier: admitted sizes pack at both field ranges"
    QCheck2.Gen.(
      let* m = int_range 1 70 in
      (* Up to just past the largest admitted n for this m. *)
      let* n = int_range 1 (int_of_float (2e6 ** (1. /. float_of_int m)) + 2) in
      return (m, n))
    (fun (m, n) -> Printf.sprintf "m=%d n=%d" m n)
    (fun (m, n) ->
      (not (Dp_frontier.exact_fits ~m ~n))
      || index_numbers_keys ~fields:m ~lo:(-1) ~hi:(n - 1)
         && index_numbers_keys ~fields:m ~lo:0 ~hi:(n - 1))

let test_frontier_compact () =
  let rng = Rng.create 17 in
  for _ = 0 to 49 do
    let len = Rng.int rng 40 in
    let lv = Dp_frontier.create ~width:2 4 in
    let states =
      List.init len (fun s ->
          let acc = Rng.int rng 8 (* many ties *) in
          ignore (Dp_frontier.push lv [| s; -s |] ~acc ~breaks:[ (s, acc) ]);
          (s, acc))
    in
    let dead = List.filter (fun _ -> Rng.int rng 4 = 0) (List.map fst states) in
    List.iter (fun s -> lv.Dp_frontier.alive.(s) <- false) dead;
    let live = List.filter (fun (s, _) -> not (List.mem s dead)) states in
    Dp_frontier.compact lv;
    check int "survivors" (List.length live) lv.Dp_frontier.len;
    List.iteri
      (fun k (s, acc) ->
        check int "vector moved along" s lv.Dp_frontier.vec.(2 * k);
        check int "whole vector moved" (-s) lv.Dp_frontier.vec.((2 * k) + 1);
        check int "acc moved along" acc lv.Dp_frontier.acc.(k);
        check Alcotest.bool "breaks moved along" true
          (lv.Dp_frontier.breaks.(k) = [ (s, acc) ]);
        check Alcotest.bool "alive" true lv.Dp_frontier.alive.(k))
      live;
    let cheapest =
      List.fold_left
        (fun best (s, a) ->
          match best with Some (_, a') when a' <= a -> best | _ -> Some (s, a))
        None live
    in
    let best = Dp_frontier.best lv in
    match cheapest with
    | None -> check int "best of an empty level" (-1) best
    | Some (s, _) -> check int "best = first cheapest" s lv.Dp_frontier.vec.(2 * best)
  done

let test_frontier_exact_fits () =
  List.iter
    (fun (m, n, fits) ->
      check Alcotest.bool (Printf.sprintf "%d^%d" n m) fits
        (Dp_frontier.exact_fits ~m ~n))
    [
      (1, 2_000_000, true);
      (1, 2_000_001, false);
      (2, 1414, true);
      (2, 1415, false);
      (3, 125, true);
      (3, 126, false);
      (20, 2, true);
      (21, 2, false);
      (* n = 1 admits every m by size; the key packs up to 62 tasks. *)
      (62, 1, true);
      (63, 1, false);
      (1000, 1, false);
      (0, 5_000_000, true);
    ]

let tests =
  [
    qcheck_mt_dp_matches_brute;
    qcheck_mt_dp_sequential_modes;
    qcheck_mt_dp_with_upper_bound;
    qcheck_ga_never_beats_exact;
    Alcotest.test_case "ga finds phased optimum" `Quick test_ga_finds_optimum_on_phased_instance;
    Alcotest.test_case "ga deterministic" `Quick test_ga_deterministic_given_seed;
    Alcotest.test_case "ga history monotone" `Quick test_ga_history_monotone;
    qcheck_anneal_and_local_sane;
    Alcotest.test_case "local is 1-flip optimal" `Quick test_local_reaches_flip_optimum;
    Alcotest.test_case "greedy portfolio" `Quick test_greedy_portfolio_sorted_and_valid;
    Alcotest.test_case "greedy never/every" `Quick test_greedy_never_and_every;
    qcheck_window_heuristic_valid;
    Alcotest.test_case "mt_dp single step" `Quick test_mt_dp_single_step;
    Alcotest.test_case "dp_frontier index numbers keys" `Quick test_frontier_index;
    Alcotest.test_case "dp_frontier compact keeps the cheapest" `Quick
      test_frontier_compact;
    Alcotest.test_case "dp_frontier exact_fits boundary" `Quick test_frontier_exact_fits;
    Alcotest.test_case "dp_frontier index refuses wide keys" `Quick
      test_frontier_index_refuses_wide_keys;
    qcheck_exact_fits_packs;
  ]

(* Mt_moves invariants and Interval_cost oracle properties. *)

open Hr_core
module Rng = Hr_util.Rng

let column0_ok g = Array.for_all (fun row -> row.(0)) g

let dims_ok ~m ~n g =
  Array.length g = m && Array.for_all (fun row -> Array.length row = n) g

let gen_seeded =
  QCheck2.Gen.(
    triple (int_range 1 4) (int_range 1 12) (int_bound 10_000))

let prop name f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name
       ~print:(fun (m, n, seed) -> Printf.sprintf "m=%d n=%d seed=%d" m n seed)
       gen_seeded f)

let with_matrix (m, n, seed) k =
  let rng = Rng.create seed in
  let g = Mt_moves.random rng ~m ~n ~density:0.3 in
  k rng g m n

let qcheck_random_invariants =
  prop "random matrices keep column 0 and dimensions" (fun inst ->
      with_matrix inst (fun _ g m n -> column0_ok g && dims_ok ~m ~n g))

let qcheck_moves_preserve_invariants =
  prop "flip/shift/align/mutate preserve the invariants" (fun inst ->
      with_matrix inst (fun rng g m n ->
          List.for_all
            (fun move ->
              let g' = move rng g in
              column0_ok g' && dims_ok ~m ~n g')
            [ Mt_moves.flip; Mt_moves.shift; Mt_moves.align; Mt_moves.mutate ]))

let qcheck_moves_do_not_mutate_input =
  prop "moves never mutate their input" (fun inst ->
      with_matrix inst (fun rng g _ _ ->
          let copy = Mt_moves.copy g in
          List.iter
            (fun move -> ignore (move rng g))
            [ Mt_moves.flip; Mt_moves.shift; Mt_moves.align; Mt_moves.mutate ];
          g = copy))

let qcheck_crossover_invariants =
  prop "crossover preserves invariants and draws from parents" (fun (m, n, seed) ->
      let rng = Rng.create seed in
      let a = Mt_moves.random rng ~m ~n ~density:0.2 in
      let b = Mt_moves.random rng ~m ~n ~density:0.6 in
      let c = Mt_moves.crossover rng a b in
      column0_ok c && dims_ok ~m ~n c
      &&
      (* Every cell agrees with at least one parent. *)
      let ok = ref true in
      Array.iteri
        (fun j row ->
          Array.iteri (fun i v -> if v <> a.(j).(i) && v <> b.(j).(i) then ok := false) row)
        c;
      !ok)

let qcheck_neighbors_enumeration =
  prop "neighbors = m*(n-1) single flips" (fun inst ->
      with_matrix inst (fun _ g m n ->
          let neighbors = List.of_seq (Mt_moves.neighbors g) in
          List.length neighbors = m * (n - 1)
          && List.for_all
               (fun g' ->
                 column0_ok g'
                 &&
                 (* Exactly one cell differs. *)
                 let diff = ref 0 in
                 Array.iteri
                   (fun j row ->
                     Array.iteri (fun i v -> if v <> g.(j).(i) then incr diff) row)
                   g';
                 !diff = 1)
               neighbors))

(* ---- Pinned move outputs ---- *)

(* The moves' outputs for fixed seeds, value for value, captured from
   the copy-per-move implementation that the in-place chain replaced.
   The GA and the annealer draw every genome through these moves, so a
   change here changes the plans they return.  Matrices print as rows
   of ['#'] (break) / ['.'], separated by ['|']. *)
let show g =
  String.concat "|"
    (Array.to_list
       (Array.map
          (fun row -> String.init (Array.length row) (fun i -> if row.(i) then '#' else '.'))
          g))

let check_each name expected draw =
  List.iteri
    (fun k want -> Alcotest.(check string) (Printf.sprintf "%s %d" name k) want (draw ()))
    expected

let test_moves_pinned () =
  let rng = Rng.create 7 in
  let a = Mt_moves.random rng ~m:3 ~n:10 ~density:0.3 in
  let b = Mt_moves.random rng ~m:3 ~n:10 ~density:0.3 in
  Alcotest.(check string) "random a" "#.#...#..#|#.#.......|#...#....#" (show a);
  Alcotest.(check string) "random b" "#....#.#..|##.##...##|#.......##" (show b);
  check_each "mutate"
    [
      "#.#...#..#|#..#......|#...#....#";
      "#.#...#..#|#.........|#...#....#";
      "#.#...#..#|#.#.......|#...#...#.";
      "#.#.#.#.##|#.#.#...#.|#...#...##";
      "#.#...#..#|#.#.....#.|#...#....#";
      "#..#..#.##|#.#.......|#...#...##";
      "#.#...#..#|##........|#...#....#";
      "#.#...#..#|#.#.......|#...#..#.#";
    ]
    (fun () -> show (Mt_moves.mutate rng a));
  check_each "crossover"
    [
      "#.#...#..#|##.##...##|#...#....#";
      "#.#..#.#..|#.#.....##|#...#...##";
      "#.#...##..|#.#.....##|#...#...##";
      "#.#...#..#|##.##...##|#...#....#";
      "#....#.#..|#.#.......|#...#....#";
      "#.#...#...|#.#......#|#...#....#";
    ]
    (fun () -> show (Mt_moves.crossover rng a b));
  Alcotest.(check int) "draws consumed" 3211822710800502052 (Rng.bits64 rng);
  let rng = Rng.create 11 in
  let g = Mt_moves.random rng ~m:3 ~n:10 ~density:0.3 in
  Alcotest.(check string) "random g" "#.#..#.#..|#.##...#..|#..#......" (show g);
  check_each "flip"
    [
      "#.#..#.#.#|#.##...#..|#..#......";
      "#.#..#.#..|#.##...#..|#..#...#..";
      "#.#..###..|#.##...#..|#..#......";
      "#.#..#.##.|#.##...#..|#..#......";
    ]
    (fun () -> show (Mt_moves.flip rng g));
  check_each "shift"
    [
      "#.#..#.#..|#.##...#..|#..#......";
      "#.#..#.#..|#.##...#..|#...#.....";
      "#.#..#.#..|#.##...#..|#.#.......";
      "#.#..##...|#.##...#..|#..#......";
    ]
    (fun () -> show (Mt_moves.shift rng g));
  check_each "align"
    [
      "#.#..#....|#.##......|#..#......";
      "#.#....#..|#.##...#..|#..#......";
      "#.#..#.#..|#.##...#..|#..#......";
      "#.#..#.#..|#.##...#..|#.##......";
    ]
    (fun () -> show (Mt_moves.align rng g))

let test_moves_pinned_all_shapes () =
  (* Every move on 20 random pairs of each shape m = 1..4, n = 1..12 —
     the one- and two-step rows included — folded into one digest. *)
  let buf = Buffer.create 4096 in
  let rng = Rng.create 99 in
  for m = 1 to 4 do
    for n = 1 to 12 do
      for _ = 1 to 20 do
        let d = Rng.float rng in
        let a = Mt_moves.random rng ~m ~n ~density:d in
        let b = Mt_moves.random rng ~m ~n ~density:(1. -. d) in
        let add g = Buffer.add_string buf (show g) in
        add (Mt_moves.mutate rng a);
        add (Mt_moves.crossover rng a b);
        add (Mt_moves.shift rng a);
        add (Mt_moves.align rng b);
        add (Mt_moves.flip rng b)
      done
    done
  done;
  Alcotest.(check string) "digest" "854a8e281de0efd108f9d38b4aefb4fa"
    (Digest.to_hex (Digest.string (Buffer.contents buf)));
  Alcotest.(check int) "draws consumed" 3652913111584627353 (Rng.bits64 rng)

(* ---- Interval_cost oracle properties ---- *)

let qcheck_oracle_monotone =
  Tutil.prop "switch oracle is interval-monotone"
    (Tutil.gen_mt_instance ~max_m:3 ~max_n:8 ~max_width:5)
    Tutil.show_mt_instance
    (fun inst ->
      let oracle = Tutil.oracle_of_instance inst in
      let n = oracle.Interval_cost.n in
      let ok = ref true in
      for j = 0 to oracle.Interval_cost.m - 1 do
        for lo = 0 to n - 1 do
          for hi = lo to n - 1 do
            let c = oracle.Interval_cost.step_cost j lo hi in
            if lo > 0 && oracle.Interval_cost.step_cost j (lo - 1) hi < c then
              ok := false;
            if hi < n - 1 && oracle.Interval_cost.step_cost j lo (hi + 1) < c then
              ok := false
          done
        done
      done;
      !ok)

let qcheck_precompute_transparent =
  Tutil.prop "precomputed oracle returns identical values"
    (Tutil.gen_mt_instance ~max_m:3 ~max_n:8 ~max_width:5)
    Tutil.show_mt_instance
    (fun inst ->
      let oracle = Tutil.oracle_of_instance inst in
      (* A custom oracle over the same cells, filled by precompute from
         step_cost calls. *)
      let dense =
        Interval_cost.precompute
          (Interval_cost.make ~m:oracle.Interval_cost.m ~n:oracle.Interval_cost.n
             ~v:oracle.Interval_cost.v ~step_cost:oracle.Interval_cost.step_cost)
      in
      let n = oracle.Interval_cost.n in
      let ok = ref ((Interval_cost.cache_stats dense).Interval_cost.kind = "dense") in
      for j = 0 to oracle.Interval_cost.m - 1 do
        for lo = 0 to n - 1 do
          for hi = lo to n - 1 do
            if dense.Interval_cost.step_cost j lo hi <> oracle.Interval_cost.step_cost j lo hi
            then ok := false
          done
        done
      done;
      !ok)

let tests =
  [
    qcheck_random_invariants;
    qcheck_moves_preserve_invariants;
    qcheck_moves_do_not_mutate_input;
    qcheck_crossover_invariants;
    qcheck_neighbors_enumeration;
    Alcotest.test_case "moves pinned" `Quick test_moves_pinned;
    Alcotest.test_case "moves pinned on all shapes" `Quick test_moves_pinned_all_shapes;
    qcheck_oracle_monotone;
    qcheck_precompute_transparent;
  ]

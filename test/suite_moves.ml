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
    qcheck_oracle_monotone;
    qcheck_precompute_transparent;
  ]

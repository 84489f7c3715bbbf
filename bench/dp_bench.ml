(* DP-engine benchmark: the flat-state Mt_dp engine against the
   original list-of-records engine it replaced, plus the dense oracle
   builds: the switch model's next-occurrence sweep, and precompute's
   pooled row fill of a custom oracle against a forced-sequential one.

   `dune exec bench/dp_bench.exe -- [--seed S] [--out FILE]` solves one
   pinned exact workload with both engines, cross-checks that their
   answers are bit-identical (cost, plan, states explored — the flat
   engine is a representation change, not an algorithm change), and
   writes a hyperreconf.bench/1 JSON summary (default BENCH_dp.json).
   Exits non-zero when the engines disagree or the swept table differs
   from the precomputed one in any cell. *)

module Budget = Hr_util.Budget
module Pool = Hr_util.Pool
module Rng = Hr_util.Rng
module W = Hr_workload
open Hr_core

(* The pre-flat-state engine, kept as the benchmark baseline and
   differential reference: its exact mode verbatim. *)
module Reference = struct
  type outcome = {
    cost : int;
    bp : Breakpoints.t;
    exact : bool;
    states_explored : int;
    cut_off : bool;
  }

  type state = {
    ends : int array;
    costs : int array;
    acc : int;
    breaks : (int * int) list;
  }

  let combine_hyper params vs =
    match params.Sync_cost.hyper with
    | Sync_cost.Task_parallel -> List.fold_left max 0 vs
    | Sync_cost.Task_sequential -> List.fold_left ( + ) 0 vs

  let combine_reconf params pub costs =
    match params.Sync_cost.reconf with
    | Sync_cost.Task_parallel -> Array.fold_left max pub costs
    | Sync_cost.Task_sequential -> Array.fold_left ( + ) pub costs

  let pareto_filter states =
    let groups = Hashtbl.create 256 in
    List.iter
      (fun s ->
        let key = Array.to_list s.ends in
        let prev = Option.value (Hashtbl.find_opt groups key) ~default:[] in
        Hashtbl.replace groups key (s :: prev))
      states;
    Hashtbl.fold
      (fun _ group acc ->
        let deduped =
          List.fold_left
            (fun kept a ->
              if List.exists (fun b -> b.acc = a.acc && b.costs = a.costs) kept
              then kept
              else a :: kept)
            [] group
        in
        let strictly_dominates b a =
          b.acc <= a.acc
          && Array.for_all2 ( <= ) b.costs a.costs
          && (b.acc < a.acc || b.costs <> a.costs)
        in
        let survivors =
          List.filter
            (fun a -> not (List.exists (fun b -> strictly_dominates b a) deduped))
            deduped
        in
        List.rev_append survivors acc)
      groups []

  let solve ?(params = Sync_cost.default_params) ?upper_bound
      ?(budget = Hr_util.Budget.unlimited) (oracle : Interval_cost.t) =
    let m = oracle.Interval_cost.m and n = oracle.Interval_cost.n in
    let sc = oracle.Interval_cost.step_cost and v = oracle.Interval_cost.v in
    let suffix = Array.make (n + 1) 0 in
    for i = n - 1 downto 0 do
      let step_lb =
        combine_reconf params params.Sync_cost.pub
          (Array.init m (fun j -> sc j i i))
      in
      suffix.(i) <- suffix.(i + 1) + step_lb
    done;
    let explored = ref 0 in
    let cut = ref false in
    let ub = ref (Option.value upper_bound ~default:max_int) in
    let end_candidates i = List.init (n - i) (fun k -> i + k) in
    let expand_state i s =
      let restarting =
        List.filter (fun j -> s.ends.(j) = i - 1) (List.init m Fun.id)
      in
      let hyper = combine_hyper params (List.map (fun j -> v.(j)) restarting) in
      let out = ref [] in
      let rec go rs ends costs breaks =
        match rs with
        | [] ->
            let reconf = combine_reconf params params.Sync_cost.pub costs in
            let acc = s.acc + hyper + reconf in
            if acc + suffix.(i + 1) <= !ub then
              out := { ends; costs; acc; breaks } :: !out
        | j :: rest ->
            List.iter
              (fun hi ->
                let ends' = Array.copy ends and costs' = Array.copy costs in
                ends'.(j) <- hi;
                costs'.(j) <- sc j i hi;
                go rest ends' costs' ((j, i) :: breaks))
              (end_candidates i)
      in
      go restarting s.ends s.costs s.breaks;
      !out
    in
    let prune level =
      let level = pareto_filter level in
      explored := !explored + List.length level;
      level
    in
    let virtual_start =
      { ends = Array.make m (-1); costs = Array.make m 0; acc = 0; breaks = [] }
    in
    let rec finish_cheaply i s =
      if i >= n then s
      else begin
        let restarting =
          List.filter (fun j -> s.ends.(j) = i - 1) (List.init m Fun.id)
        in
        let hyper =
          combine_hyper params (List.map (fun j -> v.(j)) restarting)
        in
        let ends = Array.copy s.ends and costs = Array.copy s.costs in
        let breaks = ref s.breaks in
        List.iter
          (fun j ->
            ends.(j) <- n - 1;
            costs.(j) <- sc j i (n - 1);
            breaks := (j, i) :: !breaks)
          restarting;
        let reconf = combine_reconf params params.Sync_cost.pub costs in
        finish_cheaply (i + 1)
          { ends; costs; acc = s.acc + hyper + reconf; breaks = !breaks }
      end
    in
    let rec advance i level =
      if i >= n then level
      else if Hr_util.Budget.exhausted budget then begin
        cut := true;
        match level with
        | [] -> []
        | s0 :: rest ->
            let best =
              List.fold_left (fun b s -> if s.acc < b.acc then s else b) s0 rest
            in
            [ finish_cheaply i best ]
      end
      else
        let level = prune (List.concat_map (expand_state i) level) in
        advance (i + 1) level
    in
    let final = advance 0 [ virtual_start ] in
    match final with
    | [] -> invalid_arg "Reference.solve: upper_bound below the optimum"
    | s0 :: rest ->
        let best =
          List.fold_left (fun b s -> if s.acc < b.acc then s else b) s0 rest
        in
        let rows = Array.make m [] in
        List.iter (fun (j, i) -> rows.(j) <- i :: rows.(j)) best.breaks;
        {
          cost = best.acc;
          bp = Breakpoints.of_rows ~m ~n rows;
          exact = not !cut;
          states_explored = !explored;
          cut_off = !cut;
        }
end

let time_best ~reps f =
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to reps do
    let t0 = Budget.now_ms () in
    let r = f () in
    let ms = Budget.now_ms () -. t0 in
    if ms < !best then best := ms;
    result := Some r
  done;
  (Option.get !result, !best)

let parse_args () =
  let seed = ref 2004 and out = ref "BENCH_dp.json" in
  let rec go = function
    | [] -> ()
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        go rest
    | "--out" :: v :: rest ->
        out := v;
        go rest
    | a :: _ -> failwith ("dp_bench: unknown argument " ^ a)
  in
  go (List.tl (Array.to_list Sys.argv));
  (!seed, !out)

(* Pinned exact workload: m=3 keeps n^m under the exact-mode cap while
   the frontier is still large enough that the Pareto filter dominates
   the old engine's runtime. *)
let dp_spec =
  {
    W.Multi_gen.default_spec with
    W.Multi_gen.m = 3;
    n = 30;
    local_sizes = [| 8; 8; 8 |];
  }

(* Oracle-build workload: m=6 so the per-task table builds have real
   parallelism to mine, n sized so a sequential build takes long enough
   to time reliably. *)
let oracle_spec =
  {
    W.Multi_gen.default_spec with
    W.Multi_gen.m = 6;
    n = 440;
    local_sizes = [| 8; 8; 8; 8; 8; 24 |];
  }

let () =
  let seed, out = parse_args () in

  (* --- flat vs reference DP engine ---------------------------------- *)
  let ts = W.Multi_gen.independent (Rng.create seed) dp_spec in
  let oracle = Interval_cost.precompute (Interval_cost.of_task_set ts) in
  ignore (Mt_dp.solve oracle) (* warm: heap sizing, oracle pages *);
  let flat, flat_ms = time_best ~reps:3 (fun () -> Mt_dp.solve oracle) in
  let refr, ref_ms = time_best ~reps:2 (fun () -> Reference.solve oracle) in
  let agree =
    refr.Reference.cost = flat.Mt_dp.cost
    && Breakpoints.equal refr.Reference.bp flat.Mt_dp.bp
    && refr.Reference.states_explored = flat.Mt_dp.states_explored
    && refr.Reference.exact && flat.Mt_dp.exact
    && (not refr.Reference.cut_off)
    && not flat.Mt_dp.cut_off
  in
  let per_s states ms = 1000. *. float_of_int states /. ms in
  let dp_speedup = ref_ms /. flat_ms in

  (* --- oracle build: the switch sweep, and precompute's pooled vs
     sequential row fill ------------------------------------------------ *)
  let ots = W.Multi_gen.independent (Rng.create (seed + 1)) oracle_spec in
  let swept, sweep_ms = time_best ~reps:3 (fun () -> Interval_cost.of_task_set ots) in
  (* A switch task set arrives dense from the sweep, so precompute's
     row fill is timed on a direct oracle over the sparse rung's
     step_cost: the custom-oracle path (DAG, General) that still fills
     cell by cell. *)
  let sparse = Interval_cost.of_task_set ~policy:Interval_cost.Sparse ots in
  let direct () =
    Interval_cost.make ~m:sparse.Interval_cost.m ~n:sparse.Interval_cost.n
      ~v:sparse.Interval_cost.v ~step_cost:sparse.Interval_cost.step_cost
  in
  let build pool () = Interval_cost.precompute ~pool (direct ()) in
  (* A shut-down pool runs everything caller-side — the documented
     degraded mode — which forces a sequential build without a separate
     code path. *)
  let dead = Pool.create ~workers:1 () in
  Pool.shutdown dead;
  let live = Pool.default () in
  ignore (build live ()) (* warm *);
  let _, seq_ms = time_best ~reps:2 (build dead) in
  let pooled_oracle, pooled_ms = time_best ~reps:2 (build live) in
  let stats = Interval_cost.cache_stats pooled_oracle in
  let build_speedup = seq_ms /. pooled_ms in
  let sweep_equal =
    let m = swept.Interval_cost.m and n = swept.Interval_cost.n in
    let ok = ref true in
    for j = 0 to m - 1 do
      for lo = 0 to n - 1 do
        for hi = lo to n - 1 do
          if
            swept.Interval_cost.step_cost j lo hi
            <> pooled_oracle.Interval_cost.step_cost j lo hi
          then ok := false
        done
      done
    done;
    !ok
  in

  (* --- persistent table cache: cold build+store vs warm mmap load --- *)
  let cache_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dp-bench-cache-%d" (Unix.getpid ()))
  in
  let cache = Table_cache.of_dir cache_dir in
  let cts = W.Multi_gen.independent (Rng.create (seed + 2)) oracle_spec in
  let key = "dp-bench-table" in
  let cold_oracle, cold_ms =
    (* One rep: a second would only rebuild and overwrite the same
       file. *)
    time_best ~reps:1 (fun () ->
        let o = Interval_cost.of_task_set cts in
        Interval_cost.store cache ~key o;
        o)
  in
  let dims = (cold_oracle.Interval_cost.m, cold_oracle.Interval_cost.n) in
  let warm_oracle, warm_ms =
    time_best ~reps:3 (fun () ->
        let m, n = dims in
        match
          Interval_cost.of_cache cache ~key ~m ~n ~v:cold_oracle.Interval_cost.v
        with
        | Some o -> o
        | None -> failwith "dp_bench: warm table-cache load missed")
  in
  (* The mapped table must be elementwise identical to the built one. *)
  let warm_equal =
    let m, n = dims in
    let ok = ref true in
    for j = 0 to m - 1 do
      for lo = 0 to n - 1 do
        for hi = lo to n - 1 do
          if
            warm_oracle.Interval_cost.step_cost j lo hi
            <> cold_oracle.Interval_cost.step_cost j lo hi
          then ok := false
        done
      done
    done;
    !ok
  in
  let cstats = Table_cache.stats cache in
  let warm_oracle_stats = Interval_cost.cache_stats warm_oracle in
  (try Sys.remove (Table_cache.file cache ~key) with Sys_error _ -> ());
  (try Unix.rmdir cache_dir with Unix.Unix_error _ -> ());

  (* --- large-n sparse-oracle track ---------------------------------- *)
  (* The point of the sparse rung: instances whose dense tables are
     outright infeasible (m=4, n=50000 projects to m·n(n+1) = 10 GB)
     build in well under a second, hold linear memory, and solve end to
     end.  Plus a paired small instance where both rungs are feasible,
     checked for elementwise and whole-plan agreement. *)
  let large_m = 4 and large_n = 50_000 in
  let lts = W.Large_gen.task_set ~seed:(seed + 3) ~steps:large_n ~tasks:large_m () in
  let sparse_oracle, sparse_build_ms =
    time_best ~reps:1 (fun () ->
        Interval_cost.of_task_set ~policy:Interval_cost.Sparse lts)
  in
  let dense_projected_bytes = Interval_cost.projected_dense_bytes ~bound:0 ~m:large_m ~n:large_n in
  let greedy, greedy_ms =
    time_best ~reps:1 (fun () -> Mt_greedy.best sparse_oracle)
  in
  (* Snapshot AFTER the solve so the query counter reflects it. *)
  let sstats = Interval_cost.cache_stats sparse_oracle in
  let dts = W.Large_gen.task_set ~seed:(seed + 3) ~steps:large_n ~tasks:1 () in
  let dp_oracle = Interval_cost.of_task_set ~policy:Interval_cost.Sparse dts in
  let dp_sol, dp_ms =
    time_best ~reps:1 (fun () ->
        Mt_dp.solve ~budget:(Budget.of_deadline_ms 2000) dp_oracle)
  in
  (* Paired rung-agreement instance: small enough that the dense tables
     are cheap, large enough that disagreement would surface. *)
  let pts = W.Large_gen.task_set ~seed:(seed + 4) ~steps:1200 ~tasks:3 () in
  let dense_p = Interval_cost.of_task_set ~policy:Interval_cost.Dense pts in
  let sparse_p = Interval_cost.of_task_set ~policy:Interval_cost.Sparse pts in
  let rung_cells_equal =
    let rng = Rng.create (seed + 5) in
    let ok = ref true in
    for _ = 1 to 20_000 do
      let j = Rng.int rng 3 in
      let lo = Rng.int rng 1200 in
      let hi = lo + Rng.int rng (1200 - lo) in
      if
        dense_p.Interval_cost.step_cost j lo hi
        <> sparse_p.Interval_cost.step_cost j lo hi
      then ok := false
    done;
    !ok
  in
  let gd = Mt_greedy.best dense_p and gs = Mt_greedy.best sparse_p in
  let rung_plans_equal =
    gd.Mt_greedy.cost = gs.Mt_greedy.cost
    && Breakpoints.equal gd.Mt_greedy.bp gs.Mt_greedy.bp
  in
  let large_ok =
    sparse_build_ms < 1000.
    && sstats.Interval_cost.bytes_resident < 100 * 1024 * 1024
    && sstats.Interval_cost.queries > 0
    && rung_cells_equal && rung_plans_equal
  in

  let doc =
    Telemetry.Obj
      [
        ("schema", Telemetry.String "hyperreconf.bench/1");
        ("bench", Telemetry.String "dp-engine");
        ("seed", Telemetry.Int seed);
        ( "dp",
          Telemetry.Obj
            [
              ("m", Telemetry.Int dp_spec.W.Multi_gen.m);
              ("n", Telemetry.Int dp_spec.W.Multi_gen.n);
              ("cost", Telemetry.Int flat.Mt_dp.cost);
              ("states", Telemetry.Int flat.Mt_dp.states_explored);
              ("engines_agree", Telemetry.Bool agree);
              ("reference_ms", Telemetry.Float ref_ms);
              ("flat_ms", Telemetry.Float flat_ms);
              ( "reference_states_per_s",
                Telemetry.Float (per_s refr.Reference.states_explored ref_ms) );
              ( "flat_states_per_s",
                Telemetry.Float (per_s flat.Mt_dp.states_explored flat_ms) );
              ("speedup", Telemetry.Float dp_speedup);
            ] );
        ( "oracle_build",
          Telemetry.Obj
            [
              ("m", Telemetry.Int oracle_spec.W.Multi_gen.m);
              ("n", Telemetry.Int oracle_spec.W.Multi_gen.n);
              ("cells", Telemetry.Int stats.Interval_cost.cells);
              ("sweep_ms", Telemetry.Float sweep_ms);
              ("sweep_equal", Telemetry.Bool sweep_equal);
              ("sequential_ms", Telemetry.Float seq_ms);
              ("pooled_ms", Telemetry.Float pooled_ms);
              ("speedup", Telemetry.Float build_speedup);
              ("build_workers", Telemetry.Int stats.Interval_cost.build_workers);
              ("build_ms", Telemetry.Float stats.Interval_cost.build_ms);
              ( "build_seq_ms",
                Telemetry.Float stats.Interval_cost.build_seq_ms );
            ] );
        ( "table_cache",
          Telemetry.Obj
            [
              ("cells", Telemetry.Int warm_oracle_stats.Interval_cost.cells);
              ( "width_bits",
                Telemetry.Int warm_oracle_stats.Interval_cost.width_bits );
              ( "bytes_resident",
                Telemetry.Int warm_oracle_stats.Interval_cost.bytes_resident );
              ("cold_ms", Telemetry.Float cold_ms);
              ("warm_ms", Telemetry.Float warm_ms);
              ("speedup", Telemetry.Float (cold_ms /. warm_ms));
              ( "warm_build_ms",
                (* ≈ 0: the warm path maps the file, no oracle calls. *)
                Telemetry.Float warm_oracle_stats.Interval_cost.build_ms );
              ("source", Telemetry.String warm_oracle_stats.Interval_cost.source);
              ("hits", Telemetry.Int cstats.Table_cache.hits);
              ("misses", Telemetry.Int cstats.Table_cache.misses);
              ("stores", Telemetry.Int cstats.Table_cache.stores);
              ("warm_equal", Telemetry.Bool warm_equal);
            ] );
        ( "large_n",
          Telemetry.Obj
            [
              ("m", Telemetry.Int large_m);
              ("n", Telemetry.Int large_n);
              ("segments", Telemetry.Int sstats.Interval_cost.segments);
              ("entries", Telemetry.Int sstats.Interval_cost.cells);
              ("build_ms", Telemetry.Float sparse_build_ms);
              ( "bytes_resident",
                Telemetry.Int sstats.Interval_cost.bytes_resident );
              ("dense_projected_bytes", Telemetry.Int dense_projected_bytes);
              ("queries", Telemetry.Int sstats.Interval_cost.queries);
              ("greedy_cost", Telemetry.Int greedy.Mt_greedy.cost);
              ("greedy_name", Telemetry.String greedy.Mt_greedy.name);
              ("greedy_ms", Telemetry.Float greedy_ms);
              ("dp_cost", Telemetry.Int dp_sol.Mt_dp.cost);
              ("dp_cut_off", Telemetry.Bool dp_sol.Mt_dp.cut_off);
              ("dp_ms", Telemetry.Float dp_ms);
              ("rung_cells_equal", Telemetry.Bool rung_cells_equal);
              ("rung_plans_equal", Telemetry.Bool rung_plans_equal);
              ("ok", Telemetry.Bool large_ok);
            ] );
      ]
  in
  let oc = open_out out in
  output_string oc (Telemetry.json_to_string doc);
  close_out oc;
  Printf.printf
    "dp-engine: m=%d n=%d | reference %.1f ms (%.0f states/s) | flat %.1f ms \
     (%.0f states/s) | speedup %.1fx\n\
     oracle-build: m=%d n=%d (%d cells) | sweep %.1f ms | precompute: \
     sequential %.1f ms, pooled %.1f ms (%d workers), speedup %.1fx | sweep \
     = precompute: %b | summary %s\n"
    dp_spec.W.Multi_gen.m dp_spec.W.Multi_gen.n ref_ms
    (per_s refr.Reference.states_explored ref_ms)
    flat_ms
    (per_s flat.Mt_dp.states_explored flat_ms)
    dp_speedup oracle_spec.W.Multi_gen.m oracle_spec.W.Multi_gen.n
    stats.Interval_cost.cells sweep_ms seq_ms pooled_ms
    stats.Interval_cost.build_workers build_speedup sweep_equal out;
  Printf.printf
    "table-cache: %d cells (%d-bit, %d bytes) | cold %.1f ms | warm %.1f ms \
     (mmap, %.1fx) | %d hit(s), %d store(s)\n"
    warm_oracle_stats.Interval_cost.cells
    warm_oracle_stats.Interval_cost.width_bits
    warm_oracle_stats.Interval_cost.bytes_resident cold_ms warm_ms
    (cold_ms /. warm_ms) cstats.Table_cache.hits cstats.Table_cache.stores;
  Printf.printf
    "large-n: m=%d n=%d | sparse build %.1f ms, %d segments, %d bytes (dense \
     would need %d MB) | greedy %s cost %d in %.1f ms | mt-dp (m=1, 2 s \
     budget) cost %d in %.1f ms%s | rungs agree: cells %b, plans %b\n"
    large_m large_n sparse_build_ms sstats.Interval_cost.segments
    sstats.Interval_cost.bytes_resident
    (dense_projected_bytes / 1024 / 1024)
    greedy.Mt_greedy.name greedy.Mt_greedy.cost greedy_ms dp_sol.Mt_dp.cost
    dp_ms
    (if dp_sol.Mt_dp.cut_off then " (cut off)" else "")
    rung_cells_equal rung_plans_equal;
  if not large_ok then begin
    Printf.eprintf
      "dp_bench: large-n sparse track failed (build %.1f ms, %d bytes, %d \
       queries, cells_equal %b, plans_equal %b)\n"
      sparse_build_ms sstats.Interval_cost.bytes_resident
      sstats.Interval_cost.queries rung_cells_equal rung_plans_equal;
    exit 1
  end;
  if not sweep_equal then begin
    Printf.eprintf "dp_bench: the swept table deviates from the precomputed table\n";
    exit 1
  end;
  if not warm_equal then begin
    Printf.eprintf "dp_bench: warm-loaded table deviates from the built table\n";
    exit 1
  end;
  if not agree then begin
    Printf.eprintf
      "dp_bench: flat engine deviates from the reference engine (cost %d vs \
       %d, states %d vs %d)\n"
      flat.Mt_dp.cost refr.Reference.cost flat.Mt_dp.states_explored
      refr.Reference.states_explored;
    exit 1
  end

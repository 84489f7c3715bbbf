(* Bechamel microbenchmarks: one Test.make per reproduced table /
   figure pipeline stage, so regressions in the algorithmic kernels are
   visible.  Kept short (0.25 s quota per test) because the experiment
   harness above is the expensive part. *)

open Bechamel
open Toolkit
open Hr_core
module Rng = Hr_util.Rng
module Shyra = Hr_shyra
module W = Hr_workload

let counter_trace =
  lazy
    (Shyra.Tracer.trace (Shyra.Counter.build ~init:0 ~bound:10 ()).Shyra.Counter.program)

(* F1/T0: simulator and tracer throughput. *)
let test_shyra_sim =
  Test.make ~name:"shyra/counter-run+trace"
    (Staged.stage (fun () ->
         let run = Shyra.Counter.build ~init:0 ~bound:10 () in
         Shyra.Tracer.trace run.Shyra.Counter.program))

(* T1 single-task column: the O(n^2) DP of [9]. *)
let test_st_opt =
  let traces =
    List.map
      (fun n ->
        let rng = Rng.create 5 in
        let space = Switch_space.make 48 in
        (n, W.Synthetic.uniform rng space ~n ~density:0.2))
      [ 64; 128; 256 ]
  in
  Test.make_indexed ~name:"st_opt/solve" ~args:(List.map fst traces) (fun n ->
      let trace = List.assoc n traces in
      Staged.stage (fun () -> St_opt.solve_trace ~v:48 trace))

(* T1 multi-task column: one GA generation's worth of evaluations. *)
let test_sync_eval =
  Test.make ~name:"sync_cost/eval-counter-4task"
    (Staged.stage
       (let oracle =
          lazy (Shyra.Tasks.oracle (Lazy.force counter_trace) Shyra.Tasks.four_tasks)
        in
        let bp = lazy (Breakpoints.periodic ~m:4 ~n:84 8) in
        fun () -> Sync_cost.eval (Lazy.force oracle) (Lazy.force bp)))

(* The GA itself, tiny budget. *)
let test_ga =
  Test.make ~name:"mt_ga/30-generations"
    (Staged.stage
       (let oracle =
          lazy (Shyra.Tasks.oracle (Lazy.force counter_trace) Shyra.Tasks.four_tasks)
        in
        fun () ->
          let config =
            {
              Hr_evolve.Ga.default_config with
              Hr_evolve.Ga.generations = 30;
              population = 16;
            }
          in
          Mt_ga.solve ~config ~rng:(Rng.create 1) (Lazy.force oracle)))

(* A4: the DAG DP. *)
let test_dag =
  Test.make ~name:"st_dag_opt/solve-n100"
    (Staged.stage
       (let inst = lazy (W.Dag_gen.instance (Rng.create 3) W.Dag_gen.default_spec) in
        fun () ->
          let model, seq = Lazy.force inst in
          St_dag_opt.solve model seq))

(* A5: the O(n^3) changeover DP. *)
let test_changeover =
  Test.make ~name:"st_changeover/solve-n84"
    (Staged.stage (fun () -> St_changeover.solve_union ~w:24 (Lazy.force counter_trace)))

(* Kernels: bitsets and interval-union tables. *)
let test_bitset =
  Test.make ~name:"bitset/union-cardinal-48"
    (Staged.stage
       (let rng = Rng.create 9 in
        let a = Hr_util.Bitset.random (fun () -> Rng.float rng) ~width:48 ~density:0.3 in
        let b = Hr_util.Bitset.random (fun () -> Rng.float rng) ~width:48 ~density:0.3 in
        fun () -> Hr_util.Bitset.cardinal (Hr_util.Bitset.union a b)))

let test_dense_build =
  Test.make ~name:"interval_cost/dense-build-n84"
    (Staged.stage (fun () -> Interval_cost.of_single ~v:0 (Lazy.force counter_trace)))

(* A17: mesh bus resolution (the inner loop of mesh simulation). *)
let test_mesh_resolve =
  Test.make ~name:"rmesh/resolve-9x8"
    (Staged.stage
       (let grid = Hr_rmesh.Algos.counting_grid 8 in
        let config =
          Hr_rmesh.Algos.counting_config grid
            (Array.init 8 (fun i -> i mod 2 = 0))
        in
        fun () -> Hr_rmesh.Grid.resolve grid config))

(* Dense-table lookups behind Problem.make, under a query storm on one
   domain and spread across all domains — the access pattern of
   Solver.race.  The table is built before staging, so steady-state
   lookups are what is measured. *)
let oracle_cache_tests =
  let dense =
    lazy
      (let spec = { W.Multi_gen.default_spec with W.Multi_gen.m = 4; n = 96 } in
       Interval_cost.of_task_set (W.Multi_gen.correlated (Rng.create 21) spec))
  in
  let queries =
    lazy
      (let o = Lazy.force dense in
       let m = o.Interval_cost.m and n = o.Interval_cost.n in
       let rng = Rng.create 22 in
       Array.init 4096 (fun _ ->
           let j = Rng.int rng m in
           let lo = Rng.int rng n in
           let hi = lo + Rng.int rng (n - lo) in
           (j, lo, hi)))
  in
  let storm ~domains o =
    let qs = Lazy.force queries in
    let sc = o.Interval_cost.step_cost in
    let burn lo hi =
      let acc = ref 0 in
      for i = lo to hi do
        let j, l, h = qs.(i) in
        acc := !acc + sc j l h
      done;
      ignore !acc
    in
    if domains <= 1 then burn 0 (Array.length qs - 1)
    else Hr_util.Par.iter_chunks ~domains burn (Array.length qs)
  in
  List.map
    (fun domains ->
      Test.make ~name:(Printf.sprintf "interval_cost/dense-lookup-%ddom" domains)
        (Staged.stage (fun () -> storm ~domains (Lazy.force dense))))
    [ 1; 4 ]

(* The referee VM (differential oracle of the §4.2 formulas). *)
let test_vm =
  Test.make ~name:"machine_vm/counter-4task"
    (Staged.stage
       (let data =
          lazy
            (let trace = Lazy.force counter_trace in
             let ts = Shyra.Tasks.split trace Shyra.Tasks.four_tasks in
             (ts, Breakpoints.periodic ~m:4 ~n:84 8))
        in
        fun () ->
          let ts, bp = Lazy.force data in
          Machine_vm.execute_breakpoints ts bp))

let all_tests =
  Test.make_grouped ~name:"hyperreconf"
    ([
      test_shyra_sim;
      test_st_opt;
      test_sync_eval;
      test_ga;
      test_dag;
      test_changeover;
      test_bitset;
      test_dense_build;
      test_mesh_resolve;
      test_vm;
    ]
  @ oracle_cache_tests)

(* The solver-racing harness under a deadline, reported through the
   structured telemetry layer — the same table hropt --telemetry feeds
   to JSON, so harness regressions (a backend suddenly blowing its
   budget, oracle-cache thrash) show up next to the kernel numbers. *)
let run_race_telemetry () =
  Hr_util.Tablefmt.section "solver race telemetry (200 ms deadline)";
  let spec = { W.Multi_gen.default_spec with W.Multi_gen.m = 4; n = 96 } in
  let ts = W.Multi_gen.correlated (Rng.create 21) spec in
  let problem = Problem.of_task_set ts in
  let deadline_ms = 200 in
  let t0 = Hr_util.Budget.now_ms () in
  let reports =
    Solver_registry.run_all
      ~budget:(Hr_util.Budget.of_deadline_ms deadline_ms)
      problem
  in
  let total_ms = Hr_util.Budget.now_ms () -. t0 in
  let t = Telemetry.make ~label:"bench-race" ~deadline_ms ~problem ~total_ms reports in
  Format.printf "%a" Telemetry.pp t

let run () =
  Hr_util.Tablefmt.section "microbenchmarks (bechamel)";
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] all_tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (t :: _) -> t
          | _ -> Float.nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort compare
  in
  Hr_util.Tablefmt.print
    ~header:[ "benchmark"; "time/run" ]
    (List.map
       (fun (name, ns) ->
         let human =
           if Float.is_nan ns then "n/a"
           else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
           else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
           else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
           else Printf.sprintf "%.0f ns" ns
         in
         [ name; human ])
       rows);
  run_race_telemetry ()

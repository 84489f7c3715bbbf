(* CLI: optimize (hyper)reconfiguration plans for a workload.

   Workloads: the SHyRA counter trace (the paper's experiment) or
   synthetic multi-task phased workloads.  Solvers are resolved by name
   through Solver_registry: any registered backend, "portfolio" (run
   every applicable backend and tabulate), "race" (run them on parallel
   domains and keep the best), "eval" (referee a saved plan) or "list"
   (show the registry).

   --deadline-ms bounds any solver run with a cooperative budget
   (best-so-far answers, marked inexact); --telemetry FILE dumps the
   structured per-solver report as JSON (schema in docs/solvers.md). *)

open Cmdliner
open Hr_core
module Budget = Hr_util.Budget
module Rng = Hr_util.Rng
module Shyra = Hr_shyra
module W = Hr_workload

(* The closed string enums, parsed strictly (exit 2 on a typo) and
   eagerly — an unknown --split must fail even under a workload that
   never consumes it. *)
let workload_enum = [ ("counter", `Counter); ("synthetic", `Synthetic); ("file", `File) ]

let mode_enum =
  [
    ("diff", Shyra.Tracer.Diff);
    ("field", Shyra.Tracer.Field_diff);
    ("inuse", Shyra.Tracer.In_use);
  ]

let split_enum =
  [ ("single", Shyra.Tasks.single_task); ("four", Shyra.Tasks.four_tasks) ]

let counter_oracle ?policy ?max_bytes mode parts =
  let run = Shyra.Counter.build ~init:0 ~bound:10 () in
  let trace = Shyra.Tracer.trace ~mode run.Shyra.Counter.program in
  let ts = Shyra.Tasks.split trace parts in
  (Interval_cost.of_task_set ?policy ?max_bytes ts, ts)

let synthetic_oracle ?policy ?max_bytes seed m n correlated =
  let sizes = Array.init m (fun j -> if j = m - 1 then 24 else 8) in
  let spec = { W.Multi_gen.default_spec with W.Multi_gen.m; n; local_sizes = sizes } in
  let gen = if correlated then W.Multi_gen.correlated else W.Multi_gen.independent in
  let ts = gen (Rng.create seed) spec in
  (Interval_cost.of_task_set ?policy ?max_bytes ts, ts)

let file_oracle ?policy ?max_bytes path =
  let trace = Trace_io.load path in
  let ts = Task_set.single ~name:"trace" trace in
  (Interval_cost.of_task_set ?policy ?max_bytes ts, ts)

(* Old method names from before the registry, kept as aliases. *)
let alias = function
  | "local" -> "hill-climb"
  | "exact" -> "mt-dp"
  | s -> s

let list_registry () =
  Hr_util.Tablefmt.print ~header:[ "solver"; "kind"; "description" ]
    (List.map
       (fun (s : Solver.t) ->
         [ s.Solver.name; Solver.kind_name s.Solver.kind; s.Solver.doc ])
       (Solver_registry.all ()))

let run workload mode split seed m n correlated method_ seed_opt deadline_ms
    telemetry_file show_figures trace_file plan_file max_table_mb oracle_policy
    fabric_width =
  Hr_place.Solvers.ensure ();
  let method_ = alias method_ in
  (* Parsed as eagerly as the enums: a bad --max-table-mb fails under
     every workload, not just the ones that build a dense table. *)
  let max_bytes =
    Option.map
      (fun s -> Hr_util.Cli.positive_exn ~what:"--max-table-mb" s * 1024 * 1024)
      max_table_mb
  in
  let policy =
    Hr_util.Cli.enum_exn ~what:"--oracle" Interval_cost.policy_enum oracle_policy
  in
  if method_ = "list" then begin
    list_registry ();
    0
  end
  else begin
    let workload = Hr_util.Cli.enum_exn ~what:"workload" workload_enum workload in
    let tracer_mode = Hr_util.Cli.enum_exn ~what:"trace mode" mode_enum mode in
    let parts = Hr_util.Cli.enum_exn ~what:"split" split_enum split in
    let oracle, ts =
      match workload with
      | `Counter -> counter_oracle ~policy ?max_bytes tracer_mode parts
      | `Synthetic -> synthetic_oracle ~policy ?max_bytes seed m n correlated
      | `File -> (
          match trace_file with
          | Some path -> file_oracle ~policy ?max_bytes path
          | None -> failwith "workload 'file' needs --trace-file")
    in
    let problem = Problem.make ?max_bytes oracle in
    (* --fabric turns the instance into the placement-aware joint
       problem: the base backends refuse it and the place-* family
       takes over. *)
    let problem =
      match fabric_width with
      | None -> problem
      | Some width ->
          Hr_place.Joint.attach problem
            (Hr_place.Fabric.full ~m:oracle.Interval_cost.m
               ~n:oracle.Interval_cost.n ~width ())
    in
    let budget () =
      match deadline_ms with
      | None -> Budget.unlimited
      | Some ms -> Budget.of_deadline_ms ms
    in
    let t0 = Budget.now_ms () in
    (* One report per executed solver, so --telemetry covers every
       method uniformly. *)
    let reports =
      match method_ with
      | "portfolio" ->
          List.map
            (fun s -> Solver.solve_report ~seed:seed_opt ~budget:(budget ()) s problem)
            (Solver_registry.applicable problem)
      | "race" ->
          snd
            (Solver_registry.race_report ~seed:seed_opt ~budget:(budget ())
               problem)
      | "eval" -> (
          match plan_file with
          | None -> failwith "method 'eval' needs --plan-file"
          | Some path -> (
              let bp = Plan_io.load path in
              match Machine_vm.execute_breakpoints ts bp with
              | Ok vm_run ->
                  [
                    {
                      Solver.solver = "saved plan (referee VM)";
                      kind = Solver.Heuristic;
                      outcome = Solver.Finished;
                      wall_ms = 0.;
                      solution =
                        Some
                          (Solution.make ~solver:"saved plan (referee VM)"
                             ~cost:vm_run.Machine_vm.total_time bp);
                    };
                  ]
              | Error e -> failwith ("invalid plan: " ^ e)))
      | name ->
          [ Solver.solve_report ~seed:seed_opt ~budget:(budget ())
              (Solver_registry.find_exn name)
              problem ]
    in
    let total_ms = Budget.now_ms () -. t0 in
    let sols = List.filter_map (fun r -> r.Solver.solution) reports in
    (* Surface crashes: contained in the race, but never silent. *)
    List.iter
      (fun r ->
        match r.Solver.outcome with
        | Solver.Crashed e ->
            Printf.eprintf "hropt: solver %s crashed: %s\n" r.Solver.solver
              (Printexc.to_string e)
        | _ -> ())
      reports;
    if sols = [] then failwith "no solver produced a solution";
    (* The saved plan is the best solution, not the registry-order
       head: under --method portfolio those differ whenever an exact
       backend is beaten to the front of the list. *)
    let best = Solution.best sols in
    Option.iter
      (fun path ->
        if method_ <> "eval" then begin
          Plan_io.save path best.Solution.bp;
          Printf.printf "plan written to %s (%s, cost %d)\n" path
            best.Solution.solver best.Solution.cost
        end)
      plan_file;
    let disabled =
      Sync_cost.disabled_cost ~n:oracle.Interval_cost.n
        ~machine_width:(Task_set.total_local_switches ts) ()
    in
    Format.printf "instance: %a, disabled-baseline cost %d@." Problem.pp problem
      disabled;
    Hr_util.Tablefmt.print
      ~header:[ "solver"; "cost"; "exact"; "% of disabled"; "wall ms"; "outcome" ]
      (List.map
         (fun r ->
           match r.Solver.solution with
           | Some sol ->
               [
                 sol.Solution.solver;
                 string_of_int sol.Solution.cost;
                 (if sol.Solution.exact then "yes"
                  else if sol.Solution.cut_off then "cut off"
                  else "no");
                 Printf.sprintf "%.1f"
                   (100. *. float_of_int sol.Solution.cost /. float_of_int disabled);
                 Printf.sprintf "%.1f" r.Solver.wall_ms;
                 Solver.outcome_name r.Solver.outcome;
               ]
           | None ->
               [
                 r.Solver.solver;
                 "-";
                 "-";
                 "-";
                 Printf.sprintf "%.1f" r.Solver.wall_ms;
                 Solver.outcome_name r.Solver.outcome;
               ])
         reports);
    Option.iter
      (fun path ->
        let t =
          Telemetry.make ~label:method_ ?deadline_ms ~seed:seed_opt ~problem
            ~total_ms reports
        in
        Telemetry.save path t;
        Printf.printf "telemetry written to %s\n" path)
      telemetry_file;
    (if show_figures then
       match sols with
       | _ :: _ ->
           print_newline ();
           print_string (Hr_viz.Figures.fig2 ts best.Solution.bp);
           print_newline ();
           print_string (Hr_viz.Figures.fig3 ts best.Solution.bp)
       | _ -> ());
    0
  end

let workload =
  Arg.(
    value
    & pos 0 string "counter"
    & info [] ~docv:"WORKLOAD" ~doc:"counter, synthetic or file.")

let mode =
  Arg.(value & opt string "field" & info [ "mode" ] ~doc:"Counter trace mode: diff, field, inuse.")

let split =
  Arg.(value & opt string "four" & info [ "split" ] ~doc:"Counter task split: single or four.")

let seed = Arg.(value & opt int 1 & info [ "workload-seed" ] ~doc:"Synthetic workload seed.")

let m = Arg.(value & opt int 4 & info [ "m" ] ~doc:"Synthetic task count.")

let n = Arg.(value & opt int 96 & info [ "n" ] ~doc:"Synthetic step count.")

let correlated =
  Arg.(value & flag & info [ "correlated" ] ~doc:"Correlate phase boundaries across tasks.")

let method_ =
  Arg.(
    value
    & opt string "portfolio"
    & info [ "method" ]
        ~doc:
          "A registered solver name (see --method list), or: portfolio (all \
           applicable solvers), race (parallel race, best wins), eval (referee \
           a saved plan), list (show the registry).")

let seed_opt = Arg.(value & opt int 2004 & info [ "seed" ] ~doc:"Optimizer RNG seed.")

let deadline_ms =
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Cooperative wall-clock budget per solver run.  Iterative backends \
           return their best-so-far plan (marked inexact) when it expires; \
           instantaneous backends ignore it.")

let telemetry_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry" ] ~docv:"FILE"
        ~doc:
          "Write per-solver telemetry (wall-clock, outcome, iterations, \
           oracle-cache stats) as JSON to $(docv).")

let show_figures =
  Arg.(value & flag & info [ "figures" ] ~doc:"Render Fig.2/Fig.3-style views of the best plan.")

let trace_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-file" ] ~docv:"FILE" ~doc:"Trace file for the 'file' workload.")

let plan_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "plan-file" ] ~docv:"FILE"
        ~doc:
          "With --method eval: load and referee-evaluate this plan.  With other \
           methods: write the best plan here.")

let max_table_mb =
  Arg.(
    value
    & opt (some string) None
    & info [ "max-table-mb" ] ~docv:"MB"
        ~doc:
          "Dense oracle-table memory cap in MiB (a positive integer; default \
           128).  A switch-model table takes m·n(n+1) bytes at 16 bits; \
           over-budget switch instances use the sparse index and other \
           over-budget oracles stay uncached.  Telemetry reports the chosen \
           cache kind, element width and resident bytes.")

let oracle_policy =
  Arg.(
    value
    & opt string "auto"
    & info [ "oracle" ] ~docv:"POLICY"
        ~doc:
          "Oracle ladder rung: dense (always precompute the O(1) table), \
           sparse (always the occurrence index — linear memory, O(S log n) \
           queries), or auto (dense while it fits the byte budget, sparse \
           above it; the default).")

let fabric_width =
  Arg.(
    value
    & opt (some int) None
    & info [ "fabric" ] ~docv:"W"
        ~doc:
          "Attach a width-$(docv) placement fabric (every task sized 1, \
           resident throughout, relocation cost 1) and solve the joint \
           placement-aware objective — handled by the place-* backends, \
           refused by the base ones.")

let cmd =
  let doc = "optimize (hyper)reconfiguration plans" in
  Cmd.v (Cmd.info "hropt" ~doc)
    Term.(
      const run $ workload $ mode $ split $ seed $ m $ n $ correlated $ method_
      $ seed_opt $ deadline_ms $ telemetry_file $ show_figures $ trace_file
      $ plan_file $ max_table_mb $ oracle_policy $ fabric_width)

(* cmdliner spells single-char options "-m"/"-n"; accept the "--m"/
   "--n" spelling too (it cannot be a prefix of another option, but
   cmdliner's prefix matching refuses it as ambiguous with --method /
   --mode). *)
let argv =
  Array.map
    (function "--m" -> "-m" | "--n" -> "-n" | a -> a)
    Sys.argv

let () =
  match Cmd.eval' ~catch:false ~argv cmd with
  | code -> exit code
  | exception (Invalid_argument msg | Failure msg | Sys_error msg
              | Solver.Rejected msg) ->
      Printf.eprintf "hropt: %s\n" msg;
      exit 2

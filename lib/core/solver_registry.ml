let table : (string, Solver.t) Hashtbl.t = Hashtbl.create 32
let order : string list ref = ref []

let register ?(override = false) (s : Solver.t) =
  let name = s.Solver.name in
  if Hashtbl.mem table name then begin
    if not override then
      invalid_arg
        (Printf.sprintf "Solver_registry.register: %S already registered" name)
  end
  else order := name :: !order;
  Hashtbl.replace table name s

let find name = Hashtbl.find_opt table name

let all () = List.rev_map (fun name -> Hashtbl.find table name) !order

let names () = List.rev !order

let find_exn name =
  match find name with
  | Some s -> s
  | None ->
      invalid_arg
        (Printf.sprintf "Solver_registry: unknown solver %S (known: %s)" name
           (String.concat ", " (names ())))

let applicable problem =
  List.filter (fun s -> s.Solver.handles problem) (all ())

let solve ?rng ?seed ?budget name problem =
  Solver.solve ?rng ?seed ?budget (find_exn name) problem

let resolve_contestants problem = function
  | None -> applicable problem
  | Some names -> List.map find_exn names

let run_all ?domains ?seed ?budget ?names:wanted problem =
  Solver.run_all ?domains ?seed ?budget (resolve_contestants problem wanted)
    problem

let race_report ?domains ?seed ?budget ?names:wanted problem =
  Solver.race_report ?domains ?seed ?budget (resolve_contestants problem wanted)
    problem

let race ?domains ?seed ?budget ?names:wanted problem =
  Solver.race ?domains ?seed ?budget (resolve_contestants problem wanted) problem

(* ------------------------------------------------------------------ *)
(* Built-in backends.                                                  *)

let fully p = p.Problem.mode = Mixed_sync.Fully_synchronized
let partial p = p.Problem.machine_class <> Problem.All_task

(* Every built-in backend optimizes (and states exactness against) the
   base objective, so all of them refuse extended instances: under a
   joint cost an "exact" base answer would be a wrong claim.
   Extension-aware solvers (lib/place) register with their own
   predicates. *)
let sized p = Problem.plain p && Problem.n p >= 1

let st_dp =
  Solver.make ~name:"st-dp" ~kind:Solver.Exact
    ~doc:"single-task O(n^2) DP of [9] (exact)"
    ~handles:(fun p -> sized p && Problem.m p = 1 && p.Problem.params.Sync_cost.pub = 0)
    (fun ~budget:_ ~rng:_ p ->
      let r = St_opt.solve_oracle p.Problem.oracle ~task:0 in
      let bp = Breakpoints.of_rows ~m:1 ~n:(Problem.n p) [| r.St_opt.breaks |] in
      Solution.make ~solver:"st-dp" ~exact:true
        ~stats:[ ("blocks", string_of_int (List.length r.St_opt.breaks)) ]
        ~cost:r.St_opt.cost bp)

let all_task =
  Solver.make ~name:"all-task" ~kind:Solver.Exact
    ~doc:"combined single-task DP; exact for the all-task machine class"
    ~handles:(fun p -> sized p && fully p)
    (fun ~budget:_ ~rng:_ p ->
      let r = Mt_classes.solve_all_task ~params:p.Problem.params p.Problem.oracle in
      Solution.make ~solver:"all-task"
        ~exact:(p.Problem.machine_class = Problem.All_task)
        ~stats:
          [ ("shared-breaks", string_of_int (List.length r.Mt_classes.breaks)) ]
        ~cost:r.Mt_classes.cost r.Mt_classes.bp)

let mt_dp =
  Solver.make ~name:"mt-dp" ~kind:Solver.Exact
    ~doc:"exact multi-task DP (Theorem 1), n^m <= 2e6"
    ~handles:(fun p ->
      sized p && fully p && partial p
      && Dp_frontier.exact_fits ~m:(Problem.m p) ~n:(Problem.n p))
    (fun ~budget ~rng:_ p ->
      let params = p.Problem.params in
      let ub = (Mt_greedy.best ~params p.Problem.oracle).Mt_greedy.cost in
      let r = Mt_dp.solve ~params ~upper_bound:ub ~budget p.Problem.oracle in
      Solution.make ~solver:"mt-dp" ~exact:r.Mt_dp.exact
        ~cut_off:r.Mt_dp.cut_off
        ~stats:[ ("states", string_of_int r.Mt_dp.states_explored) ]
        ~cost:r.Mt_dp.cost r.Mt_dp.bp)

let brute =
  Solver.make ~name:"brute" ~kind:Solver.Exact
    ~doc:"exhaustive enumeration over the class-admissible matrices, <= 2^18"
    ~handles:(fun p -> sized p && Brute.feasible ~max_bits:18 p)
    (fun ~budget:_ ~rng:_ p ->
      let cost, bp = Brute.solve p in
      Solution.make ~solver:"brute" ~exact:true ~cost bp)

let greedy =
  Solver.make ~name:"greedy" ~kind:Solver.Heuristic
    ~doc:"best of the greedy heuristic portfolio"
    ~handles:(fun p -> sized p && fully p && partial p)
    (fun ~budget:_ ~rng:_ p ->
      let e = Mt_greedy.best ~params:p.Problem.params p.Problem.oracle in
      Solution.make ~solver:"greedy"
        ~stats:[ ("heuristic", e.Mt_greedy.name) ]
        ~cost:e.Mt_greedy.cost e.Mt_greedy.bp)

let hill_climb =
  Solver.make ~name:"hill-climb" ~kind:Solver.Heuristic
    ~doc:"first-improvement bit-flip descent from the best heuristic"
    ~handles:(fun p -> sized p && fully p && partial p)
    (fun ~budget ~rng:_ p ->
      let r = Mt_local.solve ~params:p.Problem.params ~budget p.Problem.oracle in
      Solution.make ~solver:"hill-climb" ~cut_off:r.Mt_local.cut_off
        ~stats:
          [
            ("evaluations", string_of_int r.Mt_local.evaluations);
            ("rounds", string_of_int r.Mt_local.rounds);
          ]
        ~cost:r.Mt_local.cost r.Mt_local.bp)

let anneal =
  Solver.make ~name:"anneal" ~kind:Solver.Stochastic
    ~doc:"simulated annealing over breakpoint matrices"
    ~handles:(fun p -> sized p && fully p && partial p)
    (fun ~budget ~rng p ->
      let r = Mt_anneal.solve ~params:p.Problem.params ~budget ~rng p.Problem.oracle in
      Solution.make ~solver:"anneal" ~cut_off:r.Mt_anneal.cut_off
        ~stats:[ ("evaluations", string_of_int r.Mt_anneal.evaluations) ]
        ~cost:r.Mt_anneal.cost r.Mt_anneal.bp)

let ga =
  Solver.make ~name:"ga" ~kind:Solver.Stochastic
    ~doc:"genetic algorithm (the paper's Section 6 method)"
    ~handles:(fun p -> sized p && fully p && partial p)
    (fun ~budget ~rng p ->
      let r = Mt_ga.solve ~params:p.Problem.params ~budget ~rng p.Problem.oracle in
      Solution.make ~solver:"ga" ~cut_off:r.Mt_ga.cut_off
        ~stats:[ ("evaluations", string_of_int r.Mt_ga.evaluations) ]
        ~cost:r.Mt_ga.cost r.Mt_ga.bp)

let ga_polish =
  Solver.make ~name:"ga-polish" ~kind:Solver.Stochastic
    ~doc:"genetic algorithm polished by hill climbing"
    ~handles:(fun p -> sized p && fully p && partial p)
    (fun ~budget ~rng p ->
      let params = p.Problem.params in
      let g = Mt_ga.solve ~params ~budget ~rng p.Problem.oracle in
      let r = Mt_local.solve ~params ~init:g.Mt_ga.bp ~budget p.Problem.oracle in
      Solution.make ~solver:"ga-polish"
        ~cut_off:(g.Mt_ga.cut_off || r.Mt_local.cut_off)
        ~stats:
          [
            ( "evaluations",
              string_of_int (g.Mt_ga.evaluations + r.Mt_local.evaluations) );
          ]
        ~cost:r.Mt_local.cost r.Mt_local.bp)

let async_opt =
  Solver.make ~name:"async-opt" ~kind:Solver.Exact
    ~doc:"per-task solo optima; exact for the non-synchronized mode"
    ~handles:(fun p ->
      (* Independent per-task rows are inadmissible when the class
         forces uniform columns. *)
      sized p
      && p.Problem.mode = Mixed_sync.Non_synchronized
      && p.Problem.machine_class <> Problem.All_task)
    (fun ~budget:_ ~rng:_ p ->
      let r = Mt_async.solve p.Problem.oracle in
      let rows = Array.map (fun s -> s.St_opt.breaks) r.Mt_async.per_task in
      let bp = Breakpoints.of_rows ~m:(Problem.m p) ~n:(Problem.n p) rows in
      Solution.make ~solver:"async-opt" ~exact:true
        ~stats:[ ("bottleneck-task", string_of_int r.Mt_async.bottleneck) ]
        ~cost:r.Mt_async.cost bp)

let online_dp =
  Solver.make ~name:"online-dp" ~kind:Solver.Exact
    ~doc:"incremental block-start DP (extendable frontier); task-sequential reconf"
    ~handles:(fun p -> sized p && Online_dp.supports p && Online_dp.exact_ok p)
    (fun ~budget ~rng:_ p -> Online_dp.solution (Online_dp.start ~budget p))

let mode_climb =
  Solver.make ~name:"mode-climb" ~kind:Solver.Heuristic
    ~doc:"bit-flip descent on Problem.eval (intermediate sync modes)"
    ~handles:(fun p -> sized p && (not (fully p)) && partial p)
    (fun ~budget ~rng:_ p ->
      let o = p.Problem.oracle in
      let m = Problem.m p and n = Problem.n p in
      let rows =
        Array.init m (fun j -> (St_opt.solve_oracle o ~task:j).St_opt.breaks)
      in
      let bp = ref (Breakpoints.of_rows ~m ~n rows) in
      let cost = ref (Problem.eval p !bp) in
      let rounds = ref 0 in
      let improved = ref true in
      let cut = ref false in
      (* Budget polled once per task row: a row is m·n Problem.eval
         calls at most, well under a millisecond-scale deadline. *)
      while !improved && !rounds < 50 && not !cut do
        improved := false;
        incr rounds;
        for j = 0 to m - 1 do
          if Hr_util.Budget.exhausted budget then cut := true;
          if not !cut then
            for i = 1 to n - 1 do
              let cand = Breakpoints.set !bp j i (not (Breakpoints.is_break !bp j i)) in
              let c = Problem.eval p cand in
              if c < !cost then begin
                bp := cand;
                cost := c;
                improved := true
              end
            done
        done
      done;
      Solution.make ~solver:"mode-climb" ~cut_off:!cut
        ~stats:[ ("rounds", string_of_int !rounds) ]
        ~cost:!cost !bp)

let () =
  List.iter register
    [
      st_dp;
      all_task;
      mt_dp;
      brute;
      greedy;
      hill_climb;
      anneal;
      ga;
      ga_polish;
      async_opt;
      mode_climb;
      online_dp;
    ]

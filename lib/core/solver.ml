module Rng = Hr_util.Rng
module Pool = Hr_util.Pool
module Budget = Hr_util.Budget

type kind = Exact | Heuristic | Stochastic

type t = {
  name : string;
  kind : kind;
  doc : string;
  handles : Problem.t -> bool;
  run : budget:Budget.t -> rng:Rng.t -> Problem.t -> Solution.t;
}

exception Rejected of string

let () =
  Printexc.register_printer (function
    | Rejected msg -> Some (Printf.sprintf "Solver.Rejected(%s)" msg)
    | _ -> None)

let make ~name ~kind ~doc ~handles run = { name; kind; doc; handles; run }

let kind_name = function
  | Exact -> "exact"
  | Heuristic -> "heuristic"
  | Stochastic -> "stochastic"

let default_seed = 2004

let rng_for ~seed t = Rng.create (seed lxor Hashtbl.hash t.name)

let solve ?rng ?(seed = default_seed) ?(budget = Budget.unlimited) t problem =
  if not (t.handles problem) then
    raise
      (Rejected
         (Printf.sprintf "Solver.solve: %S does not handle this instance" t.name));
  let rng = match rng with Some rng -> rng | None -> rng_for ~seed t in
  let sol = t.run ~budget ~rng problem in
  if not (Problem.admissible problem sol.Solution.bp) then
    raise
      (Rejected
         (Printf.sprintf "Solver.solve: %S returned an inadmissible matrix" t.name));
  {
    sol with
    Solution.solver = t.name;
    cost = Problem.eval problem sol.Solution.bp;
    exact = sol.Solution.exact && not sol.Solution.cut_off;
  }

(* ------------------------------------------------------------------ *)
(* The execution harness: outcome containment + wall-clock reports.    *)

type outcome = Finished | Cut_off | Crashed of exn

type report = {
  solver : string;
  kind : kind;
  outcome : outcome;
  wall_ms : float;
  solution : Solution.t option;
}

let outcome_name = function
  | Finished -> "finished"
  | Cut_off -> "cut-off"
  | Crashed _ -> "crashed"

let solve_report ?rng ?seed ?(budget = Budget.unlimited) t problem =
  let t0 = Budget.now_ms () in
  let finish outcome solution =
    { solver = t.name; kind = t.kind; outcome; wall_ms = Budget.now_ms () -. t0; solution }
  in
  match solve ?rng ?seed ~budget t problem with
  | sol ->
      finish (if sol.Solution.cut_off then Cut_off else Finished) (Some sol)
  | exception e ->
      (* Everything — including a [Rejected] on an inapplicable
         instance or an inadmissible result — is contained as a crash
         report rather than silently dropped.  Capability filtering
         belongs before the race (see [run_all]). *)
      finish (Crashed e) None

let run_all ?domains ?(seed = default_seed) ?(budget = Budget.unlimited)
    solvers problem =
  let contestants =
    Array.of_list (List.filter (fun s -> s.handles problem) solvers)
  in
  let report s = solve_report ~seed ~budget s problem in
  Array.to_list
    (if Option.value domains ~default:(Pool.num_domains ()) <= 1 then
       Array.map report contestants
     else
       (* One chunk per contestant: contestants' run times differ by
          up to four orders of magnitude, so contiguous chunks would
          queue the slow ones behind each other while a domain that
          drew the fast ones idles.
          Each free domain (a pool worker or the caller) claims the
          next contestant instead; the reports still land in
          contestant order. *)
       Pool.map ~chunks:(Array.length contestants) (Pool.default ()) report
         contestants)

let race_report ?domains ?seed ?budget solvers problem =
  let reports = run_all ?domains ?seed ?budget solvers problem in
  match List.filter_map (fun r -> r.solution) reports with
  | [] ->
      invalid_arg
        (Printf.sprintf
           "Solver.race: no applicable solver produced a solution%s"
           (match
              List.filter_map
                (function
                  | { outcome = Crashed e; solver; _ } ->
                      Some (Printf.sprintf "%s: %s" solver (Printexc.to_string e))
                  | _ -> None)
                reports
            with
           | [] -> ""
           | crashes -> " (" ^ String.concat "; " crashes ^ ")"))
  | sols -> (Solution.best sols, reports)

let race ?domains ?seed ?budget solvers problem =
  fst (race_report ?domains ?seed ?budget solvers problem)

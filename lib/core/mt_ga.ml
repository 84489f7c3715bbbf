module Ga = Hr_evolve.Ga
module Rng = Hr_util.Rng

type result = {
  cost : int;
  bp : Breakpoints.t;
  evaluations : int;
  history : (int * int) list;
  cut_off : bool;
}

let solve ?params ?(config = Ga.default_config) ?(seeds = [])
    ?(budget = Hr_util.Budget.unlimited) ~rng oracle =
  let oracle = Interval_cost.precompute oracle in
  let m = oracle.Interval_cost.m and n = oracle.Interval_cost.n in
  let cost g = Sync_cost.eval_matrix ?params oracle g in
  let problem =
    {
      Ga.random =
        (fun rng ->
          let density = Rng.pick rng [| 0.02; 0.05; 0.1; 0.2; 0.4 |] in
          Mt_moves.random rng ~m ~n ~density);
      cost;
      crossover = Mt_moves.crossover;
      mutate = Mt_moves.mutate;
    }
  in
  let heuristic_seeds =
    List.map (fun e -> Breakpoints.matrix e.Mt_greedy.bp) (Mt_greedy.portfolio ?params oracle)
  in
  let seeds = List.map Breakpoints.matrix seeds @ heuristic_seeds in
  let r = Ga.run ~config ~seeds ~budget rng problem in
  {
    cost = r.Ga.best_cost;
    bp = Breakpoints.of_matrix r.Ga.best;
    evaluations = r.Ga.evaluations;
    history = r.Ga.history;
    cut_off = r.Ga.cut_off;
  }

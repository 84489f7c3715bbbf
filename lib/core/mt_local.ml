module Hillclimb = Hr_evolve.Hillclimb

type result = {
  cost : int;
  bp : Breakpoints.t;
  evaluations : int;
  rounds : int;
  cut_off : bool;
}

let solve ?params ?init ?max_rounds ?(budget = Hr_util.Budget.unlimited) oracle =
  let oracle = Interval_cost.precompute oracle in
  let init =
    match init with Some bp -> bp | None -> (Mt_greedy.best ?params oracle).Mt_greedy.bp
  in
  let problem =
    {
      Hillclimb.cost = Sync_cost.eval_matrix ?params oracle;
      neighbors = Mt_moves.neighbors;
    }
  in
  let r = Hillclimb.run ?max_rounds ~budget problem ~init:(Breakpoints.matrix init) in
  {
    cost = r.Hillclimb.best_cost;
    bp = Breakpoints.of_matrix r.Hillclimb.best;
    evaluations = r.Hillclimb.evaluations;
    rounds = r.Hillclimb.rounds;
    cut_off = r.Hillclimb.cut_off;
  }

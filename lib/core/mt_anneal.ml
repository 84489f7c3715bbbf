module Anneal = Hr_evolve.Anneal

type result = { cost : int; bp : Breakpoints.t; evaluations : int; cut_off : bool }

let solve ?params ?config ?init ?(budget = Hr_util.Budget.unlimited) ~rng oracle =
  let oracle = Interval_cost.precompute oracle in
  let init =
    match init with Some bp -> bp | None -> (Mt_greedy.best ?params oracle).Mt_greedy.bp
  in
  let problem =
    {
      Anneal.cost = Sync_cost.eval_matrix ?params oracle;
      neighbor = Mt_moves.mutate;
    }
  in
  let r = Anneal.run ?config ~budget rng problem ~init:(Breakpoints.matrix init) in
  {
    cost = r.Anneal.best_cost;
    bp = Breakpoints.of_matrix r.Anneal.best;
    evaluations = r.Anneal.evaluations;
    cut_off = r.Anneal.cut_off;
  }

module Rng = Hr_util.Rng

type 'g problem = {
  random : Rng.t -> 'g;
  cost : 'g -> int;
  crossover : Rng.t -> 'g -> 'g -> 'g;
  mutate : Rng.t -> 'g -> 'g;
}

type config = {
  population : int;
  generations : int;
  tournament : int;
  elitism : int;
  crossover_rate : float;
  patience : int option;
}

let default_config =
  {
    population = 64;
    generations = 600;
    tournament = 3;
    elitism = 2;
    crossover_rate = 0.9;
    patience = None;
  }

type 'g result = {
  best : 'g;
  best_cost : int;
  evaluations : int;
  history : (int * int) list;
  cut_off : bool;
}

type 'g scored = { genome : 'g; score : int }

let run ?(config = default_config) ?(seeds = [])
    ?(budget = Hr_util.Budget.unlimited) rng problem =
  if config.population < 2 then invalid_arg "Ga.run: population must be >= 2";
  if config.tournament < 1 then invalid_arg "Ga.run: tournament must be >= 1";
  if config.elitism < 0 || config.elitism >= config.population then
    invalid_arg "Ga.run: elitism out of range";
  let evaluations = ref 0 in
  let eval_batch genomes =
    evaluations := !evaluations + Array.length genomes;
    Array.map (fun genome -> { genome; score = problem.cost genome }) genomes
  in
  let initial =
    let seeds = List.filteri (fun i _ -> i < config.population) seeds in
    let missing = config.population - List.length seeds in
    Array.of_list (seeds @ List.init missing (fun _ -> problem.random rng))
  in
  let by_score a b = compare a.score b.score in
  let pop = ref (eval_batch initial) in
  Array.sort by_score !pop;
  let best = ref !pop.(0) in
  let history = ref [ (0, !best.score) ] in
  let stale = ref 0 in
  let gen = ref 1 in
  let cut = ref false in
  let continue_ () =
    (* Budget polled once per generation: coarse enough to be free,
       fine enough that a cut-off lands within one generation's work. *)
    if Hr_util.Budget.exhausted budget then begin
      cut := true;
      false
    end
    else
      !gen <= config.generations
      && match config.patience with None -> true | Some p -> !stale < p
  in
  while continue_ () do
    let tournament_pick () =
      let rec go k acc =
        if k = 0 then acc
        else
          let cand = Rng.pick rng !pop in
          go (k - 1) (if cand.score < acc.score then cand else acc)
      in
      go (config.tournament - 1) (Rng.pick rng !pop)
    in
    let child_genome () =
      let p1 = tournament_pick () in
      let g =
        if Rng.chance rng config.crossover_rate then
          let p2 = tournament_pick () in
          problem.crossover rng p1.genome p2.genome
        else p1.genome
      in
      problem.mutate rng g
    in
    let children =
      eval_batch
        (Array.init (config.population - config.elitism) (fun _ -> child_genome ()))
    in
    let next =
      Array.init config.population (fun i ->
          if i < config.elitism then !pop.(i) else children.(i - config.elitism))
    in
    Array.sort by_score next;
    pop := next;
    if next.(0).score < !best.score then begin
      best := next.(0);
      history := (!gen, !best.score) :: !history;
      stale := 0
    end
    else incr stale;
    incr gen
  done;
  {
    best = !best.genome;
    best_cost = !best.score;
    evaluations = !evaluations;
    history = List.rev !history;
    cut_off = !cut;
  }

(** A generic steady-state genetic algorithm (cost minimization).

    The paper computes the multi-task (hyper)reconfiguration costs of
    its §6 experiment "using a genetic algorithm"; this module provides
    the engine, and [Hr_core.Mt_ga] instantiates it on breakpoint
    matrices.  The engine is deliberately problem-agnostic: genomes are
    an abstract type manipulated only through the supplied operators,
    and all randomness flows through an explicit {!Hr_util.Rng.t}. *)

(** Problem definition over genomes of type ['g].  [cost] is minimized
    and must be ≥ 0.  Operators must return fresh genomes (the engine
    never mutates in place). *)
type 'g problem = {
  random : Hr_util.Rng.t -> 'g;
  cost : 'g -> int;
  crossover : Hr_util.Rng.t -> 'g -> 'g -> 'g;
  mutate : Hr_util.Rng.t -> 'g -> 'g;
}

type config = {
  population : int;  (** population size (≥ 2) *)
  generations : int;  (** number of generations to evolve *)
  tournament : int;  (** tournament size for parent selection (≥ 1) *)
  elitism : int;  (** individuals copied unchanged to the next generation *)
  crossover_rate : float;  (** probability of crossover vs. cloning a parent *)
  patience : int option;
      (** stop early after this many generations without improvement *)
}

val default_config : config

type 'g result = {
  best : 'g;
  best_cost : int;
  evaluations : int;  (** number of [cost] calls *)
  history : (int * int) list;
      (** (generation, best-so-far cost) at every improvement, ascending *)
  cut_off : bool;
      (** [true] when the run stopped because its {!Hr_util.Budget.t}
          expired rather than by generations/patience *)
}

(** [run ?config ?seeds ?budget rng problem] evolves a population
    initialized from [seeds] (injected verbatim) padded with
    [problem.random] individuals.  The [budget] (default
    {!Hr_util.Budget.unlimited}) is polled between generations: on
    exhaustion the run returns its best-so-far with [cut_off = true].
    The initial population is always evaluated, so the result is
    meaningful even under an already-expired budget.  Deterministic for
    a given [rng] seed and an unlimited budget. *)
val run :
  ?config:config ->
  ?seeds:'g list ->
  ?budget:Hr_util.Budget.t ->
  Hr_util.Rng.t ->
  'g problem ->
  'g result

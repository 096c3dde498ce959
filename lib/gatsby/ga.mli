(** Generic steady-state genetic algorithm.

    Tournament selection, elitism, uniform crossover and mutation over an
    abstract genome.  Deterministic given the RNG.  Used by the GATSBY
    reseeding baseline; kept generic so tests can exercise it on known
    closed-form landscapes. *)

open Reseed_util

type 'a problem = {
  init : Rng.t -> 'a;  (** fresh random genome *)
  fitness : 'a array -> float array;
      (** one score per genome of a cohort, higher is better; may be
          expensive, and may evaluate the cohort in parallel *)
  crossover : Rng.t -> 'a -> 'a -> 'a;
  mutate : Rng.t -> 'a -> 'a;
}

type config = { population : int; generations : int }

(** Population 24, 16 generations. *)
val default_config : config

(** The genomes copied unchanged into each generation (2).  Parents are
    picked by 3-way tournaments; a child is a crossover with probability
    0.9 and is then mutated with probability 0.5. *)
val elite : int

type 'a outcome = {
  best : 'a;
  best_fitness : float;
  evaluations : int;  (** number of genomes scored *)
  stopped_early : bool;  (** the [budget] expired before [generations] ran *)
}

(** [optimize ?config ?budget ~rng problem] runs the GA and returns the
    best genome ever seen.  [problem.fitness] scores one whole cohort per
    call: genome creation, which consumes the RNG, is already finished
    when it is called, so the outcome is identical whatever the
    evaluator's execution order.  [budget] is polled between
    generations; on expiry the best genome so far is returned with
    [stopped_early] set (the initial cohort always completes; zero
    [generations] runs it alone).  Raises [Invalid_argument] unless
    [config.population > elite] and [config.generations >= 0]. *)
val optimize :
  ?config:config ->
  ?budget:Budget.t ->
  rng:Rng.t ->
  'a problem ->
  'a outcome

open Reseed_util

type 'a problem = {
  init : Rng.t -> 'a;
  fitness : 'a array -> float array;
  crossover : Rng.t -> 'a -> 'a -> 'a;
  mutate : Rng.t -> 'a -> 'a;
}

type config = { population : int; generations : int }

let default_config = { population = 24; generations = 16 }
let elite = 2
let tournament = 3
let crossover_rate = 0.9
let mutation_rate = 0.5

type 'a outcome = {
  best : 'a;
  best_fitness : float;
  evaluations : int;
  stopped_early : bool;
}

let m_generations =
  Metrics.counter ~help:"GA generations evolved" "ga_generations"

let m_evaluations =
  Metrics.counter ~help:"GA fitness evaluations" "ga_evaluations"

let optimize ?(config = default_config) ?budget ~rng problem =
  if config.population <= elite then
    invalid_arg "Ga.optimize: population must exceed the elite";
  if config.generations < 0 then
    invalid_arg "Ga.optimize: generations must be >= 0";
  Trace.with_span "ga.optimize"
    ~args:
      [
        ("population", string_of_int config.population);
        ("generations", string_of_int config.generations);
      ]
  @@ fun () ->
  let evaluations = ref 0 in
  (* Genome creation (the only RNG consumer) stays sequential; fitness
     is evaluated a whole cohort at a time, so the problem can fan the
     expensive evaluations out over domains.  The cohort boundary does
     not change which genomes are created or in which order, so results
     are independent of the evaluator. *)
  let eval_all gs =
    evaluations := !evaluations + Array.length gs;
    problem.fitness gs
  in
  let genomes = Array.init config.population (fun _ -> problem.init rng) in
  let fits = eval_all genomes in
  (* Population kept sorted by descending fitness. *)
  let scored = Array.init config.population (fun i -> (genomes.(i), fits.(i))) in
  let sort () =
    Array.sort (fun (_, a) (_, b) -> Float.compare b a) scored
  in
  sort ();
  let best = ref (fst scored.(0)) and best_fitness = ref (snd scored.(0)) in
  let tournament_pick () =
    let best_i = ref (Rng.int rng config.population) in
    for _ = 2 to tournament do
      let i = Rng.int rng config.population in
      if snd scored.(i) > snd scored.(!best_i) then best_i := i
    done;
    fst scored.(!best_i)
  in
  (* Budget is polled once per generation: the initial cohort above always
     completes, so [best] is a valid (if unevolved) genome on expiry. *)
  let gen = ref 0 in
  while !gen < config.generations && not (Budget.check budget) do
    incr gen;
    Trace.with_span "ga.generation" @@ fun () ->
    let n_children = config.population - elite in
    let children =
      Array.init n_children (fun _ ->
          let a = tournament_pick () in
          let child =
            if Rng.float rng < crossover_rate then
              problem.crossover rng a (tournament_pick ())
            else a
          in
          if Rng.float rng < mutation_rate then problem.mutate rng child
          else child)
    in
    let child_fits = eval_all children in
    let next = Array.make config.population scored.(0) in
    for i = 0 to elite - 1 do
      next.(i) <- scored.(i)
    done;
    for k = 0 to n_children - 1 do
      next.(elite + k) <- (children.(k), child_fits.(k))
    done;
    Array.blit next 0 scored 0 config.population;
    sort ();
    if snd scored.(0) > !best_fitness then begin
      best := fst scored.(0);
      best_fitness := snd scored.(0)
    end
  done;
  Metrics.add m_generations !gen;
  Metrics.add m_evaluations !evaluations;
  {
    best = !best;
    best_fitness = !best_fitness;
    evaluations = !evaluations;
    stopped_early = Budget.check budget;
  }

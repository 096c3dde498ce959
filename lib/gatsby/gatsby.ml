open Reseed_fault
open Reseed_tpg
open Reseed_util

type config = { cycles : int; ga : Ga.config; max_rounds : int }

(* Fresh GA restarts tolerated without progress before giving up. *)
let stall_retries = 2

(* The GA budget (population × generations ≈ 72 burst fault-simulations
   per committed reseeding) is calibrated to the published GATSBY
   experiments' era: every fitness evaluation is a full burst fault
   simulation, which is precisely why the paper calls the approach
   simulation-bound.  bench/main.exe ablation sweeps this budget. *)
let default_config =
  {
    cycles = 150;
    ga = { Ga.population = 12; generations = 6 };
    max_rounds = 200;
  }

type result = {
  triplets : Triplet.t list;
  detected : Bitvec.t;
  test_length : int;
  fault_sims : int;
  ga_evaluations : int;
  stopped_early : bool;
}

type genome = { g_seed : Word.t; g_operand : Word.t }

let genome_problem ~width ~fitness =
  let mix rng a b =
    (* Uniform crossover: each bit drawn from either parent. *)
    let mask = Word.random rng width in
    Word.logor (Word.logand a mask) (Word.logand b (Word.lognot mask))
  in
  let flip_bits rng w =
    let n = 1 + Rng.int rng 2 in
    let rec go w k =
      if k = 0 then w
      else
        let pos = Rng.int rng width in
        go (Word.set_bit w pos (not (Word.get_bit w pos))) (k - 1)
    in
    go w n
  in
  {
    Ga.init = (fun rng -> { g_seed = Word.random rng width; g_operand = Word.random rng width });
    fitness;
    crossover =
      (fun rng a b ->
        { g_seed = mix rng a.g_seed b.g_seed; g_operand = mix rng a.g_operand b.g_operand });
    mutate =
      (fun rng g ->
        if Rng.bool rng then { g with g_seed = flip_bits rng g.g_seed }
        else { g with g_operand = flip_bits rng g.g_operand });
  }

let m_rounds = Metrics.counter ~help:"GATSBY reseeding rounds" "gatsby_rounds"

let m_committed =
  Metrics.counter ~help:"GATSBY triplets committed" "gatsby_triplets"

let run ?(config = default_config) ?pool ?budget sim tpg ~rng ~targets =
  if Bitvec.length targets <> Fault_sim.fault_count sim then
    invalid_arg "Gatsby.run: target mask size";
  Trace.with_span "gatsby.run" ~args:[ ("tpg", tpg.Tpg.name) ] @@ fun () ->
  let live = Bitvec.copy targets in
  let n_targets = Bitvec.count targets in
  let sims_at_start = Fault_sim.sims_performed sim in
  let triplets = ref [] and test_length = ref 0 and ga_evals = ref 0 in
  let burst g =
    Tpg.run tpg ~seed:g.g_seed
      ~operand:(tpg.Tpg.fix_operand g.g_operand)
      ~cycles:config.cycles
  in
  (* Population members are evaluated in parallel: each worker
     fault-simulates bursts on its own simulator shard against the shared
     read-only [live] mask (only mutated between GA rounds).  The GA's
     RNG never leaves the master domain, so the search trajectory is
     bit-identical at every job count. *)
  let pool = match pool with Some p -> p | None -> Pool.default () in
  let shard = Fault_sim.shard sim (Pool.jobs pool) in
  let fitness genomes =
    let out = Array.make (Array.length genomes) 0.0 in
    Pool.parallel_for ~pool ~total:(Array.length genomes) (fun ~worker i ->
        out.(i) <-
          float_of_int
            (Bitvec.count
               (Fault_sim.detected_set shard.(worker) (burst genomes.(i)) ~active:live)));
    out
  in
  let problem = genome_problem ~width:tpg.Tpg.width ~fitness in
  let coverage () =
    100.0 *. float_of_int (n_targets - Bitvec.count live) /. float_of_int (max 1 n_targets)
  in
  let rounds = ref 0 and stalls = ref 0 and go = ref true in
  while !go && !rounds < config.max_rounds && coverage () < 100.0
        && not (Budget.check budget) do
    incr rounds;
    Trace.with_span "gatsby.round" @@ fun () ->
    let outcome = Ga.optimize ~config:config.ga ?budget ~rng problem in
    ga_evals := !ga_evals + outcome.Ga.evaluations;
    if outcome.Ga.best_fitness < 0.5 then begin
      incr stalls;
      if !stalls > stall_retries then go := false
    end
    else begin
      stalls := 0;
      let g = outcome.Ga.best in
      let eff = Fault_sim.useful_length sim ~live (burst g) in
      (* The GA claimed a positive gain, so some pattern was useful. *)
      assert (eff > 0);
      let triplet =
        Triplet.make ~seed:g.g_seed ~operand:(tpg.Tpg.fix_operand g.g_operand) ~cycles:eff
      in
      triplets := triplet :: !triplets;
      test_length := !test_length + eff
    end
  done;
  Fault_sim.merge_sims ~into:sim shard;
  Metrics.add m_rounds !rounds;
  Metrics.add m_committed (List.length !triplets);
  {
    triplets = List.rev !triplets;
    detected = Bitvec.diff targets live;
    test_length = !test_length;
    fault_sims = Fault_sim.sims_performed sim - sims_at_start;
    ga_evaluations = !ga_evals;
    stopped_early = Budget.check budget;
  }

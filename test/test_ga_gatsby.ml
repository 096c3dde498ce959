open Reseed_gatsby
open Reseed_util

let check = Alcotest.(check bool)

(* OneMax: the GA must nearly solve a 24-bit bit-counting problem. *)
let onemax_problem =
  {
    Ga.init = (fun rng -> Rng.bits rng 24);
    fitness = Array.map (fun g -> float_of_int (Bitvec.popcount_int g));
    crossover =
      (fun rng a b ->
        let mask = Rng.bits rng 24 in
        a land mask lor (b land lnot mask));
    mutate = (fun rng g -> g lxor (1 lsl Rng.int rng 24));
  }

let test_ga_optimizes () =
  let rng = Rng.create 42 in
  let out =
    Ga.optimize ~config:{ Ga.population = 30; generations = 40 }
      ~rng onemax_problem
  in
  check "near-optimal onemax" true (out.Ga.best_fitness >= 22.0)

let test_ga_deterministic () =
  let run () = (Ga.optimize ~rng:(Rng.create 7) onemax_problem).Ga.best_fitness in
  check "deterministic" true (run () = run ())

let test_ga_evaluation_count () =
  let rng = Rng.create 1 in
  let config = { Ga.population = 10; generations = 5 } in
  let out = Ga.optimize ~config ~rng onemax_problem in
  (* 10 initial + 5 generations × 8 children (2 elite) *)
  Alcotest.(check int) "evaluations" (10 + (5 * 8)) out.Ga.evaluations

let test_ga_best_never_lost () =
  (* with elitism, best fitness is monotone: final >= any population member
     we can observe — proxy: best >= initial best *)
  let rng = Rng.create 3 in
  let initial_best = ref neg_infinity in
  let problem =
    {
      onemax_problem with
      Ga.init =
        (fun rng ->
          let g = Rng.bits rng 24 in
          initial_best := Float.max !initial_best (float_of_int (Bitvec.popcount_int g));
          g);
    }
  in
  let out = Ga.optimize ~rng problem in
  check "no regression" true (out.Ga.best_fitness >= !initial_best)

let test_ga_config_validation () =
  let rng = Rng.create 1 in
  check "pop 1 rejected" true
    (try
       ignore (Ga.optimize ~config:{ Ga.default_config with Ga.population = 1 } ~rng onemax_problem);
       false
     with Invalid_argument _ -> true);
  check "pop = elite rejected" true
    (try
       ignore
         (Ga.optimize
            ~config:{ Ga.default_config with Ga.population = Ga.elite }
            ~rng onemax_problem);
       false
     with Invalid_argument _ -> true);
  check "negative generations rejected" true
    (try
       ignore
         (Ga.optimize
            ~config:{ Ga.default_config with Ga.generations = -1 }
            ~rng onemax_problem);
       false
     with Invalid_argument _ -> true);
  let zero =
    Ga.optimize ~config:{ Ga.default_config with Ga.generations = 0 } ~rng onemax_problem
  in
  Alcotest.(check int)
    "zero generations: the initial cohort alone" Ga.default_config.Ga.population
    zero.Ga.evaluations

(* GATSBY end-to-end on a small circuit. *)

let setup () =
  let c = Reseed_netlist.Library.c17 () in
  let faults = Reseed_fault.Fault.all c in
  let sim = Reseed_fault.Fault_sim.create c faults in
  let tpg = Reseed_tpg.Accumulator.adder 5 in
  let targets = Bitvec.create (Array.length faults) in
  Bitvec.fill_all targets;
  (sim, tpg, targets)

let test_gatsby_covers_c17 () =
  let sim, tpg, targets = setup () in
  let rng = Rng.create 10 in
  let g = Gatsby.run sim tpg ~rng ~targets in
  check "full coverage" true (Bitvec.equal g.Gatsby.detected targets);
  check "at least one triplet" true (g.Gatsby.triplets <> []);
  check "test length consistent" true
    (g.Gatsby.test_length
    = List.fold_left (fun acc t -> acc + t.Reseed_tpg.Triplet.cycles) 0 g.Gatsby.triplets)

let test_gatsby_triplets_really_cover () =
  let sim, tpg, targets = setup () in
  let rng = Rng.create 11 in
  let g = Gatsby.run sim tpg ~rng ~targets in
  (* independent re-simulation of the committed (truncated) triplets *)
  let all =
    Array.concat (List.map (fun t -> Reseed_tpg.Triplet.patterns tpg t) g.Gatsby.triplets)
  in
  let re = Reseed_fault.Fault_sim.detected_set sim all ~active:targets in
  check "re-simulation matches" true (Bitvec.subset g.Gatsby.detected re)

let test_gatsby_respects_targets () =
  let sim, tpg, targets = setup () in
  Bitvec.clear targets 0;
  Bitvec.clear targets 1;
  let rng = Rng.create 12 in
  let g = Gatsby.run sim tpg ~rng ~targets in
  check "detected ⊆ targets" true (Bitvec.subset g.Gatsby.detected targets)

let test_gatsby_max_rounds () =
  let sim, tpg, targets = setup () in
  let rng = Rng.create 13 in
  let config = { Gatsby.default_config with Gatsby.max_rounds = 1 } in
  let g = Gatsby.run ~config sim tpg ~rng ~targets in
  check "at most one triplet" true (List.length g.Gatsby.triplets <= 1)

let test_gatsby_counts_sims () =
  let sim, tpg, targets = setup () in
  let rng = Rng.create 14 in
  let g = Gatsby.run sim tpg ~rng ~targets in
  check "fault sims counted" true (g.Gatsby.fault_sims > 0);
  check "ga evaluations counted" true (g.Gatsby.ga_evaluations > 0)

let suite =
  [
    ( "ga+gatsby",
      [
        Alcotest.test_case "GA optimizes onemax" `Quick test_ga_optimizes;
        Alcotest.test_case "GA deterministic" `Quick test_ga_deterministic;
        Alcotest.test_case "GA evaluation count" `Quick test_ga_evaluation_count;
        Alcotest.test_case "GA keeps the best" `Quick test_ga_best_never_lost;
        Alcotest.test_case "GA config validation" `Quick test_ga_config_validation;
        Alcotest.test_case "GATSBY covers c17" `Quick test_gatsby_covers_c17;
        Alcotest.test_case "GATSBY triplets re-simulate" `Quick test_gatsby_triplets_really_cover;
        Alcotest.test_case "GATSBY respects targets" `Quick test_gatsby_respects_targets;
        Alcotest.test_case "GATSBY round cap" `Quick test_gatsby_max_rounds;
        Alcotest.test_case "GATSBY cost accounting" `Quick test_gatsby_counts_sims;
      ] );
  ]

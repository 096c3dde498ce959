open Reseed_fault
open Reseed_util

type engine = Podem_engine | Sat_engine

let engines = [ Podem_engine; Sat_engine ]
let engine_name = function Podem_engine -> "podem" | Sat_engine -> "sat"

(* The flow's fixed settings: the RNG seed of the random phase and the
   don't-care fill, and the random phase's pattern budget. *)
let seed = 42
let max_random_patterns = 10_000

(* PODEM's backtrack limit for the whole run, not per fault: every
   fault's search draws on one shared [podem_stats] record, so once the
   run's total exceeds it, every later PODEM target aborts (see
   {!Podem.generate}; ROADMAP's "Complete ATPG" item tracks the fix). *)
let max_backtracks = 2000

(* The two trailing [true]s are the random-phase and compaction switches
   of the earlier settable config, hashed as they were so existing stores
   stay warm. *)
let fingerprint h engine =
  let open Fingerprint in
  let h = int h seed in
  let h = int h max_random_patterns in
  let h = int h max_backtracks in
  let h = bool h true in
  let h = bool h true in
  string h (engine_name engine)

type result = {
  tests : bool array array;
  detected : Bitvec.t;
  untestable : int list;
  aborted : int list;
  random_patterns_tried : int;
  podem_stats : Podem.stats;
  dropped_by_compaction : int;
  stopped_early : bool;
}

let fault_coverage sim r =
  let detectable = Fault_sim.fault_count sim - List.length r.untestable in
  Stats.pct (Bitvec.count r.detected) (max 1 detectable)

let m_random = Metrics.counter ~help:"random ATPG patterns tried" "atpg_random_patterns"

let m_decisions = Metrics.counter ~help:"PODEM PI decisions" "podem_decisions"

let m_backtracks = Metrics.counter ~help:"PODEM backtracks" "podem_backtracks"

let m_untestable = Metrics.counter ~help:"faults proved untestable" "atpg_untestable"

let m_aborted = Metrics.counter ~help:"fault targets aborted" "atpg_aborted"

let run ?(engine = Podem_engine) ?budget sim =
  let c = Fault_sim.circuit sim in
  let faults = Fault_sim.faults sim in
  let nf = Array.length faults in
  Trace.with_span "atpg.run" ~args:[ ("faults", string_of_int nf) ] @@ fun () ->
  let rng = Rng.create seed in
  let detected = Bitvec.create nf in
  let tests = ref [] in
  let n_tests = ref 0 in
  let push_tests arr =
    Array.iter (fun t -> tests := t :: !tests) arr;
    n_tests := !n_tests + Array.length arr
  in
  (* Phase 1: random patterns. *)
  let random_tried =
    Trace.with_span "atpg.random_phase" @@ fun () ->
    let r = Random_gen.run ?budget sim ~rng ~max_patterns:max_random_patterns () in
    push_tests r.Random_gen.tests;
    Bitvec.union_into ~into:detected r.Random_gen.detected;
    r.Random_gen.patterns_tried
  in
  Metrics.add m_random random_tried;
  (* Phase 2: PODEM per surviving fault, with collateral dropping. *)
  let podem_stats = Podem.new_stats () in
  let testability = Testability.compute c in
  let untestable = ref [] and aborted = ref [] in
  let deterministic_generate fault =
    match engine with
    | Podem_engine ->
        Podem.generate c fault ~rng ~max_backtracks ?budget ~testability
          ~stats:podem_stats ()
    | Sat_engine -> (
        match Satpg.generate c fault ?budget () with
        | Satpg.Test t -> Podem.Test t
        | Satpg.Untestable -> Podem.Untestable
        | Satpg.Aborted -> Podem.Aborted)
  in
  (* An expired budget stops issuing deterministic generation: surviving
     faults are classified [aborted] (a budget casualty, like a PODEM
     backtrack limit), so the partial test set stays a sound result.
     The deterministic engines are single-pattern: they cannot construct
     the launch/capture pairs transition faults need, so under that model
     the phase is skipped wholesale and survivors are aborted honestly. *)
  let single_pattern = Fault_sim.model sim = Fault_model.Stuck_at in
  (Trace.with_span "atpg.deterministic_phase" @@ fun () ->
   for fi = 0 to nf - 1 do
     if not (Bitvec.get detected fi) then begin
       if (not single_pattern) || Budget.check budget then aborted := fi :: !aborted
       else
         match deterministic_generate faults.(fi) with
         | Podem.Test pattern ->
             let active = Bitvec.create nf in
             Bitvec.fill_all active;
             Bitvec.diff_into ~into:active detected;
             let newly = Fault_sim.detected_set sim [| Word.of_bits pattern |] ~active in
             Bitvec.union_into ~into:detected newly;
             push_tests [| pattern |]
         | Podem.Untestable -> untestable := fi :: !untestable
         | Podem.Aborted -> aborted := fi :: !aborted
     end
   done);
  let tests_arr = Array.of_list (List.rev !tests) in
  (* Phase 3: compaction — skipped on expiry (it only shrinks the set)
     and under transition faults (reordering breaks launch/capture
     adjacency, so every pair the random phase kept would unravel). *)
  let tests_arr, dropped =
    if single_pattern && not (Budget.check budget) then
      Trace.with_span "atpg.compaction" @@ fun () ->
      Compact.reverse_order sim tests_arr
    else (tests_arr, 0)
  in
  Metrics.add m_decisions podem_stats.Podem.decisions;
  Metrics.add m_backtracks podem_stats.Podem.backtracks;
  Metrics.add m_untestable (List.length !untestable);
  Metrics.add m_aborted (List.length !aborted);
  {
    tests = tests_arr;
    detected;
    untestable = List.rev !untestable;
    aborted = List.rev !aborted;
    random_patterns_tried = random_tried;
    podem_stats;
    dropped_by_compaction = dropped;
    stopped_early = Budget.check budget;
  }

let run_circuit ?engine ?(fault_model = Fault_model.Stuck_at) ?budget c =
  let sim =
    Fault_sim.create ~model:fault_model c (Fault_model.faults fault_model c)
  in
  (sim, run ?engine ?budget sim)

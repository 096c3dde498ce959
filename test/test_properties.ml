(* Cross-module property tests: random circuits, random patterns, and the
   invariants that tie the simulators, ATPG engines and covering flow
   together. *)

open Reseed_atpg
open Reseed_fault
open Reseed_netlist
open Reseed_util

let random_circuit seed =
  Generator.generate
    {
      (Generator.default_spec "prop" ~inputs:8 ~outputs:3 ~gates:40) with
      Generator.seed = seed;
    }

(* Ternary simulation with fully-specified inputs agrees with the
   bit-parallel simulator on every node, for random circuits. *)
let prop_ternary_vs_parallel =
  QCheck.Test.make ~name:"ternary = bit-parallel on known inputs" ~count:40
    QCheck.(pair (int_range 0 500) (int_bound 255))
    (fun (cseed, pseed) ->
      let c = random_circuit cseed in
      let rng = Rng.create pseed in
      let pattern = Array.init 8 (fun _ -> Rng.bool rng) in
      let tern =
        Ternary.simulate c (Array.map Ternary.of_bool pattern) ()
      in
      let bools = Reseed_sim.Logic_sim.simulate_bool c pattern in
      Array.for_all Fun.id
        (Array.mapi (fun i b -> Ternary.of_bool b = tern.(i)) bools))

(* Every PODEM test validates through the independent fault simulator. *)
let prop_podem_tests_validate =
  QCheck.Test.make ~name:"podem tests validate" ~count:15
    QCheck.(int_range 0 300)
    (fun cseed ->
      let c = random_circuit cseed in
      let rng = Rng.create (cseed + 1) in
      let tb = Testability.compute c in
      let faults = Fault.all c in
      Array.for_all
        (fun fault ->
          match Podem.generate c fault ~rng ~testability:tb () with
          | Podem.Test pattern ->
              let sim = Fault_sim.create c [| fault |] in
              let active = Bitvec.create 1 in
              Bitvec.fill_all active;
              Bitvec.get (Fault_sim.detected_set sim [| Word.of_bits pattern |] ~active) 0
          | Podem.Untestable | Podem.Aborted -> true)
        faults)

(* SAT and PODEM agree on testability (completeness cross-check). *)
let prop_sat_podem_agree =
  QCheck.Test.make ~name:"sat/podem testability agreement" ~count:8
    QCheck.(int_range 0 200)
    (fun cseed ->
      let c = random_circuit cseed in
      let rng = Rng.create (cseed + 2) in
      let tb = Testability.compute c in
      Array.for_all
        (fun fault ->
          let s = Satpg.generate c fault () in
          let p = Podem.generate c fault ~rng ~max_backtracks:50_000 ~testability:tb () in
          match (s, p) with
          | Satpg.Test _, Podem.Test _
          | Satpg.Untestable, Podem.Untestable
          | Satpg.Aborted, _
          | _, Podem.Aborted ->
              true
          | Satpg.Test _, Podem.Untestable | Satpg.Untestable, Podem.Test _ -> false)
        (Fault.all c))

(* Detection matrices built from a burst's patterns equal the union of
   per-pattern detection — the structural identity behind the Detection
   Matrix construction. *)
let prop_burst_detection_is_union =
  QCheck.Test.make ~name:"burst detection = union of patterns" ~count:15
    QCheck.(pair (int_range 0 200) (int_bound 10000))
    (fun (cseed, tseed) ->
      let c = random_circuit cseed in
      let faults = Fault.all c in
      let sim = Fault_sim.create c faults in
      let rng = Rng.create tseed in
      let tpg = Reseed_tpg.Accumulator.adder 8 in
      let seed = Word.random rng 8 and operand = Word.random rng 8 in
      let burst = Reseed_tpg.Tpg.run tpg ~seed ~operand ~cycles:20 in
      let active = Bitvec.create (Array.length faults) in
      Bitvec.fill_all active;
      let whole = Fault_sim.detected_set sim burst ~active in
      let union = Bitvec.create (Array.length faults) in
      Array.iter
        (fun pattern ->
          Bitvec.union_into ~into:union
            (Fault_sim.detected_set sim [| pattern |] ~active))
        burst;
      Bitvec.equal whole union)

(* Reverse-order compaction never increases size and preserves coverage
   on arbitrary random test sets. *)
let prop_compaction_sound =
  QCheck.Test.make ~name:"compaction sound on random sets" ~count:15
    QCheck.(pair (int_range 0 200) (int_range 1 60))
    (fun (cseed, n_tests) ->
      let c = random_circuit cseed in
      let faults = Fault.all c in
      let sim = Fault_sim.create c faults in
      let rng = Rng.create (cseed * 7) in
      let tests =
        Array.init n_tests (fun _ -> Array.init 8 (fun _ -> Rng.bool rng))
      in
      let active = Bitvec.create (Array.length faults) in
      Bitvec.fill_all active;
      let before = Fault_sim.detected_set sim (Sweeps.words tests) ~active in
      let kept, dropped = Compact.reverse_order sim tests in
      let after = Fault_sim.detected_set sim (Sweeps.words kept) ~active in
      Bitvec.equal before after
      && Array.length kept + dropped = n_tests)

(* The full-scan conversion leaves PI+PO counts consistent with the DFF
   count on generated sequential sources. *)
let prop_fullscan_counts =
  QCheck.Test.make ~name:"full-scan PI/PO accounting" ~count:30
    QCheck.(int_range 1 6)
    (fun n_ff ->
      let buf = Buffer.create 256 in
      Buffer.add_string buf "INPUT(x)\nOUTPUT(z)\n";
      for i = 1 to n_ff do
        Printf.bprintf buf "q%d = DFF(d%d)\n" i i;
        Printf.bprintf buf "d%d = NOT(%s)\n" i (if i = 1 then "x" else Printf.sprintf "q%d" (i - 1))
      done;
      Printf.bprintf buf "z = AND(x, q%d)\n" n_ff;
      let c, dffs = Bench_io.parse_full_scan ~name:"chain" (Buffer.contents buf) in
      dffs = n_ff
      && Circuit.input_count c = 1 + n_ff
      && Circuit.output_count c = 1 + n_ff)

let suite =
  [
    ( "properties",
      [
        QCheck_alcotest.to_alcotest prop_ternary_vs_parallel;
        QCheck_alcotest.to_alcotest prop_podem_tests_validate;
        QCheck_alcotest.to_alcotest prop_sat_podem_agree;
        QCheck_alcotest.to_alcotest prop_burst_detection_is_union;
        QCheck_alcotest.to_alcotest prop_compaction_sound;
        QCheck_alcotest.to_alcotest prop_fullscan_counts;
      ] );
  ]

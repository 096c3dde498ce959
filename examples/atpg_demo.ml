(* The deterministic ATPG substrate on its own: generate a complete test
   set for a 16-bit ripple-carry adder, then shrink it by reverse-order
   compaction and show the per-phase statistics.

   Run with: dune exec examples/atpg_demo.exe *)

open Reseed_atpg
open Reseed_fault
open Reseed_netlist
open Reseed_util

let () =
  let circuit = Library.ripple_adder 16 in
  Printf.printf "Circuit: %s\n" (Circuit.stats_line circuit);
  let sim, result = Atpg.run_circuit circuit in
  Printf.printf "Collapsed faults: %d (universe %d)\n"
    (Fault_sim.fault_count sim)
    (Array.length (Fault.universe circuit));
  Printf.printf "Random phase:     %d patterns tried\n" result.Atpg.random_patterns_tried;
  Printf.printf "PODEM:            %d decisions, %d backtracks\n"
    result.Atpg.podem_stats.Podem.decisions result.Atpg.podem_stats.Podem.backtracks;
  Printf.printf "Untestable:       %d proven redundant\n"
    (List.length result.Atpg.untestable);
  Printf.printf "Aborted:          %d\n" (List.length result.Atpg.aborted);
  Printf.printf "Compaction:       dropped %d patterns\n" result.Atpg.dropped_by_compaction;
  Printf.printf "Final test set:   %d patterns, fault coverage %.2f%%\n"
    (Array.length result.Atpg.tests)
    (Atpg.fault_coverage sim result);
  (* Show the first few patterns. *)
  Array.iteri
    (fun i pattern ->
      if i < 5 then begin
        let bits =
          String.concat ""
            (List.map (fun b -> if b then "1" else "0") (Array.to_list pattern))
        in
        Printf.printf "  pattern %d: %s\n" i bits
      end)
    result.Atpg.tests;
  (* The detected set must be reproducible from the test set alone. *)
  let active = Bitvec.create (Fault_sim.fault_count sim) in
  Bitvec.fill_all active;
  let redetected = Fault_sim.detected_set sim (Array.map Word.of_bits result.Atpg.tests) ~active in
  assert (Bitvec.equal redetected result.Atpg.detected);
  Printf.printf "Re-simulation check: PASSED\n"

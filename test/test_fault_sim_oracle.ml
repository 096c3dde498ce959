(* Differential tests of [Fault_sim]'s flat propagation kernel against
   [Fault_sim_reference], the level-queue simulator it replaced.  Every
   entry point, under both fault models, must return the same result as
   both reference engines and leave the same [sims_performed] behind it;
   [event_propagations] must match the reference's [Cpt], whose stem
   flips are the ones [Fault_sim] launches. *)

open Reseed_netlist
open Reseed_sim
open Reseed_fault
open Reseed_tpg
open Reseed_util
module R = Fault_sim_reference

let engines = [ R.Event; R.Cpt ]
let models = [ Fault_model.Stuck_at; Fault_model.Transition_delay ]

(* Runs every entry point on [patterns] through one long-lived simulator
   per implementation, so state carried from one sweep into the next is
   compared too.  Returns the first mismatch as a message. *)
let differences c patterns =
  let mismatches = ref [] in
  List.iter
    (fun model ->
      let faults = Fault_model.faults model c in
      let nf = Array.length faults in
      let active = Bitvec.create nf in
      for fi = 0 to nf - 1 do
        if fi mod 3 <> 1 then Bitvec.set active fi
      done;
      List.iter
        (fun engine ->
          let sim = Fault_sim.create ~model c faults in
          let oracle = R.create ~engine ~model c faults in
          let check what got want =
            let differs field =
              mismatches :=
                Printf.sprintf "%s/%s %s: %s" (Fault_model.name model)
                  (R.engine_name engine) what field
                :: !mismatches
            in
            if got <> want then differs "result";
            if Fault_sim.sims_performed sim <> R.sims_performed oracle then
              differs "sims_performed";
            if
              engine = R.Cpt
              && Fault_sim.event_propagations sim <> R.event_propagations oracle
            then differs "event_propagations"
          in
          check "first_detections"
            (Fault_sim.first_detections sim patterns)
            (R.first_detections oracle patterns);
          check "first_detections ?active"
            (Fault_sim.first_detections sim ~active patterns)
            (R.first_detections oracle ~active patterns);
          check "detection_map"
            (Fault_sim.detection_map sim patterns)
            (R.detection_map oracle patterns);
          check "detected_set"
            (Fault_sim.detected_set sim patterns ~active)
            (R.detected_set oracle patterns ~active);
          (* [useful_length]: the largest first detection plus one, and
             the mask left by clearing every detected fault. *)
          let live = Bitvec.copy active in
          let len = Fault_sim.useful_length sim ~live patterns in
          let want_live = Bitvec.copy active and want_len = ref 0 in
          Array.iteri
            (fun fi first ->
              match first with
              | Some p ->
                  Bitvec.clear want_live fi;
                  want_len := max !want_len (p + 1)
              | None -> ())
            (R.first_detections oracle ~active patterns);
          check "useful_length" (len, live) (!want_len, want_live))
        engines)
    models;
  List.rev !mismatches

let expect_same label c patterns =
  match differences c patterns with
  | [] -> ()
  | first :: _ as all ->
      Alcotest.failf "%s: %d mismatches, first: %s" label (List.length all) first

(* Random generated circuits (every gate kind the generator emits, depth
   up to ~20) crossed with random pattern counts, including partial last
   blocks and a single pattern. *)
let prop_generated =
  QCheck.Test.make ~name:"kernel = reference on generated circuits" ~count:40
    QCheck.(triple (int_bound 10_000) (int_bound 180) (int_bound 139))
    (fun (seed, extra_gates, extra_patterns) ->
      (* Offsets, not ranges: shrinking moves towards 0, so it stays within
         the generator's limits. *)
      let gates = 20 + extra_gates and n_patterns = 1 + extra_patterns in
      let c =
        Generator.generate
          {
            (Generator.default_spec "oracle" ~inputs:9 ~outputs:4 ~gates) with
            Generator.seed = seed;
          }
      in
      let rng = Rng.create seed in
      let patterns =
        Array.init n_patterns (fun _ -> Array.init 9 (fun _ -> Rng.bool rng))
      in
      match differences c patterns with
      | [] -> true
      | first :: _ -> QCheck.Test.fail_reportf "seed %d: %s" seed first)

(* The kernel's sweep bound: the largest node index in each node's fanout
   cone, as [Circuit.fanout_cone] enumerates it. *)
let prop_cone_hi =
  QCheck.Test.make ~name:"cone_hi = max of fanout_cone" ~count:40
    QCheck.(pair (int_bound 10_000) (int_bound 180))
    (fun (seed, extra_gates) ->
      let c =
        Generator.generate
          {
            (Generator.default_spec "cone" ~inputs:9 ~outputs:4
               ~gates:(20 + extra_gates))
            with
            Generator.seed = seed;
          }
      in
      let sim = Fault_sim.create c [||] in
      for i = 0 to Circuit.node_count c - 1 do
        let want = Array.fold_left max i (Circuit.fanout_cone c i) in
        let got = Fault_sim.cone_hi sim i in
        if got <> want then
          QCheck.Test.fail_reportf "seed %d node %d: cone_hi %d, expected %d" seed
            i got want
      done;
      true)

(* Primary inputs and constants listed between a stem's fanouts: a flip's
   sweep interval covers them, so the kernel must leave an [Input] at its
   good value and recompute a constant as itself. *)
let test_inputs_in_interval () =
  let b = Circuit.Builder.create "interleaved" in
  let a = Circuit.Builder.add_input b "a" in
  let bb = Circuit.Builder.add_input b "b" in
  let s = Circuit.Builder.add_gate b Gate.Nand [ a; bb ] "s" in
  let g1 = Circuit.Builder.add_gate b Gate.And [ s; a ] "g1" in
  let c_in = Circuit.Builder.add_input b "c" in
  let k1 = Circuit.Builder.add_gate b Gate.Const1 [] "k1" in
  let k0 = Circuit.Builder.add_gate b Gate.Const0 [] "k0" in
  let g2 = Circuit.Builder.add_gate b Gate.And [ s; c_in; k1 ] "g2" in
  let g3 = Circuit.Builder.add_gate b Gate.Or [ g2; k0 ] "g3" in
  let o = Circuit.Builder.add_gate b Gate.Xor [ g1; g3 ] "o" in
  let e = Circuit.Builder.add_input b "e" in
  let p = Circuit.Builder.add_gate b Gate.Nor [ o; e; bb ] "p" in
  List.iter (Circuit.Builder.mark_output b) [ o; g2; p ];
  let c = Circuit.Builder.finalize b in
  let idx = Circuit.find c in
  let sim = Fault_sim.create c [||] in
  let lo = idx "g1" and hi = Fault_sim.cone_hi sim (idx "s") in
  Alcotest.(check int) "sweep interval ends at p" (idx "p") hi;
  List.iter
    (fun name ->
      if not (lo < idx name && idx name < hi) then
        Alcotest.failf "%s (index %d) lies outside the interval (%d, %d)" name
          (idx name) lo hi)
    [ "c"; "k1"; "k0"; "e" ];
  (* 100 patterns: one full block and a partial one of 38 lanes. *)
  let rng = Rng.create 29 in
  let patterns =
    Array.init 100 (fun _ ->
        Array.init (Circuit.input_count c) (fun _ -> Rng.bool rng))
  in
  expect_same "interleaved" c patterns

(* Every arm of the gate kernel on one circuit: gates of more than three
   fanins (the CSR fold behind the [wide] slot) of the AND, NOR and XOR
   families, XOR and XNOR records padded with the zero slot, both
   constants, and an [Input] inside a stem's sweep interval.  The sweeps
   must match the reference, and one block's good values
   [Logic_sim.simulate]. *)
let test_gate_kernel () =
  let b = Circuit.Builder.create "kernel" in
  let input = Circuit.Builder.add_input b in
  let gate = Circuit.Builder.add_gate b in
  let a = input "a" in
  let bb = input "b" in
  let c_in = input "c" in
  let d = input "d" in
  let s = gate Gate.Nand [ a; bb ] "s" in
  let g1 = gate Gate.Xor [ s; c_in ] "g1" in
  let e = input "e" in
  let k0 = gate Gate.Const0 [] "k0" in
  let k1 = gate Gate.Const1 [] "k1" in
  let w = gate Gate.And [ s; c_in; d; e; k1 ] "w" in
  let x = gate Gate.Xnor [ g1; w; k0 ] "x" in
  let o1 = gate Gate.Nor [ x; d; a; bb ] "o1" in
  let o2 = gate Gate.Or [ w; g1 ] "o2" in
  let y = gate Gate.Xor [ x; e; s; d ] "y" in
  let xn = gate Gate.Xnor [ y; c_in ] "xn" in
  let nd = gate Gate.Nand [ k1; y ] "nd" in
  let n = gate Gate.Not [ o2 ] "n" in
  List.iter (Circuit.Builder.mark_output b) [ o1; n; xn; g1; nd ];
  let c = Circuit.Builder.finalize b in
  let idx = Circuit.find c in
  let sim = Fault_sim.create c [||] in
  if not (idx "g1" < idx "e" && idx "e" < Fault_sim.cone_hi sim (idx "s")) then
    Alcotest.fail "input e lies outside the sweep interval of stem s";
  let rng = Rng.create 43 in
  let patterns =
    Array.init 130 (fun _ ->
        Array.init (Circuit.input_count c) (fun _ -> Rng.bool rng))
  in
  let block = Logic_sim.pack c (Array.sub patterns 0 Logic_sim.block_width) in
  Alcotest.(check (array int))
    "good values" (Logic_sim.simulate c block)
    (Fault_sim.good_values sim block);
  expect_same "kernel" c patterns

(* Detection-matrix rows as the builder simulates them: one triplet burst
   of T = 150 patterns per paper TPG, on catalog circuits up to the deep
   scale-tier s820_x4. *)
let test_catalog_rows () =
  List.iter
    (fun name ->
      let c = Library.load name in
      let width = Circuit.input_count c in
      let rng = Rng.create 2101 in
      List.iter
        (fun tpg ->
          let triplet =
            Triplet.make ~seed:(Word.random rng width)
              ~operand:(tpg.Tpg.fix_operand (Word.random rng width))
              ~cycles:150
          in
          expect_same
            (Printf.sprintf "%s/%s" name tpg.Tpg.name)
            c
            (Triplet.patterns tpg triplet))
        (Accumulator.paper_tpgs width))
    [ "c432"; "c880"; "s1238"; "s820_x4" ]

let suite =
  [
    ( "fault-sim-oracle",
      [
        QCheck_alcotest.to_alcotest prop_generated;
        QCheck_alcotest.to_alcotest prop_cone_hi;
        Alcotest.test_case "inputs and constants inside a sweep interval" `Quick
          test_inputs_in_interval;
        Alcotest.test_case "every gate-kernel arm" `Quick test_gate_kernel;
        Alcotest.test_case "catalog rows x paper TPGs" `Quick test_catalog_rows;
      ] );
  ]

open Reseed_netlist
open Reseed_fault
open Reseed_util

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Every fault under every pattern, graded by the serial checker. *)
let cross_check c patterns =
  let faults = Fault.all c in
  let sim = Fault_sim.create c faults in
  let map = Fault_sim.detection_map sim patterns in
  Array.iteri
    (fun fi fault ->
      for p = 0 to Array.length patterns - 1 do
        let serial = Fault_checker.detects Fault_model.Stuck_at c fault patterns p in
        let fast = Bitvec.get map.(fi) p in
        if serial <> fast then
          Alcotest.failf "fault %s pattern %d: serial=%b fast=%b"
            (Fault.to_string c fault) p serial fast
      done)
    faults

let test_oracle_c17_exhaustive () =
  let c = Library.c17 () in
  let patterns = Array.init 32 (fun p -> Array.init 5 (fun i -> p lsr i land 1 = 1)) in
  cross_check c patterns

let test_oracle_random_circuits () =
  let rng = Rng.create 555 in
  List.iter
    (fun seed ->
      let spec =
        { (Generator.default_spec "fs" ~inputs:9 ~outputs:3 ~gates:50) with Generator.seed = seed }
      in
      let c = Generator.generate spec in
      let patterns = Array.init 70 (fun _ -> Array.init 9 (fun _ -> Rng.bool rng)) in
      cross_check c patterns)
    [ 1; 2; 3 ]

let test_oracle_structured () =
  let rng = Rng.create 556 in
  List.iter
    (fun c ->
      let n = Circuit.input_count c in
      let patterns = Array.init 64 (fun _ -> Array.init n (fun _ -> Rng.bool rng)) in
      cross_check c patterns)
    [ Library.ripple_adder 4; Library.comparator 4; Library.mux_tree 3; Library.alu 2 ]

let test_first_detections_drop () =
  let c = Library.c17 () in
  let faults = Fault.all c in
  let sim = Fault_sim.create c faults in
  let patterns = Array.init 32 (fun p -> Array.init 5 (fun i -> p lsr i land 1 = 1)) in
  let firsts = Fault_sim.first_detections sim patterns in
  let map = Fault_sim.detection_map sim patterns in
  Array.iteri
    (fun fi first ->
      match (first, Bitvec.first_one map.(fi)) with
      | Some a, Some b when a = b -> ()
      | None, None -> ()
      | _ -> Alcotest.failf "first_detections disagrees on fault %d" fi)
    firsts

let test_active_mask_respected () =
  let c = Library.c17 () in
  let faults = Fault.all c in
  let sim = Fault_sim.create c faults in
  let patterns = Array.init 32 (fun p -> Array.init 5 (fun i -> p lsr i land 1 = 1)) in
  let active = Bitvec.create (Array.length faults) in
  Bitvec.set active 0;
  Bitvec.set active 3;
  let det = Fault_sim.detected_set sim patterns ~active in
  check "detected ⊆ active" true (Bitvec.subset det active);
  let firsts = Fault_sim.first_detections sim ~active patterns in
  Array.iteri
    (fun fi f -> if f <> None && not (Bitvec.get active fi) then Alcotest.fail "mask leak")
    firsts

(* The truncation rule: a burst is cut after its last pattern that
   detects a live fault, and what it detects leaves the live mask; a
   burst that detects no live fault has length 0 and changes nothing. *)
let test_useful_length () =
  let c = Library.c17 () in
  let faults = Fault.all c in
  let sim = Fault_sim.create c faults in
  let nf = Array.length faults in
  let p = Array.init 5 (fun i -> i land 1 = 0) in
  let all = Bitvec.create nf in
  Bitvec.fill_all all;
  let by_p = Fault_sim.detected_set sim [| p |] ~active:all in
  check "the pattern detects something" false (Bitvec.is_empty by_p);
  let live = Bitvec.copy all in
  check_int "cut after the one useful pattern" 1
    (Fault_sim.useful_length sim ~live [| p; p; p |]);
  check "its detections dropped" true (Bitvec.equal live (Bitvec.diff all by_p));
  let before = Bitvec.copy live in
  check_int "nothing live detected" 0 (Fault_sim.useful_length sim ~live [| p; p |]);
  check "mask untouched" true (Bitvec.equal live before);
  (* Exhaustive patterns: the cut falls at the largest first detection. *)
  let patterns = Array.init 32 (fun q -> Array.init 5 (fun i -> q lsr i land 1 = 1)) in
  let firsts = Fault_sim.first_detections sim ~active:before patterns in
  let want =
    Array.fold_left (fun acc f -> match f with Some q -> max acc (q + 1) | None -> acc) 0 firsts
  in
  check "some live fault left" true (want > 0);
  check_int "cut at the last first detection" want
    (Fault_sim.useful_length sim ~live patterns);
  let want_live = Bitvec.copy before in
  Array.iteri (fun fi f -> if f <> None then Bitvec.clear want_live fi) firsts;
  check "every first detection dropped" true (Bitvec.equal live want_live)

let test_sims_counter_monotone () =
  let c = Library.c17 () in
  let sim = Fault_sim.create c (Fault.all c) in
  let before = Fault_sim.sims_performed sim in
  let active = Bitvec.create (Fault_sim.fault_count sim) in
  Bitvec.fill_all active;
  ignore (Fault_sim.detected_set sim [| Array.make 5 true |] ~active);
  check "sims increased" true (Fault_sim.sims_performed sim > before)

let test_empty_patterns () =
  let c = Library.c17 () in
  let sim = Fault_sim.create c (Fault.all c) in
  let active = Bitvec.create (Fault_sim.fault_count sim) in
  Bitvec.fill_all active;
  let det = Fault_sim.detected_set sim [||] ~active in
  check "nothing detected" true (Bitvec.is_empty det)

let test_coverage_pct () =
  let c = Library.c17 () in
  let sim = Fault_sim.create c (Fault.all c) in
  let det = Bitvec.create (Fault_sim.fault_count sim) in
  Bitvec.set det 0;
  let pct = Fault_sim.coverage_pct sim det in
  check "pct positive" true (pct > 0.0 && pct < 100.0)

(* Property: detection is stable under pattern-set permutation. *)
let prop_detection_order_independent =
  QCheck.Test.make ~name:"detected set independent of pattern order" ~count:20
    QCheck.(small_int)
    (fun seed ->
      let c = Library.ripple_adder 3 in
      let faults = Fault.all c in
      let sim = Fault_sim.create c faults in
      let rng = Rng.create seed in
      let patterns = Array.init 10 (fun _ -> Array.init 7 (fun _ -> Rng.bool rng)) in
      let shuffled = Array.copy patterns in
      Rng.shuffle rng shuffled;
      let active = Bitvec.create (Array.length faults) in
      Bitvec.fill_all active;
      Bitvec.equal
        (Fault_sim.detected_set sim patterns ~active)
        (Fault_sim.detected_set sim shuffled ~active))

(* The serial checker's first detections equal the simulator's, under
   both fault models, on generated circuits and 1 to 100 patterns: one
   block, or a full one and a partial one. *)
let prop_serial_checker =
  QCheck.Test.make ~name:"serial checker = first_detections" ~count:30
    QCheck.(triple (int_bound 10_000) (int_bound 80) (int_bound 99))
    (fun (seed, extra_gates, extra_patterns) ->
      let c =
        Generator.generate
          {
            (Generator.default_spec "serial" ~inputs:8 ~outputs:3
               ~gates:(20 + extra_gates))
            with
            Generator.seed = seed;
          }
      in
      let rng = Rng.create seed in
      let patterns =
        Array.init (1 + extra_patterns) (fun _ -> Array.init 8 (fun _ -> Rng.bool rng))
      in
      List.for_all
        (fun model ->
          let faults = Fault_model.faults model c in
          let sim = Fault_sim.create ~model c faults in
          Fault_sim.first_detections sim patterns
          = Fault_checker.first_detections model c faults patterns
          || QCheck.Test.fail_reportf "seed %d: %s first detections differ" seed
               (Fault_model.name model))
        [ Fault_model.Stuck_at; Fault_model.Transition_delay ])

let suite =
  [
    ( "fault_sim",
      [
        Alcotest.test_case "oracle: c17 exhaustive" `Quick test_oracle_c17_exhaustive;
        Alcotest.test_case "oracle: random circuits" `Slow test_oracle_random_circuits;
        Alcotest.test_case "oracle: structured circuits" `Slow test_oracle_structured;
        Alcotest.test_case "first_detections = first set bit" `Quick test_first_detections_drop;
        Alcotest.test_case "useful_length truncates a burst" `Quick test_useful_length;
        Alcotest.test_case "active mask respected" `Quick test_active_mask_respected;
        Alcotest.test_case "sims counter monotone" `Quick test_sims_counter_monotone;
        Alcotest.test_case "empty pattern set" `Quick test_empty_patterns;
        Alcotest.test_case "coverage pct" `Quick test_coverage_pct;
        QCheck_alcotest.to_alcotest prop_detection_order_independent;
        QCheck_alcotest.to_alcotest prop_serial_checker;
      ] );
  ]

open Reseed_netlist
open Reseed_fault
open Reseed_util

let check = Alcotest.(check bool)

let engines = [ Fault_sim.Event; Fault_sim.Cpt; Fault_sim.Hybrid ]

(* Build one simulator per engine over the same fault list. *)
let sims_for c =
  let faults = Fault.all c in
  List.map (fun e -> Fault_sim.create ~engine:e c faults) engines

let check_identical_maps c patterns =
  match sims_for c with
  | [] | [ _ ] -> assert false
  | ref_sim :: rest ->
      let ref_map = Fault_sim.detection_map ref_sim patterns in
      List.iter
        (fun sim ->
          let map = Fault_sim.detection_map sim patterns in
          Array.iteri
            (fun fi row ->
              if not (Bitvec.equal row ref_map.(fi)) then
                Alcotest.failf "%s/%s: fault %d detection word differs from event"
                  (Circuit.name c)
                  (Fault_sim.engine_name (Fault_sim.engine sim))
                  fi)
            map)
        rest

(* Random generated circuits crossed with random pattern blocks, including
   a block count that leaves the final word partially filled. *)
let test_random_circuits () =
  let rng = Rng.create 777 in
  List.iter
    (fun (seed, n_patterns) ->
      let spec =
        {
          (Generator.default_spec "cpt" ~inputs:8 ~outputs:3 ~gates:70) with
          Generator.seed = seed;
        }
      in
      let c = Generator.generate spec in
      let patterns =
        Array.init n_patterns (fun _ -> Array.init 8 (fun _ -> Rng.bool rng))
      in
      check_identical_maps c patterns)
    [ (1, 100); (2, 62); (3, 63); (4, 7); (5, 125) ]

let test_structured_circuits () =
  let rng = Rng.create 778 in
  List.iter
    (fun c ->
      let n = Circuit.input_count c in
      let patterns = Array.init 90 (fun _ -> Array.init n (fun _ -> Rng.bool rng)) in
      check_identical_maps c patterns)
    [
      Library.c17 ();
      Library.ripple_adder 4;
      Library.comparator 4;
      Library.mux_tree 3;
      Library.alu 2;
    ]

(* detected_set with a sparse active mask must agree across engines (this
   exercises Hybrid's per-block fallback to event mode on thin tails). *)
let test_detected_set_partial_active () =
  let rng = Rng.create 779 in
  let c = Library.load "c432" in
  let faults = Fault.all c in
  let nf = Array.length faults in
  let n = Circuit.input_count c in
  let patterns = Array.init 80 (fun _ -> Array.init n (fun _ -> Rng.bool rng)) in
  List.iter
    (fun keep_one_in ->
      let active = Bitvec.create nf in
      for fi = 0 to nf - 1 do
        if fi mod keep_one_in = 0 then Bitvec.set active fi
      done;
      match
        List.map
          (fun e ->
            let sim = Fault_sim.create ~engine:e c faults in
            Fault_sim.detected_set sim patterns ~active)
          engines
      with
      | [ ev; cpt; hy ] ->
          check "cpt = event (partial active)" true (Bitvec.equal cpt ev);
          check "hybrid = event (partial active)" true (Bitvec.equal hy ev)
      | _ -> assert false)
    [ 1; 3; 17 ]

(* Fault dropping: the first-detecting pattern index per fault must be
   engine-independent. *)
let test_first_detections_identical () =
  let rng = Rng.create 780 in
  List.iter
    (fun name ->
      let c = Library.load name in
      let n = Circuit.input_count c in
      let patterns = Array.init 70 (fun _ -> Array.init n (fun _ -> Rng.bool rng)) in
      match List.map (fun sim -> Fault_sim.first_detections sim patterns) (sims_for c) with
      | [ ev; cpt; hy ] ->
          Alcotest.(check (array (option int))) (name ^ " cpt firsts") ev cpt;
          Alcotest.(check (array (option int))) (name ^ " hybrid firsts") ev hy
      | _ -> assert false)
    [ "c17"; "s420" ]

(* The engine cross-check on catalog circuits: every engine grades every
   fault of every pattern identically.  s820_x4 (depth 33) is the deep
   member: a queue that popped out of level order would corrupt its long
   reconvergent cones. *)
let test_catalog_engines_agree () =
  List.iter
    (fun name ->
      let c = Library.load name in
      let rng = Rng.create 97 in
      let n = Circuit.input_count c in
      let patterns = Array.init 150 (fun _ -> Array.init n (fun _ -> Rng.bool rng)) in
      check_identical_maps c patterns)
    [ "c17"; "c432"; "s420"; "s820_x4" ]

(* The optimisation claim itself: on a reconvergent benchmark the CPT
   engines must launch fewer event propagations than the event engine.
   The exact work counters are pinned too: they are the paper's cost
   metric, and a change to the event queue's pop order or to dominator
   chaining that altered them would show here. *)
let test_props_reduction () =
  let rng = Rng.create 781 in
  let c = Library.load "c432" in
  let n = Circuit.input_count c in
  let patterns = Array.init 124 (fun _ -> Array.init n (fun _ -> Rng.bool rng)) in
  match sims_for c with
  | [ ev_sim; cpt_sim; hy_sim ] ->
      List.iter (fun sim -> ignore (Fault_sim.detection_map sim patterns))
        [ ev_sim; cpt_sim; hy_sim ];
      let ev = Fault_sim.event_propagations ev_sim in
      let cpt = Fault_sim.event_propagations cpt_sim in
      let hy = Fault_sim.event_propagations hy_sim in
      if not (2 * cpt <= ev) then
        Alcotest.failf "cpt props %d not >=2x below event props %d" cpt ev;
      if not (2 * hy <= ev) then
        Alcotest.failf "hybrid props %d not >=2x below event props %d" hy ev;
      let check_int = Alcotest.(check int) in
      check_int "event props" 1373 ev;
      check_int "cpt props" 206 cpt;
      check_int "hybrid props" 206 hy;
      List.iter
        (fun sim ->
          check_int
            (Fault_sim.engine_name (Fault_sim.engine sim) ^ " sims")
            1418
            (Fault_sim.sims_performed sim))
        [ ev_sim; cpt_sim; hy_sim ]
  | _ -> assert false

(* Deep enough (>= 20 levels) that the event queue holds many levels at
   once. *)
let deep_circuit () =
  let c =
    Generator.generate
      {
        (Generator.default_spec "deep" ~inputs:10 ~outputs:6 ~gates:400) with
        Generator.seed = 4242;
      }
  in
  if Circuit.max_level c < 20 then
    Alcotest.failf "deep circuit has depth %d, want >= 20" (Circuit.max_level c);
  c

type sweep = Map | Firsts | Detected

(* Results compare structurally: [Bitvec.equal] is structural equality. *)
type answer =
  | Map_of of Bitvec.t array
  | Firsts_of of int option array
  | Detected_of of Bitvec.t

let run_sweep sim active patterns = function
  | Map -> Map_of (Fault_sim.detection_map sim patterns)
  | Firsts -> Firsts_of (Fault_sim.first_detections sim ~active patterns)
  | Detected -> Detected_of (Fault_sim.detected_set sim patterns ~active)

(* A budget-stopped detection map must be the fresh map cut at a block
   boundary.  The one cut to test is after the block holding its last
   detection: further blocks it swept, if any, show no detections, so the
   fresh map has none there either. *)
let is_block_prefix ~full ~cut =
  let w = Reseed_sim.Logic_sim.block_width in
  let last = Array.fold_left (Bitvec.fold_ones (fun acc i -> max acc i)) (-1) cut in
  let stop = (last + w) / w * w in
  Array.for_all2
    (fun f k ->
      let expect = Bitvec.copy f in
      Bitvec.iter_ones (fun i -> if i >= stop then Bitvec.clear expect i) f;
      Bitvec.equal expect k)
    full cut

(* One long-lived simulator per engine and fault model serves an
   interleaved stream of sweeps.  Every sweep must return what the same
   sweep returns on a fresh simulator: no event-queue, block or launch
   state may carry over from one sweep into the next, also after a sweep
   cut short by its budget. *)
let test_no_state_leak () =
  let c = deep_circuit () in
  let n = Circuit.input_count c in
  let rng = Rng.create 782 in
  let pats k = Array.init k (fun _ -> Array.init n (fun _ -> Rng.bool rng)) in
  let stream =
    List.map
      (fun (sweep, k) -> (sweep, pats k))
      [ (Map, 150); (Firsts, 1); (Detected, 63); (Map, 62); (Firsts, 150);
        (Detected, 1); (Map, 63); (Firsts, 62); (Detected, 150); (Map, 1) ]
  in
  let long = pats (Reseed_sim.Logic_sim.block_width * 16) in
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
          let fresh () = Fault_sim.create ~engine ~model c faults in
          let label =
            Printf.sprintf "%s/%s" (Fault_model.name model)
              (Fault_sim.engine_name engine)
          in
          let sim = fresh () in
          let check_stream () =
            List.iter
              (fun (sweep, patterns) ->
                if
                  run_sweep sim active patterns sweep
                  <> run_sweep (fresh ()) active patterns sweep
                then
                  Alcotest.failf "%s: sweep over %d patterns differs from a fresh simulator"
                    label (Array.length patterns))
              stream
          in
          check_stream ();
          (* A sweep whose budget expires after half a full sweep's time.
             Where it stops depends on timing; that it stops on a block
             boundary with the fresh answer so far does not. *)
          let t0 = Unix.gettimeofday () in
          let full = Fault_sim.detection_map (fresh ()) long in
          let deadline_s = (Unix.gettimeofday () -. t0) /. 2. in
          let cut =
            Fault_sim.detection_map ~budget:(Budget.create ~deadline_s ()) sim long
          in
          if not (is_block_prefix ~full ~cut) then
            Alcotest.failf "%s: budget-stopped map is not a block prefix" label;
          check_stream ())
        engines)
    [ Fault_model.Stuck_at; Fault_model.Transition_delay ]

(* Two copies sharing one simulator's queue offsets run concurrently on two
   domains; each must match the sequential answer. *)
let test_concurrent_copies () =
  let c = deep_circuit () in
  let n = Circuit.input_count c in
  let rng = Rng.create 783 in
  let a = Array.init 150 (fun _ -> Array.init n (fun _ -> Rng.bool rng)) in
  let b = Array.init 150 (fun _ -> Array.init n (fun _ -> Rng.bool rng)) in
  List.iter
    (fun engine ->
      let sim = Fault_sim.create ~engine c (Fault.all c) in
      let want_a = Fault_sim.detection_map (Fault_sim.copy sim) a in
      let want_b = Fault_sim.first_detections (Fault_sim.copy sim) b in
      let s0 = Fault_sim.copy sim and s1 = Fault_sim.copy sim in
      let d = Domain.spawn (fun () -> Fault_sim.first_detections s1 b) in
      let got_a = Fault_sim.detection_map s0 a in
      let got_b = Domain.join d in
      let name = Fault_sim.engine_name engine in
      check (name ^ ": concurrent map = sequential") true
        (Array.for_all2 Bitvec.equal want_a got_a);
      Alcotest.(check (array (option int))) (name ^ ": concurrent firsts = sequential")
        want_b got_b)
    engines

let suite =
  [
    ( "cpt-differential",
      [
        Alcotest.test_case "random circuits x blocks" `Quick test_random_circuits;
        Alcotest.test_case "structured circuits" `Quick test_structured_circuits;
        Alcotest.test_case "catalog circuits" `Quick test_catalog_engines_agree;
        Alcotest.test_case "partial active masks" `Quick test_detected_set_partial_active;
        Alcotest.test_case "first detections" `Quick test_first_detections_identical;
        Alcotest.test_case "propagation reduction" `Quick test_props_reduction;
        Alcotest.test_case "no state leaks between sweeps" `Quick test_no_state_leak;
        Alcotest.test_case "concurrent copies" `Quick test_concurrent_copies;
      ] );
  ]

(* Critical-path tracing ([Fault_sim]) against per-fault injection: the
   reference's [Event] engine, which injects every excited fault and
   propagates it through its cone, shares no grading code with the
   traced derivative chains and stem observabilities. *)

open Reseed_netlist
open Reseed_fault
open Reseed_util
module R = Fault_sim_reference

let check = Alcotest.(check bool)

(* The simulator under test and the injection reference over the same
   fault list. *)
let sims_for c =
  let faults = Fault.all c in
  (Fault_sim.create c faults, R.create ~engine:R.Event c faults)

let check_identical_maps c patterns =
  let sim, ev = sims_for c in
  let ev_map = R.detection_map ev patterns in
  Array.iteri
    (fun fi row ->
      if not (Bitvec.equal row ev_map.(fi)) then
        Alcotest.failf "%s: fault %d detection word differs from event"
          (Circuit.name c) fi)
    (Sweeps.detection_map sim patterns)

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

(* detected_set with a sparse active mask must agree with injection: CPT
   then computes observability only for the stems live faults reach. *)
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
      let cpt =
        Fault_sim.detected_set (Fault_sim.create c faults) (Sweeps.words patterns) ~active
      in
      let ev = R.detected_set (R.create ~engine:R.Event c faults) patterns ~active in
      check "cpt = event (partial active)" true (Bitvec.equal cpt ev))
    [ 1; 3; 17 ]

(* Fault dropping: the first-detecting pattern index per fault must match
   injection's. *)
let test_first_detections_identical () =
  let rng = Rng.create 780 in
  List.iter
    (fun name ->
      let c = Library.load name in
      let n = Circuit.input_count c in
      let patterns = Array.init 70 (fun _ -> Array.init n (fun _ -> Rng.bool rng)) in
      let sim, ev = sims_for c in
      Alcotest.(check (array (option int)))
        (name ^ " cpt firsts")
        (R.first_detections ev patterns)
        (Sweeps.first_detections sim patterns))
    [ "c17"; "s420" ]

(* The cross-check on catalog circuits: tracing and injection grade every
   fault of every pattern identically.  s820_x4 (depth 33) is the deep
   member: a propagation that evaluated a node before one of its fanins
   would corrupt its long reconvergent cones. *)
let test_catalog_engines_agree () =
  List.iter
    (fun name ->
      let c = Library.load name in
      let rng = Rng.create 97 in
      let n = Circuit.input_count c in
      let patterns = Array.init 150 (fun _ -> Array.init n (fun _ -> Rng.bool rng)) in
      check_identical_maps c patterns)
    [ "c17"; "c432"; "s420"; "s820_x4" ]

(* The optimisation claim itself: on a reconvergent benchmark tracing
   must launch fewer propagations than injecting every excited fault,
   both grading the same fault-dropping sweep.  The exact work counters
   are pinned too: they are the paper's cost metric, and a change to
   the propagation kernel or to the observability memo that altered them
   would show here. *)
let test_props_reduction () =
  let rng = Rng.create 781 in
  let c = Library.load "c432" in
  let n = Circuit.input_count c in
  let patterns = Array.init 124 (fun _ -> Array.init n (fun _ -> Rng.bool rng)) in
  let cpt_sim, ev_sim = sims_for c in
  ignore (Sweeps.first_detections cpt_sim patterns);
  ignore (R.first_detections ev_sim patterns);
  let ev = R.event_propagations ev_sim in
  let cpt = Fault_sim.event_propagations cpt_sim in
  if not (2 * cpt <= ev) then
    Alcotest.failf "cpt props %d not >=2x below event props %d" cpt ev;
  let check_int = Alcotest.(check int) in
  check_int "event props" 732 ev;
  check_int "cpt props" 122 cpt;
  check_int "event sims" 774 (R.sims_performed ev_sim);
  check_int "cpt sims" 774 (Fault_sim.sims_performed cpt_sim)

(* Fault-dropping tails: with a single live fault, CPT refreshes at most
   the one stem that fault reaches, so a [first_detections] sweep costs at
   most one propagation per 62-pattern block it simulates — no more than
   injecting the fault would. *)
let test_single_fault_tail () =
  let rng = Rng.create 784 in
  let c = Library.load "c432" in
  let faults = Fault.all c in
  let nf = Array.length faults in
  let n = Circuit.input_count c in
  let patterns = Array.init 300 (fun _ -> Array.init n (fun _ -> Rng.bool rng)) in
  let w = Reseed_sim.Logic_sim.block_width in
  let all_blocks = (Array.length patterns + w - 1) / w in
  for fi = 0 to nf - 1 do
    if fi mod 7 = 0 then begin
      let sim = Fault_sim.create c faults in
      let active = Bitvec.create nf in
      Bitvec.set active fi;
      let blocks =
        match (Sweeps.first_detections sim ~active patterns).(fi) with
        | Some p -> (p / w) + 1
        | None -> all_blocks
      in
      let props = Fault_sim.event_propagations sim in
      if props > blocks then
        Alcotest.failf "fault %d: %d propagations over %d blocks" fi props blocks
    end
  done

(* Deep enough (>= 20 levels) that a propagation's dirty frontier spans
   many levels at once. *)
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
  | Map -> Map_of (Sweeps.detection_map sim patterns)
  | Firsts -> Firsts_of (Sweeps.first_detections sim ~active patterns)
  | Detected -> Detected_of (Fault_sim.detected_set sim (Sweeps.words patterns) ~active)

(* Budget-stopped first detections must be the fresh ones cut at a block
   boundary.  The one cut to test is after the block holding its last
   detection: further blocks it swept, if any, show no first detections,
   so the fresh sweep has none there either. *)
let is_block_prefix ~full ~cut =
  let w = Reseed_sim.Logic_sim.block_width in
  let last =
    Array.fold_left (fun acc k -> match k with Some p -> max acc p | None -> acc) (-1) cut
  in
  let stop = (last + w) / w * w in
  Array.for_all2
    (fun f k ->
      match (f, k) with
      | Some p, Some q -> p = q
      | Some p, None -> p >= stop
      | None, k -> k = None)
    full cut

(* One long-lived simulator per fault model serves an interleaved stream
   of sweeps.  Every sweep must return what the same sweep returns on a
   fresh simulator: no mirror, memo, block or launch state may carry over
   from one sweep into the next, also after a sweep cut short by its
   budget. *)
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
      let fresh () = Fault_sim.create ~model c faults in
      let label = Fault_model.name model in
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
      let full = Sweeps.first_detections (fresh ()) long in
      let deadline_s = (Unix.gettimeofday () -. t0) /. 2. in
      let cut =
        Sweeps.first_detections ~budget:(Budget.create ~deadline_s ()) sim long
      in
      if not (is_block_prefix ~full ~cut) then
        Alcotest.failf "%s: budget-stopped first detections are not a block prefix"
          label;
      check_stream ())
    [ Fault_model.Stuck_at; Fault_model.Transition_delay ]

(* Two copies sharing one simulator's flat layout run concurrently on two
   domains; each must match the sequential answer. *)
let test_concurrent_copies () =
  let c = deep_circuit () in
  let n = Circuit.input_count c in
  let rng = Rng.create 783 in
  let a = Array.init 150 (fun _ -> Array.init n (fun _ -> Rng.bool rng)) in
  let b = Array.init 150 (fun _ -> Array.init n (fun _ -> Rng.bool rng)) in
  let sim = Fault_sim.create c (Fault.all c) in
  let want_a = Sweeps.detection_map (Fault_sim.copy sim) a in
  let want_b = Sweeps.first_detections (Fault_sim.copy sim) b in
  let s0 = Fault_sim.copy sim and s1 = Fault_sim.copy sim in
  let d = Domain.spawn (fun () -> Sweeps.first_detections s1 b) in
  let got_a = Sweeps.detection_map s0 a in
  let got_b = Domain.join d in
  check "concurrent map = sequential" true (Array.for_all2 Bitvec.equal want_a got_a);
  Alcotest.(check (array (option int))) "concurrent firsts = sequential" want_b got_b

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
        Alcotest.test_case "single live fault tail" `Quick test_single_fault_tail;
        Alcotest.test_case "no state leaks between sweeps" `Quick test_no_state_leak;
        Alcotest.test_case "concurrent copies" `Quick test_concurrent_copies;
      ] );
  ]

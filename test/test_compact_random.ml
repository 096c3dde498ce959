open Reseed_atpg
open Reseed_fault
open Reseed_netlist
open Reseed_util

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let setup () =
  let c = Library.comparator 6 in
  let faults = Fault.all c in
  (c, Fault_sim.create c faults)

let test_compaction_never_loses_coverage () =
  let c, sim = setup () in
  let rng = Rng.create 11 in
  let n = Circuit.input_count c in
  let tests = Array.init 200 (fun _ -> Array.init n (fun _ -> Rng.bool rng)) in
  let active = Bitvec.create (Fault_sim.fault_count sim) in
  Bitvec.fill_all active;
  let before = Fault_sim.detected_set sim (Sweeps.words tests) ~active in
  let kept, dropped = Compact.reverse_order sim tests in
  let after = Fault_sim.detected_set sim (Sweeps.words kept) ~active in
  check "coverage preserved" true (Bitvec.equal before after);
  check_int "kept + dropped = total" 200 (Array.length kept + dropped);
  check "drops redundancy" true (dropped > 0)

let test_compaction_keeps_order () =
  let c, sim = setup () in
  let rng = Rng.create 12 in
  let n = Circuit.input_count c in
  let tests = Array.init 50 (fun _ -> Array.init n (fun _ -> Rng.bool rng)) in
  let kept, _ = Compact.reverse_order sim tests in
  (* kept must be a subsequence of tests *)
  let rec subseq i j =
    if i >= Array.length kept then true
    else if j >= Array.length tests then false
    else if kept.(i) = tests.(j) then subseq (i + 1) (j + 1)
    else subseq i (j + 1)
  in
  check "subsequence" true (subseq 0 0)

let test_compaction_empty () =
  let _, sim = setup () in
  let kept, dropped = Compact.reverse_order sim [||] in
  check_int "empty kept" 0 (Array.length kept);
  check_int "empty dropped" 0 dropped

let test_random_gen_useful_patterns () =
  let _, sim = setup () in
  let rng = Rng.create 13 in
  let r = Random_gen.run sim ~rng () in
  check "made progress" true (Bitvec.count r.Random_gen.detected > 0);
  (* every kept pattern was a first-detector, so re-simulating the kept set
     must reach the same coverage *)
  let active = Bitvec.create (Fault_sim.fault_count sim) in
  Bitvec.fill_all active;
  let re = Fault_sim.detected_set sim (Sweeps.words r.Random_gen.tests) ~active in
  check "kept patterns reach recorded coverage" true
    (Bitvec.subset r.Random_gen.detected re)

let test_random_gen_respects_already () =
  let _, sim = setup () in
  let rng = Rng.create 14 in
  let nf = Fault_sim.fault_count sim in
  let already = Bitvec.create nf in
  Bitvec.fill_all already;
  (* everything already detected: nothing to do *)
  let r = Random_gen.run sim ~rng ~already () in
  check "no new detections" true (Bitvec.is_empty r.Random_gen.detected);
  check_int "no kept tests" 0 (Array.length r.Random_gen.tests)

let test_random_gen_budget () =
  let _, sim = setup () in
  let rng = Rng.create 15 in
  let r = Random_gen.run sim ~rng ~max_patterns:62 ~give_up_after:1 () in
  check "budget respected" true (r.Random_gen.patterns_tried <= 124)

(* Compaction by first detections over the reversed set keeps exactly
   the patterns of the detection-map scan it replaced, on generated
   circuits (every gate kind the generator emits) and random sets that
   span several blocks. *)
let prop_same_as_reference =
  QCheck.Test.make ~name:"reverse_order = detection-map reference" ~count:40
    QCheck.(triple (int_bound 10_000) (int_bound 120) (int_bound 199))
    (fun (seed, extra_gates, extra_tests) ->
      let c =
        Generator.generate
          {
            (Generator.default_spec "compact" ~inputs:9 ~outputs:4
               ~gates:(20 + extra_gates))
            with
            Generator.seed = seed;
          }
      in
      let sim = Fault_sim.create c (Fault.all c) in
      let rng = Rng.create seed in
      let tests =
        Array.init (1 + extra_tests) (fun _ -> Array.init 9 (fun _ -> Rng.bool rng))
      in
      Compact.reverse_order sim tests = Compact_reference.reverse_order sim tests)

let suite =
  [
    ( "compact+random_gen",
      [
        Alcotest.test_case "compaction preserves coverage" `Quick test_compaction_never_loses_coverage;
        Alcotest.test_case "compaction keeps order" `Quick test_compaction_keeps_order;
        Alcotest.test_case "compaction of empty set" `Quick test_compaction_empty;
        Alcotest.test_case "random phase useful patterns" `Quick test_random_gen_useful_patterns;
        Alcotest.test_case "already-detected respected" `Quick test_random_gen_respects_already;
        Alcotest.test_case "pattern budget respected" `Quick test_random_gen_budget;
        QCheck_alcotest.to_alcotest prop_same_as_reference;
      ] );
  ]

open Reseed_atpg
open Reseed_fault
open Reseed_netlist
open Reseed_util

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_full_coverage_structured () =
  List.iter
    (fun c ->
      let sim, r = Atpg.run_circuit c in
      let cov = Atpg.fault_coverage sim r in
      if cov < 100.0 then Alcotest.failf "%s coverage %.2f" (Circuit.name c) cov;
      check "no aborts" true (r.Atpg.aborted = []))
    [ Library.c17 (); Library.ripple_adder 8; Library.parity 16; Library.mux_tree 3 ]

let test_detected_reproducible () =
  let c = Library.comparator 6 in
  let sim, r = Atpg.run_circuit c in
  let active = Bitvec.create (Fault_sim.fault_count sim) in
  Bitvec.fill_all active;
  let re = Fault_sim.detected_set sim (Sweeps.words r.Atpg.tests) ~active in
  check "claimed coverage reproducible" true (Bitvec.equal re r.Atpg.detected)

let test_deterministic_given_seed () =
  let run () =
    let _, r = Atpg.run_circuit (Library.ripple_adder 6) in
    r.Atpg.tests
  in
  check "same seed same tests" true (run () = run ())

let test_untestable_alu () =
  (* the ALU contains a synthesised constant: some faults are redundant *)
  let sim, r = Atpg.run_circuit (Library.alu 4) in
  check "finds redundancies" true (List.length r.Atpg.untestable > 0);
  check "coverage of detectable is full" true (Atpg.fault_coverage sim r >= 100.0)

let test_synthetic_circuit () =
  let c = Library.load ~scale_factor:4 "c432" in
  let sim, r = Atpg.run_circuit c in
  let cov = Atpg.fault_coverage sim r in
  check "reasonable coverage" true (cov > 90.0);
  check "nonempty test set" true (Array.length r.Atpg.tests > 0);
  ignore sim


let test_sat_engine_equivalent () =
  (* The SAT engine must reach the same coverage as PODEM (both are
     complete); test sets may differ.  Only the deterministic engines
     prove faults untestable, so the redundancy lists compare them. *)
  let c = Library.alu 3 in
  let _, r1 = Atpg.run_circuit ~engine:Atpg.Podem_engine c in
  let _, r2 = Atpg.run_circuit ~engine:Atpg.Sat_engine c in
  check "same coverage" true (Bitvec.equal r1.Atpg.detected r2.Atpg.detected);
  check "same redundancies" true
    (List.sort compare r1.Atpg.untestable = List.sort compare r2.Atpg.untestable)

(* The PODEM search pinned at three catalog circuits: pattern, untestable
   and aborted counts, the search counters, and a digest of the test set,
   all recorded before the decision loop became event-driven.  Any change
   to PODEM's choices moves at least one of them. *)
let test_search_pinned () =
  let digest tests =
    Array.map
      (fun t -> String.init (Array.length t) (fun i -> if t.(i) then '1' else '0'))
      tests
    |> Array.to_list |> String.concat "\n" |> Digest.string |> Digest.to_hex
  in
  List.iter
    (fun (name, patterns, untestable, aborted, decisions, backtracks, hex) ->
      let _, r = Atpg.run_circuit (Library.load name) in
      let what s = name ^ " " ^ s in
      check_int (what "patterns") patterns (Array.length r.Atpg.tests);
      check_int (what "untestable") untestable (List.length r.Atpg.untestable);
      check_int (what "aborted") aborted (List.length r.Atpg.aborted);
      check_int (what "podem decisions") decisions r.Atpg.podem_stats.Podem.decisions;
      check_int (what "podem backtracks") backtracks r.Atpg.podem_stats.Podem.backtracks;
      Alcotest.(check string) (what "test-set digest") hex (digest r.Atpg.tests))
    [
      ("c432", 43, 7, 11, 2002, 2001, "a174d50da17de67a9e6405a2bdeeba39");
      ("c880", 64, 2, 46, 2055, 2001, "ea9cf1a99472e49abe3e53d5f692edf3");
      ("s1238", 83, 4, 32, 2168, 2001, "f9c57b01c17ba239c646d1dc14f165ee");
    ]

let suite =
  [
    ( "atpg",
      [
        Alcotest.test_case "full coverage on structured circuits" `Slow test_full_coverage_structured;
        Alcotest.test_case "detected set reproducible" `Quick test_detected_reproducible;
        Alcotest.test_case "deterministic" `Quick test_deterministic_given_seed;
        Alcotest.test_case "redundancy on ALU" `Quick test_untestable_alu;
        Alcotest.test_case "synthetic circuit" `Slow test_synthetic_circuit;
        Alcotest.test_case "SAT engine equivalent" `Slow test_sat_engine_equivalent;
        Alcotest.test_case "search pinned on c432, c880, s1238" `Quick test_search_pinned;
      ] );
  ]

(* Edge cases and failure injection across module boundaries. *)

open Reseed_core
open Reseed_fault
open Reseed_gatsby
open Reseed_netlist
open Reseed_setcover
open Reseed_tpg
open Reseed_util

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let c17_sim () =
  let c = Library.c17 () in
  (c, Fault_sim.create c (Fault.all c))

let test_builder_empty_test_set () =
  let _, sim = c17_sim () in
  let tpg = Accumulator.adder 5 in
  let targets = Bitvec.create (Fault_sim.fault_count sim) in
  Bitvec.fill_all targets;
  let b =
    Builder.build sim tpg ~tests:[||] ~targets ~config:Builder.default_config
  in
  check_int "no triplets" 0 (Array.length b.Builder.triplets);
  check_int "no rows" 0 (Matrix.rows b.Builder.matrix);
  (* the covering over an empty matrix: everything uncoverable, dropped *)
  let sol = Solution.solve b.Builder.matrix in
  check_int "empty solution" 0 (Solution.cardinality sol)

let test_builder_pattern_width_mismatch () =
  let _, sim = c17_sim () in
  let tpg = Accumulator.adder 4 (* wrong width *) in
  let targets = Bitvec.create (Fault_sim.fault_count sim) in
  check "width mismatch raises" true
    (try
       ignore
         (Builder.build sim tpg
            ~tests:[| Array.make 5 false |]
            ~targets ~config:Builder.default_config);
       false
     with Invalid_argument _ -> true)

let test_builder_target_mask_mismatch () =
  let _, sim = c17_sim () in
  let tpg = Accumulator.adder 5 in
  check "mask size raises" true
    (try
       ignore
         (Builder.build sim tpg
            ~tests:[| Array.make 5 false |]
            ~targets:(Bitvec.create 3) ~config:Builder.default_config);
       false
     with Invalid_argument _ -> true)

let test_gatsby_no_targets () =
  let _, sim = c17_sim () in
  let tpg = Accumulator.adder 5 in
  let targets = Bitvec.create (Fault_sim.fault_count sim) in
  (* no faults requested: GA stalls immediately and gives up cleanly *)
  let rng = Rng.create 3 in
  let g = Gatsby.run sim tpg ~rng ~targets in
  check_int "no triplets" 0 (List.length g.Gatsby.triplets);
  check "no detections" true (Bitvec.is_empty g.Gatsby.detected)

let test_fault_sim_no_faults () =
  let c = Library.c17 () in
  let sim = Fault_sim.create c [||] in
  let active = Bitvec.create 0 in
  let det = Fault_sim.detected_set sim [| Word.ones 5 |] ~active in
  check "empty detected" true (Bitvec.is_empty det)

let test_tradeoff_invalid_grid () =
  let p = Suite.prepare "c17" in
  let tpg = Accumulator.adder 5 in
  check "cycles 0 rejected" true
    (try
       ignore
         (Tradeoff.sweep p.Suite.sim tpg ~tests:p.Suite.tests ~targets:p.Suite.targets
            ~grid:[ 0 ]);
       false
     with Invalid_argument _ -> true)

let test_solution_zero_rows () =
  let m = Matrix.create ~rows:0 ~cols:5 in
  let sol = Solution.solve m in
  check_int "no rows no picks" 0 (Solution.cardinality sol);
  check "verify trivially true" true (Solution.verify m sol)

let test_solution_zero_cols () =
  let m = Matrix.create ~rows:3 ~cols:0 in
  let sol = Solution.solve m in
  check_int "nothing to cover" 0 (Solution.cardinality sol)

let test_reduce_idempotent () =
  let rng = Rng.create 17 in
  for _ = 1 to 10 do
    let rows = 4 + Rng.int rng 6 and cols = 4 + Rng.int rng 8 in
    let m = Matrix.create ~rows ~cols in
    for i = 0 to rows - 1 do
      for j = 0 to cols - 1 do
        if Rng.int rng 3 = 0 then Matrix.set m ~row:i ~col:j
      done
    done;
    let r1 = Reduce.run m in
    let residual, _, _ = Reduce.residual m r1 in
    let r2 = Reduce.run residual in
    (* a reduced instance has no essentials and no dominances left *)
    check "no new essentials" true (r2.Reduce.necessary = []);
    check_int "no new row dominance" 0 r2.Reduce.rows_dominated;
    check_int "no new col dominance" 0 r2.Reduce.cols_dominated
  done

let test_word_width_one () =
  let w = Reseed_util.Word.one 1 in
  check "1+1 wraps to 0" true (Reseed_util.Word.is_zero (Reseed_util.Word.add w w));
  check_int "popcount" 1 (Reseed_util.Word.popcount w)

let test_single_bit_vector () =
  let v = Bitvec.create 1 in
  Bitvec.set v 0;
  check_int "count" 1 (Bitvec.count v);
  Bitvec.fill_all v;
  check_int "fill" 1 (Bitvec.count v)

let test_flow_on_tiny_targets () =
  (* restrict targets to a handful of faults: minimal solutions stay valid *)
  let p = Suite.prepare "c17" in
  let tpg = Accumulator.adder 5 in
  let targets = Bitvec.create (Bitvec.length p.Suite.targets) in
  Bitvec.iter_ones (fun i -> if i mod 7 = 0 then Bitvec.set targets i) p.Suite.targets;
  let r = Flow.run p.Suite.sim tpg ~tests:p.Suite.tests ~targets in
  check "covers restricted set" true (r.Flow.coverage_pct >= 100.0);
  check "small solution" true (Flow.reseedings r <= 3)

(* Property: the whole flow verifies end-to-end on random small circuits
   across all paper TPGs. *)
let prop_flow_verifies_everywhere =
  QCheck.Test.make ~name:"flow verifies on random circuits" ~count:8
    QCheck.(int_range 0 1000)
    (fun seed ->
      let spec =
        { (Generator.default_spec "rnd" ~inputs:8 ~outputs:3 ~gates:45) with
          Generator.seed = seed }
      in
      let c = Generator.generate spec in
      let p = Suite.prepare_circuit c in
      List.for_all
        (fun tpg ->
          let r =
            Flow.run p.Suite.sim tpg ~tests:p.Suite.tests ~targets:p.Suite.targets
          in
          Flow.verify p.Suite.sim tpg r && r.Flow.coverage_pct >= 100.0)
        (Suite.paper_tpgs p))

let suite =
  [
    ( "robustness",
      [
        Alcotest.test_case "builder: empty test set" `Quick test_builder_empty_test_set;
        Alcotest.test_case "builder: width mismatch" `Quick test_builder_pattern_width_mismatch;
        Alcotest.test_case "builder: mask mismatch" `Quick test_builder_target_mask_mismatch;
        Alcotest.test_case "gatsby: no targets" `Quick test_gatsby_no_targets;
        Alcotest.test_case "fault_sim: no faults" `Quick test_fault_sim_no_faults;
        Alcotest.test_case "tradeoff: invalid grid" `Quick test_tradeoff_invalid_grid;
        Alcotest.test_case "solution: zero rows" `Quick test_solution_zero_rows;
        Alcotest.test_case "solution: zero cols" `Quick test_solution_zero_cols;
        Alcotest.test_case "reduction idempotent" `Quick test_reduce_idempotent;
        Alcotest.test_case "word width 1" `Quick test_word_width_one;
        Alcotest.test_case "single-bit vector" `Quick test_single_bit_vector;
        Alcotest.test_case "flow on restricted targets" `Quick test_flow_on_tiny_targets;
        QCheck_alcotest.to_alcotest ~long:true prop_flow_verifies_everywhere;
      ] );
  ]

open Reseed_netlist
open Reseed_tpg
open Reseed_util

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Full-scan conversion --- *)

let sequential_src =
  {|# tiny Moore machine: two flip-flops and a little logic
INPUT(x)
OUTPUT(z)
q1 = DFF(d1)
q2 = DFF(d2)
d1 = AND(x, q2)
d2 = NOR(q1, x)
z = XOR(q1, q2)
|}

let test_full_scan_basic () =
  let c, dffs = Bench_io.parse_full_scan ~name:"moore" sequential_src in
  check_int "two flip-flops" 2 dffs;
  (* PIs: x + q1 + q2; POs: z + d1 + d2 *)
  check_int "inputs" 3 (Circuit.input_count c);
  check_int "outputs" 3 (Circuit.output_count c);
  Circuit.validate c

let test_full_scan_behaviour () =
  (* The core must compute the next-state logic combinationally. *)
  let c, _ = Bench_io.parse_full_scan ~name:"moore" sequential_src in
  let x = 1 and q1 = 1 and q2 = 0 in
  (* input order follows declaration order: x, then scan inputs q1, q2 *)
  let pattern = [| x = 1; q1 = 1; q2 = 1 |] in
  let out = Reseed_sim.Logic_sim.output_response c pattern in
  (* output order: z, d1, d2 *)
  check "z = q1 xor q2" true (out.(0) = (q1 <> q2));
  check "d1 = x and q2" true (out.(1) = (x = 1 && q2 = 1));
  check "d2 = nor(q1,x)" true (out.(2) = (q1 = 0 && x = 0))

let test_full_scan_rejected_by_parse () =
  check "plain parse rejects DFF" true
    (try
       ignore (Bench_io.parse ~name:"moore" sequential_src);
       false
     with Reseed_util.Error.Reseed_error _ -> true)

let test_full_scan_combinational_unchanged () =
  (* On a purely combinational source, full-scan parse = plain parse. *)
  let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n" in
  let c1 = Bench_io.parse ~name:"comb" src in
  let c2, dffs = Bench_io.parse_full_scan ~name:"comb" src in
  check_int "no dffs" 0 dffs;
  check "same text" true (Bench_io.to_string c1 = Bench_io.to_string c2)

let test_full_scan_flow_end_to_end () =
  (* The scan core feeds the ordinary reseeding flow. *)
  let c, _ = Bench_io.parse_full_scan ~name:"moore" sequential_src in
  let p = Reseed_core.Suite.prepare_circuit c in
  let tpg = Accumulator.adder (Circuit.input_count c) in
  let r =
    Reseed_core.Flow.run p.Reseed_core.Suite.sim tpg ~tests:p.Reseed_core.Suite.tests
      ~targets:p.Reseed_core.Suite.targets
  in
  check "coverage" true (r.Reseed_core.Flow.coverage_pct >= 100.0)

let test_full_scan_shared_state_net () =
  (* Two DFFs sampling the same data net: the pseudo-PO appears once. *)
  let src =
    "INPUT(x)\nOUTPUT(z)\nq1 = DFF(d)\nq2 = DFF(d)\nd = NOT(x)\nz = AND(q1, q2)\n"
  in
  let c, dffs = Bench_io.parse_full_scan ~name:"shared" src in
  check_int "two dffs" 2 dffs;
  check_int "outputs deduped" 2 (Circuit.output_count c)

(* --- weighted covering objective --- *)

let test_min_test_length_objective () =
  let p = Reseed_core.Suite.prepare_circuit (Library.ripple_adder 6) in
  let tpg = Accumulator.adder (Circuit.input_count (Library.ripple_adder 6)) in
  let open Reseed_core in
  let run objective =
    Flow.run
      ~config:{ Flow.default_config with Flow.objective }
      p.Suite.sim tpg ~tests:p.Suite.tests ~targets:p.Suite.targets
  in
  let by_count = run Flow.Min_triplets in
  let by_length = run Flow.Min_test_length in
  check "both cover" true
    (by_count.Flow.coverage_pct >= 100.0 && by_length.Flow.coverage_pct >= 100.0);
  check "count objective minimal in count" true
    (Flow.reseedings by_count <= Flow.reseedings by_length);
  (* weighted objective never produces a longer estimated test *)
  check "length objective no worse in length" true
    (by_length.Flow.test_length <= by_count.Flow.test_length + 50)

let test_weighted_reduce_respects_weights () =
  (* equal rows, unequal weights: the cheap one must survive *)
  let open Reseed_setcover in
  let m =
    Matrix.of_rows ~cols:2
      [| Bitvec.of_list 2 [ 0; 1 ]; Bitvec.of_list 2 [ 0; 1 ] |]
  in
  let r = Reduce.run ~row_weights:[| 5.0; 1.0 |] m in
  check "expensive row dropped" true (r.Reduce.remaining_rows = [ 1 ] || r.Reduce.necessary = [ 1 ])

let test_weighted_solution_cost () =
  let open Reseed_setcover in
  (* row 0 covers everything at cost 10; rows 1-2 cover it at 2+2 *)
  let m =
    Matrix.of_rows ~cols:2
      [|
        Bitvec.of_list 2 [ 0; 1 ]; Bitvec.of_list 2 [ 0 ]; Bitvec.of_list 2 [ 1 ];
      |]
  in
  let sol = Solution.solve ~row_weights:[| 10.; 2.; 2. |] m in
  check "weighted pick" true (List.sort compare sol.Solution.rows = [ 1; 2 ])

let suite =
  [
    ( "fullscan+misr+weighted",
      [
        Alcotest.test_case "full-scan conversion" `Quick test_full_scan_basic;
        Alcotest.test_case "scan core behaviour" `Quick test_full_scan_behaviour;
        Alcotest.test_case "plain parse rejects DFF" `Quick test_full_scan_rejected_by_parse;
        Alcotest.test_case "combinational unchanged" `Quick test_full_scan_combinational_unchanged;
        Alcotest.test_case "scan core through the flow" `Quick test_full_scan_flow_end_to_end;
        Alcotest.test_case "shared state net deduped" `Quick test_full_scan_shared_state_net;
        Alcotest.test_case "min-test-length objective" `Slow test_min_test_length_objective;
        Alcotest.test_case "weighted reduce" `Quick test_weighted_reduce_respects_weights;
        Alcotest.test_case "weighted solution cost" `Quick test_weighted_solution_cost;
      ] );
  ]

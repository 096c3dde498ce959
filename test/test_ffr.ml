open Reseed_netlist

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- hand-built netlists ------------------------------------------------ *)

(* a -> buf -> buf -> PO.  One FFR rooted at the final buffer. *)
let test_buffer_chain () =
  let b = Circuit.Builder.create "chain" in
  let a = Circuit.Builder.add_input b "a" in
  let b1 = Circuit.Builder.add_gate b Gate.Buf [ a ] "b1" in
  let b2 = Circuit.Builder.add_gate b Gate.Buf [ b1 ] "b2" in
  Circuit.Builder.mark_output b b2;
  let c = Circuit.Builder.finalize b in
  let f = Ffr.compute c in
  let a = Circuit.find c "a"
  and b1 = Circuit.find c "b1"
  and b2 = Circuit.find c "b2" in
  check "a not stem" false (Ffr.is_stem f a);
  check "b1 not stem" false (Ffr.is_stem f b1);
  check "b2 is stem (PO)" true (Ffr.is_stem f b2);
  check "a reaches a PO" true (Ffr.reaches_po f a);
  check "b2 reaches a PO" true (Ffr.reaches_po f b2)

(* Reconvergent fanout: a feeds g1 = AND(a,b) and g2 = OR(a,b); both feed
   g3 = XOR(g1,g2), the only PO.  a and b are stems; their effects
   reconverge exactly at g3. *)
let test_reconvergent () =
  let b = Circuit.Builder.create "reconv" in
  let ia = Circuit.Builder.add_input b "a" in
  let ib = Circuit.Builder.add_input b "b" in
  let g1 = Circuit.Builder.add_gate b Gate.And [ ia; ib ] "g1" in
  let g2 = Circuit.Builder.add_gate b Gate.Or [ ia; ib ] "g2" in
  let g3 = Circuit.Builder.add_gate b Gate.Xor [ g1; g2 ] "g3" in
  Circuit.Builder.mark_output b g3;
  let c = Circuit.Builder.finalize b in
  let f = Ffr.compute c in
  let ia = Circuit.find c "a"
  and ib = Circuit.find c "b"
  and g1 = Circuit.find c "g1"
  and g2 = Circuit.find c "g2"
  and g3 = Circuit.find c "g3" in
  check "a is stem" true (Ffr.is_stem f ia);
  check "b is stem" true (Ffr.is_stem f ib);
  check "g1 not stem" false (Ffr.is_stem f g1);
  check "g2 not stem" false (Ffr.is_stem f g2);
  check "g3 is stem" true (Ffr.is_stem f g3);
  check "a reaches a PO" true (Ffr.reaches_po f ia);
  check "b reaches a PO" true (Ffr.reaches_po f ib)

(* A node that is both a PO and fans out to further logic is a stem; a
   gate that drives nothing is a dead stem that reaches no PO. *)
let test_multi_output_stem () =
  let b = Circuit.Builder.create "mo" in
  let ia = Circuit.Builder.add_input b "a" in
  let ib = Circuit.Builder.add_input b "b" in
  let g1 = Circuit.Builder.add_gate b Gate.And [ ia; ib ] "g1" in
  let g2 = Circuit.Builder.add_gate b Gate.Not [ g1 ] "g2" in
  let _dead = Circuit.Builder.add_gate b Gate.Or [ ia; ib ] "dead" in
  Circuit.Builder.mark_output b g1;
  Circuit.Builder.mark_output b g2;
  let c = Circuit.Builder.finalize b in
  let f = Ffr.compute c in
  let g1 = Circuit.find c "g1"
  and g2 = Circuit.find c "g2"
  and dead = Circuit.find c "dead" in
  check "g1 is stem" true (Ffr.is_stem f g1);
  check "g1 reaches a PO" true (Ffr.reaches_po f g1);
  check "g2 reaches a PO" true (Ffr.reaches_po f g2);
  check "dead gate is stem" true (Ffr.is_stem f dead);
  check "dead gate reaches no PO" false (Ffr.reaches_po f dead)

(* A gate driving the same fanin twice: two fanout edges to one gate make
   the feeder a stem (multi-pin effects would otherwise need multi-path
   derivatives inside the FFR). *)
let test_duplicate_edge_stem () =
  let b = Circuit.Builder.create "dup" in
  let ia = Circuit.Builder.add_input b "a" in
  let g1 = Circuit.Builder.add_gate b Gate.And [ ia; ia ] "g1" in
  Circuit.Builder.mark_output b g1;
  let c = Circuit.Builder.finalize b in
  let f = Ffr.compute c in
  let ia = Circuit.find c "a" in
  check "duplicate-edge feeder is stem" true (Ffr.is_stem f ia)

(* --- property tests on generated circuits ------------------------------- *)

(* Stems are where fanout-free regions end: a non-stem has exactly one
   fanout edge and drives no primary output. *)
let prop_stem_fixpoint () =
  List.iter
    (fun seed ->
      let spec =
        {
          (Generator.default_spec "ffr" ~inputs:8 ~outputs:4 ~gates:60) with
          Generator.seed;
        }
      in
      let c = Generator.generate spec in
      let f = Ffr.compute c in
      for i = 0 to Circuit.node_count c - 1 do
        if not (Ffr.is_stem f i) then begin
          check_int "one fanout edge" 1 (Array.length c.Circuit.fanouts.(i));
          check "drives no PO" false (Array.mem i c.Circuit.outputs)
        end
      done)
    [ 11; 12; 13 ]

(* [c] rebuilt with only its last primary output kept: logic that fed
   only the dropped outputs becomes dead. *)
let keep_last_output c =
  let b = Circuit.Builder.create (Circuit.name c ^ "-pruned") in
  Array.iter
    (fun node ->
      let label = node.Circuit.label in
      ignore
        (match node.Circuit.kind with
        | Gate.Input -> Circuit.Builder.add_input b label
        | k -> Circuit.Builder.add_gate b k (Array.to_list node.Circuit.fanins) label))
    c.Circuit.nodes;
  Circuit.Builder.mark_output b c.Circuit.outputs.(Circuit.output_count c - 1);
  Circuit.Builder.finalize b

(* Brute-force reachability oracle: [reaches_po] must agree with a
   depth-first search from every node, dead nodes included. *)
let prop_reaches_po_brute_force () =
  let dead = ref 0 in
  List.iter
    (fun seed ->
      let spec =
        {
          (Generator.default_spec "reach" ~inputs:6 ~outputs:3 ~gates:40) with
          Generator.seed;
        }
      in
      let full = Generator.generate spec in
      List.iter
        (fun c ->
          let f = Ffr.compute c in
          let n = Circuit.node_count c in
          let is_po = Array.make n false in
          Array.iter (fun o -> is_po.(o) <- true) c.Circuit.outputs;
          let reaches i =
            let seen = Array.make n false in
            let rec go j =
              (not seen.(j))
              && begin
                   seen.(j) <- true;
                   is_po.(j) || Array.exists go c.Circuit.fanouts.(j)
                 end
            in
            go i
          in
          for i = 0 to n - 1 do
            let expected = reaches i in
            if not expected then incr dead;
            check
              (Printf.sprintf "%s: reaches_po %d" (Circuit.name c) i)
              expected (Ffr.reaches_po f i)
          done)
        [ full; keep_last_output full ])
    [ 21; 22 ];
  if !dead = 0 then Alcotest.fail "no dead node exercised"

let suite =
  [
    ( "ffr",
      [
        Alcotest.test_case "buffer chain" `Quick test_buffer_chain;
        Alcotest.test_case "reconvergent fanout" `Quick test_reconvergent;
        Alcotest.test_case "multi-output stem" `Quick test_multi_output_stem;
        Alcotest.test_case "duplicate-edge stem" `Quick test_duplicate_edge_stem;
        Alcotest.test_case "stem fixpoint (random)" `Quick prop_stem_fixpoint;
        Alcotest.test_case "reaches_po vs brute force (random)" `Quick
          prop_reaches_po_brute_force;
      ] );
  ]

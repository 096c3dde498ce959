open Reseed_netlist
open Reseed_fault

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_universe_c17 () =
  let c = Library.c17 () in
  let u = Fault.universe c in
  (* 11 nodes with output faults (5 PI + 6 gates) = 22, plus branch faults
     on pins fed by stems with fanout > 1.  In c17 stems 3, 11 and 16 have
     fanout 2 → 4 pins... each fanout-2 stem feeds 2 pins → 2 faults/pin. *)
  let branch_count =
    Array.fold_left
      (fun acc (f : Fault.t) ->
        match f.Fault.site with Fault.Pin _ -> acc + 1 | Fault.Out _ -> acc)
      0 u
  in
  check_int "output faults" 22 (Array.length u - branch_count);
  check_int "branch faults" 12 branch_count

let test_collapse_shrinks () =
  let c = Library.c17 () in
  let u = Fault.universe c in
  let col = Fault.all c in
  check "collapse shrinks" true (Array.length col < Array.length u);
  check_int "c17 collapsed" 28 (Array.length col)

let test_no_branch_faults_on_fanout_free () =
  let c = Library.parity 8 in
  (* XOR tree: every internal stem has fanout 1 → no branch faults at all *)
  let u = Fault.universe c in
  let branch =
    Array.exists (fun (f : Fault.t) -> match f.Fault.site with Fault.Pin _ -> true | _ -> false) u
  in
  check "no branch faults in a tree" false branch

let test_no_collapse_on_xor () =
  (* XOR gates admit no input-fault equivalence: collapse keeps them. *)
  let c = Library.parity 4 in
  check_int "tree keeps all output faults" (Array.length (Fault.universe c))
    (Array.length (Fault.all c))

let test_collapse_preserves_detectability () =
  (* Every dropped fault must be equivalent to a kept one: every universe
     fault the patterns detect is detected at exactly the patterns of some
     kept fault.  c17 runs exhaustively; c432 over 60 random patterns. *)
  let check_circuit c patterns =
    let signature faults = Sweeps.detection_map (Fault_sim.create c faults) patterns in
    let universe = Fault.universe c in
    let sig_u = signature universe and sig_c = signature (Fault.all c) in
    Array.iteri
      (fun i s ->
        if not (Reseed_util.Bitvec.is_empty s) then begin
          let found = Array.exists (fun s' -> Reseed_util.Bitvec.equal s s') sig_c in
          if not found then
            Alcotest.failf "%s: universe fault %s has no equivalent representative"
              (Circuit.name c) (Fault.to_string c universe.(i))
        end)
      sig_u
  in
  check_circuit (Library.c17 ())
    (Array.init 32 (fun p -> Array.init 5 (fun i -> p lsr i land 1 = 1)));
  let c432 = Library.load "c432" in
  let rng = Reseed_util.Rng.create 31 in
  check_circuit c432
    (Array.init 60 (fun _ ->
         Array.init (Circuit.input_count c432) (fun _ -> Reseed_util.Rng.bool rng)))

let test_site_node () =
  check_int "out site" 3 (Fault.site_node { Fault.site = Fault.Out 3; stuck = true });
  check_int "pin site" 7
    (Fault.site_node { Fault.site = Fault.Pin { gate = 7; pin = 1 }; stuck = false })

let test_to_string () =
  let c = Library.c17 () in
  let f = { Fault.site = Fault.Out (Circuit.find c "22"); stuck = false } in
  Alcotest.(check string) "render" "22/SA0" (Fault.to_string c f)

let test_po_stem_not_folded () =
  (* A stem that is itself a PO and feeds an inverter must keep its own
     fault: it is observable directly, so it is NOT equivalent to the
     inverter's output fault. *)
  let b = Circuit.Builder.create "po_stem" in
  let x = Circuit.Builder.add_input b "x" in
  let y = Circuit.Builder.add_input b "y" in
  let g = Circuit.Builder.add_gate b Gate.And [ x; y ] "g" in
  let n = Circuit.Builder.add_gate b Gate.Not [ g ] "n" in
  Circuit.Builder.mark_output b g;
  Circuit.Builder.mark_output b n;
  let c = Circuit.Builder.finalize b in
  let kept = Fault.all c in
  let has_g_fault =
    Array.exists
      (fun (f : Fault.t) -> f.Fault.site = Fault.Out (Circuit.find c "g"))
      kept
  in
  check "PO stem fault kept" true has_g_fault

let suite =
  [
    ( "fault",
      [
        Alcotest.test_case "universe on c17" `Quick test_universe_c17;
        Alcotest.test_case "collapse shrinks" `Quick test_collapse_shrinks;
        Alcotest.test_case "tree has no branch faults" `Quick test_no_branch_faults_on_fanout_free;
        Alcotest.test_case "xor keeps faults" `Quick test_no_collapse_on_xor;
        Alcotest.test_case "collapse preserves behaviours" `Quick test_collapse_preserves_detectability;
        Alcotest.test_case "site_node" `Quick test_site_node;
        Alcotest.test_case "to_string" `Quick test_to_string;
        Alcotest.test_case "PO stem not folded" `Quick test_po_stem_not_folded;
      ] );
  ]

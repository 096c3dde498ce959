open Reseed_atpg
open Reseed_fault
open Reseed_netlist
open Reseed_util

let check = Alcotest.(check bool)

(* A PODEM-produced test must actually detect the fault (checked through
   the independent fault simulator). *)
let validates_fault c fault pattern =
  let sim = Fault_sim.create c [| fault |] in
  let active = Bitvec.create 1 in
  Bitvec.fill_all active;
  let det = Fault_sim.detected_set sim [| pattern |] ~active in
  Bitvec.get det 0

let test_all_c17_faults () =
  let c = Library.c17 () in
  let rng = Rng.create 1 in
  Array.iter
    (fun fault ->
      match Podem.generate c fault ~rng () with
      | Podem.Test pattern ->
          if not (validates_fault c fault pattern) then
            Alcotest.failf "bogus test for %s" (Fault.to_string c fault)
      | Podem.Untestable ->
          Alcotest.failf "%s wrongly declared untestable" (Fault.to_string c fault)
      | Podem.Aborted -> Alcotest.failf "aborted on c17")
    (Fault.all c)

let test_structured_circuits () =
  let rng = Rng.create 2 in
  List.iter
    (fun c ->
      Array.iter
        (fun fault ->
          match Podem.generate c fault ~rng () with
          | Podem.Test pattern ->
              if not (validates_fault c fault pattern) then
                Alcotest.failf "%s: bogus test for %s" (Circuit.name c)
                  (Fault.to_string c fault)
          | Podem.Untestable | Podem.Aborted -> ())
        (Fault.all c))
    [ Library.ripple_adder 4; Library.parity 8; Library.mux_tree 3 ]

let test_redundant_fault_proven () =
  (* y = OR(x, NOT x) is constantly 1: its s-a-1 fault is undetectable. *)
  let b = Circuit.Builder.create "red" in
  let x = Circuit.Builder.add_input b "x" in
  let nx = Circuit.Builder.add_gate b Gate.Not [ x ] "nx" in
  let y = Circuit.Builder.add_gate b Gate.Or [ x; nx ] "y" in
  Circuit.Builder.mark_output b y;
  let c = Circuit.Builder.finalize b in
  let fault = { Fault.site = Fault.Out (Circuit.find c "y"); stuck = true } in
  let rng = Rng.create 3 in
  check "redundancy proven" true (Podem.generate c fault ~rng () = Podem.Untestable)

let test_masked_internal_fault () =
  (* g = AND(x, y); h = AND(g, NOT y) is constant 0: h s-a-0 redundant. *)
  let b = Circuit.Builder.create "mask" in
  let x = Circuit.Builder.add_input b "x" in
  let y = Circuit.Builder.add_input b "y" in
  let g = Circuit.Builder.add_gate b Gate.And [ x; y ] "g" in
  let ny = Circuit.Builder.add_gate b Gate.Not [ y ] "ny" in
  let h = Circuit.Builder.add_gate b Gate.And [ g; ny ] "h" in
  Circuit.Builder.mark_output b h;
  let c = Circuit.Builder.finalize b in
  let fault = { Fault.site = Fault.Out (Circuit.find c "h"); stuck = false } in
  let rng = Rng.create 4 in
  check "masked fault proven untestable" true
    (Podem.generate c fault ~rng () = Podem.Untestable)

let test_wide_and_needs_coincidence () =
  (* Deterministic generation succeeds where random detection is ~2^-16. *)
  let w = 16 in
  let b = Circuit.Builder.create "wide" in
  let ins = List.init w (fun i -> Circuit.Builder.add_input b (Printf.sprintf "x%d" i)) in
  let g = Circuit.Builder.add_gate b Gate.And ins "g" in
  Circuit.Builder.mark_output b g;
  let c = Circuit.Builder.finalize b in
  let fault = { Fault.site = Fault.Out (Circuit.find c "g"); stuck = false } in
  let rng = Rng.create 5 in
  match Podem.generate c fault ~rng () with
  | Podem.Test pattern ->
      check "all inputs one" true (Array.for_all Fun.id pattern);
      check "valid" true (validates_fault c fault pattern)
  | _ -> Alcotest.fail "failed on wide AND"

let test_stats_accumulate () =
  let c = Library.c17 () in
  let rng = Rng.create 6 in
  let stats = Podem.new_stats () in
  Array.iter
    (fun fault -> ignore (Podem.generate c fault ~rng ~stats ()))
    (Fault.all c);
  check "decisions counted" true (stats.Podem.decisions > 0)

let test_abort_budget () =
  (* With a zero budget every non-trivial fault aborts. *)
  let c = Library.ripple_adder 8 in
  let rng = Rng.create 7 in
  let outcomes =
    Array.map
      (fun fault -> Podem.generate c fault ~rng ~max_backtracks:(-1) ())
      (Fault.all c)
  in
  check "all aborted at negative budget" true
    (Array.for_all (fun o -> o = Podem.Aborted) outcomes)

(* --- Differential oracle: [Podem.generate] against the full-resimulation
   loop kept in [Podem_reference] ------------------------------------------ *)

(* Run both implementations over every fault of [c] at each backtrack
   limit, once with a fresh [stats] per call and once with one [stats]
   shared by the whole sweep (as [Atpg.run] shares it).  They must agree
   on each outcome (including the exact pattern), on the counters, and on
   the next RNG draw after each call.  Returns a description of the first
   disagreement. *)
let reference_disagreement c =
  let tb = Testability.compute c in
  let faults = Fault.all c in
  let first = ref None in
  List.iter
    (fun max_backtracks ->
      List.iter
        (fun shared ->
          let rng_new = Rng.create 17 and rng_ref = Rng.create 17 in
          let st_new = Podem.new_stats () and st_ref = Podem.new_stats () in
          Array.iter
            (fun fault ->
              if !first = None then begin
                if not shared then begin
                  st_new.Podem.decisions <- 0;
                  st_new.Podem.backtracks <- 0;
                  st_ref.Podem.decisions <- 0;
                  st_ref.Podem.backtracks <- 0
                end;
                let o_new =
                  Podem.generate c fault ~rng:rng_new ~max_backtracks ~testability:tb
                    ~stats:st_new ()
                in
                let o_ref =
                  Podem_reference.generate c fault ~rng:rng_ref ~max_backtracks
                    ~testability:tb ~stats:st_ref ()
                in
                let where what =
                  Some
                    (Printf.sprintf "%s: %s, max_backtracks %d, %s stats: %s"
                       (Circuit.name c) (Fault.to_string c fault) max_backtracks
                       (if shared then "shared" else "fresh")
                       what)
                in
                if o_new <> o_ref then first := where "outcome differs"
                else if st_new.Podem.decisions <> st_ref.Podem.decisions then
                  first :=
                    where
                      (Printf.sprintf "decisions %d vs %d" st_new.Podem.decisions
                         st_ref.Podem.decisions)
                else if st_new.Podem.backtracks <> st_ref.Podem.backtracks then
                  first :=
                    where
                      (Printf.sprintf "backtracks %d vs %d" st_new.Podem.backtracks
                         st_ref.Podem.backtracks)
                else if Rng.next rng_new <> Rng.next rng_ref then
                  first := where "next RNG draw differs"
              end)
            faults)
        [ false; true ])
    [ -1; 0; 3; 2000 ];
  !first

(* Constants and a fault on a constant node: the all-X starting state is
   not all X here. *)
let const_circuit () =
  let b = Circuit.Builder.create "consts" in
  let x = Circuit.Builder.add_input b "x" in
  let y = Circuit.Builder.add_input b "y" in
  let z = Circuit.Builder.add_input b "z" in
  let one = Circuit.Builder.add_gate b Gate.Const1 [] "one" in
  let zero = Circuit.Builder.add_gate b Gate.Const0 [] "zero" in
  let a = Circuit.Builder.add_gate b Gate.And [ x; one; y ] "a" in
  let o = Circuit.Builder.add_gate b Gate.Or [ zero; a; z ] "o" in
  let n = Circuit.Builder.add_gate b Gate.Xnor [ o; one; x ] "n" in
  let m = Circuit.Builder.add_gate b Gate.Nor [ zero; n ] "m" in
  Circuit.Builder.mark_output b m;
  Circuit.Builder.mark_output b a;
  Circuit.Builder.finalize b

let test_reference_fixed () =
  List.iter
    (fun c ->
      match reference_disagreement c with
      | None -> ()
      | Some msg -> Alcotest.fail msg)
    [ Library.c17 (); Library.ripple_adder 4; Library.mux_tree 3; const_circuit () ]

let prop_reference_generated =
  QCheck.Test.make ~name:"podem = reference loop on generated circuits" ~count:12
    QCheck.(pair (int_range 0 10_000) (int_range 0 3))
    (fun (seed, size) ->
      let c =
        Generator.generate
          {
            (Generator.default_spec "oracle" ~inputs:(6 + (2 * size))
               ~outputs:(2 + size) ~gates:(30 + (25 * size)))
            with
            Generator.seed;
          }
      in
      match reference_disagreement c with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

let suite =
  [
    ( "podem",
      [
        Alcotest.test_case "derives valid tests for all c17 faults" `Quick test_all_c17_faults;
        Alcotest.test_case "structured circuits" `Slow test_structured_circuits;
        Alcotest.test_case "proves redundancy (constant node)" `Quick test_redundant_fault_proven;
        Alcotest.test_case "proves redundancy (masked)" `Quick test_masked_internal_fault;
        Alcotest.test_case "wide AND coincidence" `Quick test_wide_and_needs_coincidence;
        Alcotest.test_case "stats accumulate" `Quick test_stats_accumulate;
        Alcotest.test_case "abort budget" `Quick test_abort_budget;
        Alcotest.test_case "agrees with the reference loop" `Quick test_reference_fixed;
        QCheck_alcotest.to_alcotest prop_reference_generated;
      ] );
  ]

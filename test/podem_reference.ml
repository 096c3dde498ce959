(* The PODEM decision loop as it stood before implication became
   event-driven, kept verbatim as a test oracle (as [eval_node_bool] is
   kept for the fault simulator): every iteration re-simulates both
   machines from scratch with [Ternary.simulate] and re-derives the X-path
   with a full reverse sweep.  [Podem.generate] must make exactly the same
   decisions, backtracks and RNG draws. *)

open Reseed_atpg
open Reseed_netlist
open Reseed_fault
open Reseed_util

type outcome = Podem.outcome = Test of bool array | Untestable | Aborted

type stats = Podem.stats = { mutable backtracks : int; mutable decisions : int }

let new_stats = Podem.new_stats

type status = Detected | Possible | Blocked

(* One PI decision: which input, the value currently tried, and whether the
   complementary value has been tried already. *)
type decision = { pi : int; mutable value : bool; mutable alt_tried : bool }

let generate c fault ~rng ?(max_backtracks = 2000) ?budget ?testability ?stats () =
  let stats = match stats with Some s -> s | None -> new_stats () in
  let tb = match testability with Some t -> t | None -> Testability.compute c in
  let n_pi = Circuit.input_count c in
  let pi_vals = Array.make n_pi Ternary.X in
  let pi_pos = Array.make (Circuit.node_count c) (-1) in
  Array.iteri (fun pos node -> pi_pos.(node) <- pos) c.Circuit.inputs;
  (* The stem whose *good* value must differ from the stuck value for the
     fault to be excited. *)
  let site_ref, fault_gate =
    match fault.Fault.site with
    | Fault.Out g -> (g, None)
    | Fault.Pin { gate; pin } -> (c.Circuit.nodes.(gate).Circuit.fanins.(pin), Some gate)
  in
  let activation : Ternary.v = Ternary.of_bool (not fault.Fault.stuck) in
  let is_po = Array.make (Circuit.node_count c) false in
  Array.iter (fun o -> is_po.(o) <- true) c.Circuit.outputs;

  (* xpath.(i): node [i] is unresolved and an unresolved path leads from it
     to a primary output — the classical X-path check.  Computed by one
     reverse sweep over the topological order. *)
  let xpath_of good faulty =
    let n = Circuit.node_count c in
    let xpath = Array.make n false in
    let xish i = good.(i) = Ternary.X || faulty.(i) = Ternary.X in
    for i = n - 1 downto 0 do
      if xish i then
        xpath.(i) <-
          is_po.(i) || Array.exists (fun s -> xpath.(s)) c.Circuit.fanouts.(i)
    done;
    xpath
  in

  let assess good faulty xpath =
    let detected = ref false in
    Array.iter
      (fun o -> if Ternary.error ~good ~faulty o then detected := true)
      c.Circuit.outputs;
    if !detected then Detected
    else if good.(site_ref) = Ternary.X then
      (* Not excited yet: the site itself must still be able to show. *)
      if xpath.(site_ref) || faulty.(site_ref) = Ternary.X || fault_gate <> None then
        Possible
      else Blocked
    else if good.(site_ref) <> activation then Blocked
    else begin
      (* Excited: the fault effect must still be able to reach a PO — some
         gate with an errored fanin (or the faulted gate itself, for a
         branch fault) whose output is unresolved with an X-path onward. *)
      let possible = ref false in
      Array.iteri
        (fun i node ->
          if (not !possible) && xpath.(i) then
            let fed_by_error =
              Array.exists (fun f -> Ternary.error ~good ~faulty f) node.Circuit.fanins
            in
            let branch_here = fault_gate = Some i in
            if fed_by_error || branch_here then possible := true)
        c.Circuit.nodes;
      if !possible then Possible else Blocked
    end
  in

  (* Find a frontier gate and derive an objective (node, desired good
     value) from it; [None] means no workable objective — fall back to an
     arbitrary unassigned PI to keep the search complete. *)
  let objective good faulty xpath =
    if good.(site_ref) = Ternary.X then Some (site_ref, activation = Ternary.T)
    else begin
      (* Among frontier gates, prefer the most observable output; within
         it, the easiest-to-set X side-input. *)
      let best = ref None and best_co = ref max_int in
      Array.iteri
        (fun i node ->
          if xpath.(i) && (Testability.(tb.co).(i) : int) < !best_co then begin
            let fed_by_error =
              Array.exists (fun f -> Ternary.error ~good ~faulty f) node.Circuit.fanins
            in
            let branch_here = fault_gate = Some i in
            if fed_by_error || branch_here then begin
              let desired =
                match Gate.controlling_value node.Circuit.kind with
                | Some ctrl -> not ctrl
                | None -> true
              in
              let pick = ref None and pick_cost = ref max_int in
              Array.iter
                (fun f ->
                  if good.(f) = Ternary.X then begin
                    let cost = Testability.cost_to_set tb f desired in
                    if cost < !pick_cost then begin
                      pick := Some (f, desired);
                      pick_cost := cost
                    end
                  end)
                node.Circuit.fanins;
              match !pick with
              | Some _ ->
                  best := !pick;
                  best_co := Testability.(tb.co).(i)
              | None -> ()
            end
          end)
        c.Circuit.nodes;
      !best
    end
  in

  (* Map an objective to a PI assignment by walking back through X-valued
     nodes of the good machine. *)
  let rec backtrace good node desired =
    let n = c.Circuit.nodes.(node) in
    match n.Circuit.kind with
    | Gate.Input -> (pi_pos.(node), desired)
    | Gate.Buf -> backtrace good n.Circuit.fanins.(0) desired
    | Gate.Not -> backtrace good n.Circuit.fanins.(0) (not desired)
    | Gate.Const0 | Gate.Const1 -> assert false (* constants are never X *)
    | kind ->
        let want = if Gate.inversion kind then not desired else desired in
        let fanins = n.Circuit.fanins in
        (* Controlling objective (one input suffices): take the easiest X
           input.  Non-controlling (all inputs needed): take the hardest
           first, so infeasibility surfaces early. *)
        let easiest =
          match Gate.controlling_value kind with
          | Some ctrl -> want = ctrl
          | None -> true
        in
        let x_fanin = ref (-1) and x_cost = ref 0 in
        Array.iter
          (fun f ->
            if good.(f) = Ternary.X then begin
              let cost = Testability.cost_to_set tb f want in
              if
                !x_fanin < 0
                || (easiest && cost < !x_cost)
                || ((not easiest) && cost > !x_cost)
              then begin
                x_fanin := f;
                x_cost := cost
              end
            end)
          fanins;
        (* An X gate output always has at least one X fanin. *)
        assert (!x_fanin >= 0);
        backtrace good !x_fanin want
  in

  let trail : decision list ref = ref [] in
  let assign d = pi_vals.(d.pi) <- Ternary.of_bool d.value in
  let decide pi value =
    stats.decisions <- stats.decisions + 1;
    let d = { pi; value; alt_tried = false } in
    trail := d :: !trail;
    assign d
  in
  (* Undo decisions until one can be flipped; [false] when exhausted. *)
  let rec backtrack () =
    match !trail with
    | [] -> false
    | d :: rest ->
        if d.alt_tried then begin
          pi_vals.(d.pi) <- Ternary.X;
          trail := rest;
          backtrack ()
        end
        else begin
          d.alt_tried <- true;
          d.value <- not d.value;
          assign d;
          true
        end
  in

  let extract_test good faulty =
    (* Fill don't-cares randomly: collateral coverage helps the caller. *)
    ignore good;
    ignore faulty;
    Array.map
      (function
        | Ternary.T -> true
        | Ternary.F -> false
        | Ternary.X -> Rng.bool rng)
      pi_vals
  in

  let result = ref None in
  (* The decision loop is PODEM's hot loop: an expired budget aborts the
     fault like a blown backtrack limit — the caller records it as such. *)
  while !result = None do
    if stats.backtracks > max_backtracks || Reseed_util.Budget.check budget then
      result := Some Aborted
    else begin
      let good = Ternary.simulate c pi_vals () in
      let faulty = Ternary.simulate c pi_vals ~fault () in
      let xpath = xpath_of good faulty in
      match assess good faulty xpath with
      | Detected -> result := Some (Test (extract_test good faulty))
      | Blocked ->
          stats.backtracks <- stats.backtracks + 1;
          if not (backtrack ()) then result := Some Untestable
      | Possible -> (
          match objective good faulty xpath with
          | Some (node, desired) ->
              let pi, v = backtrace good node desired in
              decide pi v
          | None -> (
              (* No frontier objective reachable through good-machine Xs:
                 decide any unassigned PI to keep completeness. *)
              let free = ref (-1) in
              Array.iteri
                (fun i v -> if !free < 0 && v = Ternary.X then free := i)
                pi_vals;
              if !free < 0 then begin
                stats.backtracks <- stats.backtracks + 1;
                if not (backtrack ()) then result := Some Untestable
              end
              else decide !free true))
    end
  done;
  Option.get !result

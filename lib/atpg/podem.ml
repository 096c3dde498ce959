open Reseed_netlist
open Reseed_fault
open Reseed_util

type outcome = Test of bool array | Untestable | Aborted

type stats = { mutable backtracks : int; mutable decisions : int }

let new_stats () = { backtracks = 0; decisions = 0 }

type status = Detected | Possible | Blocked

(* One PI decision: which input, the value currently tried, and whether the
   complementary value has been tried already. *)
type decision = { pi : int; mutable value : bool; mutable alt_tried : bool }

let m_implications =
  Metrics.counter ~help:"PODEM node values changed by implication" "podem_implications"

(* The value gate input [k] sees: [forced] on pin [pin] (the faulted pin,
   or -1 for none), the fanin's node value otherwise. *)
let[@inline] fanin_value v fanins pin forced k =
  if k = pin then forced else Array.unsafe_get v (Array.unsafe_get fanins k)

(* [Ternary.eval] without the argument array: a controlling value
   dominates any X, otherwise any X makes the output X. *)
let eval_gate kind fanins v pin forced =
  let n = Array.length fanins in
  let open Ternary in
  match (kind : Gate.kind) with
  | Gate.Input -> invalid_arg "Podem.eval_gate: Input"
  | Gate.Const0 -> F
  | Gate.Const1 -> T
  | Gate.Buf -> fanin_value v fanins pin forced 0
  | Gate.Not -> v_not (fanin_value v fanins pin forced 0)
  | Gate.And | Gate.Nand | Gate.Or | Gate.Nor ->
      (* [ctrl] dominates; [r] is the output before inversion. *)
      let ctrl = match kind with Gate.And | Gate.Nand -> F | _ -> T in
      let r = ref (v_not ctrl) and k = ref 0 in
      while !k < n do
        (match fanin_value v fanins pin forced !k with
        | X -> r := X
        | x when x == ctrl ->
            r := ctrl;
            k := n
        | _ -> ());
        incr k
      done;
      if Gate.inversion kind then v_not !r else !r
  | Gate.Xor | Gate.Xnor ->
      let r = ref F and k = ref 0 in
      while !k < n do
        (match fanin_value v fanins pin forced !k with
        | X ->
            r := X;
            k := n
        | x -> r := if x == !r then F else T);
        incr k
      done;
      if Gate.inversion kind then v_not !r else !r

(* One fault's search, entered once [should_abort] has passed: the
   decision loop with its implication state. *)
let search c fault ~rng ~tb ~stats ~should_abort =
  let nodes = c.Circuit.nodes and fanouts = c.Circuit.fanouts in
  let level = c.Circuit.level in
  let n = Circuit.node_count c in
  let n_pi = Circuit.input_count c in
  let pi_vals = Array.make n_pi Ternary.X in
  let pi_pos = Array.make n (-1) in
  Array.iteri (fun pos node -> pi_pos.(node) <- pos) c.Circuit.inputs;
  (* [site_ref] is the stem whose *good* value must differ from the stuck
     value for the fault to be excited.  The faulty machine departs from
     the good one as [Ternary.simulate ~fault] makes it: an [Out] fault
     pins [out_site] after evaluation, a [Pin] fault forces pin [pin] of
     [pin_gate] while evaluating it ([-1] when absent). *)
  let site_ref, out_site, pin_gate, pin =
    match fault.Fault.site with
    | Fault.Out g -> (g, g, -1, -1)
    | Fault.Pin { gate; pin } -> (nodes.(gate).Circuit.fanins.(pin), -1, gate, pin)
  in
  let stuck = Ternary.of_bool fault.Fault.stuck in
  let activation : Ternary.v = Ternary.of_bool (not fault.Fault.stuck) in
  let is_po = Array.make n false in
  Array.iter (fun o -> is_po.(o) <- true) c.Circuit.outputs;

  (* Both machines' node values, kept equal to [Ternary.simulate] of
     [pi_vals] (without and with the fault) by event-driven implication. *)
  let good = Array.make n Ternary.X and faulty = Array.make n Ternary.X in
  let xish i = good.(i) == Ternary.X || faulty.(i) == Ternary.X in
  let error i = Ternary.error ~good ~faulty i in
  let implications = ref 0 in

  (* Primary outputs currently carrying a fault effect. *)
  let po_errors = ref 0 in

  (* The D-frontier as a set: unresolved gates fed by a fault effect, plus
     the faulted gate itself for a branch fault while it is unresolved.
     Membership depends on a node's own values and its fanins' errors, so
     it is re-derived whenever either changes. *)
  let fr_nodes = Array.make n 0 and fr_pos = Array.make n (-1) in
  let fr_len = ref 0 in
  let refresh_frontier i =
    let member =
      xish i && (i = pin_gate || Array.exists error nodes.(i).Circuit.fanins)
    in
    let p = fr_pos.(i) in
    if member && p < 0 then begin
      fr_nodes.(!fr_len) <- i;
      fr_pos.(i) <- !fr_len;
      incr fr_len
    end
    else if (not member) && p >= 0 then begin
      decr fr_len;
      let last = fr_nodes.(!fr_len) in
      fr_nodes.(p) <- last;
      fr_pos.(last) <- p;
      fr_pos.(i) <- -1
    end
  in

  (* Event queue: one stack per level, so nodes are re-evaluated in level
     order and each at most once per propagation. *)
  let max_level = Circuit.max_level c in
  let q_off = Array.make (max_level + 2) 0 in
  Array.iter (fun l -> q_off.(l + 1) <- q_off.(l + 1) + 1) level;
  for l = 1 to max_level + 1 do
    q_off.(l) <- q_off.(l) + q_off.(l - 1)
  done;
  let queue = Array.make n 0 and q_len = Array.make (max_level + 1) 0 in
  let queued = Array.make n false in
  let q_low = ref (max_level + 1) in
  let push i =
    if not queued.(i) then begin
      queued.(i) <- true;
      let l = level.(i) in
      queue.(q_off.(l) + q_len.(l)) <- i;
      q_len.(l) <- q_len.(l) + 1;
      if l < !q_low then q_low := l
    end
  in
  let eval_good i =
    match nodes.(i).Circuit.kind with
    | Gate.Input -> pi_vals.(pi_pos.(i))
    | kind -> eval_gate kind nodes.(i).Circuit.fanins good (-1) Ternary.X
  in
  let eval_faulty i =
    if i = out_site then stuck
    else
      match nodes.(i).Circuit.kind with
      | Gate.Input -> pi_vals.(pi_pos.(i))
      | kind ->
          eval_gate kind nodes.(i).Circuit.fanins faulty
            (if i = pin_gate then pin else -1)
            stuck
  in
  let propagate () =
    for l = !q_low to max_level do
      while q_len.(l) > 0 do
        q_len.(l) <- q_len.(l) - 1;
        let i = queue.(q_off.(l) + q_len.(l)) in
        queued.(i) <- false;
        let g = eval_good i and f = eval_faulty i in
        let g0 = good.(i) and f0 = faulty.(i) in
        if g != g0 || f != f0 then begin
          if g != g0 then incr implications;
          if f != f0 then incr implications;
          let was_error = error i in
          good.(i) <- g;
          faulty.(i) <- f;
          refresh_frontier i;
          let fo = fanouts.(i) in
          if error i <> was_error then begin
            if is_po.(i) then
              po_errors := if was_error then !po_errors - 1 else !po_errors + 1;
            Array.iter refresh_frontier fo
          end;
          Array.iter push fo
        end
      done
    done;
    q_low := max_level + 1
  in
  (* With every PI at X, every node is X except downstream of constants
     and of the fault site: start there. *)
  Array.iteri
    (fun i node ->
      match node.Circuit.kind with Gate.Const0 | Gate.Const1 -> push i | _ -> ())
    nodes;
  if out_site >= 0 then push out_site;
  if pin_gate >= 0 then push pin_gate;
  propagate ();
  if pin_gate >= 0 then refresh_frontier pin_gate;

  (* X-path: node [i] is unresolved and an unresolved path leads from it
     to a primary output — the classical X-path check, answered on demand
     by a forward search memoised until the next implication. *)
  let xp_stamp = Array.make n 0 and xp_val = Array.make n false in
  let stamp = ref 1 in
  let rec xpath i =
    if xp_stamp.(i) = !stamp then xp_val.(i)
    else begin
      let r = xish i && (is_po.(i) || fanout_xpath fanouts.(i) 0) in
      xp_stamp.(i) <- !stamp;
      xp_val.(i) <- r;
      r
    end
  and fanout_xpath fo k = k < Array.length fo && (xpath fo.(k) || fanout_xpath fo (k + 1)) in

  let assess () =
    if !po_errors > 0 then Detected
    else if good.(site_ref) == Ternary.X then
      (* Not excited yet: the site itself must still be able to show. *)
      if xpath site_ref || faulty.(site_ref) == Ternary.X || pin_gate >= 0 then
        Possible
      else Blocked
    else if good.(site_ref) != activation then Blocked
    else begin
      (* Excited: the fault effect must still be able to reach a PO — some
         frontier gate with an X-path onward. *)
      let possible = ref false and k = ref 0 in
      while (not !possible) && !k < !fr_len do
        if xpath fr_nodes.(!k) then possible := true;
        incr k
      done;
      if !possible then Possible else Blocked
    end
  in

  (* The easiest X fanin of gate [i] to set to its non-controlling value,
     or [None] when no fanin is X in the good machine. *)
  let side_input i =
    let node = nodes.(i) in
    let desired =
      match Gate.controlling_value node.Circuit.kind with
      | Some ctrl -> not ctrl
      | None -> true
    in
    let pick = ref None and pick_cost = ref max_int in
    Array.iter
      (fun f ->
        if good.(f) == Ternary.X then begin
          let cost = Testability.cost_to_set tb f desired in
          if cost < !pick_cost then begin
            pick := Some (f, desired);
            pick_cost := cost
          end
        end)
      node.Circuit.fanins;
    !pick
  in

  (* Find a frontier gate and derive an objective (node, desired good
     value) from it; [None] means no workable objective — fall back to an
     arbitrary unassigned PI to keep the search complete. *)
  let objective () =
    if good.(site_ref) == Ternary.X then Some (site_ref, activation == Ternary.T)
    else begin
      (* Among frontier gates on an X-path with a side input to set, the
         most observable output, lowest index first on ties; within it,
         the easiest-to-set X side-input. *)
      let best = ref None and best_co = ref max_int and best_i = ref max_int in
      for k = 0 to !fr_len - 1 do
        let i = fr_nodes.(k) in
        let co = Testability.(tb.co).(i) in
        if (co < !best_co || (co = !best_co && i < !best_i)) && xpath i then
          match side_input i with
          | Some _ as pick ->
              best := pick;
              best_co := co;
              best_i := i
          | None -> ()
      done;
      !best
    end
  in

  (* Map an objective to a PI assignment by walking back through X-valued
     nodes of the good machine. *)
  let rec backtrace node desired =
    let n = nodes.(node) in
    match n.Circuit.kind with
    | Gate.Input -> (pi_pos.(node), desired)
    | Gate.Buf -> backtrace n.Circuit.fanins.(0) desired
    | Gate.Not -> backtrace n.Circuit.fanins.(0) (not desired)
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
            if good.(f) == Ternary.X then begin
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
        backtrace !x_fanin want
  in

  (* Every PI change goes through [set_pi]; [implied] then propagates the
     batch and invalidates the X-path memo. *)
  let set_pi pos v =
    pi_vals.(pos) <- v;
    push c.Circuit.inputs.(pos)
  in
  let implied () =
    propagate ();
    incr stamp
  in
  let trail : decision list ref = ref [] in
  let assign d = set_pi d.pi (Ternary.of_bool d.value) in
  let decide pi value =
    stats.decisions <- stats.decisions + 1;
    let d = { pi; value; alt_tried = false } in
    trail := d :: !trail;
    assign d;
    implied ()
  in
  (* Undo decisions until one can be flipped; [false] when exhausted. *)
  let rec backtrack () =
    match !trail with
    | [] -> false
    | d :: rest ->
        if d.alt_tried then begin
          set_pi d.pi Ternary.X;
          trail := rest;
          backtrack ()
        end
        else begin
          d.alt_tried <- true;
          d.value <- not d.value;
          assign d;
          implied ();
          true
        end
  in

  let extract_test () =
    (* Fill don't-cares randomly: collateral coverage helps the caller. *)
    Array.map
      (function
        | Ternary.T -> true
        | Ternary.F -> false
        | Ternary.X -> Rng.bool rng)
      pi_vals
  in

  let result = ref None in
  while !result = None do
    (match assess () with
    | Detected -> result := Some (Test (extract_test ()))
    | Blocked ->
        stats.backtracks <- stats.backtracks + 1;
        if not (backtrack ()) then result := Some Untestable
    | Possible -> (
        match objective () with
        | Some (node, desired) ->
            let pi, v = backtrace node desired in
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
            else decide !free true)));
    if !result = None && should_abort () then result := Some Aborted
  done;
  Metrics.add m_implications !implications;
  Option.get !result

let generate c fault ~rng ?(max_backtracks = 2000) ?budget ?testability ?stats () =
  let stats = match stats with Some s -> s | None -> new_stats () in
  let decisions0 = stats.decisions and backtracks0 = stats.backtracks in
  let span_args outcome =
    [
      ("decisions", string_of_int (stats.decisions - decisions0));
      ("backtracks", string_of_int (stats.backtracks - backtracks0));
      ( "outcome",
        match outcome with Test _ -> "test" | Untestable -> "untestable" | Aborted -> "aborted" );
    ]
  in
  Trace.with_span "podem.generate" ~result_args:span_args @@ fun () ->
  (* Checked before every iteration: a blown backtrack limit or an expired
     budget aborts the fault — the caller records it as such.  The limit is
     compared with [stats]' running total, so a shared record makes it a
     limit for all the calls sharing it. *)
  let should_abort () =
    stats.backtracks > max_backtracks || Reseed_util.Budget.check budget
  in
  if should_abort () then Aborted
  else
    let tb = match testability with Some t -> t | None -> Testability.compute c in
    search c fault ~rng ~tb ~stats ~should_abort

(* A serial fault checker, the independent grader the fault simulators are
   tested against.  For each fault it evaluates the good and the faulty
   machine pattern by pattern, node by node, with [Gate.eval] over
   booleans, and it drops the fault at its first detection.  It calls
   nothing in [Fault_sim] or [Logic_sim]: no bit-parallel blocks, no
   fanout cones, no fanout-free regions, no event queue.  Slow by design;
   fine for circuits of a few hundred nodes. *)

open Reseed_netlist
open Reseed_fault

(* Node values of [c] under [pattern] ([c]'s primary inputs in order),
   with [fault], if any, in effect: an output fault forces its node's
   value, a pin fault forces what its gate reads on that pin. *)
let values ?fault c pattern =
  let n = Circuit.node_count c in
  let v = Array.make n false in
  Array.iteri (fun k i -> v.(i) <- pattern.(k)) c.Circuit.inputs;
  for i = 0 to n - 1 do
    let node = c.Circuit.nodes.(i) in
    (match node.Circuit.kind with
    | Gate.Input -> ()
    | kind ->
        let args = Array.map (fun f -> v.(f)) node.Circuit.fanins in
        (match fault with
        | Some { Fault.site = Fault.Pin { gate; pin }; stuck } when gate = i ->
            args.(pin) <- stuck
        | _ -> ());
        v.(i) <- Gate.eval kind args);
    match fault with
    | Some { Fault.site = Fault.Out g; stuck } when g = i -> v.(i) <- stuck
    | _ -> ()
  done;
  v

(* The node whose good value launches a transition fault: the stem for
   an output fault, the driver of the pin for a pin fault. *)
let launch_node c (fault : Fault.t) =
  match fault.Fault.site with
  | Fault.Out g -> g
  | Fault.Pin { gate; pin } -> c.Circuit.nodes.(gate).Circuit.fanins.(pin)

(* Whether pattern [p] of the sequence [patterns] detects [fault], with
   [good q] the good-machine values under pattern [q].  Under [Stuck_at]
   some primary output of the faulty machine differs from the good one
   under pattern [p].  Under [Transition_delay] pattern [p-1] (launch)
   must also put the fault's launch node at the slow initial value,
   which is the stuck value of the capture fault; pattern 0 has no
   launch and detects nothing. *)
let grade model c (fault : Fault.t) patterns good p =
  let capture () =
    let bad = values ~fault c patterns.(p) in
    Array.exists (fun o -> (good p).(o) <> bad.(o)) c.Circuit.outputs
  in
  match model with
  | Fault_model.Stuck_at -> capture ()
  | Fault_model.Transition_delay ->
      p > 0 && (good (p - 1)).(launch_node c fault) = fault.Fault.stuck && capture ()

(* [detects model c fault patterns p]: pattern [p] of [patterns] detects
   [fault] under [model]. *)
let detects model c fault patterns p =
  grade model c fault patterns (fun q -> values c patterns.(q)) p

(* Per fault, the index of the first pattern of [patterns] that detects
   it, or [None]; no fault is simulated past its first detection. *)
let first_detections model c faults patterns =
  let goods = Array.map (values c) patterns in
  Array.map
    (fun fault ->
      let rec from p =
        if p = Array.length patterns then None
        else if grade model c fault patterns (Array.get goods) p then Some p
        else from (p + 1)
      in
      from 0)
    faults

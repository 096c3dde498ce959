open Reseed_netlist

type site = Out of int | Pin of { gate : int; pin : int }

type t = { site : site; stuck : bool }

let site_node f = match f.site with Out n -> n | Pin { gate; _ } -> gate

(* Per node, in node order: its two output faults (none on a constant),
   then, pin by pin, the two branch faults of every fanin whose stem fans
   out more than once (none on an input or a constant). *)
let universe c =
  let nodes = c.Circuit.nodes and fanouts = c.Circuit.fanouts in
  let has_pins (node : Circuit.node) =
    match node.Circuit.kind with
    | Gate.Input | Gate.Const0 | Gate.Const1 -> false
    | _ -> true
  in
  let has_out (node : Circuit.node) =
    match node.Circuit.kind with Gate.Const0 | Gate.Const1 -> false | _ -> true
  in
  let branch stem = Array.length fanouts.(stem) > 1 in
  let count = ref 0 in
  Array.iter
    (fun node ->
      if has_out node then count := !count + 2;
      if has_pins node then
        Array.iter (fun stem -> if branch stem then count := !count + 2) node.Circuit.fanins)
    nodes;
  let faults = Array.make !count { site = Out 0; stuck = false } in
  let next = ref 0 in
  let push site =
    faults.(!next) <- { site; stuck = false };
    faults.(!next + 1) <- { site; stuck = true };
    next := !next + 2
  in
  Array.iteri
    (fun i node ->
      if has_out node then push (Out i);
      if has_pins node then
        Array.iteri
          (fun pin stem -> if branch stem then push (Pin { gate = i; pin }))
          node.Circuit.fanins)
    nodes;
  faults

let collapse c faults =
  let is_po = Array.make (Circuit.node_count c) false in
  Array.iter (fun o -> is_po.(o) <- true) c.Circuit.outputs;
  let keep fault =
    match fault.site with
    | Out stem when is_po.(stem) -> true (* observable directly: never fold *)
    | Out stem -> (
        (* A BUF/NOT output fault is equivalent to a fault on its single
           input; keep the representative closest to the primary outputs,
           i.e. drop the *input-side* fault instead (handled below), keep
           stems. For single-fanout stems feeding BUF/NOT the downstream
           output fault subsumes this stem fault. *)
        match c.Circuit.fanouts.(stem) with
        | [| sink |] -> (
            match c.Circuit.nodes.(sink).Circuit.kind with
            | Gate.Buf | Gate.Not -> false (* folded into [Out sink] *)
            | _ -> true)
        | _ -> true)
    | Pin { gate; pin = _ } -> (
        match c.Circuit.nodes.(gate).Circuit.kind with
        | Gate.And | Gate.Nand -> fault.stuck (* input s-a-0 ≡ output fault *)
        | Gate.Or | Gate.Nor -> not fault.stuck (* input s-a-1 ≡ output fault *)
        | Gate.Buf | Gate.Not -> false (* input fault ≡ output fault *)
        | _ -> true)
  in
  Array.of_seq (Seq.filter keep (Array.to_seq faults))

let all c = collapse c (universe c)

let equal a b = a = b

let compare = Stdlib.compare

let to_string c f =
  let sa = if f.stuck then "SA1" else "SA0" in
  match f.site with
  | Out n -> Printf.sprintf "%s/%s" c.Circuit.nodes.(n).Circuit.label sa
  | Pin { gate; pin } ->
      let stem = c.Circuit.nodes.(gate).Circuit.fanins.(pin) in
      Printf.sprintf "%s->%s.%d/%s"
        c.Circuit.nodes.(stem).Circuit.label
        c.Circuit.nodes.(gate).Circuit.label pin sa

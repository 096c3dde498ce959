open Reseed_netlist

let block_width = 62

type block = { width : int; per_input : int array }

let valid_mask width =
  if width < 1 || width > block_width then invalid_arg "Logic_sim.valid_mask";
  if width = block_width then max_int else (1 lsl width) - 1

let pack c patterns =
  let count = Array.length patterns in
  if count < 1 || count > block_width then
    invalid_arg "Logic_sim.pack: block must hold 1..62 patterns";
  let n = Circuit.input_count c in
  let per_input = Array.make n 0 in
  Array.iteri
    (fun k pattern ->
      if Array.length pattern <> n then
        invalid_arg "Logic_sim.pack: pattern width mismatch";
      for i = 0 to n - 1 do
        if pattern.(i) then per_input.(i) <- per_input.(i) lor (1 lsl k)
      done)
    patterns;
  { width = count; per_input }

let pack_all c patterns =
  let total = Array.length patterns in
  let rec go start acc =
    if start >= total then List.rev acc
    else
      let len = min block_width (total - start) in
      go (start + len) (pack c (Array.sub patterns start len) :: acc)
  in
  go 0 []

(* Evaluate one gate directly against the node-value array.  Each gate kind
   folds its fanins in its own loop, so no closure is allocated per gate. *)
let eval_node (values : int array) kind (fanins : int array) =
  let full = max_int in
  let last = Array.length fanins - 1 in
  match kind with
  | Gate.Input -> invalid_arg "Logic_sim.eval_node: Input"
  | Gate.Buf -> values.(fanins.(0))
  | Gate.Not -> lnot values.(fanins.(0)) land full
  | Gate.And | Gate.Nand ->
      let acc = ref full in
      for j = 0 to last do
        acc := !acc land values.(fanins.(j))
      done;
      if kind = Gate.And then !acc else lnot !acc land full
  | Gate.Or | Gate.Nor ->
      let acc = ref 0 in
      for j = 0 to last do
        acc := !acc lor values.(fanins.(j))
      done;
      if kind = Gate.Or then !acc else lnot !acc land full
  | Gate.Xor | Gate.Xnor ->
      let acc = ref 0 in
      for j = 0 to last do
        acc := !acc lxor values.(fanins.(j))
      done;
      if kind = Gate.Xor then !acc else lnot !acc land full
  | Gate.Const0 -> 0
  | Gate.Const1 -> full

let simulate_into c block values =
  let n = Circuit.node_count c in
  if Array.length values <> n then
    invalid_arg "Logic_sim.simulate_into: value array size mismatch";
  let pi = ref 0 in
  for i = 0 to n - 1 do
    let node = c.Circuit.nodes.(i) in
    match node.Circuit.kind with
    | Gate.Input ->
        values.(i) <- block.per_input.(!pi);
        incr pi
    | kind -> values.(i) <- eval_node values kind node.Circuit.fanins
  done

let simulate c block =
  let values = Array.make (Circuit.node_count c) 0 in
  simulate_into c block values;
  values

let outputs c values = Array.map (fun o -> values.(o)) c.Circuit.outputs

(* Boolean twin of [eval_node], kept as the readable single-pattern
   oracle: one [fold] over the fanins, read in place. *)
let eval_node_bool (values : bool array) kind (fanins : int array) =
  let fold op seed =
    let acc = ref seed in
    for j = 0 to Array.length fanins - 1 do
      acc := op !acc values.(fanins.(j))
    done;
    !acc
  in
  match kind with
  | Gate.Input -> invalid_arg "Logic_sim.eval_node_bool: Input"
  | Gate.Buf -> values.(fanins.(0))
  | Gate.Not -> not values.(fanins.(0))
  | Gate.And -> fold ( && ) true
  | Gate.Nand -> not (fold ( && ) true)
  | Gate.Or -> fold ( || ) false
  | Gate.Nor -> not (fold ( || ) false)
  | Gate.Xor -> fold ( <> ) false
  | Gate.Xnor -> not (fold ( <> ) false)
  | Gate.Const0 -> false
  | Gate.Const1 -> true

let simulate_bool c pattern =
  if Array.length pattern <> Circuit.input_count c then
    invalid_arg "Logic_sim.simulate_bool: pattern width mismatch";
  let n = Circuit.node_count c in
  let values = Array.make n false in
  let pi = ref 0 in
  for i = 0 to n - 1 do
    let node = c.Circuit.nodes.(i) in
    match node.Circuit.kind with
    | Gate.Input ->
        values.(i) <- pattern.(!pi);
        incr pi
    | kind -> values.(i) <- eval_node_bool values kind node.Circuit.fanins
  done;
  values

let output_response c pattern =
  let values = simulate_bool c pattern in
  Array.map (fun o -> values.(o)) c.Circuit.outputs

open Reseed_netlist
open Reseed_util

let block_width = 62

type block = { width : int; per_input : int array }

let valid_mask width =
  if width < 1 || width > block_width then invalid_arg "Logic_sim.valid_mask";
  if width = block_width then max_int else (1 lsl width) - 1

(* Transpose in place the 32x32 bit matrix whose row [r] is the low 32
   bits of [a.(r)]: afterwards bit [r] of [a.(c)] is what bit [c] of
   [a.(r)] was.  Five rounds swap the off-diagonal [j]x[j] blocks of
   every [2j]x[2j] block, [j] = 16, 8, 4, 2, 1 (Hacker's Delight,
   section 7-3, in LSB-first order); [m] selects the low [j] columns of
   each [2j]-column group, and [k] visits the rows with bit [j] clear. *)
let transpose32 (a : int array) =
  let j = ref 16 and m = ref 0xFFFF in
  while !j <> 0 do
    let k = ref 0 in
    while !k < 32 do
      let lo = Array.unsafe_get a !k and hi = Array.unsafe_get a (!k + !j) in
      let t = ((lo lsr !j) lxor hi) land !m in
      Array.unsafe_set a !k (lo lxor (t lsl !j));
      Array.unsafe_set a (!k + !j) (hi lxor t);
      k := (!k + !j + 1) land lnot !j
    done;
    j := !j lsr 1;
    m := !m lxor (!m lsl !j)
  done

(* Pattern [k] of the block is word [pos + k]; input [i] reads bit [i] of
   every word.  Each [Word.limb_bits]-bit limb of the 32 words of one
   half of the block is a 32x32 bit matrix whose transpose holds, in row
   [j], input [limb * limb_bits + j] over those 32 patterns: two
   transposes per limb fill every input word of the block. *)
let pack c ?(pos = 0) ?len words =
  let len = match len with Some l -> l | None -> Array.length words - pos in
  if len < 1 || len > block_width then
    invalid_arg "Logic_sim.pack: block must hold 1..62 patterns";
  if pos < 0 || pos + len > Array.length words then
    invalid_arg "Logic_sim.pack: range outside the pattern array";
  let n = Circuit.input_count c in
  for k = pos to pos + len - 1 do
    if Word.width words.(k) <> n then invalid_arg "Logic_sim.pack: pattern width mismatch"
  done;
  let per_input = Array.make n 0 in
  let m = Array.make 32 0 in
  for limb = 0 to ((n + Word.limb_bits - 1) / Word.limb_bits) - 1 do
    let first = limb * Word.limb_bits in
    let inputs = min Word.limb_bits (n - first) in
    for half = 0 to (len - 1) / 32 do
      let rows = min 32 (len - (32 * half)) in
      for r = 0 to rows - 1 do
        m.(r) <- Word.limb words.(pos + (32 * half) + r) limb
      done;
      Array.fill m rows (32 - rows) 0;
      transpose32 m;
      for j = 0 to inputs - 1 do
        per_input.(first + j) <- per_input.(first + j) lor (m.(j) lsl (32 * half))
      done
    done
  done;
  { width = len; per_input }

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

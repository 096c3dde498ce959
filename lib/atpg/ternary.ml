open Reseed_netlist
open Reseed_fault

type v = F | T | X

let of_bool b = if b then T else F

let to_bool = function
  | F -> false
  | T -> true
  | X -> invalid_arg "Ternary.to_bool: X"

let known = function X -> false | F | T -> true

let v_not = function F -> T | T -> F | X -> X

let and2 a b =
  match (a, b) with
  | F, _ | _, F -> F
  | T, T -> T
  | _ -> X

let or2 a b =
  match (a, b) with
  | T, _ | _, T -> T
  | F, F -> F
  | _ -> X

let xor2 a b =
  match (a, b) with
  | X, _ | _, X -> X
  | T, T | F, F -> F
  | _ -> T

let fold2 op seed args = Array.fold_left op seed args

let eval kind args =
  match kind with
  | Gate.Input -> invalid_arg "Ternary.eval: Input"
  | Gate.Buf -> args.(0)
  | Gate.Not -> v_not args.(0)
  | Gate.And -> fold2 and2 T args
  | Gate.Nand -> v_not (fold2 and2 T args)
  | Gate.Or -> fold2 or2 F args
  | Gate.Nor -> v_not (fold2 or2 F args)
  | Gate.Xor -> fold2 xor2 F args
  | Gate.Xnor -> v_not (fold2 xor2 F args)
  | Gate.Const0 -> F
  | Gate.Const1 -> T

let simulate c pi_values ?fault () =
  if Array.length pi_values <> Circuit.input_count c then
    invalid_arg "Ternary.simulate: PI assignment width mismatch";
  let n = Circuit.node_count c in
  let values = Array.make n X in
  let pi = ref 0 in
  for i = 0 to n - 1 do
    let node = c.Circuit.nodes.(i) in
    (match node.Circuit.kind with
    | Gate.Input ->
        values.(i) <- pi_values.(!pi);
        incr pi
    | kind ->
        let args = Array.map (fun f -> values.(f)) node.Circuit.fanins in
        (match fault with
        | Some { Fault.site = Fault.Pin { gate; pin }; stuck } when gate = i ->
            args.(pin) <- of_bool stuck
        | _ -> ());
        values.(i) <- eval kind args);
    (* An Out fault pins the node after evaluation, whatever its kind. *)
    match fault with
    | Some { Fault.site = Fault.Out g; stuck } when g = i -> values.(i) <- of_bool stuck
    | _ -> ()
  done;
  values

let error ~good ~faulty i =
  known good.(i) && known faulty.(i) && good.(i) <> faulty.(i)

open Reseed_util

let validate_weights m w =
  if Array.length w <> Matrix.rows m then
    invalid_arg "Greedy: weight count mismatch";
  Array.iter (fun x -> if x <= 0. then invalid_arg "Greedy: weights must be > 0") w

let weights_of m = function
  | None -> Array.make (Matrix.rows m) 1.0
  | Some w ->
      validate_weights m w;
      w

(* Chvátal: every pick maximises the cost-effectiveness gain/weight,
   ties to the lowest index.  Under unit weights the ratio is the integer
   gain itself, exactly, so this is the cardinality greedy. *)
let solve ?weights m =
  let w = weights_of m weights in
  (* The coverable columns are exactly the matrix universe, maintained at
     construction — no column view needed. *)
  let need = Bitvec.copy (Matrix.universe m) in
  let chosen = ref [] in
  while not (Bitvec.is_empty need) do
    let best = ref (-1) and best_ratio = ref 0. in
    for i = 0 to Matrix.rows m - 1 do
      let gain = Bitvec.count_inter (Matrix.row m i) need in
      if gain > 0 then begin
        let ratio = float_of_int gain /. w.(i) in
        if ratio > !best_ratio then begin
          best := i;
          best_ratio := ratio
        end
      end
    done;
    (* Every needed column is coverable, so a positive-gain row exists. *)
    assert (!best >= 0);
    chosen := !best :: !chosen;
    Bitvec.diff_into ~into:need (Matrix.row m !best)
  done;
  List.rev !chosen

let cost ?weights rows =
  match weights with
  | None -> float_of_int (List.length rows)
  | Some w -> List.fold_left (fun acc i -> acc +. w.(i)) 0. rows

let grasp_cover ?weights ~rng ~alpha m =
  let w = weights_of m weights in
  let n = Matrix.rows m in
  let need = Bitvec.copy (Matrix.universe m) in
  let picked = ref [] in
  while not (Bitvec.is_empty need) do
    let best = ref 0. in
    for i = 0 to n - 1 do
      let gain = Bitvec.count_inter (Matrix.row m i) need in
      if gain > 0 then best := Float.max !best (float_of_int gain /. w.(i))
    done;
    let thresh = alpha *. !best in
    let rcl = ref [] and size = ref 0 in
    for i = n - 1 downto 0 do
      let gain = Bitvec.count_inter (Matrix.row m i) need in
      if gain > 0 && float_of_int gain /. w.(i) >= thresh then begin
        rcl := i :: !rcl;
        incr size
      end
    done;
    let choice = List.nth !rcl (Rng.int rng !size) in
    picked := choice :: !picked;
    Bitvec.diff_into ~into:need (Matrix.row m choice)
  done;
  (* Trim: drop rows whose every column stays covered without them,
     most expensive (then highest-index) first. *)
  let counts = Array.make (Matrix.cols m) 0 in
  List.iter
    (fun i -> Bitvec.iter_ones (fun j -> counts.(j) <- counts.(j) + 1) (Matrix.row m i))
    !picked;
  let order = List.sort (fun a b -> compare (w.(b), b) (w.(a), a)) !picked in
  let kept =
    List.filter
      (fun i ->
        let rs = Matrix.row m i in
        let redundant = ref true in
        Bitvec.iter_ones (fun j -> if counts.(j) < 2 then redundant := false) rs;
        if !redundant then Bitvec.iter_ones (fun j -> counts.(j) <- counts.(j) - 1) rs;
        not !redundant)
      order
  in
  List.sort compare kept

open Reseed_util

let solve m =
  (* The coverable columns are exactly the matrix universe, maintained at
     construction — no column view needed. *)
  let need = Bitvec.copy (Matrix.universe m) in
  let chosen = ref [] in
  while not (Bitvec.is_empty need) do
    let best = ref (-1) and best_gain = ref 0 in
    for i = 0 to Matrix.rows m - 1 do
      let gain = Bitvec.count_inter (Matrix.row m i) need in
      if gain > !best_gain then begin
        best := i;
        best_gain := gain
      end
    done;
    (* Every needed column is coverable, so a positive-gain row exists. *)
    assert (!best >= 0);
    chosen := !best :: !chosen;
    Bitvec.diff_into ~into:need (Matrix.row m !best)
  done;
  List.rev !chosen

let validate_weights m w =
  if Array.length w <> Matrix.rows m then
    invalid_arg "Greedy: weight count mismatch";
  Array.iter (fun x -> if x <= 0. then invalid_arg "Greedy: weights must be > 0") w

(* Weighted Chvátal: maximise the cost-effectiveness ratio gain/weight at
   every pick.  The unweighted entry point above is kept verbatim (and
   used when no weights are given) so the historical cardinality path
   stays byte-identical. *)
let solve_weighted ?weights m =
  match weights with
  | None -> solve m
  | Some w ->
      validate_weights m w;
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
  Option.iter (validate_weights m) weights;
  let weight i = match weights with None -> 1.0 | Some w -> w.(i) in
  let n = Matrix.rows m in
  let need = Bitvec.copy (Matrix.universe m) in
  let picked = ref [] in
  while not (Bitvec.is_empty need) do
    let best = ref 0. in
    for i = 0 to n - 1 do
      let gain = Bitvec.count_inter (Matrix.row m i) need in
      if gain > 0 then best := Float.max !best (float_of_int gain /. weight i)
    done;
    let thresh = alpha *. !best in
    let rcl = ref [] and size = ref 0 in
    for i = n - 1 downto 0 do
      let gain = Bitvec.count_inter (Matrix.row m i) need in
      if gain > 0 && float_of_int gain /. weight i >= thresh then begin
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
  let order = List.sort (fun a b -> compare (weight b, b) (weight a, a)) !picked in
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

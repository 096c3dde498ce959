open Reseed_util
open Reseed_sat

type t = {
  sat : Sat.t;
  n_rows : int;
  k_max : int; (* counter encoded up to k_max: at-most-k assumable, k < k_max *)
  final : int array; (* final.(j) = var "at least j+1 rows selected", j < k_max *)
  matrix : Matrix.t;
}

type outcome = Cover of int list | No_cover | Unknown

let conflicts t = Sat.conflicts t.sat

(* Row variable for row [i] is [i + 1] (SAT variables are 1-based). *)
let row_var i = i + 1

let create ~ub m =
  let n_rows = Matrix.rows m and n_cols = Matrix.cols m in
  let k_max = max 1 ub in
  let sat = Sat.create n_rows in
  (* Covering constraints, built row-wise (no transposed shard). *)
  let covering = Array.make n_cols [] in
  for i = n_rows - 1 downto 0 do
    Bitvec.iter_ones
      (fun j -> covering.(j) <- row_var i :: covering.(j))
      (Matrix.row m i)
  done;
  let universe = Matrix.universe m in
  for j = 0 to n_cols - 1 do
    if Bitvec.get universe j then Sat.add_clause sat covering.(j)
  done;
  (* Sinz sequential counter, one direction only: r.(i).(j) is forced
     true whenever at least [j+1] of rows 0..i are selected, so assuming
     [¬ final.(k)] enforces "at most k rows".  The other direction is
     unnecessary for an at-most bound and would only slow the solver. *)
  let r = Array.make_matrix n_rows k_max 0 in
  for i = 0 to n_rows - 1 do
    for j = 0 to min i (k_max - 1) do
      r.(i).(j) <- Sat.new_var sat
    done
  done;
  for i = 0 to n_rows - 1 do
    let xi = row_var i in
    (* x_i → r_{i,1} *)
    Sat.add_clause sat [ -xi; r.(i).(0) ];
    if i > 0 then begin
      for j = 0 to min (i - 1) (k_max - 1) do
        (* r_{i−1,j} → r_{i,j} *)
        Sat.add_clause sat [ -r.(i - 1).(j); r.(i).(j) ];
        (* x_i ∧ r_{i−1,j} → r_{i,j+1} *)
        if j + 1 <= min i (k_max - 1) then
          Sat.add_clause sat [ -xi; -r.(i - 1).(j); r.(i).(j + 1) ]
      done
    end
  done;
  let final =
    Array.init k_max (fun j ->
        if n_rows = 0 then 0 else r.(n_rows - 1).(min j (min (n_rows - 1) (k_max - 1))))
  in
  { sat; n_rows; k_max; final; matrix = m }

let clause_count t = Sat.clause_count t.sat

let solve_at_most t ~k ~max_conflicts ?budget () =
  if k < 0 then No_cover
  else if t.n_rows = 0 then
    if Bitvec.is_empty (Matrix.universe t.matrix) then Cover [] else No_cover
  else if k >= t.n_rows then
    (* At-most-n is vacuous; the cover clauses alone decide it. *)
    (match Sat.solve ~max_conflicts ?budget t.sat with
    | Sat.Sat model ->
        Cover
          (List.filter (fun i -> model.(row_var i)) (List.init t.n_rows Fun.id))
    | Sat.Unsat -> No_cover
    | Sat.Unknown -> Unknown)
  else if k >= t.k_max then
    invalid_arg "Satcover.solve_at_most: bound exceeds the encoded counter"
  else
    match
      Sat.solve ~assumptions:[ -t.final.(k) ] ~max_conflicts ?budget t.sat
    with
    | Sat.Sat model ->
        let rows =
          List.filter (fun i -> model.(row_var i)) (List.init t.n_rows Fun.id)
        in
        assert (Matrix.covers t.matrix ~rows_subset:rows);
        assert (List.length rows <= k);
        Cover rows
    | Sat.Unsat -> No_cover
    | Sat.Unknown -> Unknown

open Reseed_util

type t = {
  n_rows : int;
  n_cols : int;
  rows : Bitvec.t array; (* per row, over columns *)
  mutable n_ones : int; (* incremental: updated by [set] *)
  mutable universe : Bitvec.t; (* union of all rows, over columns *)
  mutable transpose : Bitvec.t array option; (* per column, over rows; lazy *)
}

let create ~rows ~cols =
  if rows < 0 || cols < 0 then invalid_arg "Matrix.create: negative size";
  {
    n_rows = rows;
    n_cols = cols;
    rows = Array.init rows (fun _ -> Bitvec.create cols);
    n_ones = 0;
    universe = Bitvec.create cols;
    transpose = None;
  }

let of_rows ~cols rows_arr =
  let universe = Bitvec.create cols in
  let ones = ref 0 in
  Array.iter
    (fun r ->
      if Bitvec.length r <> cols then invalid_arg "Matrix.of_rows: row width mismatch";
      ones := !ones + Bitvec.count r;
      Bitvec.union_into ~into:universe r)
    rows_arr;
  {
    n_rows = Array.length rows_arr;
    n_cols = cols;
    rows = rows_arr;
    n_ones = !ones;
    universe;
    transpose = None;
  }

let rows m = m.n_rows
let cols m = m.n_cols

let set m ~row ~col =
  if not (Bitvec.get m.rows.(row) col) then begin
    Bitvec.set m.rows.(row) col;
    m.n_ones <- m.n_ones + 1;
    Bitvec.set m.universe col;
    match m.transpose with
    | Some t -> Bitvec.set t.(col) row
    | None -> ()
  end

let get m ~row ~col = Bitvec.get m.rows.(row) col

let row m i = m.rows.(i)

(* The transposed view is a one-shot shard, cached on the matrix: the
   exact end-game and the historical [col] API read columns, so the
   first call pays one pass over the rows and later calls are free.
   [Reduce.run] builds its own column view per call instead, so the
   large input matrices never carry a cached one. *)
let transpose m =
  match m.transpose with
  | Some t -> t
  | None ->
      let t = Array.init m.n_cols (fun _ -> Bitvec.create m.n_rows) in
      Array.iteri
        (fun i r -> Bitvec.iter_ones (fun j -> Bitvec.unsafe_set t.(j) i) r)
        m.rows;
      m.transpose <- Some t;
      t

let col m j = (transpose m).(j)

let universe m = m.universe

let ones m = m.n_ones

let density m =
  if m.n_rows = 0 || m.n_cols = 0 then 0.
  else float_of_int m.n_ones /. float_of_int (m.n_rows * m.n_cols)

let covers m ~rows_subset =
  let union = Bitvec.create m.n_cols in
  List.iter (fun i -> Bitvec.union_into ~into:union m.rows.(i)) rows_subset;
  Bitvec.subset m.universe union

let uncoverable m =
  let acc = ref [] in
  for j = m.n_cols - 1 downto 0 do
    if not (Bitvec.get m.universe j) then acc := j :: !acc
  done;
  !acc

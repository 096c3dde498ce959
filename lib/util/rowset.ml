type repr = Dense | Sparse

type rep =
  | RDense of Bitvec.t
  | RSparse of int array (* strictly increasing column indices *)

type t = { len : int; mutable cnt : int; mutable rep : rep }

let repr r = match r.rep with RDense _ -> Dense | RSparse _ -> Sparse

let force = ref None

let set_force f = force := f
let forced () = !force

(* Density cutover: at one set bit per 64 columns a sorted-int-array row
   costs about the same memory as the packed words; below it, strictly
   less, and iteration touches only the set entries. *)
let sparse_cutover_shift = 6 (* sparse iff count <= len / 64 *)

let auto_repr ~len ~count =
  if count lsl sparse_cutover_shift <= len then Sparse else Dense

let sparse_of_bitvec v =
  let idx = Array.make (Bitvec.count v) 0 in
  let k = ref 0 in
  Bitvec.iter_ones
    (fun i ->
      idx.(!k) <- i;
      incr k)
    v;
  idx

let of_bitvec v =
  let len = Bitvec.length v in
  let cnt = Bitvec.count v in
  let r = match !force with Some r -> r | None -> auto_repr ~len ~count:cnt in
  let rep =
    match r with
    | Sparse -> RSparse (sparse_of_bitvec v)
    | Dense -> RDense (Bitvec.copy v)
  in
  { len; cnt; rep }

let dense_of_bitvec v =
  { len = Bitvec.length v; cnt = Bitvec.count v; rep = RDense v }

let of_sorted_array len idx =
  let n = Array.length idx in
  for k = 0 to n - 1 do
    if idx.(k) < 0 || idx.(k) >= len then
      invalid_arg "Rowset.of_sorted_array: index out of range";
    if k > 0 && idx.(k - 1) >= idx.(k) then
      invalid_arg "Rowset.of_sorted_array: indices not strictly increasing"
  done;
  { len; cnt = n; rep = RSparse idx }

let length r = r.len
let count r = r.cnt

let density r =
  if r.len = 0 then 0. else float_of_int r.cnt /. float_of_int r.len

let sparse_mem idx i =
  let lo = ref 0 and hi = ref (Array.length idx) in
  while !hi - !lo > 0 do
    let mid = (!lo + !hi) / 2 in
    if idx.(mid) < i then lo := mid + 1
    else if idx.(mid) > i then hi := mid
    else begin
      lo := mid;
      hi := mid
    end
  done;
  !lo < Array.length idx && idx.(!lo) = i

let mem r i =
  match r.rep with
  | RDense v -> Bitvec.get v i
  | RSparse idx ->
      if i < 0 || i >= r.len then invalid_arg "Rowset.mem: index out of range";
      sparse_mem idx i

let iter_ones f r =
  match r.rep with
  | RDense v -> Bitvec.iter_ones f v
  | RSparse idx -> Array.iter f idx

let fold_ones f acc r =
  match r.rep with
  | RDense v -> Bitvec.fold_ones f acc v
  | RSparse idx -> Array.fold_left f acc idx

let sum_at r a =
  match r.rep with
  | RDense v -> Bitvec.sum_at v a
  | RSparse idx ->
      let acc = ref 0. in
      for k = 0 to Array.length idx - 1 do
        acc := !acc +. a.(Array.unsafe_get idx k)
      done;
      !acc

let to_list r = List.rev (fold_ones (fun acc i -> i :: acc) [] r)

let to_bitvec r =
  match r.rep with
  | RDense v -> v
  | RSparse idx ->
      let v = Bitvec.create r.len in
      Array.iter (fun i -> Bitvec.set v i) idx;
      v

let add r i =
  (* [to_bitvec] of a dense row is its own backing vector. *)
  let v = to_bitvec r in
  r.rep <- RDense v;
  if not (Bitvec.get v i) then begin
    Bitvec.set v i;
    r.cnt <- r.cnt + 1
  end;
  r

let union_into ~into r =
  match r.rep with
  | RDense v -> Bitvec.union_into ~into v
  | RSparse idx ->
      if Bitvec.length into <> r.len then invalid_arg "Rowset: length mismatch";
      Array.iter (fun i -> Bitvec.unsafe_set into i) idx

let diff_into ~into r =
  match r.rep with
  | RDense v -> Bitvec.diff_into ~into v
  | RSparse idx ->
      if Bitvec.length into <> r.len then invalid_arg "Rowset: length mismatch";
      Array.iter (fun i -> Bitvec.clear into i) idx

let count_inter r v =
  match r.rep with
  | RDense d -> Bitvec.count_inter d v
  | RSparse idx ->
      if Bitvec.length v <> r.len then invalid_arg "Rowset: length mismatch";
      let acc = ref 0 in
      for k = 0 to Array.length idx - 1 do
        if Bitvec.unsafe_get v idx.(k) then incr acc
      done;
      !acc

let intersects r v =
  match r.rep with
  | RDense d -> Bitvec.intersects d v
  | RSparse _ -> count_inter r v > 0

exception Not_subset

let subset_masked a b ~mask =
  if a.len <> b.len || Bitvec.length mask <> a.len then
    invalid_arg "Rowset.subset_masked: length mismatch";
  match (a.rep, b.rep) with
  | RDense da, RDense db -> Bitvec.subset_masked da db ~mask
  | RSparse idx, _ -> (
      try
        Array.iter
          (fun i ->
            if Bitvec.unsafe_get mask i && not (mem b i) then raise Not_subset)
          idx;
        true
      with Not_subset -> false)
  | _, RSparse _ -> (
      try
        iter_ones
          (fun i ->
            if Bitvec.unsafe_get mask i && not (mem b i) then raise Not_subset)
          a;
        true
      with Not_subset -> false)

let equal a b =
  a.len = b.len && a.cnt = b.cnt
  &&
  try
    iter_ones (fun i -> if not (mem b i) then raise Not_subset) a;
    true
  with Not_subset -> false

open Reseed_util

type config = {
  row_dominance : bool;
  col_dominance : bool;
  essentials : bool;
  col_dominance_limit : int;
}

let default_config =
  {
    row_dominance = true;
    col_dominance = true;
    essentials = true;
    col_dominance_limit = 6000;
  }

type result = {
  necessary : int list;
  remaining_rows : int list;
  remaining_cols : int list;
  iterations : int;
  rows_dominated : int;
  cols_dominated : int;
}

let m_iterations =
  Metrics.counter ~help:"reduction fixpoint iterations" "reduce_iterations"

let m_essential =
  Metrics.counter ~help:"rows selected as essential" "reduce_essential_rows"

let m_rows_dom =
  Metrics.counter ~help:"rows dropped by row dominance" "reduce_rows_dominated"

let m_cols_dedup =
  Metrics.counter ~help:"columns dropped as duplicates" "reduce_cols_deduped"

let m_cols_dom =
  Metrics.counter ~help:"columns dropped by column dominance" "reduce_cols_dominated"

let m_coldom_skipped =
  Metrics.counter
    ~help:"column-dominance passes skipped (instance over the column limit)"
    "reduce_coldom_skipped"

let run ?(config = default_config) ?row_weights m =
  let n_rows = Matrix.rows m and n_cols = Matrix.cols m in
  Trace.with_span "reduce.run"
    ~args:[ ("rows", string_of_int n_rows); ("cols", string_of_int n_cols) ]
    ~result_args:(fun r ->
      [
        ("iterations", string_of_int r.iterations);
        ("necessary", string_of_int (List.length r.necessary));
        ("rows_dominated", string_of_int r.rows_dominated);
        ("cols_dominated", string_of_int r.cols_dominated);
      ])
  @@ fun () ->
  (match row_weights with
  | Some w when Array.length w <> n_rows ->
      invalid_arg "Reduce.run: row_weights size mismatch"
  | _ -> ());
  (* Dropping row i in favour of k is optimum-preserving only when k is
     not more expensive. *)
  let weight_ok ~dropped ~kept =
    match row_weights with
    | None -> true
    | Some w -> w.(kept) <= w.(dropped)
  in
  (* For rows with identical covers only one may be dropped; prefer the
     more expensive one, then the higher index. *)
  let tie_break ~dropped ~kept =
    match row_weights with
    | None -> dropped > kept
    | Some w -> w.(kept) < w.(dropped) || (w.(kept) = w.(dropped) && dropped > kept)
  in
  (* The active rows and columns are packed masks; every pass works on
     whole words of them.  Columns no row covers can never be satisfied:
     drop them up front. *)
  let row_mask = Bitvec.create n_rows and col_mask = Bitvec.copy (Matrix.universe m) in
  Bitvec.fill_all row_mask;
  let col_active j = Bitvec.unsafe_get col_mask j in
  (* The column view: per column, the rows that cover it, filled in one
     pass over the rows.  It holds the rows x columns cells the rows
     hold, and is dropped on return: never cached on [m], so the
     large input matrices do not carry it between calls. *)
  let view = Array.init n_cols (fun _ -> Bitvec.create n_rows) in
  for i = 0 to n_rows - 1 do
    Bitvec.iter_ones (fun j -> Bitvec.unsafe_set view.(j) i) (Matrix.row m i)
  done;
  let necessary = ref [] in
  let rows_dominated = ref 0 and cols_dominated = ref 0 in
  let cols_deduped = ref 0 in
  let drop_row i = Bitvec.clear row_mask i in
  let drop_col j = Bitvec.clear col_mask j in
  let select_row i =
    necessary := i :: !necessary;
    drop_row i;
    Bitvec.diff_into ~into:col_mask (Matrix.row m i)
  in
  (* A column covered by exactly one active row makes that row
     essential.  Selecting it drops only columns it covers, so the cover
     counts of the columns still active are those at the pass start. *)
  let pass_essentials () =
    Trace.with_span "reduce.essentials" @@ fun () ->
    let changed = ref false in
    for j = 0 to n_cols - 1 do
      if col_active j && Bitvec.count_inter view.(j) row_mask = 1 then begin
        Option.iter select_row (Bitvec.first_one (Bitvec.inter view.(j) row_mask));
        changed := true
      end
    done;
    !changed
  in
  (* Row dominance drops exactly the rows that are non-maximal under the
     strict partial order "covers a subset (within the active columns)
     and is no cheaper, ties broken towards the lower index".  The order
     is transitive even with weights (a dominator is never more
     expensive than what it dominates), so the surviving set is unique —
     the pass may discover drops in any order and still land on the
     sweep-to-fixpoint result of comparing all pairs. *)
  let pass_row_dominance () =
    Trace.with_span "reduce.row_dominance" @@ fun () ->
    let changed = ref false in
    let rows = Array.of_list (Bitvec.to_list row_mask) in
    let counts =
      Array.map (fun i -> Bitvec.count_inter (Matrix.row m i) col_mask) rows
    in
    let n = Array.length rows in
    (* Identical (masked) covers first, via one hash pass over the masked
       row words: the survivor of each class is its cheapest,
       lowest-index member — the only one the pairwise tie-break would
       keep.  Each bucket holds one mutable slot per class survivor. *)
    let seen = Hashtbl.create (max 16 n) in
    for a = 0 to n - 1 do
      let i = rows.(a) in
      let r = Matrix.row m i in
      let h = Bitvec.hash_masked r ~mask:col_mask in
      let same slot =
        counts.(!slot) = counts.(a)
        && Bitvec.subset_masked r (Matrix.row m rows.(!slot)) ~mask:col_mask
      in
      match List.find_opt same (Hashtbl.find_all seen h) with
      | None -> Hashtbl.add seen h (ref a)
      | Some slot ->
          let k = rows.(!slot) in
          if tie_break ~dropped:i ~kept:k && weight_ok ~dropped:i ~kept:k then begin
            drop_row i;
            incr rows_dominated;
            changed := true
          end
          else if tie_break ~dropped:k ~kept:i && weight_ok ~dropped:k ~kept:i
          then begin
            drop_row k;
            slot := a;
            incr rows_dominated;
            changed := true
          end
    done;
    (* Strict-subset dominance among the distinct survivors.  Equal
       counts are either equal covers (already handled) or incomparable,
       so only strictly larger rows can dominate. *)
    let order = Array.init n (fun a -> a) in
    Array.sort (fun a b -> compare counts.(a) counts.(b)) order;
    let live = Array.init n (fun a -> Bitvec.unsafe_get row_mask rows.(a)) in
    for oa = 0 to n - 1 do
      let a = order.(oa) in
      if live.(a) then begin
        let i = rows.(a) in
        let ob = ref (n - 1) in
        let dropped = ref false in
        while (not !dropped) && !ob >= 0 && counts.(order.(!ob)) > counts.(a) do
          let b = order.(!ob) in
          let k = rows.(b) in
          (* Compare against every distinct survivor of the dedup step,
             dropped later by its own dominator or not: dominance is
             transitive, so a transitive dominator always survives. *)
          if
            live.(b)
            && weight_ok ~dropped:i ~kept:k
            && Bitvec.subset_masked (Matrix.row m i) (Matrix.row m k)
                 ~mask:col_mask
          then begin
            drop_row i;
            incr rows_dominated;
            changed := true;
            dropped := true
          end;
          decr ob
        done
      end
    done;
    !changed
  in
  (* Identical columns (faults detected by exactly the same triplets) are
     rampant in detection matrices — every easy fault is covered by every
     row.  One hash pass over the masked column words finds the classes;
     the lowest index of each survives. *)
  let pass_col_dedup () =
    Trace.with_span "reduce.col_dedup" @@ fun () ->
    let changed = ref false in
    let seen = Hashtbl.create 1024 in
    for j = 0 to n_cols - 1 do
      if col_active j then begin
        let h = Bitvec.hash_masked view.(j) ~mask:row_mask in
        let same k =
          Bitvec.subset_masked view.(k) view.(j) ~mask:row_mask
          && Bitvec.subset_masked view.(j) view.(k) ~mask:row_mask
        in
        if List.exists same (Hashtbl.find_all seen h) then begin
          drop_col j;
          incr cols_deduped;
          changed := true
        end
        else Hashtbl.add seen h j
      end
    done;
    !changed
  in
  let pass_col_dominance () =
    Trace.with_span "reduce.col_dominance" @@ fun () ->
    let cols = Array.of_list (Bitvec.to_list col_mask) in
    let n = Array.length cols in
    (* The comparisons below are quadratic in active columns; beyond the
       configured limit the pass is skipped for the iteration
       (essentiality and row dominance will usually shrink the instance
       below it). *)
    if n > config.col_dominance_limit then begin
      Metrics.incr m_coldom_skipped;
      Trace.instant "reduce.col_dominance_skipped"
        ~args:
          [
            ("cols", string_of_int n);
            ("limit", string_of_int config.col_dominance_limit);
          ];
      false
    end
    else begin
      let changed = ref false in
      let counts = Array.map (fun j -> Bitvec.count_inter view.(j) row_mask) cols in
      for a = 0 to n - 1 do
        let c2 = cols.(a) in
        if col_active c2 then
          for bidx = 0 to n - 1 do
            let c1 = cols.(bidx) in
            if
              c1 <> c2 && col_active c2 && col_active c1
              && counts.(bidx) <= counts.(a)
            then
              (* rows(c1) ⊆ rows(c2): covering c1 implies covering c2. *)
              if
                Bitvec.subset_masked view.(c1) view.(c2) ~mask:row_mask
                && (counts.(bidx) < counts.(a) || c2 > c1)
              then begin
                drop_col c2;
                incr cols_dominated;
                changed := true
              end
          done
      done;
      !changed
    end
  in
  let iterations = ref 0 in
  let continue = ref true in
  while !continue do
    incr iterations;
    let c1 = if config.essentials then pass_essentials () else false in
    let c2 = if config.row_dominance then pass_row_dominance () else false in
    let c3 =
      if config.col_dominance then begin
        let deduped = pass_col_dedup () in
        pass_col_dominance () || deduped
      end
      else false
    in
    continue := c1 || c2 || c3
  done;
  (* Rows left with no active column contribute nothing. *)
  Bitvec.iter_ones
    (fun i -> if not (Bitvec.intersects (Matrix.row m i) col_mask) then drop_row i)
    row_mask;
  Metrics.add m_iterations !iterations;
  Metrics.add m_essential (List.length !necessary);
  Metrics.add m_rows_dom !rows_dominated;
  Metrics.add m_cols_dedup !cols_deduped;
  Metrics.add m_cols_dom !cols_dominated;
  {
    necessary = List.rev !necessary;
    remaining_rows = Bitvec.to_list row_mask;
    remaining_cols = Bitvec.to_list col_mask;
    iterations = !iterations;
    rows_dominated = !rows_dominated;
    (* Duplicate and dominated columns have always been reported together
       in this field; the metrics registry splits them. *)
    cols_dominated = !cols_deduped + !cols_dominated;
  }

let residual m result =
  Trace.with_span "reduce.residual" @@ fun () ->
  let rows = Array.of_list result.remaining_rows in
  let cols = Array.of_list result.remaining_cols in
  let sub =
    Array.map
      (fun i ->
        let r = Matrix.row m i in
        let v = Bitvec.create (Array.length cols) in
        Array.iteri (fun cj j -> if Bitvec.get r j then Bitvec.unsafe_set v cj) cols;
        v)
      rows
  in
  (Matrix.of_rows ~cols:(Array.length cols) sub, rows, cols)

let cover_of m rows =
  let u = Bitvec.create (Matrix.cols m) in
  List.iter (fun i -> Bitvec.union_into ~into:u (Matrix.row m i)) rows;
  u

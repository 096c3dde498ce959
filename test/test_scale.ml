(* Scale-tier equivalence properties: the sharded matrix build
   reproduces the monolithic one, and the word-parallel reduction and
   its residual match a direct column-wise reference on random instances
   and real built matrices. *)

open Reseed_core
open Reseed_fault
open Reseed_netlist
open Reseed_setcover
open Reseed_tpg
open Reseed_util

(* --- Sharded build vs monolithic build ------------------------------- *)

let build_fixture () =
  let spec =
    { (Generator.default_spec "scale-test" ~inputs:8 ~outputs:3 ~gates:60)
      with Generator.seed = 4242 }
  in
  let c = Generator.generate spec in
  let faults = Fault.all c in
  let sim = Fault_sim.create c faults in
  let rng = Rng.create 7 in
  (* 40 rows: the sharded build spans the 16-row shards [0,16), [16,32)
     and [32,40), so damaging one shard leaves the others intact. *)
  let tests = Array.init 40 (fun _ -> Array.init 8 (fun _ -> Rng.bool rng)) in
  let targets = Bitvec.create (Array.length faults) in
  Bitvec.fill_all targets;
  let tpg = Accumulator.adder 8 in
  (sim, tpg, tests, targets)

let same_build (a : Builder.t) (b : Builder.t) =
  Alcotest.(check int) "rows" (Matrix.rows a.Builder.matrix) (Matrix.rows b.Builder.matrix);
  Alcotest.(check int) "cols" (Matrix.cols a.Builder.matrix) (Matrix.cols b.Builder.matrix);
  Alcotest.(check int) "ones" (Matrix.ones a.Builder.matrix) (Matrix.ones b.Builder.matrix);
  for i = 0 to Matrix.rows a.Builder.matrix - 1 do
    if not (Bitvec.equal (Matrix.row a.Builder.matrix i) (Matrix.row b.Builder.matrix i))
    then Alcotest.failf "row %d differs between builds" i
  done;
  Alcotest.(check (array int)) "useful_cycles" a.Builder.useful_cycles b.Builder.useful_cycles

let with_tmp_store f =
  let dir = Filename.temp_file "reseed-scale" "" in
  Sys.remove dir;
  let finally () =
    if Sys.file_exists dir then ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))
  in
  Fun.protect ~finally (fun () -> f (Artifact.open_store dir))

let test_sharded_build_matches () =
  let sim, tpg, tests, targets = build_fixture () in
  let config = Builder.default_config in
  let mono = Builder.build sim tpg ~tests ~targets ~config in
  with_tmp_store @@ fun store ->
  let sharded = Builder.build ~store sim tpg ~tests ~targets ~config in
  same_build mono sharded

(* --- Word-parallel reduction vs column-wise reference ----------------- *)

(* A direct implementation over the public Matrix API: column-wise
   essentials, quadratic masked-subset row dominance, list-keyed column
   dedup and quadratic column dominance, iterated to a fixpoint.  Every
   survivor, iteration count and tally must coincide with what
   [Reduce.run] computes on packed words. *)
let reference_reduce ?(config = Reduce.default_config) ?row_weights m =
  let n_rows = Matrix.rows m and n_cols = Matrix.cols m in
  let weight_ok ~dropped ~kept =
    match row_weights with None -> true | Some w -> w.(kept) <= w.(dropped)
  in
  let tie_break ~dropped ~kept =
    match row_weights with
    | None -> dropped > kept
    | Some w -> w.(kept) < w.(dropped) || (w.(kept) = w.(dropped) && dropped > kept)
  in
  let row_active = Array.make n_rows true in
  let col_active = Array.make n_cols true in
  let row_mask = Bitvec.create n_rows in
  let col_mask = Bitvec.create n_cols in
  Bitvec.fill_all row_mask;
  Bitvec.fill_all col_mask;
  List.iter
    (fun j -> col_active.(j) <- false; Bitvec.clear col_mask j)
    (Matrix.uncoverable m);
  let necessary = ref [] in
  let rows_dominated = ref 0 and cols_dominated = ref 0 in
  let drop_row i = row_active.(i) <- false; Bitvec.clear row_mask i in
  let drop_col j = col_active.(j) <- false; Bitvec.clear col_mask j in
  let select_row i =
    necessary := i :: !necessary;
    drop_row i;
    Bitvec.iter_ones (fun j -> if col_active.(j) then drop_col j) (Matrix.row m i)
  in
  let pass_essentials () =
    let changed = ref false in
    for j = 0 to n_cols - 1 do
      if col_active.(j) then begin
        let cover = Matrix.col m j in
        if Bitvec.count_inter cover row_mask = 1 then begin
          let r = ref (-1) in
          Bitvec.iter_ones (fun i -> if !r < 0 && row_active.(i) then r := i) cover;
          if !r >= 0 then begin select_row !r; changed := true end
        end
      end
    done;
    !changed
  in
  let active_rows () =
    List.filter (fun i -> row_active.(i)) (List.init n_rows Fun.id)
  in
  let active_cols () =
    List.filter (fun j -> col_active.(j)) (List.init n_cols Fun.id)
  in
  let pass_row_dominance () =
    let changed = ref false in
    let rows = Array.of_list (active_rows ()) in
    let counts =
      Array.map (fun i -> Bitvec.count_inter (Matrix.row m i) col_mask) rows
    in
    let n = Array.length rows in
    for a = 0 to n - 1 do
      let i = rows.(a) in
      if row_active.(i) then
        for bidx = 0 to n - 1 do
          let k = rows.(bidx) in
          if k <> i && row_active.(i) && row_active.(k) && counts.(a) <= counts.(bidx)
          then
            if
              weight_ok ~dropped:i ~kept:k
              && Bitvec.subset_masked (Matrix.row m i) (Matrix.row m k) ~mask:col_mask
              && (counts.(a) < counts.(bidx) || tie_break ~dropped:i ~kept:k)
            then begin drop_row i; incr rows_dominated; changed := true end
        done
    done;
    !changed
  in
  let cols_deduped = ref 0 in
  let pass_col_dedup () =
    let seen = Hashtbl.create 64 in
    let changed = ref false in
    for j = 0 to n_cols - 1 do
      if col_active.(j) then begin
        let key =
          Bitvec.fold_ones
            (fun acc i -> if row_active.(i) then i :: acc else acc)
            [] (Matrix.col m j)
        in
        if Hashtbl.mem seen key then begin
          drop_col j; incr cols_deduped; changed := true
        end
        else Hashtbl.add seen key ()
      end
    done;
    !changed
  in
  let pass_col_dominance () =
    let cols = Array.of_list (active_cols ()) in
    let n = Array.length cols in
    if n > config.Reduce.col_dominance_limit then false
    else begin
      let changed = ref false in
      let counts =
        Array.map (fun j -> Bitvec.count_inter (Matrix.col m j) row_mask) cols
      in
      for a = 0 to n - 1 do
        let c2 = cols.(a) in
        if col_active.(c2) then
          for bidx = 0 to n - 1 do
            let c1 = cols.(bidx) in
            if c1 <> c2 && col_active.(c2) && col_active.(c1)
               && counts.(bidx) <= counts.(a)
            then
              if
                Bitvec.subset_masked (Matrix.col m c1) (Matrix.col m c2) ~mask:row_mask
                && (counts.(bidx) < counts.(a) || c2 > c1)
              then begin drop_col c2; incr cols_dominated; changed := true end
          done
      done;
      !changed
    end
  in
  let iterations = ref 0 in
  let continue = ref true in
  while !continue do
    incr iterations;
    let c1 = if config.Reduce.essentials then pass_essentials () else false in
    let c2 = if config.Reduce.row_dominance then pass_row_dominance () else false in
    let c3 =
      if config.Reduce.col_dominance then begin
        let deduped = pass_col_dedup () in
        pass_col_dominance () || deduped
      end
      else false
    in
    continue := c1 || c2 || c3
  done;
  List.iter
    (fun i -> if Bitvec.count_inter (Matrix.row m i) col_mask = 0 then drop_row i)
    (active_rows ());
  {
    Reduce.necessary = List.rev !necessary;
    remaining_rows = active_rows ();
    remaining_cols = active_cols ();
    iterations = !iterations;
    rows_dominated = !rows_dominated;
    cols_dominated = !cols_deduped + !cols_dominated;
  }

let random_matrix rng ~rows ~cols ~density =
  let m = Matrix.create ~rows ~cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      if Rng.int rng 100 < density then Matrix.set m ~row:i ~col:j
    done
  done;
  (* Duplicate a few rows and columns: detection matrices are full of
     them and they exercise the dedup/dominance tie-breaks. *)
  if rows > 2 then
    for _ = 1 to rows / 3 do
      let src = Rng.int rng rows and dst = Rng.int rng rows in
      Bitvec.iter_ones (fun j -> Matrix.set m ~row:dst ~col:j) (Matrix.row m src)
    done;
  m

let same_reduction (a : Reduce.result) (b : Reduce.result) =
  a.Reduce.necessary = b.Reduce.necessary
  && a.Reduce.remaining_rows = b.Reduce.remaining_rows
  && a.Reduce.remaining_cols = b.Reduce.remaining_cols
  && a.Reduce.iterations = b.Reduce.iterations
  && a.Reduce.rows_dominated = b.Reduce.rows_dominated
  && a.Reduce.cols_dominated = b.Reduce.cols_dominated

(* Sizes span several 62-bit words both ways, so row words (over
   columns) and column words (over rows) both cross word boundaries. *)
let prop_reduce_matches_reference =
  QCheck.Test.make ~name:"reduce: word-parallel = column-wise reference" ~count:40
    QCheck.(
      quad (int_range 2 130) (int_range 2 200) (int_range 5 97) (int_bound 9999))
    (fun (rows, cols, density, seed) ->
      let rng = Rng.create seed in
      let m = random_matrix rng ~rows ~cols ~density in
      let weights =
        if Rng.bool rng then
          Some (Array.init rows (fun _ -> float_of_int (1 + Rng.int rng 4)))
        else None
      in
      same_reduction
        (Reduce.run ?row_weights:weights m)
        (reference_reduce ?row_weights:weights m))

(* The residual holds exactly the surviving rows x columns of the input. *)
let prop_residual_matches_matrix =
  QCheck.Test.make ~name:"residual = input cells at the kept indices" ~count:20
    QCheck.(
      quad (int_range 2 130) (int_range 2 200) (int_range 5 97) (int_bound 9999))
    (fun (rows, cols, density, seed) ->
      let m = random_matrix (Rng.create seed) ~rows ~cols ~density in
      let sub, rmap, cmap = Reduce.residual m (Reduce.run m) in
      let same = ref true in
      Array.iteri
        (fun ri i ->
          Array.iteri
            (fun cj j ->
              if Matrix.get sub ~row:ri ~col:cj <> Matrix.get m ~row:i ~col:j then
                same := false)
            cmap)
        rmap;
      Matrix.rows sub = Array.length rmap
      && Matrix.cols sub = Array.length cmap
      && !same)

(* The column-dominance limit still short-circuits the pass without a
   transpose: over the limit both sides must leave columns alone. *)
let prop_reduce_coldom_limit =
  QCheck.Test.make ~name:"reduce: col-dominance limit respected" ~count:15
    QCheck.(triple (int_range 2 10) (int_range 8 30) (int_bound 9999))
    (fun (rows, cols, seed) ->
      let rng = Rng.create seed in
      let m = random_matrix rng ~rows ~cols ~density:40 in
      let config = { Reduce.default_config with Reduce.col_dominance_limit = 4 } in
      same_reduction (Reduce.run ~config m) (reference_reduce ~config m))

let test_reduce_matches_on_built_matrix () =
  let sim, tpg, tests, targets = build_fixture () in
  let built = Builder.build sim tpg ~tests ~targets ~config:Builder.default_config in
  let m = built.Builder.matrix in
  let weights =
    Array.map float_of_int built.Builder.useful_cycles
  in
  if not (same_reduction (Reduce.run m) (reference_reduce m)) then
    Alcotest.fail "unweighted reduction diverged on a built matrix";
  if
    not
      (same_reduction
         (Reduce.run ~row_weights:weights m)
         (reference_reduce ~row_weights:weights m))
  then Alcotest.fail "weighted reduction diverged on a built matrix"

(* The xl tier is defined by its size: every member carries at least
   10,000 uncollapsed faults at its full catalog gate count. *)
let test_xl_tier_size () =
  List.iter
    (fun name ->
      let n = Array.length (Fault.universe (Library.load name)) in
      if n < 10_000 then Alcotest.failf "%s: only %d universe faults" name n)
    Library.xl_names

let suite =
  [
    ( "scale",
      [
        Alcotest.test_case "sharded build = monolithic build" `Quick
          test_sharded_build_matches;
        QCheck_alcotest.to_alcotest prop_reduce_matches_reference;
        QCheck_alcotest.to_alcotest prop_reduce_coldom_limit;
        QCheck_alcotest.to_alcotest prop_residual_matches_matrix;
        Alcotest.test_case "word-parallel reduce = reference on built matrix" `Quick
          test_reduce_matches_on_built_matrix;
        Alcotest.test_case "xl tier: >= 10k universe faults" `Quick test_xl_tier_size;
      ] );
  ]

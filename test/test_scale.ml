(* Scale-tier equivalence properties: the dense and sparse Rowset
   representations are interchangeable down to the end-to-end flow
   result, the sharded matrix build reproduces the monolithic one, and
   the word-parallel reduction and its residual match a direct
   column-wise reference on random instances and real built matrices. *)

open Reseed_core
open Reseed_fault
open Reseed_netlist
open Reseed_setcover
open Reseed_tpg
open Reseed_util

let reprs = [ Rowset.Dense; Rowset.Sparse ]

(* Run [f] with every subsequent [Rowset.of_bitvec] pinned to [r],
   restoring the previous setting afterwards even on failure. *)
let with_force r f =
  let prev = Rowset.forced () in
  Rowset.set_force r;
  Fun.protect ~finally:(fun () -> Rowset.set_force prev) f

let random_bitvec rng len ~density =
  let v = Bitvec.create len in
  for i = 0 to len - 1 do
    if Rng.int rng 100 < density then Bitvec.set v i
  done;
  v

(* Every representation of the same bit set answers every query the
   dense one does. *)
let prop_rowset_equivalence =
  QCheck.Test.make ~name:"rowset: dense/sparse are interchangeable"
    ~count:60
    QCheck.(triple (int_range 1 300) (int_bound 100) (int_bound 9999))
    (fun (len, density, seed) ->
      let rng = Rng.create seed in
      let v = random_bitvec rng len ~density in
      let mask = random_bitvec rng len ~density:70 in
      let other = random_bitvec rng len ~density in
      let dense = Rowset.dense_of_bitvec v in
      List.for_all
        (fun r ->
          let row = with_force (Some r) (fun () -> Rowset.of_bitvec v) in
          Rowset.repr row = r
          && Rowset.count row = Bitvec.count v
          && Rowset.length row = len
          && Bitvec.equal (Rowset.to_bitvec row) v
          && Rowset.equal row dense
          && Rowset.to_list row = Bitvec.to_list v)
        reprs
      &&
      (* Set algebra agrees with the Bitvec reference for every
         representation, and subset_masked for every representation
         pair. *)
      List.for_all
        (fun r ->
          let row = with_force (Some r) (fun () -> Rowset.of_bitvec v) in
          let i = Rng.int rng len in
          let u = Bitvec.create len in
          Rowset.union_into ~into:u row;
          let d = Bitvec.copy mask in
          Rowset.diff_into ~into:d row;
          let d_ref = Bitvec.copy mask in
          Bitvec.iter_ones (fun j -> Bitvec.clear d_ref j) v;
          Rowset.mem row i = Bitvec.get v i
          && Bitvec.equal u v
          && Bitvec.equal d d_ref
          && Rowset.count_inter row mask = Bitvec.count_inter v mask
          && Rowset.intersects row mask = (Bitvec.count_inter v mask > 0)
          && List.for_all
               (fun r2 ->
                 let row2 = with_force (Some r2) (fun () -> Rowset.of_bitvec other) in
                 Rowset.subset_masked row row2 ~mask
                 = Bitvec.subset_masked v other ~mask
                 && Rowset.equal row row2 = Bitvec.equal v other)
               reprs)
        reprs)

(* The automatic policy is the density cutover alone: rows at or below
   one set bit per 64 columns go sparse, every denser row goes dense
   whatever its width. *)
let prop_rowset_policy =
  QCheck.Test.make ~name:"rowset: density cutover policy" ~count:40
    QCheck.(pair (int_range 64 10000) (int_bound 9999))
    (fun (len, seed) ->
      let rng = Rng.create seed in
      let sparse_v = Bitvec.create len in
      Bitvec.set sparse_v (Rng.int rng len);
      let dense_v = random_bitvec rng len ~density:50 in
      Rowset.repr (Rowset.of_bitvec sparse_v) = Rowset.Sparse
      && Rowset.repr (Rowset.of_bitvec dense_v) = Rowset.Dense)

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
    if not (Rowset.equal (Matrix.rowset a.Builder.matrix i) (Matrix.rowset b.Builder.matrix i))
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

let test_build_identical_across_reprs () =
  let sim, tpg, tests, targets = build_fixture () in
  let config = Builder.default_config in
  let auto = Builder.build sim tpg ~tests ~targets ~config in
  List.iter
    (fun r ->
      let b =
        with_force (Some r) (fun () -> Builder.build sim tpg ~tests ~targets ~config)
      in
      same_build auto b)
    reprs

(* The whole flow on a library circuit — build, reduce, exact solve,
   truncation — gives the same triplets, coverage and test length with
   every row pinned dense, every row pinned sparse, and the automatic
   mix. *)
let test_flow_identical_across_reprs () =
  let p = Suite.prepare ~scale_factor:1 "s953" in
  let tpg = Accumulator.adder (Circuit.input_count p.Suite.circuit) in
  let run r =
    with_force r (fun () ->
        Flow.run p.Suite.sim tpg ~tests:p.Suite.tests ~targets:p.Suite.targets)
  in
  let auto = run None in
  let triplet = Alcotest.testable Triplet.pp ( = ) in
  List.iter
    (fun r ->
      let f = run (Some r) in
      let what = Rowset.(match r with Dense -> "dense" | Sparse -> "sparse") in
      Alcotest.(check (list triplet)) (what ^ " triplets")
        auto.Flow.final_triplets f.Flow.final_triplets;
      Alcotest.(check (float 0.)) (what ^ " coverage") auto.Flow.coverage_pct
        f.Flow.coverage_pct;
      Alcotest.(check int) (what ^ " test length") auto.Flow.test_length
        f.Flow.test_length)
    reprs

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

(* The residual holds exactly the surviving rows x columns of the input,
   whichever representation backs the input's rows. *)
let prop_residual_matches_matrix =
  QCheck.Test.make ~name:"residual = input cells at the kept indices" ~count:20
    QCheck.(
      quad (int_range 2 130) (int_range 2 200) (int_range 5 97) (int_bound 9999))
    (fun (rows, cols, density, seed) ->
      let base = random_matrix (Rng.create seed) ~rows ~cols ~density in
      List.for_all
        (fun r ->
          with_force (Some r) (fun () ->
              let m =
                Matrix.of_rowsets ~cols
                  (Array.init rows (fun i -> Rowset.of_bitvec (Matrix.row base i)))
              in
              let sub, rmap, cmap = Reduce.residual m (Reduce.run m) in
              let same = ref true in
              Array.iteri
                (fun ri i ->
                  Array.iteri
                    (fun cj j ->
                      if Matrix.get sub ~row:ri ~col:cj <> Matrix.get m ~row:i ~col:j
                      then same := false)
                    cmap)
                rmap;
              Matrix.rows sub = Array.length rmap
              && Matrix.cols sub = Array.length cmap
              && !same))
        reprs)

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

(* Same covering solution whichever representation backs the rows. *)
let prop_solution_identity_across_reprs =
  QCheck.Test.make ~name:"solve: identical across row representations" ~count:15
    QCheck.(quad (int_range 2 12) (int_range 2 30) (int_range 5 60) (int_bound 9999))
    (fun (rows, cols, density, seed) ->
      let rng = Rng.create seed in
      let m = random_matrix rng ~rows ~cols ~density in
      let base = Solution.solve m in
      List.for_all
        (fun r ->
          with_force (Some r) (fun () ->
              let rs =
                Array.init rows (fun i -> Rowset.of_bitvec (Matrix.row m i))
              in
              let m2 = Matrix.of_rowsets ~cols rs in
              let s = Solution.solve m2 in
              s.Solution.rows = base.Solution.rows
              && s.Solution.stats.Solution.necessary
                 = base.Solution.stats.Solution.necessary))
        reprs)

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
        QCheck_alcotest.to_alcotest prop_rowset_equivalence;
        QCheck_alcotest.to_alcotest prop_rowset_policy;
        Alcotest.test_case "sharded build = monolithic build" `Quick
          test_sharded_build_matches;
        Alcotest.test_case "build identical across representations" `Quick
          test_build_identical_across_reprs;
        Alcotest.test_case "flow identical across representations" `Quick
          test_flow_identical_across_reprs;
        QCheck_alcotest.to_alcotest prop_reduce_matches_reference;
        QCheck_alcotest.to_alcotest prop_reduce_coldom_limit;
        QCheck_alcotest.to_alcotest prop_residual_matches_matrix;
        Alcotest.test_case "word-parallel reduce = reference on built matrix" `Quick
          test_reduce_matches_on_built_matrix;
        QCheck_alcotest.to_alcotest prop_solution_identity_across_reprs;
        Alcotest.test_case "xl tier: >= 10k universe faults" `Quick test_xl_tier_size;
      ] );
  ]

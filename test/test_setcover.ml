open Reseed_setcover
open Reseed_util

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Build a matrix from a list of rows given as column-index lists. *)
let matrix_of cols rows =
  Matrix.of_rows ~cols (Array.of_list (List.map (Bitvec.of_list cols) rows))

(* Brute-force minimum cover cardinality by enumerating all row subsets. *)
let brute_force_optimum m =
  let rows = Matrix.rows m and cols = Matrix.cols m in
  let coverable = Bitvec.create cols in
  for j = 0 to cols - 1 do
    if not (Bitvec.is_empty (Matrix.col m j)) then Bitvec.set coverable j
  done;
  let best = ref max_int in
  for mask = 0 to (1 lsl rows) - 1 do
    let u = Bitvec.create cols in
    let size = ref 0 in
    for i = 0 to rows - 1 do
      if mask lsr i land 1 = 1 then begin
        incr size;
        Bitvec.union_into ~into:u (Matrix.row m i)
      end
    done;
    if Bitvec.subset coverable u && !size < !best then best := !size
  done;
  !best

let random_instance rng =
  let rows = 3 + Rng.int rng 8 in
  let cols = 3 + Rng.int rng 10 in
  let m = Matrix.create ~rows ~cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      if Rng.int rng 100 < 35 then Matrix.set m ~row:i ~col:j
    done
  done;
  (* ensure feasibility: a final row covering everything missing *)
  m

(* --- Matrix --- *)

let test_matrix_basics () =
  let m = matrix_of 4 [ [ 0; 1 ]; [ 2 ]; [ 1; 3 ] ] in
  check_int "rows" 3 (Matrix.rows m);
  check_int "cols" 4 (Matrix.cols m);
  check "get" true (Matrix.get m ~row:0 ~col:1);
  check "get false" false (Matrix.get m ~row:1 ~col:1);
  check_int "ones" 5 (Matrix.ones m);
  check "row view" true (Bitvec.to_list (Matrix.row m 2) = [ 1; 3 ]);
  check "col view" true (Bitvec.to_list (Matrix.col m 1) = [ 0; 2 ]);
  check "covers all" true (Matrix.covers m ~rows_subset:[ 0; 1; 2 ]);
  check "partial doesn't" false (Matrix.covers m ~rows_subset:[ 0; 1 ]);
  check "density" true (abs_float (Matrix.density m -. (5. /. 12.)) < 1e-9)

let test_matrix_uncoverable () =
  let m = matrix_of 3 [ [ 0 ]; [ 0; 2 ] ] in
  check "col 1 uncoverable" true (Matrix.uncoverable m = [ 1 ])

let test_matrix_set_syncs_views () =
  let m = Matrix.create ~rows:2 ~cols:2 in
  Matrix.set m ~row:1 ~col:0;
  check "row view" true (Bitvec.get (Matrix.row m 1) 0);
  check "col view" true (Bitvec.get (Matrix.col m 0) 1)

(* --- Reduce --- *)

let test_essential_detection () =
  (* col 2 covered only by row 1 → row 1 necessary *)
  let m = matrix_of 3 [ [ 0 ]; [ 1; 2 ]; [ 0; 1 ] ] in
  let r = Reduce.run m in
  check "row1 necessary" true (List.mem 1 r.Reduce.necessary)

let test_row_dominance () =
  (* row 0 ⊂ row 1 → row 0 dropped *)
  let m = matrix_of 3 [ [ 0 ]; [ 0; 1 ]; [ 2 ] ] in
  let r =
    Reduce.run ~config:{ Reduce.default_config with Reduce.essentials = false; row_dominance = true; col_dominance = false } m
  in
  check "row 0 dominated" true (not (List.mem 0 r.Reduce.remaining_rows));
  check_int "one dominated" 1 r.Reduce.rows_dominated

let test_equal_rows_keep_one () =
  let m = matrix_of 2 [ [ 0; 1 ]; [ 0; 1 ] ] in
  let r =
    Reduce.run ~config:{ Reduce.default_config with Reduce.essentials = false; row_dominance = true; col_dominance = false } m
  in
  check_int "exactly one row survives" 1 (List.length r.Reduce.remaining_rows)

let test_col_dominance () =
  (* rows(col0) = {0} ⊆ rows(col1) = {0,1} → col 1 removed *)
  let m = matrix_of 2 [ [ 0; 1 ]; [ 1 ] ] in
  let r =
    Reduce.run ~config:{ Reduce.default_config with Reduce.essentials = false; row_dominance = false; col_dominance = true } m
  in
  check "col 1 dropped" true (not (List.mem 1 r.Reduce.remaining_cols));
  check "col 0 kept" true (List.mem 0 r.Reduce.remaining_cols)

let test_reduction_fixpoint_solves_simple () =
  (* A chain where essentials cascade to a complete solution. *)
  let m = matrix_of 4 [ [ 0; 1 ]; [ 2 ]; [ 3 ] ] in
  let r = Reduce.run m in
  check "solved by essentials" true (r.Reduce.remaining_cols = []);
  check_int "three necessary" 3 (List.length r.Reduce.necessary)

let test_residual_maps () =
  let m = matrix_of 5 [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ]; [ 4; 0 ] ] in
  let r = Reduce.run ~config:{ Reduce.default_config with Reduce.col_dominance = false } m in
  let sub, row_map, col_map = Reduce.residual m r in
  check_int "rows match" (List.length r.Reduce.remaining_rows) (Matrix.rows sub);
  check_int "cols match" (List.length r.Reduce.remaining_cols) (Matrix.cols sub);
  (* every cell of the residual matches the original through the maps *)
  for i = 0 to Matrix.rows sub - 1 do
    for j = 0 to Matrix.cols sub - 1 do
      if Matrix.get sub ~row:i ~col:j <> Matrix.get m ~row:row_map.(i) ~col:col_map.(j)
      then Alcotest.fail "residual cell mismatch"
    done
  done

(* Reduction must never change the optimal cover cardinality. *)
let prop_reduction_preserves_optimum =
  QCheck.Test.make ~name:"reduction preserves optimum" ~count:60 QCheck.small_int
    (fun seed ->
      let rng = Rng.create (seed + 1) in
      let m = random_instance rng in
      let opt = brute_force_optimum m in
      let sol = Solution.solve m in
      Solution.verify m sol && Solution.cardinality sol = opt)

(* --- Greedy --- *)

let test_greedy_covers () =
  let m = matrix_of 4 [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 0; 3 ] ] in
  let picks = Greedy.solve m in
  check "covers" true (Matrix.covers m ~rows_subset:picks)

(* Regression: Greedy used to ignore [row_weights] entirely, silently
   minimising cardinality whatever the objective.  The weighted picker
   must rank by cost-effectiveness (gain per unit weight), so the
   expensive all-covering row loses to three cheap singletons. *)
let test_greedy_weighted_regression () =
  let m = matrix_of 3 [ [ 0 ]; [ 1 ]; [ 2 ]; [ 0; 1; 2 ] ] in
  let unweighted = Greedy.solve m in
  check "cardinality greedy takes the big row" true (unweighted = [ 3 ]);
  let weighted = Greedy.solve ~weights:[| 1.; 1.; 1.; 10. |] m in
  check "weighted greedy avoids it" true
    (List.sort compare weighted = [ 0; 1; 2 ]);
  check "weighted cost" true
    (abs_float (Greedy.cost ~weights:[| 1.; 1.; 1.; 10. |] weighted -. 3.) < 1e-9);
  check "bad weights rejected" true
    (try
       ignore (Greedy.solve ~weights:[| 1.; 1. |] m);
       false
     with Invalid_argument _ -> true)

(* Reference for the unweighted [Greedy.solve]: the cardinality greedy
   on integer gains, ties to the lowest index. *)
let cardinality_greedy m =
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
    chosen := !best :: !chosen;
    Bitvec.diff_into ~into:need (Matrix.row m !best)
  done;
  List.rev !chosen

(* Without weights every row weighs 1.0, and an integer gain over 1.0
   compares exactly: identical picks in identical order on any instance,
   equal to the integer-gain loop's. *)
let prop_greedy_unit_weights =
  QCheck.Test.make ~name:"unweighted greedy unchanged" ~count:100 QCheck.small_int
    (fun seed ->
      let rng = Rng.create (seed + 3000) in
      let m = random_instance rng in
      let picks = Greedy.solve m in
      picks = Greedy.solve ~weights:(Array.make (Matrix.rows m) 1.0) m
      && picks = cardinality_greedy m)

(* Weighted greedy is a valid upper bound for the weighted exact solver:
   it covers, and never costs less than the optimum. *)
let prop_weighted_greedy_bounds_ilp =
  QCheck.Test.make ~name:"weighted greedy cost >= ILP cost" ~count:60
    QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 2000) in
      let m = random_instance rng in
      let weights =
        Array.init (Matrix.rows m) (fun _ -> 1. +. float_of_int (Rng.int rng 9))
      in
      let picks = Greedy.solve ~weights m in
      let r = Ilp.solve ~weights m in
      Matrix.covers m ~rows_subset:picks
      && (not r.Ilp.optimal || Greedy.cost ~weights picks >= r.Ilp.cost -. 1e-9))

let test_greedy_suboptimal_instance () =
  (* classic instance where greedy takes 3 rows but optimum is 2 *)
  let m =
    matrix_of 8
      [ [ 0; 1; 2; 3 ]; [ 4; 5; 6; 7 ]; [ 0; 1; 4; 5; 2 ] ]
  in
  let greedy = Greedy.solve m in
  check "greedy covers" true (Matrix.covers m ~rows_subset:greedy);
  let exact = Ilp.solve m in
  check "exact finds 2" true (List.length exact.Ilp.selected = 2)

(* --- Ilp --- *)

let test_ilp_simple () =
  let m = matrix_of 3 [ [ 0 ]; [ 1 ]; [ 2 ]; [ 0; 1; 2 ] ] in
  let r = Ilp.solve m in
  check "optimal" true r.Ilp.optimal;
  check "picks the covering row" true (r.Ilp.selected = [ 3 ])

let test_ilp_weighted () =
  (* the all-covering row is expensive: prefer three cheap singletons *)
  let m = matrix_of 3 [ [ 0 ]; [ 1 ]; [ 2 ]; [ 0; 1; 2 ] ] in
  let r = Ilp.solve ~weights:[| 1.; 1.; 1.; 10. |] m in
  check "avoids expensive row" true (r.Ilp.selected = [ 0; 1; 2 ]);
  check "cost 3" true (abs_float (r.Ilp.cost -. 3.) < 1e-9)

let test_ilp_infeasible () =
  (* Column 1 is coverable by no row: the exact solver must cover the
     rest and report it instead of raising, matching Greedy.solve. *)
  let m = matrix_of 2 [ [ 0 ] ] in
  let r = Ilp.solve m in
  check "uncovered reported" true (r.Ilp.uncovered = [ 1 ]);
  check "coverable part solved" true (r.Ilp.selected = [ 0 ]);
  check "still optimal" true r.Ilp.optimal;
  (* A fully uncoverable instance selects nothing. *)
  let empty = matrix_of 2 [] in
  let r2 = Ilp.solve empty in
  check "all uncovered" true (r2.Ilp.uncovered = [ 0; 1 ]);
  check "nothing selected" true (r2.Ilp.selected = [])

let test_ilp_bad_weights () =
  let m = matrix_of 1 [ [ 0 ] ] in
  check "negative weight rejected" true
    (try
       ignore (Ilp.solve ~weights:[| -1. |] m);
       false
     with Invalid_argument _ -> true);
  check "weight count" true
    (try
       ignore (Ilp.solve ~weights:[| 1.; 1. |] m);
       false
     with Invalid_argument _ -> true)

let prop_ilp_matches_brute_force =
  QCheck.Test.make ~name:"ILP = brute force optimum" ~count:60 QCheck.small_int
    (fun seed ->
      let rng = Rng.create (seed + 1000) in
      let m = random_instance rng in
      let opt = brute_force_optimum m in
      if opt = max_int then true
      else begin
        (* drop uncoverable columns like the full pipeline would *)
        let sol = Solution.solve m in
        Solution.verify m sol && Solution.cardinality sol = opt
      end)

(* --- Solution pipeline --- *)

let test_solution_methods_agree_on_coverage () =
  let rng = Rng.create 99 in
  for _ = 1 to 10 do
    let m = random_instance rng in
    List.iter
      (fun method_ ->
        let sol = Solution.solve ~method_ m in
        if not (Solution.verify m sol) then Alcotest.fail "solution doesn't cover")
      [ Solution.Exact; Solution.Greedy_only; Solution.No_reduction_exact ]
  done

let test_solution_exact_beats_greedy () =
  let rng = Rng.create 123 in
  for _ = 1 to 10 do
    let m = random_instance rng in
    let e = Solution.solve ~method_:Solution.Exact m in
    let g = Solution.solve ~method_:Solution.Greedy_only m in
    if Solution.cardinality e > Solution.cardinality g then
      Alcotest.fail "exact worse than greedy"
  done

(* Regression: the Exact path used to drop [Ilp.result.uncovered] on the
   floor — a matrix carrying undetectable faults solved "cleanly" with
   no trace of the columns nothing can cover.  Every method must now
   surface them in [stats.uncovered]. *)
let test_solution_uncovered_surfaced () =
  let m = matrix_of 3 [ [ 0 ]; [ 0; 2 ] ] in
  List.iter
    (fun method_ ->
      let sol = Solution.solve ~method_ m in
      Alcotest.(check (list int))
        ("uncovered via " ^ Solution.method_name method_)
        [ 1 ] sol.Solution.stats.Solution.uncovered)
    Solution.methods;
  let feasible = matrix_of 2 [ [ 0 ]; [ 1 ] ] in
  let sol = Solution.solve feasible in
  check "feasible instance: empty" true (sol.Solution.stats.Solution.uncovered = [])

let test_solution_stats_consistent () =
  let m = matrix_of 4 [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 0; 3 ] ] in
  let sol = Solution.solve m in
  let s = sol.Solution.stats in
  check_int "initial rows" 4 s.Solution.initial_rows;
  check_int "initial cols" 4 s.Solution.initial_cols;
  check "solution = necessary + solver" true
    (List.sort_uniq compare sol.Solution.rows
    = List.sort_uniq compare (s.Solution.necessary @ s.Solution.from_solver))

let suite =
  [
    ( "setcover",
      [
        Alcotest.test_case "matrix basics" `Quick test_matrix_basics;
        Alcotest.test_case "matrix uncoverable" `Quick test_matrix_uncoverable;
        Alcotest.test_case "matrix views in sync" `Quick test_matrix_set_syncs_views;
        Alcotest.test_case "essentiality" `Quick test_essential_detection;
        Alcotest.test_case "row dominance" `Quick test_row_dominance;
        Alcotest.test_case "equal rows keep one" `Quick test_equal_rows_keep_one;
        Alcotest.test_case "column dominance" `Quick test_col_dominance;
        Alcotest.test_case "essentials cascade" `Quick test_reduction_fixpoint_solves_simple;
        Alcotest.test_case "residual maps correct" `Quick test_residual_maps;
        Alcotest.test_case "greedy covers" `Quick test_greedy_covers;
        Alcotest.test_case "greedy honours weights" `Quick test_greedy_weighted_regression;
        Alcotest.test_case "greedy vs exact gap" `Quick test_greedy_suboptimal_instance;
        Alcotest.test_case "ilp simple" `Quick test_ilp_simple;
        Alcotest.test_case "ilp weighted" `Quick test_ilp_weighted;
        Alcotest.test_case "ilp infeasible" `Quick test_ilp_infeasible;
        Alcotest.test_case "ilp bad weights" `Quick test_ilp_bad_weights;
        Alcotest.test_case "methods all cover" `Quick test_solution_methods_agree_on_coverage;
        Alcotest.test_case "exact never worse than greedy" `Quick test_solution_exact_beats_greedy;
        Alcotest.test_case "stats consistent" `Quick test_solution_stats_consistent;
        Alcotest.test_case "uncovered surfaced" `Quick test_solution_uncovered_surfaced;
        QCheck_alcotest.to_alcotest prop_reduction_preserves_optimum;
        QCheck_alcotest.to_alcotest prop_greedy_unit_weights;
        QCheck_alcotest.to_alcotest prop_weighted_greedy_bounds_ilp;
        QCheck_alcotest.to_alcotest prop_ilp_matches_brute_force;
      ] );
  ]

type method_ = Exact | Greedy_only | No_reduction_exact

type stats = {
  initial_rows : int;
  initial_cols : int;
  necessary : int list;
  reduced_rows : int;
  reduced_cols : int;
  from_solver : int list;
  reduction_iterations : int;
  solver_nodes : int;
  solver_optimal : bool;
  solver_stop : Ilp.stop_reason;
  degraded : bool;
  uncovered : int list;
}

type t = { rows : int list; stats : stats }

(* An exact method whose end-game stopped early delivered the incumbent
   (greedy at worst) instead of a proven optimum: record that honestly.
   [Greedy_only] is not degraded — suboptimality is the method's
   contract, not a budget casualty. *)
let is_degraded method_ stop =
  match (method_, stop) with
  | Greedy_only, _ -> false
  | (Exact | No_reduction_exact), Ilp.Complete -> false
  | (Exact | No_reduction_exact), _ -> true

let methods = [ Exact; Greedy_only; No_reduction_exact ]

let method_name = function
  | Exact -> "exact"
  | Greedy_only -> "greedy"
  | No_reduction_exact -> "noreduce"

let solve ?(method_ = Exact) ?reduce_config ?row_weights ?budget m =
  Reseed_util.Trace.with_span "solution.solve"
    ~args:[ ("method", method_name method_) ]
  @@ fun () ->
  (* Columns of the input matrix no row covers: unreachable whatever the
     end-game selects (undetectable faults).  Every method degrades on
     them the same way — by skipping them — so they are surfaced here
     once instead of being dropped on the floor per-solver. *)
  let uncovered = Matrix.uncoverable m in
  (* [No_reduction_exact] hands the whole matrix to the solver, which
     itself excludes the uncoverable columns. *)
  let necessary, iterations, residual, row_of =
    match method_ with
    | No_reduction_exact -> ([], 0, m, Fun.id)
    | Exact | Greedy_only ->
        let red = Reduce.run ?config:reduce_config ?row_weights m in
        let residual, row_map, _col_map = Reduce.residual m red in
        (red.Reduce.necessary, red.Reduce.iterations, residual, fun ri -> row_map.(ri))
  in
  let reduced_rows = Matrix.rows residual and reduced_cols = Matrix.cols residual in
  let selected, nodes, stop, optimal =
    if method_ <> No_reduction_exact && (reduced_rows = 0 || reduced_cols = 0)
    then ([], 0, Ilp.Complete, true)
    else
      match method_ with
      | Greedy_only -> (Greedy.solve residual, 0, Ilp.Complete, false)
      | Exact | No_reduction_exact ->
          let weights =
            Option.map
              (fun w -> Array.init reduced_rows (fun ri -> w.(row_of ri)))
              row_weights
          in
          let r = Ilp.solve ?weights ?budget residual in
          (r.Ilp.selected, r.Ilp.nodes_explored, r.Ilp.stop_reason, r.Ilp.optimal)
  in
  let from_solver = List.map row_of selected in
  {
    rows = List.sort_uniq compare (necessary @ from_solver);
    stats =
      {
        initial_rows = Matrix.rows m;
        initial_cols = Matrix.cols m;
        necessary;
        reduced_rows;
        reduced_cols;
        from_solver;
        reduction_iterations = iterations;
        solver_nodes = nodes;
        solver_optimal = optimal;
        solver_stop = stop;
        degraded = is_degraded method_ stop;
        uncovered;
      };
  }

let verify m t = Matrix.covers m ~rows_subset:t.rows

let cardinality t = List.length t.rows

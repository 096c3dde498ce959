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

type endgame = {
  selected : int list;
  nodes : int;
  stop : Ilp.stop_reason;
  optimal : bool;
}

type memo = {
  reduce : (unit -> Reduce.result) -> Reduce.result;
  endgame : (unit -> endgame) -> endgame;
}

let no_memo = { reduce = (fun f -> f ()); endgame = (fun f -> f ()) }

let solve ?(method_ = Exact) ?reduce_config ?row_weights ?budget ?(memo = no_memo) m =
  Reseed_util.Trace.with_span "solution.solve"
    ~args:[ ("method", method_name method_) ]
  @@ fun () ->
  (* Columns of the input matrix no row covers: unreachable whatever the
     end-game selects (undetectable faults).  Every method degrades on
     them the same way — by skipping them — so they are surfaced here
     once instead of being dropped on the floor per-solver. *)
  let uncovered = Matrix.uncoverable m in
  (* [No_reduction_exact] hands the whole matrix to the solver, which
     itself excludes the uncoverable columns.  The residual sub-matrix is
     only the end-game's input, so it is built inside the end-game's
     thunk: a memoised end-game never pays for it. *)
  let necessary, iterations, reduced_rows, reduced_cols, residual =
    match method_ with
    | No_reduction_exact -> ([], 0, Matrix.rows m, Matrix.cols m, fun () -> (m, Fun.id))
    | Exact | Greedy_only ->
        let red =
          memo.reduce (fun () -> Reduce.run ?config:reduce_config ?row_weights m)
        in
        ( red.Reduce.necessary,
          red.Reduce.iterations,
          List.length red.Reduce.remaining_rows,
          List.length red.Reduce.remaining_cols,
          fun () ->
            let residual, row_map, _col_map = Reduce.residual m red in
            (residual, fun ri -> row_map.(ri)) )
  in
  let mapped row_of selected nodes stop optimal =
    { selected = List.map row_of selected; nodes; stop; optimal }
  in
  let e =
    if method_ <> No_reduction_exact && (reduced_rows = 0 || reduced_cols = 0)
    then { selected = []; nodes = 0; stop = Ilp.Complete; optimal = true }
    else
      match method_ with
      | Greedy_only ->
          memo.endgame (fun () ->
              let residual, row_of = residual () in
              mapped row_of (Greedy.solve residual) 0 Ilp.Complete false)
      | Exact | No_reduction_exact ->
          memo.endgame (fun () ->
              let residual, row_of = residual () in
              let weights =
                Option.map
                  (fun w -> Array.init (Matrix.rows residual) (fun ri -> w.(row_of ri)))
                  row_weights
              in
              let r = Ilp.solve ?weights ?budget residual in
              mapped row_of r.Ilp.selected r.Ilp.nodes_explored r.Ilp.stop_reason
                r.Ilp.optimal)
  in
  {
    rows = List.sort_uniq compare (necessary @ e.selected);
    stats =
      {
        initial_rows = Matrix.rows m;
        initial_cols = Matrix.cols m;
        necessary;
        reduced_rows;
        reduced_cols;
        from_solver = e.selected;
        reduction_iterations = iterations;
        solver_nodes = e.nodes;
        solver_optimal = e.optimal;
        solver_stop = e.stop;
        degraded = is_degraded method_ e.stop;
        uncovered;
      };
  }

let verify m t = Matrix.covers m ~rows_subset:t.rows

let cardinality t = List.length t.rows

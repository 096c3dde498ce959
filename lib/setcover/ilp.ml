open Reseed_util

type stop_reason = Complete | Node_limit | Budget of Budget.stop_reason

let stop_reason_name = function
  | Complete -> "complete"
  | Node_limit -> "node-limit"
  | Budget r -> Budget.stop_reason_name r

type result = {
  selected : int list;
  cost : float;
  optimal : bool;
  nodes_explored : int;
  stop_reason : stop_reason;
  uncovered : int list;
}

let epsilon = 1e-9

let m_nodes = Metrics.counter ~help:"ILP branch-and-bound nodes" "nodes_explored"

let m_incumbents =
  Metrics.counter ~help:"ILP incumbent improvements" "ilp_incumbent_updates"

let m_prunes =
  Metrics.counter ~help:"ILP subtrees cut by the lower bound" "ilp_bound_prunes"

let m_root_proofs =
  Metrics.counter ~help:"ILP solves closed at the root by the Lagrangian bound"
    "ilp_root_proofs"

(* Wall-clock polls are throttled to once per [budget_stride] nodes: a
   search node costs well under a microsecond, so the deadline is honoured
   within a few milliseconds without a clock read per node. *)
let budget_stride = 4096

let check_weights n_rows w =
  if Array.length w <> n_rows then invalid_arg "Ilp.solve: weight count mismatch";
  Array.iter (fun x -> if x <= 0. then invalid_arg "Ilp.solve: weights must be > 0") w

(* ------------------------------------------------------------------ *)
(* Resumable depth-first branch-and-bound.

   The search keeps an explicit stack of pending subproblems instead of
   recursing, so it can stop after a node quantum and resume later with
   the frontier intact — the suspension point the racing portfolio needs.
   A frame is two ints in flat arrays: the child's tree depth and the row
   it picks (-1 for the root).  Each depth owns one residual-need buffer,
   one cost slot and one pick slot: popping a frame at depth [d] blits
   depth [d - 1]'s buffer into depth [d]'s and subtracts the row.  Depth
   [d - 1] still holds the parent when any of its children is popped,
   because depth-first order pops every frame pushed below a child before
   the child's next sibling.

   Everything fixed for the search is computed once in [start]: each
   column's row count and cheapest covering weight, and the column
   vectors of the matrix's cached transpose (shared, not copied).  With
   scratch arrays for the candidates and the independent bound, and the
   Lagrangian bound received through a one-slot float array, a node
   allocates nothing.

   The pop-order reproduces the historical recursive traversal exactly:
   candidates are pushed in reverse, so the cheapest-first candidate
   order is also the exploration order, and [nodes] counts one increment
   per popped frame — the recursive version's increment-on-entry. *)

type search = {
  s_matrix : Matrix.t;
  s_weights : float array;
  s_lag : Lagrangian.t;
  s_cols : Bitvec.t array; (* column j's covering rows (the transpose's) *)
  s_col_count : int array; (* rows covering column j *)
  s_col_min_w : float array; (* cheapest row covering column j *)
  s_node_limit : int;
  s_used : Bitvec.t; (* scratch: rows claimed by the independent bound *)
  s_cand : int array; (* scratch: candidate rows of the branching column *)
  s_gain : int array; (* scratch: each candidate's marginal coverage *)
  s_lag_bound : float array; (* scratch: the node's Lagrangian bound *)
  (* Per depth; depth 0 is the root. *)
  mutable s_need : Bitvec.t array; (* residual columns *)
  mutable s_cost_at : float array;
  mutable s_pick_at : int array; (* row picked at the depth (>= 1) *)
  (* The frontier: frame k is (s_fr_depth.(k), s_fr_row.(k)), top last. *)
  mutable s_fr_depth : int array;
  mutable s_fr_row : int array;
  mutable s_top : int;
  mutable s_best : int list;
  mutable s_cost : float;
  mutable s_nodes : int;
  mutable s_incumbents : int;
  mutable s_prunes : int;
  mutable s_stop : stop_reason option;
}

(* Lagrangian iterations scale down on huge instances: the bound is
   O(iters × nnz) at the root and the xl end-game should spend its time
   branching, not polishing multipliers. *)
let lagrangian_iters m = if Matrix.ones m > 2_000_000 then 8 else 25

let seed_of ?weights m =
  (* The incumbent must optimise the same objective as the search: a
     cardinality-greedy seed on a weighted instance both starts the
     search from the wrong cover and reports the wrong cost when a
     budget expires before any improvement. *)
  let rows = Greedy.solve_weighted ?weights m in
  (rows, Greedy.cost ?weights rows)

let weights_of ?weights m =
  match weights with
  | None -> Array.make (Matrix.rows m) 1.0
  | Some w ->
      check_weights (Matrix.rows m) w;
      w

(* The root of a search: the instance, its weights, the incumbent seed
   and the Lagrangian bound optimised against the seed's cost.  Whoever
   decides whether to branch at all reads the bound from here, and the
   search adopts it, so it is computed once per solve. *)
type root = {
  r_matrix : Matrix.t;
  r_weights : float array;
  r_seed : int list * float;
  r_lag : Lagrangian.t;
}

let root_of m w ((_, seed_cost) as seed) =
  {
    r_matrix = m;
    r_weights = w;
    r_seed = seed;
    r_lag = Lagrangian.optimize ~iters:(lagrangian_iters m) ~ub:seed_cost ~weights:w m;
  }

let root ?weights ?seed m =
  let w = weights_of ?weights m in
  let seed = match seed with Some s -> s | None -> seed_of ?weights m in
  root_of m w seed

let root_lb r = r.r_lag.Lagrangian.lb

let start ?(node_limit = 2_000_000) r =
  let m = r.r_matrix and weights = r.r_weights in
  let seed_rows, seed_cost = r.r_seed in
  let n_rows = Matrix.rows m and n_cols = Matrix.cols m in
  let cols = Array.init n_cols (Matrix.col m) in
  let min_weight c =
    Bitvec.fold_ones (fun acc i -> Float.min acc weights.(i)) Float.infinity c
  in
  {
    s_matrix = m;
    s_weights = weights;
    s_lag = r.r_lag;
    s_cols = cols;
    s_col_count = Array.map Bitvec.count cols;
    s_col_min_w = Array.map min_weight cols;
    s_node_limit = node_limit;
    s_used = Bitvec.create n_rows;
    s_cand = Array.make n_rows 0;
    s_gain = Array.make n_rows 0;
    s_lag_bound = [| 0. |];
    s_need = [| Bitvec.copy (Matrix.universe m) |];
    s_cost_at = [| 0. |];
    s_pick_at = [| -1 |];
    s_fr_depth = [| 0 |];
    s_fr_row = [| -1 |];
    s_top = 1;
    s_best = seed_rows;
    s_cost = seed_cost;
    s_nodes = 0;
    s_incumbents = 0;
    s_prunes = 0;
    s_stop = None;
  }

let inject s ~rows ~cost =
  if cost < s.s_cost -. epsilon then begin
    s.s_cost <- cost;
    s.s_best <- rows
  end

let best s = (List.sort compare s.s_best, s.s_cost)
let nodes_explored s = s.s_nodes
let incumbent_updates s = s.s_incumbents
let prunes s = s.s_prunes
let search_stop s = s.s_stop
let exhausted s = s.s_top = 0 && s.s_stop = None

let push s ~depth ~row =
  if s.s_top = Array.length s.s_fr_row then begin
    let grow a = Array.append a (Array.make (Array.length a) 0) in
    s.s_fr_depth <- grow s.s_fr_depth;
    s.s_fr_row <- grow s.s_fr_row
  end;
  s.s_fr_depth.(s.s_top) <- depth;
  s.s_fr_row.(s.s_top) <- row;
  s.s_top <- s.s_top + 1

(* Enter depth [d] (>= 1) through row [i]: the child's residual and cost
   from its parent's, one depth up. *)
let enter s d i =
  if d = Array.length s.s_need then begin
    (* First visit of this depth: one more buffer, kept for the search. *)
    s.s_need <- Array.append s.s_need [| Bitvec.create (Matrix.cols s.s_matrix) |];
    s.s_cost_at <- Array.append s.s_cost_at [| 0. |];
    s.s_pick_at <- Array.append s.s_pick_at [| -1 |]
  end;
  let need = s.s_need.(d) in
  Bitvec.blit ~src:s.s_need.(d - 1) ~dst:need;
  Bitvec.diff_into ~into:need (Matrix.row s.s_matrix i);
  s.s_cost_at.(d) <- s.s_cost_at.(d - 1) +. s.s_weights.(i);
  s.s_pick_at.(d) <- i

(* Weighted independent-column bound: columns whose covering-row sets
   are pairwise disjoint need pairwise distinct rows, so the cheapest
   row of each is a valid additive lower bound.  Inlined into [advance],
   so its float result is not boxed. *)
let[@inline] independent_bound s need =
  let used = s.s_used in
  Bitvec.zero_all used;
  let lb = ref 0. in
  let j = ref (Bitvec.next_one need 0) in
  while !j >= 0 do
    let cover = s.s_cols.(!j) in
    if not (Bitvec.intersects cover used) then begin
      Bitvec.union_into ~into:used cover;
      lb := !lb +. s.s_col_min_w.(!j)
    end;
    j := Bitvec.next_one need (!j + 1)
  done;
  !lb

(* Branch on the hardest needed column: fewest covering rows, the lowest
   index on ties.  Its rows are the candidates, cheapest first, larger
   marginal coverage breaking weight ties, row index after that (a stable
   insertion sort over keys computed once per candidate).  They are
   pushed in reverse, so the cheapest candidate is the next pop. *)
let branch s d need =
  let pick = ref (-1) and pick_count = ref max_int in
  let j = ref (Bitvec.next_one need 0) in
  while !j >= 0 do
    let cnt = s.s_col_count.(!j) in
    if cnt < !pick_count then begin
      pick := !j;
      pick_count := cnt
    end;
    j := Bitvec.next_one need (!j + 1)
  done;
  let cand = s.s_cand and gain = s.s_gain and w = s.s_weights in
  let m = s.s_matrix and col = s.s_cols.(!pick) in
  let k = ref 0 in
  let i = ref (Bitvec.next_one col 0) in
  while !i >= 0 do
    let row = !i and g = Bitvec.count_inter (Matrix.row m !i) need in
    let p = ref !k in
    while
      !p > 0
      &&
      let c = Float.compare w.(cand.(!p - 1)) w.(row) in
      c > 0 || (c = 0 && gain.(!p - 1) < g)
    do
      cand.(!p) <- cand.(!p - 1);
      gain.(!p) <- gain.(!p - 1);
      decr p
    done;
    cand.(!p) <- row;
    gain.(!p) <- g;
    incr k;
    i := Bitvec.next_one col (!i + 1)
  done;
  for q = !k - 1 downto 0 do
    push s ~depth:(d + 1) ~row:cand.(q)
  done

let advance ?(quantum = max_int) ?budget s =
  let deadline_nodes =
    if quantum > max_int - s.s_nodes then max_int else s.s_nodes + quantum
  in
  let note_budget () =
    if s.s_stop = None then
      match budget with
      | Some b when s.s_nodes mod budget_stride = 0 && Budget.expired b -> (
          match Budget.stop_reason b with
          | Some r -> s.s_stop <- Some (Budget r)
          | None -> ())
      | _ -> ()
  in
  while s.s_stop = None && s.s_top > 0 && s.s_nodes < deadline_nodes do
    s.s_top <- s.s_top - 1;
    let d = s.s_fr_depth.(s.s_top) and i = s.s_fr_row.(s.s_top) in
    s.s_nodes <- s.s_nodes + 1;
    note_budget ();
    if s.s_nodes > s.s_node_limit then s.s_stop <- Some Node_limit
    else if s.s_stop <> None then ()
    else begin
      if i >= 0 then enter s d i;
      let need = s.s_need.(d) and cost = s.s_cost_at.(d) in
      let prune_at = s.s_cost -. epsilon in
      if Bitvec.is_empty need then begin
        if cost < prune_at then begin
          s.s_incumbents <- s.s_incumbents + 1;
          s.s_cost <- cost;
          s.s_best <- List.init d (fun k -> s.s_pick_at.(d - k))
        end
      end
      (* The bound is max(Lagrangian, independent-column).  Rounding is
         monotone, so [cost +. max a b >= x] holds exactly when [cost +. a
         >= x || cost +. b >= x]: testing the cheap Lagrangian sum first
         and computing the independent bound only when it does not prune
         decides every node as the max would. *)
      else if
        (Lagrangian.node_bound_into s.s_lag need s.s_lag_bound 0;
         cost +. s.s_lag_bound.(0) >= prune_at)
        || cost +. independent_bound s need >= prune_at
      then s.s_prunes <- s.s_prunes + 1
      else branch s d need
    end
  done

(* ------------------------------------------------------------------ *)

let solve ?weights ?(node_limit = 2_000_000) ?budget m =
  let n_rows = Matrix.rows m and n_cols = Matrix.cols m in
  (* The span's result args say why the search stopped where it did:
     its work, the root dual bound and the cost it ended with. *)
  let span_args (r, prunes, incumbents, root_lb) =
    [
      ("nodes", string_of_int r.nodes_explored);
      ("prunes", string_of_int prunes);
      ("incumbent_updates", string_of_int incumbents);
      ("stop_reason", stop_reason_name r.stop_reason);
    ]
    @ (match root_lb with
      | Some lb -> [ ("root_lb", Printf.sprintf "%g" lb) ]
      | None -> [])
    @ [ ("cost", Printf.sprintf "%g" r.cost) ]
  in
  let r, _, _, _ =
    Trace.with_span "ilp.solve"
      ~args:[ ("rows", string_of_int n_rows); ("cols", string_of_int n_cols) ]
      ~result_args:span_args
    @@ fun () ->
    let w = weights_of ?weights m in
    (* Columns no row covers are unreachable for any selection.  Solve the
       coverable sub-instance and report the dead columns instead of
       raising: on an unreduced matrix with undetectable faults the exact
       method then degrades exactly like {!Greedy.solve}, which has always
       skipped them. *)
    let uncovered = Matrix.uncoverable m in
    (* Incumbent: greedy upper bound — also the anytime fallback returned
       when the node or wall-clock budget expires before the search ends. *)
    let seed_rows, seed_cost = seed_of ?weights m in
    let seed_result ~optimal stop_reason =
      {
        selected = List.sort compare seed_rows;
        cost = seed_cost;
        optimal;
        nodes_explored = 0;
        stop_reason;
        uncovered;
      }
    in
    (* A budget that expired before the search even starts (e.g. the matrix
       build consumed the whole allowance) returns the greedy incumbent
       immediately. *)
    let already_expired =
      match budget with
      | Some b when Budget.expired b -> Budget.stop_reason b
      | _ -> None
    in
    match already_expired with
    | Some r -> (seed_result ~optimal:false (Budget r), 0, 0, None)
    | None ->
        let root = root_of m w (seed_rows, seed_cost) in
        let lb = root_lb root in
        if lb >= seed_cost -. epsilon then begin
          (* The dual bound already meets the greedy seed: optimal without
             opening a single node — the Lagrangian version of the paper's
             "the reduction solved it" fast path. *)
          Metrics.incr m_root_proofs;
          (seed_result ~optimal:true Complete, 0, 0, Some lb)
        end
        else begin
          let s = start ~node_limit root in
          advance ?budget s;
          Metrics.add m_nodes s.s_nodes;
          Metrics.add m_incumbents s.s_incumbents;
          Metrics.add m_prunes s.s_prunes;
          let selected, cost = best s in
          ( {
              selected;
              cost;
              optimal = s.s_stop = None;
              nodes_explored = s.s_nodes;
              stop_reason = (match s.s_stop with None -> Complete | Some r -> r);
              uncovered;
            },
            s.s_prunes,
            s.s_incumbents,
            Some lb )
        end
  in
  r

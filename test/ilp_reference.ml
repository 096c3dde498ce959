(* The exact covering search as it stood before the allocation-free node
   loop, kept verbatim as a test oracle (as [Podem_reference] keeps the
   PODEM loop and [Fault_sim_reference] the level-queue propagation):
   a frame record per child holding the parent's residual, a fresh
   residual copy and [used] vector per node, popcounts and cheapest
   weights recomputed per node, the bound as one [max] closure, and a
   [List.sort] whose comparator recounts both rows' marginal coverage.
   [Ilp] must explore the same nodes in the same order: equal
   [selected], [cost], [optimal], [stop_reason], [nodes_explored],
   [incumbent_updates] and [prunes], after every quantum.  Only the
   metrics counters and the trace span of [solve] are dropped, so
   running the oracle leaves the flow-wide counters alone. *)

open Reseed_setcover
open Reseed_util

module Lagrangian = struct
  type t = Lagrangian.t = {
    lb : float;
    u : float array; (* per column; 0 outside the coverable universe *)
    slack : float; (* Σ_i min(0, w_i − u·row_i) at the bound's multipliers *)
  }

  let epsilon = 1e-9

  (* Subgradient ascent on the Lagrangian dual of
       min Σ w_i x_i  s.t.  Σ_{i covers j} x_i ≥ 1,  x ∈ {0,1}:
     L(u) = Σ_j u_j + Σ_i min(0, w_i − Σ_{j ∈ row_i} u_j) for u ≥ 0 — every
     evaluation is a valid lower bound.  Held–Karp step-size control: the
     agility λ halves after a few non-improving steps.  Everything is
     row-wise (one pass over the nonzeros per iteration); the column view
     is never materialised, so the bound is usable on xl-tier matrices. *)
  let optimize ?(iters = 25) ~ub ~weights m =
    let n_rows = Matrix.rows m and n_cols = Matrix.cols m in
    let universe = Matrix.universe m in
    let u = Array.make n_cols 0. in
    (* Row-wise init: spread each row's weight over its columns, keeping
       the cheapest offer per column — a feasible u ≥ 0 that already prices
       every coverable column. *)
    for i = 0 to n_rows - 1 do
      let r = Matrix.row m i in
      let c = Bitvec.count r in
      if c > 0 then begin
        let share = weights.(i) /. float_of_int c in
        Bitvec.iter_ones
          (fun j -> if u.(j) = 0. || share < u.(j) then u.(j) <- share)
          r
      end
    done;
    let best_lb = ref neg_infinity and best_u = ref (Array.copy u) in
    let best_slack = ref 0. in
    let lambda = ref 2.0 and since_improved = ref 0 in
    let cov = Array.make n_cols 0 in
    let k = ref 0 and stop = ref false in
    while (not !stop) && !k < iters do
      incr k;
      Array.fill cov 0 n_cols 0;
      let slack = ref 0. in
      for i = 0 to n_rows - 1 do
        let r = Matrix.row m i in
        let s = Bitvec.fold_ones (fun acc j -> acc +. u.(j)) 0. r in
        let reduced = weights.(i) -. s in
        if reduced < 0. then begin
          slack := !slack +. reduced;
          Bitvec.iter_ones (fun j -> cov.(j) <- cov.(j) + 1) r
        end
      done;
      let sum_u = ref 0. in
      Bitvec.iter_ones (fun j -> sum_u := !sum_u +. u.(j)) universe;
      let lb = !sum_u +. !slack in
      if lb > !best_lb +. epsilon then begin
        best_lb := lb;
        best_u := Array.copy u;
        best_slack := !slack;
        since_improved := 0
      end
      else begin
        incr since_improved;
        if !since_improved >= 3 then begin
          lambda := !lambda /. 2.;
          since_improved := 0
        end
      end;
      if !best_lb >= ub -. epsilon then stop := true
      else begin
        (* Subgradient of the uncovered-ness: g_j = 1 − |{i : x_i(u) = 1 ∋ j}|. *)
        let norm2 = ref 0. in
        Bitvec.iter_ones
          (fun j ->
            let g = 1. -. float_of_int cov.(j) in
            norm2 := !norm2 +. (g *. g))
          universe;
        if !norm2 < epsilon then stop := true (* x(u) is primal-feasible *)
        else begin
          let step = !lambda *. (ub -. lb) /. !norm2 in
          if step <= 0. then stop := true
          else
            Bitvec.iter_ones
              (fun j ->
                let g = 1. -. float_of_int cov.(j) in
                u.(j) <- Float.max 0. (u.(j) +. (step *. g)))
              universe
        end
      end
    done;
    { lb = Float.max 0. !best_lb; u = !best_u; slack = !best_slack }

  (* For a sub-instance restricted to the still-needed columns, the root
     multipliers remain dual-feasible and every reduced cost only grows
     (u ≥ 0, fewer priced columns), so
       Σ_{j ∈ need} u_j + Σ_i min(0, w_i − u·row_i)   (slack at the root)
     lower-bounds the residual cover cost — an O(|need|) per-node bound. *)
  let node_bound t need =
    let sum = Bitvec.fold_ones (fun acc j -> acc +. t.u.(j)) 0. need in
    sum +. t.slack
end

type stop_reason = Ilp.stop_reason = Complete | Node_limit | Budget of Budget.stop_reason

let stop_reason_name = function
  | Complete -> "complete"
  | Node_limit -> "node-limit"
  | Budget r -> Budget.stop_reason_name r

type result = Ilp.result = {
  selected : int list;
  cost : float;
  optimal : bool;
  nodes_explored : int;
  stop_reason : stop_reason;
  uncovered : int list;
}

let epsilon = 1e-9

(* Wall-clock polls are throttled to once per [budget_stride] nodes: a
   search node costs well under a microsecond, so the deadline is honoured
   within a few milliseconds without a clock read per node. *)
let budget_stride = 4096

let check_weights n_rows w =
  if Array.length w <> n_rows then invalid_arg "Ilp.solve: weight count mismatch";
  Array.iter (fun x -> if x <= 0. then invalid_arg "Ilp.solve: weights must be > 0") w

(* Weighted independent-column bound: columns whose covering-row sets
   are pairwise disjoint need pairwise distinct rows, so the cheapest
   row of each is a valid additive lower bound. *)
let independent_bound m weights =
  let n_rows = Matrix.rows m in
  let min_weight_of_col j =
    Bitvec.fold_ones
      (fun acc i -> Float.min acc weights.(i))
      Float.infinity (Matrix.col m j)
  in
  fun need ->
    let used = Bitvec.create n_rows in
    let lb = ref 0. in
    Bitvec.iter_ones
      (fun j ->
        let cover = Matrix.col m j in
        if not (Bitvec.intersects cover used) then begin
          Bitvec.union_into ~into:used cover;
          lb := !lb +. min_weight_of_col j
        end)
      need;
    !lb

(* ------------------------------------------------------------------ *)
(* Resumable depth-first branch-and-bound.

   The search keeps an explicit stack of pending subproblems instead of
   recursing, so it can stop after a node quantum and resume later with
   the frontier intact — the suspension point the racing portfolio needs.
   A stack frame records the parent's residual need plus the row the
   child subtracts; the child's vector is materialised only when the
   frame is popped, which keeps memory at the recursion's level (one
   live vector per tree level plus the frontier's parent references).

   The pop-order reproduces the historical recursive traversal exactly:
   candidates are pushed in reverse, so the cheapest-first candidate
   order is also the exploration order, and [nodes] counts one increment
   per popped frame — the recursive version's increment-on-entry. *)

type frame = {
  f_need : Bitvec.t; (* parent's residual columns (shared, read-only) *)
  f_sub : int; (* row the child picks, -1 for the root frame *)
  f_chosen : int list; (* parent's picks *)
  f_cost : float; (* parent's cost *)
}

type search = {
  s_matrix : Matrix.t;
  s_weights : float array;
  s_bound : Bitvec.t -> float;
  s_node_limit : int;
  mutable s_stack : frame list;
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

let hybrid_bound m weights ~ub =
  let lag = Lagrangian.optimize ~iters:(lagrangian_iters m) ~ub ~weights m in
  let indep = independent_bound m weights in
  (lag, fun need -> Float.max (indep need) (Lagrangian.node_bound lag need))

let seed_of ?weights m =
  (* The incumbent must optimise the same objective as the search: a
     cardinality-greedy seed on a weighted instance both starts the
     search from the wrong cover and reports the wrong cost when a
     budget expires before any improvement. *)
  let rows = Greedy.solve ?weights m in
  (rows, Greedy.cost ?weights rows)

let start ?weights ?(node_limit = 2_000_000) ?bound ?seed m =
  let n_rows = Matrix.rows m in
  let w =
    match weights with
    | None -> Array.make n_rows 1.0
    | Some w ->
        check_weights n_rows w;
        w
  in
  let seed_rows, seed_cost =
    match seed with Some s -> s | None -> seed_of ?weights m
  in
  let bound =
    match bound with Some b -> b | None -> snd (hybrid_bound m w ~ub:seed_cost)
  in
  let root_need = Bitvec.copy (Matrix.universe m) in
  {
    s_matrix = m;
    s_weights = w;
    s_bound = bound;
    s_node_limit = node_limit;
    s_stack = [ { f_need = root_need; f_sub = -1; f_chosen = []; f_cost = 0. } ];
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
let exhausted s = s.s_stack = [] && s.s_stop = None

let advance ?(quantum = max_int) ?budget s =
  let m = s.s_matrix and weights = s.s_weights in
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
  while s.s_stop = None && s.s_stack <> [] && s.s_nodes < deadline_nodes do
    match s.s_stack with
    | [] -> ()
    | fr :: rest ->
        s.s_stack <- rest;
        s.s_nodes <- s.s_nodes + 1;
        note_budget ();
        if s.s_nodes > s.s_node_limit then s.s_stop <- Some Node_limit
        else if s.s_stop <> None then ()
        else begin
          let need, chosen, cost =
            if fr.f_sub < 0 then (fr.f_need, fr.f_chosen, fr.f_cost)
            else begin
              let need = Bitvec.copy fr.f_need in
              Bitvec.diff_into ~into:need (Matrix.row m fr.f_sub);
              (need, fr.f_sub :: fr.f_chosen, fr.f_cost +. weights.(fr.f_sub))
            end
          in
          if Bitvec.is_empty need then begin
            if cost < s.s_cost -. epsilon then begin
              s.s_incumbents <- s.s_incumbents + 1;
              s.s_cost <- cost;
              s.s_best <- chosen
            end
          end
          else if cost +. s.s_bound need >= s.s_cost -. epsilon then
            s.s_prunes <- s.s_prunes + 1
          else begin
            (* Branch on the hardest column: fewest covering rows. *)
            let pick = ref (-1) and pick_count = ref max_int in
            Bitvec.iter_ones
              (fun j ->
                let cnt = Bitvec.count (Matrix.col m j) in
                if cnt < !pick_count then begin
                  pick := j;
                  pick_count := cnt
                end)
              need;
            let candidates =
              List.sort
                (fun a b ->
                  (* Cheapest first; larger marginal coverage breaks ties. *)
                  let c = Float.compare weights.(a) weights.(b) in
                  if c <> 0 then c
                  else
                    Stdlib.compare
                      (Bitvec.count_inter (Matrix.row m b) need)
                      (Bitvec.count_inter (Matrix.row m a) need))
                (Bitvec.to_list (Matrix.col m !pick))
            in
            (* Reverse push: the cheapest candidate is the next pop. *)
            List.iter
              (fun i ->
                s.s_stack <-
                  { f_need = need; f_sub = i; f_chosen = chosen; f_cost = cost }
                  :: s.s_stack)
              (List.rev candidates)
          end
        end
  done

(* ------------------------------------------------------------------ *)

let solve ?weights ?(node_limit = 2_000_000) ?budget m =
  let n_rows = Matrix.rows m in
  Option.iter (check_weights n_rows) weights;
  let w = match weights with None -> Array.make n_rows 1.0 | Some w -> w in
  (* Columns no row covers are unreachable for any selection.  Solve the
     coverable sub-instance and report the dead columns instead of
     raising: on an unreduced matrix with undetectable faults the exact
     method then degrades exactly like {!Greedy.solve}, which has always
     skipped them. *)
  let uncovered = Matrix.uncoverable m in
  (* Incumbent: greedy upper bound — also the anytime fallback returned
     when the node or wall-clock budget expires before the search ends. *)
  let seed_rows, seed_cost = seed_of ?weights m in
  (* A budget that expired before the search even starts (e.g. the matrix
     build consumed the whole allowance) returns the greedy incumbent
     immediately. *)
  let already_expired =
    match budget with
    | Some b when Budget.expired b -> Budget.stop_reason b
    | _ -> None
  in
  match already_expired with
  | Some r ->
      {
        selected = List.sort compare seed_rows;
        cost = seed_cost;
        optimal = false;
        nodes_explored = 0;
        stop_reason = Budget r;
        uncovered;
      }
  | None ->
      let lag, bound = hybrid_bound m w ~ub:seed_cost in
      if lag.Lagrangian.lb >= seed_cost -. epsilon then begin
        (* The dual bound already meets the greedy seed: optimal without
           opening a single node — the Lagrangian version of the paper's
           "the reduction solved it" fast path. *)
        {
          selected = List.sort compare seed_rows;
          cost = seed_cost;
          optimal = true;
          nodes_explored = 0;
          stop_reason = Complete;
          uncovered;
        }
      end
      else begin
        let s =
          start ?weights ~node_limit ~bound ~seed:(seed_rows, seed_cost) m
        in
        advance ?budget s;
        let selected, cost = best s in
        {
          selected;
          cost;
          optimal = s.s_stop = None;
          nodes_explored = s.s_nodes;
          stop_reason = (match s.s_stop with None -> Complete | Some r -> r);
          uncovered;
        }
      end

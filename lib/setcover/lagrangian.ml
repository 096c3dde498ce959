open Reseed_util

type t = {
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
   is never materialised, so the bound is usable on xl-tier matrices.
   Every sum runs through [sum_at] or a [next_one] loop, in ascending
   column order, so no float is boxed per nonzero. *)
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
      let reduced = weights.(i) -. Bitvec.sum_at r u in
      if reduced < 0. then begin
        slack := !slack +. reduced;
        Bitvec.iter_ones (fun j -> cov.(j) <- cov.(j) + 1) r
      end
    done;
    let lb = Bitvec.sum_at universe u +. !slack in
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
      let j = ref (Bitvec.next_one universe 0) in
      while !j >= 0 do
        let g = 1. -. float_of_int cov.(!j) in
        norm2 := !norm2 +. (g *. g);
        j := Bitvec.next_one universe (!j + 1)
      done;
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
let node_bound t need = Bitvec.sum_at need t.u +. t.slack

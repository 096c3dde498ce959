(** Lagrangian lower bounds for (weighted) set covering.

    Relaxing the covering constraints with multipliers [u ≥ 0] gives
    [L(u) = Σ_j u_j + Σ_i min(0, w_i − u·row_i)], a valid lower bound on
    the optimal cover cost for {e any} feasible [u].  {!optimize} runs a
    few subgradient-ascent iterations (Held–Karp step control) at the
    root of the branch-and-bound; the resulting multipliers then price
    every subproblem through {!node_bound} at O(|need|) per node —
    strictly row-wise, never materialising the column view, so the bound
    scales to the xl tier.

    Used two ways by {!Ilp}: {!Ilp.solve} takes [lb ≥ ub − ε] as an
    optimality proof for its greedy seed without branching, and the
    branch-and-bound prunes with [max(independent-column bound,
    node_bound)], testing [node_bound] first. *)

open Reseed_util

type t = {
  lb : float;  (** the best dual bound reached *)
  u : float array;
      (** multipliers per column (0 outside the coverable universe) *)
  slack : float;  (** Σ_i min(0, w_i − u·row_i) at those multipliers *)
}

(** [optimize ?iters ~ub ~weights m] — [iters] subgradient steps
    (default 25); [ub] is a known upper bound (greedy cost) steering the
    step size.  Deterministic. *)
val optimize : ?iters:int -> ub:float -> weights:float array -> Matrix.t -> t

(** [node_bound t need] is a lower bound on covering exactly the columns
    of [need] — monotone in [need], valid for every subproblem of the
    matrix [t] was optimised on.  It sums [u] over [need] in ascending
    column order with a plain loop, boxing no float per column. *)
val node_bound : t -> Bitvec.t -> float

(** [node_bound_into t need dst k] stores [node_bound t need] in
    [dst.(k)]: the same value, handed over through a flat float array so
    that a search loop in another module receives it without a box. *)
val node_bound_into : t -> Bitvec.t -> float array -> int -> unit

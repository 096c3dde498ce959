(** End-to-end covering solutions over a Detection Matrix:
    reduce → exactly solve the residual → recombine (Section 3.3).

    [solve] is the complete Matrix Reducer + LINGO pipeline of Figure 1:
    the returned rows are the union of the necessary triplets found by
    reduction and the rows chosen by the exact solver on the reduced
    matrix. *)

open Reseed_util

type method_ =
  | Exact  (** reduce, then solve the residual exactly ({!Ilp.solve}) *)
  | Greedy_only
  | No_reduction_exact

(** Every covering method, in CLI order. *)
val methods : method_ list

(** [method_name m] is ["exact"], ["greedy"] or ["noreduce"] — the CLI
    / manifest spelling and a cache-key component. *)
val method_name : method_ -> string

type stats = {
  initial_rows : int;
  initial_cols : int;
  necessary : int list;  (** rows forced by essentiality *)
  reduced_rows : int;  (** residual matrix size after reduction *)
  reduced_cols : int;
  from_solver : int list;  (** rows added by the end-game solver *)
  reduction_iterations : int;
  solver_nodes : int;  (** branch-and-bound nodes *)
  solver_optimal : bool;
  solver_stop : Ilp.stop_reason;  (** why the end-game solver stopped *)
  degraded : bool;
      (** an exact method handed back a possibly-suboptimal (but valid)
          incumbent because a node or wall-clock budget expired — never
          set for [Greedy_only], whose suboptimality is intentional *)
  uncovered : int list;
      (** columns of the {e input} matrix no row covers, ascending —
          undetectable faults every method silently skips; [[]] on a
          feasible instance *)
}

type t = { rows : int list;  (** the final solution N, ascending *) stats : stats }

(** An end-game solver's answer, in rows of the {e input} matrix. *)
type endgame = {
  selected : int list;
  nodes : int;  (** branch-and-bound nodes; 0 for greedy *)
  stop : Ilp.stop_reason;
  optimal : bool;
}

(** Hooks around [solve]'s two expensive legs: each receives its leg as
    a thunk and must return what the thunk would (e.g. a cached copy).
    [endgame] wraps the greedy or exact solve; it is skipped when
    reduction leaves an empty residual. *)
type memo = {
  reduce : (unit -> Reduce.result) -> Reduce.result;
  endgame : (unit -> endgame) -> endgame;
}

(** [solve ?method_ ?reduce_config ?row_weights ?budget ?memo m] —
    [method_] defaults to [Exact].  [Greedy_only] replaces the exact
    end-game with greedy (ablation #2); [No_reduction_exact] skips
    reduction entirely (ablation showing why the paper reduces first).

    [row_weights] switches the objective from cardinality to weighted
    cost (e.g. estimated per-triplet test length); reduction honours the
    weights, the greedy method ignores them.  Passing them on to
    {!Greedy.solve} would be a one-argument change, but weighting the
    greedy end-game by useful cycles made the truncated test longer on
    most table1 circuits (adder TPG, T=150: c432 388 → 458, c880
    623 → 640, s641 603 → 638, s820 694 → 821; c499 unchanged) and
    shorter only on s420 (651 → 636) and s1238 (937 → 852): a cheap
    row per uncovered fault is not a short truncated burst.

    [budget] bounds the end-game: on expiry the solver's best incumbent
    (the greedy cover at worst) is used and the degradation is recorded
    in {!stats} ([degraded], [solver_stop]) instead of pretending
    optimality.  The returned rows are always a valid cover of the
    coverable columns.

    [memo] (default: run every thunk) lets a caller memoise the reduce
    and end-game legs; the result is the same either way, so long as
    the hooks return what their thunks would. *)
val solve :
  ?method_:method_ ->
  ?reduce_config:Reduce.config ->
  ?row_weights:float array ->
  ?budget:Budget.t ->
  ?memo:memo ->
  Matrix.t ->
  t

(** [verify m t] — the solution covers every coverable column. *)
val verify : Matrix.t -> t -> bool

val cardinality : t -> int

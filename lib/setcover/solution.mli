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

(** [solve ?method_ ?reduce_config ?row_weights ?budget m] —
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

    [solve] caches nothing: the reseeding flow and the compression
    workload store its result, with their own extras, as one [cover]
    artifact (see [Flow.cached_cover] in the reseeding library). *)
val solve :
  ?method_:method_ ->
  ?reduce_config:Reduce.config ->
  ?row_weights:float array ->
  ?budget:Budget.t ->
  Matrix.t ->
  t

(** [verify m t] — the solution covers every coverable column. *)
val verify : Matrix.t -> t -> bool

val cardinality : t -> int

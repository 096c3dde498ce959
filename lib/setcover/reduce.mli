(** Detection-matrix reduction (Section 3.2).

    Applies essentiality and dominance to fixpoint:

    - {b essentiality}: a column covered by exactly one active row makes
      that row necessary — it enters the solution, its covered columns
      leave the instance;
    - {b row dominance}: an active row whose (active-column) cover is a
      subset of another active row's is removed;
    - {b column dominance} (optional; classical but not named in the
      paper — see DESIGN.md ablation #1): an active column whose covering
      row set is a superset of another's is implied by it and removed.

    The paper's "the reseeding solution only contains necessary triplets"
    case is exactly [result.remaining_cols = \[\]]. *)

open Reseed_util

type config = {
  row_dominance : bool;
  col_dominance : bool;
  essentials : bool;
  col_dominance_limit : int;
      (** Column dominance is quadratic in active columns; when an
          iteration sees more than this many the pass is skipped for that
          iteration (counted by the [reduce_coldom_skipped] metric and a
          [reduce.col_dominance_skipped] trace instant).  Default 6000. *)
}

val default_config : config

type result = {
  necessary : int list;  (** essential rows, in discovery order *)
  remaining_rows : int list;  (** active rows of the reduced instance *)
  remaining_cols : int list;  (** active columns of the reduced instance *)
  iterations : int;  (** fixpoint sweeps executed *)
  rows_dominated : int;
  cols_dominated : int;
}

(** [run ?config ?row_weights m] reduces the instance.  Columns covered
    by no row at all are dropped up front (they are unreachable for any
    solution and reported by {!Matrix.uncoverable}).

    With [row_weights] (for weighted objectives such as minimum test
    length), row dominance additionally requires the dominating row to be
    no more expensive — the condition under which dropping the dominated
    row preserves the weighted optimum.

    Each call builds a column view (per column, the covering rows as
    packed words: rows × columns bits) and drops it on return; nothing
    is cached on [m]. *)
val run : ?config:config -> ?row_weights:float array -> Matrix.t -> result

(** [residual m result] builds the reduced sub-matrix (remaining rows ×
    remaining columns) together with the maps from its indices back to
    the original ones. *)
val residual : Matrix.t -> result -> Matrix.t * int array * int array

(** [cover_of m rows] is the union of the given rows' columns. *)
val cover_of : Matrix.t -> int list -> Bitvec.t

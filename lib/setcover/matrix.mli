(** The Detection Matrix (Section 3 of the paper).

    A boolean matrix with one row per triplet and one column per fault:
    [d(i,j) = 1] iff some pattern of the test set generated by triplet [i]
    detects fault [j].

    Rows are the only authoritative storage, each a packed {!Bitvec.t}
    over the columns — at 10k x 100k the redundant column-wise copy the
    matrix used to keep would double a multi-hundred-megabyte footprint.
    The column view still exists, but as a one-shot transposed shard
    materialised on the first {!col} and cached; the exact end-game
    reads it on the small reduced matrix.  The reduction ([Reduce.run])
    never calls it: it builds its own column view for the duration of
    one call and drops it on return.  The union of all rows (the
    coverable universe) and the total ones count are maintained
    incrementally instead of being recomputed per query. *)

open Reseed_util

type t

val create : rows:int -> cols:int -> t

(** [of_rows ~cols rows] adopts the row bitvectors (each of length
    [cols]) without copying: the matrix owns them from then on, so the
    caller must not touch them afterwards, and no two rows may share a
    vector. *)
val of_rows : cols:int -> Bitvec.t array -> t

val rows : t -> int
val cols : t -> int

(** [set m ~row ~col] sets one cell.  Only meaningful for matrices built
    with {!create} (test rigs). *)
val set : t -> row:int -> col:int -> unit

val get : t -> row:int -> col:int -> bool

(** [row m i] is row [i]'s backing vector itself, without allocating;
    callers must not mutate it. *)
val row : t -> int -> Bitvec.t

(** [col m j] exposes the internal column bitvector of the transposed
    shard, materialising the whole shard on first use; callers must not
    mutate it. *)
val col : t -> int -> Bitvec.t

(** [universe m] is the union of all rows — the columns at least one row
    covers.  Maintained at construction and by {!set}; callers must not
    mutate it. *)
val universe : t -> Bitvec.t

(** [ones m] is the total number of set cells — O(1), maintained
    incrementally. *)
val ones : t -> int

(** [density m] is [ones / (rows * cols)]. *)
val density : t -> float

(** [covers m ~rows_subset] — true iff the union of the given rows covers
    every column that is covered by at least one row of the full matrix. *)
val covers : t -> rows_subset:int list -> bool

(** [uncoverable m] lists columns no row covers (should be empty when the
    initial reseeding is built from a complete ATPG test set). *)
val uncoverable : t -> int list

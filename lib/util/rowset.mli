(** One detection-matrix row behind two storage representations.

    A row over [n] columns is stored either as a packed {!Bitvec.t}
    ([Dense]) or as a sorted int array of set columns ([Sparse]).
    {!of_bitvec} picks the representation by density: rows at or below
    the cutover of one set bit per 64 columns go sparse, denser rows
    dense.  The cardinality is cached at construction, so {!count} is
    O(1) for both representations.

    Tests pin the choice with {!set_force} to check that both
    representations give identical results. *)

type t

type repr = Dense | Sparse

val repr : t -> repr

(** [of_bitvec v] compacts [v] into the representation the policy picks
    for its length and cardinality ([Sparse] iff [count <= length / 64]),
    or the one {!set_force} pinned.  [v] is copied; the result never
    aliases it. *)
val of_bitvec : Bitvec.t -> t

(** [dense_of_bitvec v] wraps [v] as a dense row {e sharing} [v]'s
    storage — the caller transfers ownership.  Used by the mutable
    [Matrix.create]/[set] path. *)
val dense_of_bitvec : Bitvec.t -> t

(** [of_sorted_array n idx] is the sparse row over [n] columns with
    exactly the set bits [idx], which must be strictly increasing and in
    range.  The array is not copied. *)
val of_sorted_array : int -> int array -> t

val length : t -> int

(** [count r] is the number of set columns — O(1), cached. *)
val count : t -> int

val density : t -> float
val mem : t -> int -> bool
val iter_ones : (int -> unit) -> t -> unit
val fold_ones : ('a -> int -> 'a) -> 'a -> t -> 'a

(** [sum_at r a] is {!Bitvec.sum_at} over the set columns of [r]:
    ascending order, no allocation. *)
val sum_at : t -> float array -> float

(** [to_list r] is the ascending list of set columns. *)
val to_list : t -> int list

(** [to_bitvec r] is a dense view of [r].  For a [Dense] row this is the
    backing vector itself (do not mutate); otherwise a fresh copy. *)
val to_bitvec : t -> Bitvec.t

(** [add r i] is [r] with column [i] set.  A [Dense] row is mutated in
    place and returned; a [Sparse] row is converted to [Dense] first.
    Only the small mutable-matrix path uses this. *)
val add : t -> int -> t

(** [union_into ~into r] ors [r] into the dense accumulator. *)
val union_into : into:Bitvec.t -> t -> unit

(** [diff_into ~into r] clears [into]'s bits that are set in [r]. *)
val diff_into : into:Bitvec.t -> t -> unit

(** [count_inter r v] is [|r ∩ v|] without allocating. *)
val count_inter : t -> Bitvec.t -> int

(** [intersects r v] is [true] iff [r ∩ v] is non-empty. *)
val intersects : t -> Bitvec.t -> bool

(** [subset_masked a b ~mask] is [a ∩ mask ⊆ b ∩ mask], across any
    representation pair. *)
val subset_masked : t -> t -> mask:Bitvec.t -> bool

(** [equal a b] — same length and same set of columns (representations
    may differ). *)
val equal : t -> t -> bool

(** [set_force (Some r)] pins every subsequent {!of_bitvec} to
    representation [r]; [set_force None] (the initial state) restores
    the automatic policy. *)
val set_force : repr option -> unit

val forced : unit -> repr option

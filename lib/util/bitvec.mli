(** Fixed-length bit vectors packed into native integers.

    Used throughout the library for fault sets, detection-matrix rows and
    simulation pattern blocks.  All operations that combine two vectors
    require them to have the same length. *)

type t

(** Number of payload bits per backing word (62: the usable bits of a native
    OCaml [int] minus the sign bit). *)
val bits_per_word : int

(** [create n] is an all-zero vector of length [n].  [n >= 0]. *)
val create : int -> t

(** [length v] is the number of bits in [v]. *)
val length : t -> int

(** [copy v] is a fresh vector equal to [v]. *)
val copy : t -> t

(** [blit ~src ~dst] overwrites [dst] with the bits of [src], without
    allocating.  Both must have the same length. *)
val blit : src:t -> dst:t -> unit

(** [get v i] is bit [i].  Raises [Invalid_argument] when out of range. *)
val get : t -> int -> bool

(** [set v i] sets bit [i] to one. *)
val set : t -> int -> unit

(** [clear v i] sets bit [i] to zero. *)
val clear : t -> int -> unit

(** [assign v i b] sets bit [i] to [b]. *)
val assign : t -> int -> bool -> unit

(** [fill_all v] sets every bit of [v] to one. *)
val fill_all : t -> unit

(** [zero_all v] sets every bit of [v] to zero. *)
val zero_all : t -> unit

(** [count v] is the number of one bits (population count). *)
val count : t -> int

(** [is_empty v] is [true] iff no bit is set. *)
val is_empty : t -> bool

(** [equal a b] is [true] iff [a] and [b] have the same length and bits. *)
val equal : t -> t -> bool

(** [compare] is a total order compatible with [equal]. *)
val compare : t -> t -> int

(** [union_into ~into src] ors [src] into [into]. *)
val union_into : into:t -> t -> unit

(** [inter_into ~into src] ands [src] into [into]. *)
val inter_into : into:t -> t -> unit

(** [diff_into ~into src] removes from [into] every bit set in [src]. *)
val diff_into : into:t -> t -> unit

(** [union a b] is a fresh vector [a ∪ b]. *)
val union : t -> t -> t

(** [inter a b] is a fresh vector [a ∩ b]. *)
val inter : t -> t -> t

(** [diff a b] is a fresh vector [a \ b]. *)
val diff : t -> t -> t

(** [subset a b] is [true] iff every bit of [a] is also set in [b]. *)
val subset : t -> t -> bool

(** [subset_masked a b ~mask] is [subset (inter a mask) (inter b mask)]
    without allocating. *)
val subset_masked : t -> t -> mask:t -> bool

(** [intersects a b] is [true] iff [a ∩ b] is non-empty. *)
val intersects : t -> t -> bool

(** [count_inter a b] is [count (inter a b)] without allocating. *)
val count_inter : t -> t -> int

(** [count_diff a b] is [count (diff a b)] without allocating. *)
val count_diff : t -> t -> int

(** [iter_ones f v] applies [f] to the index of every set bit, ascending,
    in O(1) per set bit.  Each backing word is read once, before its
    bits are visited: bits [f] clears in a word not yet reached are
    skipped, bits it clears later in the current word are not. *)
val iter_ones : (int -> unit) -> t -> unit

(** [fold_ones f acc v] folds [f] over set-bit indices, ascending. *)
val fold_ones : ('a -> int -> 'a) -> 'a -> t -> 'a

(** [sum_at v a] is the sum of [a.(i)] over the set bits [i] of [v],
    added in ascending order of [i], allocating nothing but the boxed
    result. *)
val sum_at : t -> float array -> float

(** [sum_at_into v a dst k] stores [sum_at v a] in [dst.(k)], allocating
    nothing: for per-node bounds in a search loop. *)
val sum_at_into : t -> float array -> float array -> int -> unit

(** [next_one v i] is the lowest set-bit index [>= i], or [-1] when there
    is none.  A loop [next_one v 0], [next_one v (j + 1)], ... visits the
    set bits in ascending order without a closure or any allocation. *)
val next_one : t -> int -> int

(** [first_one v] is the lowest set-bit index, or [None]. *)
val first_one : t -> int option

(** [hash_masked v ~mask] hashes [inter v mask] word by word, without
    allocating: vectors with the same bits inside [mask] hash equal. *)
val hash_masked : t -> mask:t -> int

(** [of_list n l] is a vector of length [n] with exactly the bits in [l]. *)
val of_list : int -> int list -> t

(** [to_list v] is the ascending list of set-bit indices. *)
val to_list : t -> int list

(** [to_bytes v] is a compact little-endian byte serialisation (8 bits
    per byte, [ceil (length / 8)] bytes); platform- and version-stable,
    used by the artifact codec and {!Fingerprint.bitvec}.  It and the
    decoders below move a whole byte per step, not a bit. *)
val to_bytes : t -> bytes

(** [of_bytes n b] rebuilds a vector of length [n] from {!to_bytes}
    output.  Raises [Invalid_argument] on a size mismatch or when padding
    bits beyond [n] are set. *)
val of_bytes : int -> bytes -> t

(** [of_substring n s pos] is [of_bytes n] applied to the [ceil (n / 8)]
    bytes of [s] starting at [pos], read in place without a copy.
    Raises [Invalid_argument] when those bytes run past the end of [s]
    or when padding bits beyond [n] are set. *)
val of_substring : int -> string -> int -> t

(** [pp] prints as a ["{1,5,9}"]-style set, for debugging. *)
val pp : Format.formatter -> t -> unit

(** [popcount_int x] is the number of set bits in the native int [x],
    counting all 63 payload bits.  Exposed for the simulator. *)
val popcount_int : int -> int

(** [unsafe_get v i] / [unsafe_set v i] are {!get} / {!set} without the
    range check.  Only for hot inner loops whose indices are already
    proven in range; out-of-range indices are undefined behaviour. *)
val unsafe_get : t -> int -> bool

val unsafe_set : t -> int -> unit

(** Arbitrary-width machine words with modular arithmetic.

    A [Word.t] models the contents of an [n]-bit hardware register
    (accumulator state, operand register, LFSR state).  All arithmetic is
    performed modulo [2^n], exactly as the corresponding datapath would.
    Values are immutable. *)

type t

(** [width w] is the register width in bits (>= 1). *)
val width : t -> int

(** [zero n] is the [n]-bit word 0. *)
val zero : int -> t

(** [one n] is the [n]-bit word 1. *)
val one : int -> t

(** [ones n] is the [n]-bit word with every bit set ([2^n - 1]). *)
val ones : int -> t

(** [of_int n x] is the [n]-bit word holding [x mod 2^n].  [x >= 0]. *)
val of_int : int -> int -> t

(** [to_int w] is the value of [w] if it fits in a native int. *)
val to_int : t -> int option

(** [get_bit w i] is bit [i] of [w] (bit 0 is least significant). *)
val get_bit : t -> int -> bool

(** [set_bit w i b] is [w] with bit [i] replaced by [b]. *)
val set_bit : t -> int -> bool -> t

(** [limb_bits] is the number of bits per limb: a word is stored as
    little-endian limbs, bit [i] being bit [i mod limb_bits] of limb
    [i / limb_bits]. *)
val limb_bits : int

(** [limb w k] is limb [k] of [w]: bits [k * limb_bits] and up, as a
    native int of [limb_bits] bits, zero above the width.  [k] must be
    below [ceil (width w / limb_bits)].  This is the fast path by which
    the simulators read a pattern word without expanding it bit by bit. *)
val limb : t -> int -> int

(** [of_bits bits] packs [bits.(0)] as the least-significant bit. *)
val of_bits : bool array -> t

(** [to_bits w] is the LSB-first bit image of [w]. *)
val to_bits : t -> bool array

(** [add a b] is [(a + b) mod 2^n]. *)
val add : t -> t -> t

(** [sub a b] is [(a - b) mod 2^n]. *)
val sub : t -> t -> t

(** [neg a] is [(- a) mod 2^n]. *)
val neg : t -> t

(** [mul a b] is [(a * b) mod 2^n]. *)
val mul : t -> t -> t

(** [logxor a b], [logand a b], [logor a b] are bitwise operations. *)
val logxor : t -> t -> t

val logand : t -> t -> t
val logor : t -> t -> t

(** [lognot a] flips every bit of [a]. *)
val lognot : t -> t

(** [shift_left a k] shifts in zeros at the LSB end, dropping overflow. *)
val shift_left : t -> int -> t

(** [shift_right a k] is a logical right shift. *)
val shift_right : t -> int -> t

(** [equal a b] requires equal widths. *)
val equal : t -> t -> bool

(** [compare] orders by width, then unsigned value. *)
val compare : t -> t -> int

val is_zero : t -> bool

(** [popcount w] is the number of set bits. *)
val popcount : t -> int

(** [random rng n] is a uniformly random [n]-bit word drawn from [rng]. *)
val random : Rng.t -> int -> t

(** [to_hex w] renders most-significant digit first, e.g. ["0x01af"]. *)
val to_hex : t -> string

val pp : Format.formatter -> t -> unit

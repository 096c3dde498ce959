(** Reseeding triplets [(δ, σ, T)].

    One triplet fully determines one TPG burst: seed the state register
    with [δ], hold the operand register at [σ], clock for [cycles] = [T].
    A reseeding solution is a list of triplets applied back to back
    (Section 2 of the paper). *)

open Reseed_util

type t = { seed : Word.t; operand : Word.t; cycles : int }

(** [make ~seed ~operand ~cycles] checks widths match and [cycles >= 1]. *)
val make : seed:Word.t -> operand:Word.t -> cycles:int -> t

(** [patterns tpg t] is the burst emitted by [tpg] under triplet [t]:
    its [t.cycles] state words, seed first ({!Tpg.run}).  The fault
    simulator grades them as they are — step 3 of the paper fault-simulates
    exactly these words. *)
val patterns : Tpg.t -> t -> Word.t array

(** [truncate t cycles] shortens the burst (["deleting the last
    subsequence of patterns not contributing to the fault coverage"],
    Section 4).  [cycles] must be in [\[1, t.cycles\]]. *)
val truncate : t -> int -> t

(** [storage_bits t] is the ROM cost of the triplet: |δ| + |σ| plus the
    ceil(log2 T) bits (at least one) of the cycle counter. *)
val storage_bits : t -> int

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** Test pattern generators (TPGs) for Functional BIST.

    A TPG is an existing system module reused as a pattern source: it has
    an [n]-bit state register and an [n]-bit input (operand) register.  A
    {!Triplet.t} [(δ, σ, T)] seeds the state with [δ], holds the operand
    at [σ], and clocks the module [T] times; the successive state words
    are the test patterns (one per cycle, the seed itself being the first
    output — pattern [p_j] appears at cycle [t_j], [0 <= j < T]).

    The paper evaluates three accumulator-based TPGs (adder, multiplier,
    subtracter); an LFSR model is included to show the approach is not
    tied to arithmetic modules. *)

open Reseed_util

type t = {
  name : string;
  width : int;
  step : state:Word.t -> operand:Word.t -> Word.t;
      (** one clock cycle: next state from current state and operand *)
  fix_operand : Word.t -> Word.t;
      (** canonicalise a candidate operand before use — e.g. a multiplier
          accumulator forces σ odd, since an even multiplier collapses the
          orbit onto multiples of growing powers of two.  Identity for
          most TPGs. *)
}

(** [make ~name ~width ?fix_operand step] wraps a next-state function.
    [fix_operand] defaults to the identity. *)
val make :
  name:string ->
  width:int ->
  ?fix_operand:(Word.t -> Word.t) ->
  (state:Word.t -> operand:Word.t -> Word.t) ->
  t

(** [run tpg ~seed ~operand ~cycles] is the emitted pattern sequence,
    [cycles] words starting with [seed].  Width of [seed] and [operand]
    must equal [tpg.width].  The words are the patterns themselves: bit
    [i] drives primary input [i], and the fault simulator packs them
    as they are. *)
val run : t -> seed:Word.t -> operand:Word.t -> cycles:int -> Word.t array

(** [period tpg ~seed ~operand ~limit] is the number of steps until the
    state first revisits a previous value, or [None] if no repeat occurs
    within [limit] steps. *)
val period : t -> seed:Word.t -> operand:Word.t -> limit:int -> int option

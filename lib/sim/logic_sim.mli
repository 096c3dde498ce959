(** Bit-parallel good-machine logic simulation.

    Patterns are simulated 62 at a time: every node's value for a block of
    patterns is one native [int] whose bit [k] is the node's value under
    pattern [k].  The topological node order guaranteed by
    {!Reseed_netlist.Circuit} makes simulation a single forward loop. *)

open Reseed_netlist

(** Number of patterns per simulation block. *)
val block_width : int

(** A block of up to [block_width] input patterns, packed by input. *)
type block = private {
  width : int;  (** number of valid patterns, 1..62 *)
  per_input : int array;  (** one word per primary input *)
}

(** [pack c ?pos ?len words] packs the [len] patterns [words.(pos ..
    pos + len - 1)] ([pos] defaults to 0, [len] to the rest of the array;
    [len] in 1..62) into a block: input [i] of pattern [k] is bit [i] of
    word [pos + k], whose width must be [input_count c].  Each 30-bit
    {!Reseed_util.Word} limb is moved with 32x32 bit-matrix transposes,
    two per limb per block, not bit by bit. *)
val pack : Circuit.t -> ?pos:int -> ?len:int -> Reseed_util.Word.t array -> block

(** [simulate c block] returns the value word of every node. *)
val simulate : Circuit.t -> block -> int array

(** [simulate_into c block values] is {!simulate} writing into [values]
    (length [node_count c]), so a caller that simulates block after block
    reuses one array.  Every entry is overwritten. *)
val simulate_into : Circuit.t -> block -> int array -> unit

(** [outputs c values] extracts PO words from a node-value array. *)
val outputs : Circuit.t -> int array -> int array

(** [simulate_bool c pattern] is the single-pattern reference semantics;
    returns all node values.  Used as the oracle in tests. *)
val simulate_bool : Circuit.t -> bool array -> bool array

(** [output_response c pattern] is the PO vector for one pattern. *)
val output_response : Circuit.t -> bool array -> bool array

(** [valid_mask width] is the word with the low [width] bits set. *)
val valid_mask : int -> int

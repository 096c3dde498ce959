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

(** [pack c patterns] packs up to 62 patterns (each a [bool array] of
    length [input_count c], PI order) into a block. *)
val pack : Circuit.t -> bool array array -> block

(** [pack_all c patterns] splits an arbitrary pattern list into blocks. *)
val pack_all : Circuit.t -> bool array array -> block list

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

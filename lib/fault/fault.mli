(** Single stuck-at fault model.

    Faults live on gate output stems ([Out]) and on gate input pins whose
    driving stem has fanout greater than one ([Pin] — fanout-branch
    faults; for fanout-free stems the branch fault is equivalent to the
    stem fault and is never enumerated). *)

open Reseed_netlist

type site =
  | Out of int  (** output stem of the node with this index *)
  | Pin of { gate : int; pin : int }  (** fanout branch into [gate]'s pin *)

type t = { site : site; stuck : bool  (** [false] = s-a-0, [true] = s-a-1 *) }

(** [site_node f] is the node whose output function the fault perturbs:
    the stem node for [Out], the consuming gate for [Pin]. *)
val site_node : t -> int

(** [universe c] enumerates the full (uncollapsed) fault list, in a
    deterministic order: node by node, s-a-0 before s-a-1. *)
val universe : Circuit.t -> t array

(** [all c] is the equivalence-collapsed [universe c] — the target fault
    list [F].  It removes structurally equivalent faults, keeping a
    canonical representative per class (gate-output side):
    - AND/NAND input s-a-0 ≡ output s-a-0/1; OR/NOR input s-a-1 likewise;
    - BUF/NOT input faults fold into output faults;
    - fanout-free branch faults never appear (see [universe]). *)
val all : Circuit.t -> t array

val equal : t -> t -> bool
val compare : t -> t -> int

(** [to_string c f] renders e.g. ["G10/SA0"] or ["G7->G10.2/SA1"]. *)
val to_string : Circuit.t -> t -> string

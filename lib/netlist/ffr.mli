(** Fanout-free region (FFR) decomposition.

    A *stem* is any node whose value is observed at more than one place —
    several fanout edges (including two pins of the same gate), or a
    primary output — or at none at all (dead logic).  Every other node has
    exactly one fanout edge, so the set of nodes funnelling into a given
    stem forms a fanout-free region: all paths from an FFR-internal node
    to any primary output pass through the region's stem, single-file.

    This is the static backbone of critical-path-tracing fault
    simulation: inside an FFR, fault effects propagate along a unique
    path, so per-pattern detectability follows from good-machine values
    alone; only stems need genuine propagation analysis. *)

type t

(** [compute c] runs the whole analysis in one reverse pass over the
    circuit, linear in edges. *)
val compute : Circuit.t -> t

(** [is_stem t i] — [i] bounds a fanout-free region (fanout edge count
    differs from one, or [i] drives a primary output). *)
val is_stem : t -> int -> bool

(** [reaches_po t i] — some path from [i] reaches a primary output
    ([i] itself counts when it is one). *)
val reaches_po : t -> int -> bool

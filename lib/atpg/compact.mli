(** Reverse-order static test-set compaction.

    Patterns are fault-simulated in reverse generation order with fault
    dropping; a pattern that detects no still-active fault is discarded.
    Because deterministic ATPG appends the hardest faults' tests last,
    reverse order lets late, highly-specific patterns subsume the early
    broad ones (Pomeranz & Reddy's classic observation cited as [15] in
    the paper).

    The patterns are graded one at a time, so this is a single-pattern
    (stuck-at) compaction: under the transition model, reversing the
    set would pair every capture pattern with a different launch
    pattern, and {!Atpg.run} does not compact there. *)

open Reseed_fault

(** [reverse_order sim tests] returns the kept patterns, preserving their
    relative order, and the number dropped: pattern [p] is kept iff some
    fault's first detection over the reversed set is [p].  One
    fault-dropping sweep ({!Fault_sim.first_detections}) over the
    reversed set; coverage over the simulator's fault list is exactly
    preserved. *)
val reverse_order : Fault_sim.t -> bool array array -> bool array array * int

(** PODEM — path-oriented decision making deterministic test generation.

    Classic Goel-style PODEM: decisions are made only on primary inputs,
    objectives are derived from fault activation and the D-frontier, and a
    backtrace maps each objective to a PI assignment.  The search is
    complete, so exhausting it proves the fault untestable (redundant);
    a backtrack budget bounds worst-case behaviour. *)

open Reseed_netlist
open Reseed_fault
open Reseed_util

type outcome =
  | Test of bool array
      (** a fully-specified test pattern (don't-cares filled from the RNG) *)
  | Untestable  (** complete search exhausted: the fault is redundant *)
  | Aborted  (** backtrack budget exceeded *)

type stats = { mutable backtracks : int; mutable decisions : int }

val new_stats : unit -> stats

(** [generate c fault ~rng ?max_backtracks ?budget ?testability ?stats ()]
    attempts to derive a test for [fault].  The search aborts once
    [stats.backtracks] exceeds [max_backtracks] (default 2000).  That is
    [stats]' running total, not this call's count: with a fresh [stats]
    (the default) the limit is per call, but a record shared across calls
    (as {!Atpg.run} shares one) makes it a limit for all of them together,
    so once it is spent every later call aborts at once.  ROADMAP's
    "Complete ATPG" item tracks the fix.  An expired [budget] aborts the
    fault at the next decision, like a blown backtrack limit.  Pass a
    precomputed [testability] when generating for many faults of the same
    circuit (it guides branch ordering; recomputed per call otherwise).

    Each call records a [podem.generate] trace span whose args give the
    call's [decisions], [backtracks] and [outcome], and adds the node
    values its implications changed to the [podem_implications] metric. *)
val generate :
  Circuit.t ->
  Fault.t ->
  rng:Rng.t ->
  ?max_backtracks:int ->
  ?budget:Budget.t ->
  ?testability:Testability.t ->
  ?stats:stats ->
  unit ->
  outcome

(** Complete deterministic test-generation flow (the *TestGen* substitute).

    Pipeline: random-pattern phase with fault dropping → PODEM on every
    surviving fault (dropping collateral detections after each new test) →
    reverse-order static compaction.  The settings are fixed: RNG seed
    42 (random phase and don't-care fill), at most 10,000 random
    patterns, and a PODEM backtrack limit of 2,000 for the whole run, not
    per fault — every fault's search draws on one shared [podem_stats]
    record, so once the run's total exceeds it every later PODEM target
    aborts (see {!Podem.generate}).  The result is the deterministic test
    set [ATPGTS] the paper feeds to the Initial Reseeding Builder, plus
    the classification of every fault. *)

open Reseed_netlist
open Reseed_fault
open Reseed_util

type engine =
  | Podem_engine  (** structural PODEM (default) *)
  | Sat_engine  (** SAT-based generation (Larrabee); same completeness *)

(** Every engine, in CLI order. *)
val engines : engine list

(** [engine_name e] is ["podem"] or ["sat"] — the CLI spelling and an
    ATPG-stage key component. *)
val engine_name : engine -> string

(** [fingerprint h engine] folds the flow's fixed settings and
    [engine] into [h]: the ATPG-stage part of an artifact key. *)
val fingerprint : Fingerprint.t -> engine -> Fingerprint.t

type result = {
  tests : bool array array;  (** the deterministic test set, ATPGTS *)
  detected : Bitvec.t;  (** over the fault list, after the whole flow *)
  untestable : int list;  (** fault indices proven redundant *)
  aborted : int list;  (** fault indices abandoned (budget) *)
  random_patterns_tried : int;
  podem_stats : Podem.stats;
  dropped_by_compaction : int;
  stopped_early : bool;
      (** the [budget] expired mid-flow: surviving faults were classified
          [aborted] and compaction was skipped; [tests] is still sound *)
}

(** [fault_coverage sim r] is FC% over the detectable faults
    (testable-fault coverage, the figure the paper reports). *)
val fault_coverage : Fault_sim.t -> result -> float

(** [run ?engine ?budget sim] generates tests for every fault of [sim]'s
    list with the deterministic [engine] (default [Podem_engine]); an
    expired [budget] aborts the remaining faults (see [stopped_early]).

    When [sim] was created with {!Fault_model.Transition_delay}, only the
    random phase runs: its kept patterns preserve launch/capture
    adjacency (the launch predecessor of every first-detecting pattern is
    kept with it), while the single-pattern deterministic engines and
    reverse-order compaction — both of which would break pair adjacency —
    are skipped, with surviving faults classified [aborted]. *)
val run : ?engine:engine -> ?budget:Budget.t -> Fault_sim.t -> result

(** [run_circuit ?engine ?fault_model ?budget c] builds the
    [fault_model]'s own fault list ({!Fault_model.faults} —
    equivalence-collapsed for stuck-at, uncollapsed for transition;
    [fault_model] defaults to {!Fault_model.Stuck_at}) and a simulator
    over it, then runs the flow; returns the simulator too.  For another
    fault list, build the simulator and call {!run}. *)
val run_circuit :
  ?engine:engine ->
  ?fault_model:Fault_model.t ->
  ?budget:Budget.t ->
  Circuit.t ->
  Fault_sim.t * result

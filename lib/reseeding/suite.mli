(** Prepared workloads, and the Figure 2 sweep over one.

    Every [reseed] command prepares its workload here.  A {!prepared}
    workload bundles everything that is TPG-independent (circuit, fault
    list, ATPG test set), so one preparation serves every TPG and every
    evolution length run on it, exactly like the paper's evaluation.
    The paper's tables are built by [bench/main.exe] from {!Flow.run}
    results on these workloads. *)

open Reseed_atpg
open Reseed_fault
open Reseed_netlist
open Reseed_tpg
open Reseed_util

type prepared = {
  circuit : Circuit.t;
  sim : Fault_sim.t;
  tests : bool array array;  (** ATPGTS *)
  targets : Bitvec.t;  (** fault list F := faults ATPGTS covers *)
  atpg : Atpg.result;
  fault_model : Fault_model.t;
      (** the detection semantics the workload was prepared under; [sim]
          was created with the same model *)
  fingerprint : Fingerprint.t;
      (** the ATPG-stage fingerprint — netlist, ATPG settings and fault
          model.  Lineage salt for every downstream stage key of this
          workload. *)
  store : Artifact.store option;
      (** the artifact store the workload was prepared against; threaded
          to every flow run on this workload *)
}

(** [circuit_fingerprint c] hashes the netlist structurally — every
    node's kind, fanins and label, plus the PI/PO lists — so editing a
    circuit (not merely renaming it) changes the fingerprint.  Exposed
    for cache-invalidation tests. *)
val circuit_fingerprint : Circuit.t -> Fingerprint.t

(** [prepare ?scale_factor ?fault_model ?budget ?store name] loads a
    catalog circuit and runs the ATPG front-end once.
    [fault_model] (default {!Fault_model.Stuck_at}) fixes the detection
    semantics of the whole workload — fault list
    ({!Fault_model.faults}: {!Fault.all} under stuck-at), ATPG phases,
    every downstream sweep — and is folded into the [fingerprint], so
    artifacts never cross models.
    [budget] bounds the ATPG front-end (see {!Atpg.run}): on expiry the
    test set is partial but sound, and [targets] shrinks accordingly.

    [store] memoises the ATPG stage: a warm prepare skips test
    generation entirely and decodes the stored result, keyed by the
    [fingerprint] described on {!prepared}.  Budget-cut (partial) ATPG
    results are never persisted. *)
val prepare :
  ?scale_factor:int ->
  ?fault_model:Fault_model.t ->
  ?budget:Budget.t ->
  ?store:Artifact.store ->
  string ->
  prepared

(** [prepare_circuit ?fault_model ?budget ?store c] — same, for an
    arbitrary circuit. *)
val prepare_circuit :
  ?fault_model:Fault_model.t ->
  ?budget:Budget.t ->
  ?store:Artifact.store ->
  Circuit.t ->
  prepared

(** [figure2 ~grid ?pool p tpg] is the Figure 2 sweep for one TPG over
    the evolution lengths [grid], on [pool] (default:
    {!Reseed_util.Pool.default}). *)
val figure2 :
  grid:int list -> ?pool:Pool.t -> prepared -> Tpg.t -> Tradeoff.point list

(** Reseedings vs. test length trade-off (Figure 2).

    Re-runs the full covering flow for a grid of evolution lengths [T]:
    longer bursts let single triplets cover more faults, shrinking the
    solution at the price of a longer global test — the paper's s1238
    series goes from 11 triplets / 5 427 patterns to 2 triplets / 15 551
    patterns. *)

open Reseed_fault
open Reseed_tpg
open Reseed_util

type point = {
  cycles : int;  (** the swept evolution length T *)
  triplets : int;  (** reseedings in the minimal solution *)
  test_length : int;  (** truncated global test length *)
}

(** [sweep ?pool ?store ?fingerprint sim tpg ~tests ~targets ~grid]
    computes one point per grid entry (ascending), each with
    {!Flow.default_config} at that evolution length.

    A T-cycle burst is a prefix of the 2T-cycle burst from the same
    triplet, so the sweep fault-simulates each row {e once} at
    [max grid] (through {!Builder.simulate_rows}), records every fault's
    first-detection index, and derives each point's detection matrix by
    thresholding ({!Builder.threshold}) — identical, bit for bit, to
    running the full flow per point, at a fraction of the injections.
    Every point's matrix is resolved first; the points then run the
    covering half in parallel over [pool] (default: {!Pool.default}) on
    per-worker simulator shards; the series is bit-identical at every job
    count.

    [store] caches each point's detection matrix (stage [matrix]) and
    its covering stages under the keys a standalone run at the same
    evolution length uses, chained off [fingerprint] (the upstream ATPG
    lineage): a sweep and [reseed solve --cycles T] share every artifact.
    The first-detection table is simulated only when some point's matrix
    misses the store, and at most once per sweep. *)
val sweep :
  ?pool:Pool.t ->
  ?store:Artifact.store ->
  ?fingerprint:Fingerprint.t ->
  Fault_sim.t ->
  Tpg.t ->
  tests:bool array array ->
  targets:Bitvec.t ->
  grid:int list ->
  point list

(** [render points] draws the trade-off as a small ASCII chart plus the
    numeric series, in the spirit of Figure 2. *)
val render : point list -> string

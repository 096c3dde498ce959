(** Initial Reseeding Builder (Section 3.1 / Figure 1).

    From a deterministic ATPG test set [ATPGTS = p_0 … p_{M-1}], build the
    initial reseeding [T] — one triplet per pattern, [δ_i = p_i], [σ_i]
    random (or shared), evolution length fixed — and fill the Detection
    Matrix by fault-simulating every burst against the target fault list.

    Because a TPG burst emits its seed as the first pattern, triplet [i]
    detects at least the faults [p_i] detects, so [T] covers the whole
    target list by construction. *)

open Reseed_fault
open Reseed_setcover
open Reseed_tpg
open Reseed_util

type operand_mode =
  | Random_operand  (** a fresh random σ per triplet (the paper's choice) *)
  | Shared_operand of Word.t  (** one σ for every triplet (ablation #4) *)

type config = {
  cycles : int;  (** evolution length T, "experimentally tuned" *)
  operand_mode : operand_mode;
  seed : int;  (** RNG seed for the random operands *)
}

val default_config : config

(** [operand_tag mode] is a stable textual tag of the operand mode, used
    as a fingerprint key component. *)
val operand_tag : operand_mode -> string

type t = {
  triplets : Triplet.t array;  (** the initial reseeding T, ATPGTS order *)
  matrix : Matrix.t;  (** rows: triplets; cols: the full fault list *)
  targets : Bitvec.t;  (** columns that must be covered (the list F) *)
  useful_cycles : int array;
      (** per triplet: 1 + index of the last burst pattern that detects a
          target fault no earlier pattern of the same burst caught — an
          upper estimate of the triplet's effective test length, used as
          the row weight by the minimum-test-length objective *)
  fault_sims : int;  (** injections spent building the matrix *)
  rows_skipped : int;
      (** rows abandoned empty because the [budget] expired; their
          triplet detects nothing in the matrix, so the covering step
          sees an honestly smaller instance *)
  rows_restored : int;
      (** rows loaded from shard artifacts in the [store] instead of
          being re-simulated *)
}

(** [make_triplets ~config tpg tests] is the initial reseeding [T] alone:
    one triplet per ATPG pattern, operands drawn from the seeded RNG
    stream (a fixed function of [config.seed], independent of everything
    else).  [build] uses exactly this construction; it is exposed so a
    warm cache hit — and the trade-off sweep — can rebuild triplets
    without touching a fault simulator. *)
val make_triplets : config:config -> Tpg.t -> bool array array -> Triplet.t array

(** [fingerprint ?salt ?fault_model ~tests ~targets tpg ~config] keys the
    [matrix] stage: the ATPG patterns, target mask, TPG identity and
    width, and the builder config (cycles, operand mode, seed).  [salt]
    folds in the upstream lineage — the ATPG-stage fingerprint — so
    changing how the tests were produced (ATPG config, fault model)
    misses the cache even when the patterns happen to coincide.
    [fault_model] (default {!Fault_model.Stuck_at}) salts the key with
    the detection semantics the rows were simulated under, so a stuck-at
    matrix can never satisfy a transition-delay request. *)
val fingerprint :
  ?salt:Fingerprint.t ->
  ?fault_model:Fault_model.t ->
  tests:bool array array -> targets:Bitvec.t -> Tpg.t -> config:config -> Fingerprint.t

(** [simulate_rows ?budget ~pool shards tpg triplets ~targets ~lo ~hi
    ~found commit] is the one detection-matrix row loop: one
    {!Pool.parallel_for} task per row [i] in [\[lo, hi)], which sweeps
    [triplets.(i)]'s burst — its state words, {!Triplet.patterns} — with
    {!Fault_sim.first_detections} over the faults of [targets] on its
    worker's shard of [shards] (from {!Fault_sim.shard}, one per pool
    participant).  The sweep calls [found i fi p] for each target [fi]
    that pattern [p] of the burst detects first; then [commit i] runs
    unless the budget expired.  Each task should write only row [i]'s
    slots; the result is then bit-identical at every job count.
    [budget] is checked before each row's sweep and after it: a row
    whose sweep the budget may have cut short gets [found] calls but no
    [commit], and its caller must discard them.  [build] fills its rows
    with it, and {!Tradeoff.sweep} its longest burst's detections. *)
val simulate_rows :
  ?budget:Budget.t ->
  pool:Pool.t ->
  Fault_sim.t array ->
  Tpg.t ->
  Triplet.t array ->
  targets:Bitvec.t ->
  lo:int ->
  hi:int ->
  found:(int -> int -> int -> unit) ->
  (int -> unit) ->
  unit

(** [threshold ?store ~fingerprint ~config ~tests ~targets tpg firsts]
    is the [matrix] stage at [config.cycles] derived from longer bursts:
    [firsts.(i).(fi)] is the first pattern of a burst from row [i]'s
    triplet, at least [config.cycles] long, that detects target fault
    [fi] ([max_int] when none does, and for every non-target column), as
    {!simulate_rows} reports it.  A T-cycle burst
    is a prefix of any longer burst from that triplet, so keeping every
    target fault first detected below [config.cycles] yields exactly the
    rows and [useful_cycles] that [build] simulates, and the same
    artifact under the same [fingerprint] (the {!fingerprint} at
    [config]).  [firsts] is forced only when [store] misses; the result
    reports [fault_sims = 0]. *)
val threshold :
  ?store:Artifact.store ->
  fingerprint:Fingerprint.t ->
  config:config ->
  tests:bool array array ->
  targets:Bitvec.t ->
  Tpg.t ->
  int array array Lazy.t ->
  t

(** [build ?pool ?budget ?store ?fingerprint sim tpg ~tests ~targets
    ~config] — [tests] is ATPGTS; [targets] selects the fault list F
    among the simulator's faults.  Matrix columns outside [targets] are
    left empty (they are not constraints).  Matrix rows are
    fault-simulated in parallel over [pool] (default: {!Pool.default}) on
    per-worker simulator shards; the result — matrix, [useful_cycles] and
    [fault_sims] — is bit-identical at every job count.  An expired
    [budget] stops the build at the next row boundary; unfinished rows
    stay empty and are counted in [rows_skipped], never persisted: a row
    whose sweep the budget cut short is reset to empty.

    [store] memoises the whole stage under [fingerprint] (computed via
    {!fingerprint} when omitted): a warm hit reconstructs the result with
    zero fault simulations ([fault_sims = 0]); results with
    [rows_skipped > 0] are never persisted.  On a whole-stage miss the
    build is sharded: rows are simulated in 16-row groups, and each
    complete group is published to the store independently (stage
    [matrixshard], keyed by the matrix fingerprint and the row range) the
    moment it finishes — so a crashed or budget-stopped run leaves its
    finished shards behind, and the rerun restores them row-for-row
    (counted in [rows_restored]) and simulates only the rest.  A shard
    that fails its checksum or decode is re-simulated, and a failed save
    only costs a miss next run.  Each row is a packed vector over the
    fault list, filled in place by {!simulate_rows}'s [found] callback
    as the sweep detects each target fault, and adopted by the matrix
    without a copy. *)
val build :
  ?pool:Pool.t ->
  ?budget:Budget.t ->
  ?store:Artifact.store ->
  ?fingerprint:Fingerprint.t ->
  Fault_sim.t -> Tpg.t -> tests:bool array array -> targets:Bitvec.t -> config:config -> t

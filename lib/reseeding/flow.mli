(** The complete reseeding computation flow of Figure 1:

    ATPG test set + fault list → Initial Reseeding Builder → Detection
    Matrix → Matrix Reducer (essentiality + dominance) → exact solver on
    the residual → final reseeding solution [N], with the test-length
    accounting of Section 4 (per-triplet truncation of the trailing
    patterns that add no coverage). *)

open Reseed_fault
open Reseed_setcover
open Reseed_tpg
open Reseed_util

type objective =
  | Min_triplets
      (** the paper's objective: minimise the number of reseedings (ROM
          area for storing triplets) *)
  | Min_test_length
      (** extension: minimise the estimated global test length instead,
          using each triplet's useful burst length as its cost *)

(** Every objective, in CLI order. *)
val objectives : objective list

(** [objective_name o] is ["triplets"] or ["length"] — the CLI /
    manifest / report spelling. *)
val objective_name : objective -> string

type config = {
  builder : Builder.config;
  method_ : Solution.method_;
  reduce : Reduce.config;
  objective : objective;
}

val default_config : config

type result = {
  tpg_name : string;
  initial : Builder.t;  (** the initial reseeding and its matrix *)
  solution : Solution.t;  (** selected row indices + pipeline stats *)
  final_triplets : Triplet.t list;  (** truncated, in application order *)
  dropped_triplets : int;
      (** selected rows dropped by the Section-4 truncation because they
          detected no fault the earlier triplets missed — 0 for a minimal
          cover, possibly positive for a degraded (incumbent/greedy) one *)
  test_length : int;  (** Σ truncated burst lengths *)
  uniform_test_length : int;
      (** |selected| × max configured burst length (uniform-T mode):
          every selected triplet at its full pre-truncation T, dropped
          rows included *)
  coverage_pct : float;
      (** over the target list F — 100 by construction unless the run was
          [degraded], in which case it honestly reports what the partial
          reseeding covers *)
  fault_sims : int;  (** total injections for matrix + accounting *)
  elapsed_s : float;
  degraded : bool;
      (** the budget expired somewhere: matrix rows were skipped and/or
          the solver returned a suboptimal incumbent *)
  stop_reason : Budget.stop_reason option;
      (** why the budget tripped, when it did *)
}

(** [reseedings r] is the paper's “#Triplets”. *)
val reseedings : result -> int

(** [run ?config ?pool ?budget ?store ?fingerprint sim tpg ~tests
    ~targets] executes the whole flow.  [tests] is the deterministic test
    set (ATPGTS), [targets] the fault list F.  [pool] is forwarded to the
    parallel Detection-Matrix build ({!Builder.build}), [budget] to every
    expensive phase (matrix build and covering solver).  On budget expiry
    the result is valid but possibly partial: see [degraded],
    [coverage_pct] and {!Builder.t.rows_skipped}.

    [store] caches both stages after the ATPG set — the [matrix] and
    the [cover] (reduction, end-game and truncation, see
    {!cached_cover}) — in the artifact store, keyed by
    {!Builder.fingerprint} salted with [fingerprint] (the upstream
    ATPG-stage lineage, see {!Suite.prepared}), and makes the matrix
    build crash-resumable through its row shards.  A fully warm run
    touches no fault simulator and no solver; results are bit-identical
    to the uncached path.  Degraded results are never persisted. *)
val run :
  ?config:config ->
  ?pool:Pool.t ->
  ?budget:Budget.t ->
  ?store:Artifact.store ->
  ?fingerprint:Fingerprint.t ->
  Fault_sim.t ->
  Tpg.t ->
  tests:bool array array ->
  targets:Bitvec.t ->
  result

(** [cover_fingerprint config fpm] keys the [cover] stage: the
    matrix-stage fingerprint [fpm] (the lineage root, e.g.
    {!Builder.fingerprint}) with [config]'s method, objective and
    {!Reduce.config}.  The builder config is not part of it: [fpm]
    already covers it. *)
val cover_fingerprint : config -> Fingerprint.t -> Fingerprint.t

(** [cached_cover store ~fp ?targets m compute] runs [compute] — a
    {!Reseed_setcover.Solution.solve} of [m], paired with its Section-4
    truncation (final triplets, missed targets, dropped count) when
    [targets] is given — under the [cover] stage of [store] at [fp].
    A hit decodes the solution bit-identical to what [compute] returns,
    recomputing the stats that follow from [m]; a degraded solution is
    never written.  With [targets] the truncation is stored and read back
    too, and its missed mask must have the targets' length; without,
    [compute] must return [None] for it.  {!run} caches through it, and
    so does the compression workload ({!Workload.solve}). *)
val cached_cover :
  Artifact.store ->
  fp:Fingerprint.t ->
  ?targets:Bitvec.t ->
  Matrix.t ->
  (unit -> Solution.t * (Triplet.t list * Bitvec.t * int) option) ->
  Solution.t * (Triplet.t list * Bitvec.t * int) option

(** [run_prebuilt ?config ?pool ?budget ?store ?fingerprint sim tpg
    ~initial ~targets] is the back half of {!run} — covering, end-game
    and Section-4 truncation — over an already-built {!Builder.t}.  The
    trade-off sweep uses it to share one matrix build across grid points.
    [pool] is accepted for the callers that pass it and ignored: nothing
    after the matrix build runs on the pool.  [fingerprint] is the
    {e matrix-stage} fingerprint of [initial] (i.e. {!Builder.fingerprint}
    of the inputs that produced it); when both it and [store] are
    present the cover stage is cached exactly as in {!run}; an [initial]
    with skipped rows neither reads nor writes it.  [elapsed_s] and
    [fault_sims] cover this half only, plus [initial.fault_sims]. *)
val run_prebuilt :
  ?config:config ->
  ?pool:Pool.t ->
  ?budget:Budget.t ->
  ?store:Artifact.store ->
  ?fingerprint:Fingerprint.t ->
  Fault_sim.t ->
  Tpg.t ->
  initial:Builder.t ->
  targets:Bitvec.t ->
  result

(** [regrade sim tpg r] re-simulates the final truncated reseeding from
    scratch: the targets it detects. *)
val regrade : Fault_sim.t -> Tpg.t -> result -> Bitvec.t

(** [verify sim tpg r] checks that {!regrade} covers the whole target
    list.  Used by tests and examples as the end-to-end oracle. *)
val verify : Fault_sim.t -> Tpg.t -> result -> bool

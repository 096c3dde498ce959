(** Manifest-driven multi-workload campaigns ([reseed batch]).

    A campaign is the cross product circuits × TPGs × evolution lengths
    (plus explicit [job] and [compress] lines) from a small text
    manifest:

    {v
    # lines starting with # are comments
    circuits     = c17, c432
    tpgs         = adder, multiplier
    cycles       = 100, 150
    method       = exact          # exact | greedy | noreduce
    objective    = triplets       # triplets | length
    scale        = 1              # synthetic-circuit divisor
    job_deadline = 30             # seconds per job (optional)
    fault_model  = stuck          # stuck | transition: cross-product and
                                  # job-line default
    job s420 subtracter 200       # explicit extra job (default model)
    job s420 adder 150 transition # explicit job with its own fault model
    compress c17 8                # compression job: 8-bit blocks over
                                  # the circuit's stuck-at ATPG test set
    v}

    Unknown keys, unknown [fault_model]/workload values, malformed
    widths and malformed job lines are all rejected with [path:line]
    coordinates — a manifest either parses completely or not at all.

    Jobs run in parallel on the shared {!Reseed_util.Pool}, each on its
    own {!Reseed_fault.Fault_sim.copy} of the prepared simulator (the
    scratch state is not shared), each under its own child
    {!Reseed_util.Budget} of the campaign budget.  Each distinct
    (circuit, fault model) pair is prepared once and shared; compression
    jobs compress the circuit's stuck-at ATPG test set.  Results land in
    job order and are bit-identical at every job count.

    With an artifact store, every stage a job completes is persisted, so
    a campaign killed by SIGINT resumes by rerunning: finished stages
    load back warm and the report comes out identical to an uninterrupted
    run. *)

open Reseed_fault
open Reseed_setcover
open Reseed_util

type task =
  | Reseed of { tpg : string; cycles : int; fault_model : Fault_model.t }
  | Compress of { width : int }  (** block width, 1-62 bits *)

type job = { circuit : string; task : task }

type manifest = {
  method_ : Solution.method_;
  objective : Flow.objective;
  scale : int;
  job_deadline : float option;
  fault_model : Fault_model.t;
      (** the manifest-level default model ([fault_model =] key) *)
  jobs : job list;  (** expanded: cross product first, explicit jobs after *)
}

(** [job_model j] is the fault model [j]'s workload prepares under:
    the reseed task's own model, {!Fault_model.Stuck_at} for compression
    (the corpus is the stuck-at ATPG test set). *)
val job_model : job -> Fault_model.t

(** [task_to_string t] is a short human rendering for progress lines:
    ["adder T=150"], ["adder T=150 [transition]"], ["compress w=8"]. *)
val task_to_string : task -> string

(** Every TPG name a manifest or the CLI accepts, in CLI order. *)
val tpg_names : string list

(** [tpg_of_name name width] builds the named TPG at [width] bits.
    Raises {!Error.Reseed_error} ([Input_error]) on a name outside
    {!tpg_names}. *)
val tpg_of_name : string -> int -> Reseed_tpg.Tpg.t

(** [parse_string ?path s] parses manifest text.  Raises
    {!Error.Reseed_error} ([Input_error]) with [path:line] coordinates on
    unknown keys, malformed values, unknown circuits (checked with
    {!Reseed_netlist.Library.spec_of}), unknown TPG names, unknown fault
    models or workloads, or an empty job list. *)
val parse_string : ?path:string -> string -> manifest

(** [parse_file path] — {!parse_string} over the file's contents. *)
val parse_file : string -> manifest

type status = Ok | Skipped  (** [Skipped]: the campaign budget had already expired *)

type metrics =
  | Reseed_metrics of {
      triplets : int;
      test_length : int;
      rom_bits : int;  (** Σ triplet storage bits — the ROM-area proxy *)
      coverage_pct : float;
    }
  | Compress_metrics of {
      entries : int;  (** selected dictionary entries *)
      dictionary_bits : int;
      index_bits : int;
      raw_bits : int;
    }

type job_result = {
  job : job;
  status : status;
  metrics : metrics;  (** zeros when [Skipped] *)
  degraded : bool;
      (** the job's own deadline (or the campaign budget) cut it short *)
}

(** [run ?pool ?store ?budget ?on_done manifest] prepares each distinct
    (circuit, fault model) workload once (sequentially, ATPG-stage cached
    when [store] is given), then runs every job on the pool.  [budget] is
    the campaign budget: jobs starting after it expires are [Skipped];
    [job_deadline] becomes a {!Budget.sub} child of it per job.
    [on_done i r] fires as each job finishes (from worker domains —
    synchronise in the callback).  Results are in manifest job order. *)
val run :
  ?pool:Pool.t ->
  ?store:Artifact.store ->
  ?budget:Budget.t ->
  ?on_done:(int -> job_result -> unit) ->
  manifest ->
  job_result list

(** [report_json manifest results] renders the aggregated campaign
    report.  Deterministic: job order, fixed field order, no timings or
    cache/host information — so a warm rerun's report is byte-identical
    to the cold one.  Stuck-at reseeding job lines keep the historical
    format exactly (no [fault_model] field), so a stuck-at-only report
    is also byte-identical across releases; transition jobs add
    ["fault_model": "transition"] and compression jobs use their own
    object shape (["task": "compress"], entry/bit counts). *)
val report_json : manifest -> job_result list -> string

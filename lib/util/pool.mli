(** Fixed-size domain pool for data-parallel index loops.

    A pool owns [jobs - 1] worker domains (the submitting domain is the
    remaining participant, worker slot 0), fed through a single
    mutex/condition work queue — no dependency beyond the OCaml 5 stdlib.
    Work is distributed as contiguous index chunks claimed atomically, so
    load-balancing is dynamic while every index is executed exactly once.

    Determinism contract: all combinators assign result slot [i] from the
    task for index [i], whatever domain ran it, so any computation whose
    tasks are pure functions of their index (plus read-only shared state)
    produces bit-identical results at every job count.

    Nested parallelism is safe but not amplified: a [parallel_*] call made
    while the same pool is already running a region (from a worker, or
    reentrantly from the caller's own chunk) degrades to an inline
    sequential loop. *)

type t

(** Raised by the [parallel_*] combinators when a chunk body keeps
    failing: the chunk is retried on the same worker through the shared
    {!Retry} policy — [RESEED_RETRIES] retries (default 1) with
    exponential, deterministically jittered backoff — so transient
    faults heal (bodies must be idempotent per index, which every slot-
    writing combinator here is).  {!Error.Reseed_error} diagnostics are
    classified permanent and never retried.  The surviving exception is
    wrapped with its task context — the region's [label], the worker
    slot, the index range, the attempt count and the total backoff — so
    failures in a fleet of domains stay attributable.  The first failing
    chunk wins; chunks not yet started are skipped.  Every chunk attempt
    also passes the [pool.task] {!Faultpoint}. *)
exception
  Task_error of {
    label : string;  (** the [?label] of the failed region *)
    worker : int;  (** participant slot that ran the chunk *)
    lo : int;  (** failed index range, [lo] inclusive *)
    hi : int;  (** … [hi] exclusive *)
    attempts : int;  (** runs of the chunk body, including retries *)
    backoff_s : float;  (** total time spent backing off between attempts *)
    exn : exn;  (** the underlying exception (last attempt's) *)
  }

(** [default_jobs ()] is the parallelism used by {!default}: the
    [RESEED_JOBS] environment variable when set, otherwise (unset or
    blank) [Domain.recommended_domain_count ()].  Raises
    {!Error.Reseed_error} [Usage] when the variable is not a positive
    integer. *)
val default_jobs : unit -> int

(** [create ~jobs ()] spawns a pool with [jobs] participants ([jobs - 1]
    worker domains).  [jobs >= 1]; [jobs = 1] spawns nothing and runs
    every region inline. *)
val create : jobs:int -> unit -> t

(** [default ()] is the lazily-created process-wide pool sized by
    {!default_jobs}; it is shut down automatically at exit. *)
val default : unit -> t

(** [jobs t] is the number of participants (worker slots [0 .. jobs-1]). *)
val jobs : t -> int

(** [shutdown t] joins the pool's worker domains.  Idempotent.  Calling a
    [parallel_*] combinator on a shut-down pool runs inline. *)
val shutdown : t -> unit

(** [with_pool ~jobs f] runs [f pool] and always shuts the pool down. *)
val with_pool : jobs:int -> (t -> 'a) -> 'a

(** [parallel_for ?pool ?chunk ?label ~total body] runs
    [body ~worker ~lo ~hi] over disjoint chunks covering [0 .. total-1]
    ([lo] inclusive, [hi] exclusive).  [worker] identifies the
    participant slot executing the chunk — index per-worker scratch
    (e.g. {i Fault_sim} shards) with it.  [chunk] is the claim
    granularity (default: coarse, [total/(8*jobs)]).  [label] names the
    region in failure reports (default ["parallel region"]).  A chunk
    that raises is retried once; a second failure is re-raised in the
    caller as {!Task_error} (first failing chunk wins) after every
    participant has stopped — the pool itself never hangs or dies. *)
val parallel_for :
  ?pool:t ->
  ?chunk:int ->
  ?label:string ->
  total:int ->
  (worker:int -> lo:int -> hi:int -> unit) ->
  unit

(** [parallel_init ?pool ?chunk ?label n f] is [Array.init n f] with the
    calls to [f] distributed over the pool. *)
val parallel_init : ?pool:t -> ?chunk:int -> ?label:string -> int -> (int -> 'a) -> 'a array

(** [parallel_map_array ?pool ?chunk ?label f arr] is [Array.map f arr]
    with the calls to [f] distributed over the pool. *)
val parallel_map_array :
  ?pool:t -> ?chunk:int -> ?label:string -> ('a -> 'b) -> 'a array -> 'b array

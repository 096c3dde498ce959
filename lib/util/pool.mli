(** Fixed-size domain pool for data-parallel index loops.

    A pool owns [jobs - 1] worker domains (the submitting domain is the
    remaining participant, worker slot 0), fed through a single
    mutex/condition work queue — no dependency beyond the OCaml 5 stdlib.
    Each participant claims one index at a time from an atomic cursor, so
    load-balancing is dynamic while every index is executed exactly once.

    Determinism contract: a body that writes result slot [i] from index
    [i] alone (plus read-only shared state) produces bit-identical
    results at every job count, whatever domain ran each index.

    Nested parallelism is safe but not amplified: a {!parallel_for} made
    while the same pool is already running a region (from a worker, or
    reentrantly from the caller's own index) degrades to an inline
    sequential loop, as do regions on a one-job or shut-down pool. *)

type t

(** Raised by {!parallel_for} when an index keeps failing: an index
    that raises is re-run once, at once, on the same worker, so one-shot
    faults heal (bodies must be idempotent per index).
    {!Error.Reseed_error} diagnostics are never re-run.  The surviving
    exception is wrapped with its task context — the region's [label],
    the worker slot, the index and the attempt count — so failures in a
    fleet of domains stay attributable.  The first failing index wins;
    indices not yet started are skipped.  Every attempt, inline or on the
    pool, also passes the [pool.task] {!Faultpoint}. *)
exception
  Task_error of {
    label : string;  (** the [?label] of the failed region *)
    worker : int;  (** participant slot that ran the index *)
    index : int;  (** the failed index *)
    attempts : int;  (** runs of the body: 1, or 2 after a re-run *)
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

(** [with_pool ~jobs f] runs [f pool] and always shuts the pool down
    (joins its worker domains) afterwards. *)
val with_pool : jobs:int -> (t -> 'a) -> 'a

(** [parallel_for ?pool ?label ~total body] runs [body ~worker i] once
    for every [i] in [0 .. total-1].  [worker] identifies the participant
    slot running the index — index per-worker scratch (e.g.
    {i Fault_sim} shards) with it.  [label] names the region in failure
    reports (default ["parallel region"]).  An index that raises is
    re-run once; a second failure is re-raised in the caller as
    {!Task_error} (first failing index wins) after every participant has
    stopped — the pool itself never hangs or dies. *)
val parallel_for :
  ?pool:t -> ?label:string -> total:int -> (worker:int -> int -> unit) -> unit

(** Wall-clock deadlines and cooperative cancellation.

    A budget is a thread-safe token threaded through the expensive phases
    of the flow (detection-matrix build, branch-and-bound, ATPG, GA
    rounds, fault-simulation sweeps).  Hot loops poll {!expired} at a
    coarse granularity — one matrix row, one simulation block, a few
    thousand search nodes — and wind down gracefully when it trips,
    returning the best valid partial result instead of raising.

    Two stop sources share one token: a wall-clock [deadline] fixed at
    creation, and {!cancel}, which any domain (or a signal handler) may
    call at any time.  Once a budget has expired it stays expired. *)

type t

type stop_reason =
  | Deadline  (** the wall-clock deadline passed *)
  | Cancelled  (** {!cancel} was called (e.g. from a SIGINT handler) *)

(** [stop_reason_name r] is ["deadline"] or ["cancelled"]. *)
val stop_reason_name : stop_reason -> string

(** [create ?deadline_s ()] — [deadline_s] is a wall-clock allowance in
    seconds measured from now; omitted means no time limit (the budget
    can still be {!cancel}led).  [deadline_s <= 0.] expires immediately. *)
val create : ?deadline_s:float -> unit -> t

(** [sub ?deadline_s parent] is a child budget that expires when its own
    deadline passes {e or} [parent] expires (whichever first, with the
    parent's reason inherited).  The campaign-runner idiom: one parent
    token carries the global deadline and the SIGINT handler, each job
    polls its own child with the per-job allowance. *)
val sub : ?deadline_s:float -> t -> t

(** [cancel t] trips the budget from any domain.  Idempotent; safe to
    call from a signal handler.  Cancelling a parent trips every child
    at its next poll; cancelling a child leaves the parent live. *)
val cancel : t -> unit

(** [expired t] — true once the deadline has passed or [cancel] was
    called.  Cheap (one atomic load on the fast path after first expiry;
    one clock read otherwise), but hot loops should still throttle calls
    to a coarse granularity. *)
val expired : t -> bool

(** [stop_reason t] is [None] while the budget is live.  [Cancelled]
    takes precedence over [Deadline] when both apply. *)
val stop_reason : t -> stop_reason option

(** [check b] — [expired] lifted over an optional budget: [false] when
    [b] is [None].  The idiom for [?budget] parameters. *)
val check : t option -> bool

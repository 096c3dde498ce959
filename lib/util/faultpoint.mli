(** Deterministic fault injection behind named points.

    The chaos layer that crash-consistency testing drives: production
    code registers an injection point once at module toplevel

    {[ let fp_write = Faultpoint.register "artifact.write" ]}

    and calls {!hit} (control points: syscalls, task dispatch, publish
    steps) or {!mangle} (data points: payloads about to be written or
    just read) where a real-world failure could strike.  With no
    schedule configured — the default — both cost a single atomic load,
    like a disabled {!Trace} span, so the points live in production
    paths permanently.

    A schedule comes from the [RESEED_CHAOS] environment variable or the
    [--chaos] CLI flag, both of the form

    {v <seed>:<point>=<kind>[:<arg>][@<sel>][,<rule>...] v}

    - {b point}: a registered name, or a prefix wildcard
      ([artifact.*], or [*] alone for every point);
    - {b kind}: [eio] | [enospc] (raise [Unix.Unix_error] as the real
      syscall would) | [torn] (truncate the mangled payload to [arg]
      fraction, default 0.5) | [flip] (flip one deterministic payload
      bit) | [fail] (raise {!Injected}) | [latency] (sleep [arg]
      seconds, default 0.01) | [abort] (hard [Unix._exit]
      {!abort_exit_code} — a crashpoint: no [at_exit], like a kill);
    - {b sel}: [@N] fires on exactly the Nth hit of the point (1-based),
      [@pP] fires each hit with probability [P] drawn from a per-point
      stream seeded by ([seed], point name), absent = every hit.

    The schedule is deterministic: equal seeds and equal hit sequences
    replay equal injections.  {!configure_string} resets every per-point hit
    counter and probability stream.

    Work accounting: every injection bumps the [chaos_injected] counter
    and records a [faultpoint.hit] trace instant.  A [torn] or [flip]
    rule selected at a control point ({!hit}: no payload) changes
    nothing, so it is neither counted nor traced. *)

type kind = Eio | Enospc | Torn | Flip | Fail | Latency | Abort

(** Raised by [fail]-kind injections (and by nothing else): a synthetic
    task failure with no real-IO analogue. *)
exception Injected of { point : string; fault : string }

(** Process exit status of an [abort] crashpoint (documented in the
    README exit-code table). *)
val abort_exit_code : int

val kind_name : kind -> string
val all_kinds : kind list

(** A registered injection point. *)
type t

(** [register name] returns the point registered under [name], creating
    it on first call (idempotent, thread-safe).  Call at module
    toplevel so {!all} can enumerate the catalog before any work runs. *)
val register : string -> t

val name : t -> string

(** [hit_count t] — hits since the last {!configure_string}/{!disable}. *)
val hit_count : t -> int

(** [all ()] is every registered point name, sorted — the catalog the
    chaos harness sweeps. *)
val all : unit -> string list

(** [enabled ()] — whether a schedule is active. *)
val enabled : unit -> bool

(** [configure_string s] parses ["<seed>:<spec>"] — the [RESEED_CHAOS] /
    [--chaos] syntax, rules comma separated — installs that schedule and
    resets all hit counters and probability streams.  Raises
    {!Error.Reseed_error} ([Usage]) on a malformed or empty spec. *)
val configure_string : string -> unit

(** [disable ()] removes the schedule; points return to the one-load
    fast path. *)
val disable : unit -> unit

(** [hit t] — pass a control point: injects latency, IO errors,
    {!Injected} failures or an abort when the schedule selects this
    hit; no-op (one atomic load) otherwise. *)
val hit : t -> unit

(** [mangle t data] — pass a data point: like {!hit}, and additionally
    applies [torn]/[flip] transformations to [data].  Returns [data]
    unchanged when nothing fires. *)
val mangle : t -> string -> string

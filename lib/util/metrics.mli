(** Typed counter/gauge registry for flow-wide work accounting.

    One process-wide registry.  Counters are monotonically increasing
    atomic ints safe to advance from any domain; gauges hold a last-set
    float.  The convention throughout the pipeline: hot loops keep their
    private per-shard tallies (bit-identity and zero contention) and
    publish {e deltas} here at phase boundaries — a fault-simulation
    sweep ending, a solver returning, shards merging — so the registry
    is always consistent at the points where it is read.

    Registration is idempotent by name, so modules declare their metrics
    at toplevel:
    {[ let m_sims = Metrics.counter ~help:"fault simulations" "fault_sims" ]}

    Export: {!to_json} (flat [{"name": value}] object, also embedded into
    [BENCH_reseed.json]) or {!to_ndjson} (one self-describing object per
    line); [--metrics FILE] on the CLI picks by extension. *)

type counter
type gauge

(** A snapshot value: counters are ints, gauges floats. *)
type value = Counter_v of int | Gauge_v of float

(** [counter ?help name] returns the counter registered under [name],
    creating it at zero on first call.  Raises [Invalid_argument] if
    [name] is already a gauge. *)
val counter : ?help:string -> string -> counter

(** [gauge ?help name] — gauge analogue of {!counter}. *)
val gauge : ?help:string -> string -> gauge

val incr : counter -> unit

(** [add c n] advances [c] by [n] ([n = 0] is free; negative deltas are
    not checked but break the monotonic reading). *)
val add : counter -> int -> unit

val value : counter -> int
val set : gauge -> float -> unit
val gauge_value : gauge -> float

(** [snapshot ()] is every registered metric, sorted by name. *)
val snapshot : unit -> (string * value) list

(** [get name] is the current value of the metric named [name]. *)
val get : string -> value option

(** [help name] is the help string given at registration. *)
val help : string -> string option

(** [reset ()] zeroes every metric, keeping registrations.  Test-only:
    concurrent writers make the zeroing point ill-defined. *)
val reset : unit -> unit

(** [to_json ()] — flat JSON object [{"metric": value, ...}]. *)
val to_json : unit -> string

(** [to_ndjson ()] — one [{"name":..,"type":..,"value":..}] per line. *)
val to_ndjson : unit -> string

(** [write_file path] writes {!to_ndjson} when [path] ends in
    [.ndjson], {!to_json} otherwise. *)
val write_file : string -> unit

(** Span-based flow tracer exporting Chrome [trace_event] JSON.

    One process-wide tracer, disabled by default.  When disabled, a span
    costs a single atomic load — no clock read, no allocation — so
    instrumentation can stay in the hot paths permanently.  When enabled,
    each completed span is appended to the recording domain's own buffer
    (created lazily via domain-local storage, registered once), so
    Pool worker domains never contend on a shared sink; buffers are
    merged only at export time, after the parallel work has joined.

    Timestamps come from the monotonic clock, so spans are immune to
    wall-clock adjustments.  Nesting is positional, exactly as in the
    Chrome trace format: a span encloses every span of the same domain
    that starts and ends within it.  View exports with Perfetto
    ({{:https://ui.perfetto.dev}ui.perfetto.dev}) or [chrome://tracing]. *)

(** One recorded trace event (a completed ['X'] span or an ['i'] instant
    marker).  Timestamps are nanoseconds since {!enable}/{!reset}. *)
type event = {
  name : string;
  ph : char;  (** ['X'] complete span, ['i'] instant *)
  ts_ns : int64;  (** start time *)
  dur_ns : int64;  (** duration; [0] for instants *)
  tid : int;  (** id of the recording domain *)
  args : (string * string) list;
}

(** [enabled ()] — whether spans are currently being recorded. *)
val enabled : unit -> bool

(** [enable ()] starts recording and, on the first call, anchors the
    trace epoch.  Call from the main domain before spawning work. *)
val enable : unit -> unit

(** [disable ()] stops recording.  Already-recorded events remain
    exportable. *)
val disable : unit -> unit

(** [reset ()] drops every recorded event and re-anchors the epoch.
    Call only while no other domain is recording. *)
val reset : unit -> unit

(** [with_span ?args ?result_args name f] runs [f ()] inside a span
    named [name].  The span is recorded when [f] returns {i or raises}
    (the exception is re-raised), in the buffer of the domain that ran
    it.  [args] become the span's Chrome-trace [args] object; avoid
    building them in hot paths — they are evaluated whether or not the
    tracer is enabled.  [result_args v] is appended to them when [f]
    returns [v], and is called only while the tracer is enabled. *)
val with_span :
  ?args:(string * string) list ->
  ?result_args:('a -> (string * string) list) ->
  string ->
  (unit -> 'a) ->
  'a

(** [instant ?args name] records a zero-duration marker (warnings,
    incumbent updates, artifact hits). *)
val instant : ?args:(string * string) list -> string -> unit

(** [events ()] is the merged, time-sorted view of every domain's
    buffer (parents sort before the spans they enclose).  Only sound
    once outstanding parallel regions have joined. *)
val events : unit -> event list

(** [span_names ()] is [events ()] projected to names — the determinism
    oracle used by tests comparing runs at different job counts. *)
val span_names : unit -> string list

(** [to_json ()] renders the merged events as a Chrome [trace_event]
    JSON object ([{"traceEvents": [...]}]). *)
val to_json : unit -> string

(** [write_file path] writes {!to_json} to [path]. *)
val write_file : string -> unit

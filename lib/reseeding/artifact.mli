(** Content-addressed artifact store backing the stage pipeline.

    The reseeding flow is a fixed chain of stages — [atpg] → [matrix] →
    [cover] (reduction, end-game and truncation) — each a pure function
    of its inputs.
    An artifact is one stage output, serialised and filed under the
    {!Reseed_util.Fingerprint} of everything it depends on:

    {v <root>/<stage>/<fingerprint-hex>.art v}

    so a rerun with identical inputs loads the bytes instead of
    recomputing, across processes and across the points of a campaign.

    The store is a plain checksummed cache:

    - {e write-then-rename}: an artifact appears under its final name
      only complete.  Nothing is fsynced: a crash can lose or tear an
      artifact, or leave a [.tmp] orphan, but every artifact is a
      deterministic function of its fingerprint, so the loss costs a
      recompute to the same bytes, never a different result;
    - {e checksummed}: every blob carries magic, format version, kind
      tag, fingerprint and an FNV-1a payload checksum; any defect makes
      {!load} return [None] and the stage recomputes — corruption can
      cost time, never correctness;
    - {e only complete results are stored}: callers pass [None] from
      their encoder when a budget degraded the result;
    - {e a failure is a miss}: a read or write that fails for any
      reason, real or injected, is never retried; a failed read is a
      miss and a failed save is counted and missed again next run.

    Fault injection: reads pass the [artifact.read] {!Faultpoint} (data
    point — payloads can be mangled in flight to exercise the checksum
    path), writes pass [artifact.write] (data point) and
    [artifact.publish] (control point between the [.tmp] write and the
    rename — the crash-consistency window).

    The store root comes from the [RESEED_CACHE] environment variable or
    an explicit directory ([--cache] on the CLI). *)

open Reseed_util

(** [read_opt path] is the file's contents, or [None] when the read
    fails: [Sys_error], [Unix_error] or {!Faultpoint.Injected}. *)
val read_opt : string -> string option

(** [write_atomic path data] writes to [path ^ ".tmp"] and renames it
    into place, creating the parent directory.  Nothing is fsynced.  A
    [Sys_error], [Unix_error] or {!Faultpoint.Injected} raises
    {!Error.Reseed_error} ([Input_error]). *)
val write_atomic : string -> string -> unit

(** [mkdir_p dir] — [mkdir -p], raising {!Error.Reseed_error} on failure
    or when [dir] exists and is not a directory. *)
val mkdir_p : string -> unit

(** Little-endian scalar codecs for artifact payloads. *)
module Codec : sig
  val u32 : Buffer.t -> int -> unit
  val u64 : Buffer.t -> int64 -> unit
  val vint : Buffer.t -> int -> unit
  (** [vint] writes a non-negative OCaml int as 8 LE bytes. *)

  val float : Buffer.t -> float -> unit
  val str : Buffer.t -> string -> unit
  val int_list : Buffer.t -> int list -> unit
  val bitvec : Buffer.t -> Bitvec.t -> unit

  (** [row] stores a detection-matrix row: a tag byte [0], then the row
      as {!bitvec}.  [get_row] reads that back.  Any other tag raises
      {!Malformed}, and so does a truncated payload.  Tag [1], an
      ascending index list, is what stores filled by earlier versions
      hold for sparse rows: {!cached} counts such a blob as corrupt,
      recomputes it and rewrites it with tag [0] rows. *)
  val row : Buffer.t -> Bitvec.t -> unit

  (** [pattern] / [patterns] pack simulator bit patterns LSB-first, eight
      per byte, length-prefixed. *)
  val pattern : Buffer.t -> bool array -> unit

  val patterns : Buffer.t -> bool array array -> unit
  val word : Buffer.t -> Word.t -> unit

  (** Reader over a payload string.  Every getter raises {!Malformed} on
      truncation or an out-of-range value — {!cached} treats that as
      corruption and recomputes. *)
  type reader

  exception Malformed

  val reader : string -> reader
  val get_u32 : reader -> int
  val get_u64 : reader -> int64
  val get_vint : reader -> int
  val get_float : reader -> float
  val get_str : reader -> string
  val get_int_list : reader -> int list
  val get_bitvec : reader -> Bitvec.t
  val get_row : reader -> Bitvec.t
  val get_pattern : reader -> bool array
  val get_patterns : reader -> bool array array
  val get_word : reader -> Word.t
  val at_end : reader -> bool
end

type store

(** [open_store dir] creates [dir] if needed and returns the store. *)
val open_store : string -> store

(** [from_env ()] opens the store named by [RESEED_CACHE], when set and
    non-empty. *)
val from_env : unit -> store option

(** [resolve ?dir ()] — explicit [dir] wins, then [RESEED_CACHE], then
    no store. *)
val resolve : ?dir:string -> unit -> store option

val root : store -> string

(** [path store ~stage fp] is where the artifact lives (whether or not it
    exists). *)
val path : store -> stage:string -> Fingerprint.t -> string

(** [load store ~stage fp] is a reader over the artifact's payload, read
    in place in the file's bytes, or [None] when the artifact is absent
    or structurally defective: wrong magic or version, foreign stage or
    fingerprint, bad length or checksum. *)
val load : store -> stage:string -> Fingerprint.t -> Codec.reader option

(** [save store ~stage fp payload] persists atomically. *)
val save : store -> stage:string -> Fingerprint.t -> string -> unit

(** [cached store ~stage ~fp ~encode ~decode compute] is the stage
    memoiser: on a hit, [decode] rebuilds the result from the payload
    (any exception counts as corruption: recompute, overwrite); on a
    miss, [compute ()] runs and is persisted when [encode] returns
    [Some] ([None] marks a degraded result that must not be reused).
    [store = None] is a transparent pass-through to [compute].

    The cache is an accelerator, never a point of failure: if the save
    of a recomputed result fails, the result is still returned — the
    failure only bumps [artifact_write_failures] and the store misses
    again next run.

    Work accounting: bumps [artifact_hits] / [artifact_misses] /
    [artifact_corrupt] / [artifact_writes] plus the per-stage
    [stage_<stage>_cache_hits] / [stage_<stage>_cache_misses] counters;
    [artifact_rewrites] counts corrupt blobs overwritten by a recomputed
    payload.  Records a trace instant on every hit — the observability
    the warm-vs-cold acceptance gates read. *)
val cached :
  store option ->
  stage:string ->
  fp:Fingerprint.t ->
  encode:('a -> string option) ->
  decode:(Codec.reader -> 'a) ->
  (unit -> 'a) ->
  'a

(** Stable 64-bit fingerprints of pipeline-stage inputs.

    A fingerprint digests everything a pipeline stage's output depends on
    — circuit netlist, configuration records, pattern sets, fault masks —
    into a single [int64] used as the content address of the stage's
    cached artifact ({!Reseed_core.Artifact}).  The hash is FNV-1a over a
    canonical little-endian byte stream, so values are stable across
    platforms, word sizes and processes; they are {e not} meant to resist
    adversarial collisions.

    Combinators fold left: [Fingerprint.(int (string (salted "matrix")
    "adder") 150)].  Every combinator feeds the value's length or a tag
    where ambiguity is possible ([list], [option], [pattern]), so
    adjacent fields cannot alias ([["ab"; "c"]] vs [["a"; "bc"]]).

    {!salted} mixes in {!code_version}: bump the version string whenever
    an algorithm change makes previously cached artifacts stale, and
    every stage key changes at once. *)

type t = int64

(** Cache-busting salt baked into {!salted}.  Bump on any change that
    invalidates cached stage outputs. *)
val code_version : string

(** The raw FNV-1a offset basis — an unsalted starting point, used where
    a format owns its own version tag (e.g. the artifact payload
    checksum). *)
val empty : t

(** [salted tag] is the starting fingerprint for stage [tag], salted with
    {!code_version}. *)
val salted : string -> t

val byte : t -> int -> t

(** [int h v] hashes [v] as 8 little-endian bytes. *)
val int : t -> int -> t

val int64 : t -> int64 -> t
val bool : t -> bool -> t

(** [float h v] hashes the IEEE-754 bit pattern of [v]. *)
val float : t -> float -> t

(** [string h s] hashes [s]'s length, then its bytes. *)
val string : t -> string -> t

(** [raw_string h s] hashes only [s]'s bytes — no length prefix.  For
    reproducing fixed legacy streams; prefer {!string}. *)
val raw_string : t -> string -> t

(** [raw_substring h s pos len] is [raw_string h (String.sub s pos len)],
    hashed in place.  Raises [Invalid_argument] when the range is not
    inside [s]. *)
val raw_substring : t -> string -> int -> int -> t

val bytes : t -> bytes -> t
val option : (t -> 'a -> t) -> t -> 'a option -> t
val list : (t -> 'a -> t) -> t -> 'a list -> t
val array : (t -> 'a -> t) -> t -> 'a array -> t

(** [pattern h p] hashes one simulator bit pattern. *)
val pattern : t -> bool array -> t

(** [patterns h ps] hashes a whole test set. *)
val patterns : t -> bool array array -> t

val bitvec : t -> Bitvec.t -> t
val equal : t -> t -> bool

(** [to_hex fp] is the 16-digit lowercase hex rendering — the artifact
    file basename. *)
val to_hex : t -> string

(** Workloads — the problem families the covering core solves.

    The set-covering pipeline (matrix → reduce → end-game solve) is
    workload-generic; what varies is how rows and columns are minted and
    what a selected row costs:

    - Faults: the paper's reseeding workload.  Rows are TPG triplets,
      columns are faults of a {!Reseed_fault.Fault_model.t}; the mapping
      is {!Builder.build}, pricing is either unit (minimise reseedings)
      or the triplet's useful burst length (minimise test length, see
      {!Flow.objective}).  Its stage keys carry the tag
      ["workload:faults:<model>"] (see {!Suite.prepare}).
    - Compression: code-based test-data compression.  Rows are
      candidate dictionary entries (fully-specified words), columns are
      the ternary test-data blocks of a seed corpus; an entry covers a
      block when it matches every care bit.  Pricing is uniform — every
      entry costs [width] ROM bits — so minimum cardinality is minimum
      dictionary area.  Selecting a cover is exactly the dictionary
      selection problem: every block is then encoded as an index into the
      dictionary.  Its stage keys carry the tag ["workload:compress"].

    This module holds the whole compression workload: corpus
    construction, candidate minting, the covering matrix, and a solver
    that caches its cover in the reseeding flow's [cover] stage
    ({!Flow.cached_cover}) under a compression-salted fingerprint. *)

open Reseed_setcover
open Reseed_util

(** {1 Compression corpus}

    A corpus is the test data to compress, chopped into blocks of a fixed
    [width] (1–62 bits).  Each block is ternary: bit [j] of [care] is set
    when the block specifies bit [j], and [value] holds the specified
    bits ([value land lnot care = 0] by construction — don't-cares read
    as 0 there). *)

type block = { value : int; care : int }

type corpus = { width : int; blocks : block array }

(** [corpus_of_text ?file ~width s] parses raw corpus text: one test
    vector of [[01Xx]+] per line (blank lines and [#] comments skipped),
    each vector chopped into [width]-bit blocks, the tail block padded
    with don't-cares.  Bit [j] of a block is the [j]-th character of its
    chunk.  Raises {!Error.Reseed_error} ([Input_error], with [?file] and
    the 1-based line) on any other character, and [Invalid_argument] when
    [width] is outside 1–62. *)
val corpus_of_text : ?file:string -> width:int -> string -> corpus

(** [corpus_of_patterns ~width tests] builds the corpus from
    fully-specified test patterns (e.g. an ATPG test set): each pattern
    is a vector of its bits in order, chopped and tail-padded exactly as
    {!corpus_of_text} does. *)
val corpus_of_patterns : width:int -> bool array array -> corpus

(** [candidates corpus] mints the dictionary candidates: the don't-care →
    0 completion of every block, deduplicated, in first-occurrence order.
    Every block is covered by its own completion, so the covering
    instance is always feasible. *)
val candidates : corpus -> int array

(** [covers ~entry b] — the entry matches every care bit of [b]. *)
val covers : entry:int -> block -> bool

(** [matrix corpus cands] is the covering instance: row [i] covers column
    [j] iff candidate [i] covers block [j].  Columns are {e all} blocks,
    duplicates included — duplicate columns cost nothing after reduction
    and keep block indices meaningful. *)
val matrix : corpus -> int array -> Matrix.t

(** [fingerprint corpus] keys the compression matrix stage: the workload
    tag, the block width and every block's (value, care).  The same
    lineage-root role {!Builder.fingerprint} plays for the faults
    workload; the [cover] artifact chains from it. *)
val fingerprint : corpus -> Fingerprint.t

(** {1 Compression solve} *)

type compressed = {
  corpus_blocks : int;  (** columns of the covering instance *)
  distinct_blocks : int;  (** blocks up to (value, care) equality *)
  entries : int list;
      (** the selected dictionary, as fully-specified words, ascending
          candidate order *)
  solution : Solution.t;  (** the underlying covering solution *)
  dictionary_bits : int;  (** |entries| × width — dictionary ROM *)
  index_bits : int;  (** blocks × ⌈log₂ |entries|⌉ — the encoded stream *)
  raw_bits : int;  (** blocks × width — the uncompressed baseline *)
}

(** [solve ?method_ ?budget ?store corpus] selects a minimum dictionary
    covering every block, reducing with {!Reduce.default_config}.  With
    [store] the solution is one [cover] artifact ({!Flow.cached_cover})
    keyed by {!Flow.cover_fingerprint} over {!fingerprint} — cached
    compression artifacts share the store with reseeding runs but can
    never collide with them (different matrix-stage salt and workload
    tag).  [method_] defaults to [Solution.Exact]. *)
val solve :
  ?method_:Solution.method_ ->
  ?budget:Budget.t ->
  ?store:Artifact.store ->
  corpus ->
  compressed

(** [entry_to_string ~width e] renders a dictionary word as [width]
    characters of [0]/[1], bit 0 first (the same order the corpus was
    parsed in). *)
val entry_to_string : width:int -> int -> string

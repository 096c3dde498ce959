(** Parallel-pattern fault simulation by critical-path tracing, under
    either fault model.

    Patterns are simulated 62 per block against the good machine once;
    per-fault detection words are then derived by critical-path tracing.
    The circuit is decomposed once into fanout-free regions
    ({!Reseed_netlist.Ffr}); a fault inside a region is graded by a
    backward derivative chain over the good values, and only each
    region's stem costs a flip propagation for its observability word,
    computed on first use in a block, so only stems that live faults
    reach are propagated.

    One gate kernel evaluates both machines.  {!create} lays the
    circuit out once as flat shared arrays: per node a gate record of
    three fanin slots (padded with two constant slots, all ones and zero,
    kept past the last node of every value array) and three masks
    [pre], [post] and [xor], so every gate kind evaluates as
    [y = (a^pre)&(b^pre)&(c^pre); v = y ^ ((a^b^c^y) & xor) ^ post]
    with no match and no fanin loop (a gate of more than three fanins
    folds its CSR fanins the same way); plus CSR fanouts and the largest
    index in each node's fanout cone.  One sweep over that layout
    computes a block's good values, and every stem flip: the flip writes
    the site's faulty value into a per-simulator mirror of the block's
    good values, re-evaluates every node from the site's smallest fanout
    up to the largest index in its fanout cone — valid because every
    fanin has a smaller index than its gate
    ({!Reseed_netlist.Circuit}) — reads the primary outputs in that
    interval, and copies the interval back from the good values.  The
    fault-dropping sweeps grade a live-fault index list that shrinks
    after every block.  The oracles for all of this are test-side: a
    level-queue simulator with a per-fault injection engine, and a
    serial checker that evaluates each fault gate by gate.

    The {!Fault_model.t} chosen at {!create} fixes the detection
    semantics of every sweep.  Under {!Fault_model.Stuck_at} (the
    default) behaviour is the historical single-pattern semantics,
    verbatim.  Under {!Fault_model.Transition_delay} every sweep treats
    its pattern array as a {e sequence}: pattern [p] detects a fault iff
    pattern [p-1] (launch) sets the fault's site signal to its slow
    initial value {e and} pattern [p] (capture) detects the
    corresponding stuck-at fault — the capture grade is the stuck-at
    grade unchanged, and the launch condition is applied as a per-lane
    mask with the carry across 62-pattern blocks handled internally.  The
    first pattern of a sweep has no launch predecessor and detects
    nothing.  Work counters ({!sims_performed}, {!event_propagations})
    count the capture grades, so cost metrics stay comparable across
    models.

    Four entry points cover the library's needs:

    - {!detection_map}: full per-pattern detection bit-matrix, with no
      dropping — used only by the oracle tests; the Detection Matrix of
      Section 3.1 of the paper is built from {!first_detections};
    - {!first_detections}: fault-dropping sweep returning the first
      detecting pattern index per fault — feeds ATPG (its random phase
      and its reverse-order compaction) and the Detection Matrix rows;
    - {!detected_set}: the faults of an active mask that a candidate
      pattern set detects — feeds ATPG and the GATSBY fitness function;
    - {!useful_length}: the truncated length of a burst applied after
      earlier ones, clearing what it detects from the live-fault mask —
      the test-length accounting of the covering flow and of GATSBY. *)

open Reseed_netlist
open Reseed_util

type t

(** [create ?model c faults] builds a reusable simulator ([model]
    defaults to {!Fault_model.Stuck_at}).  The fault order fixes the
    fault indexing used by every result; pair [faults] with the model's
    own enumeration ({!Fault_model.faults}) unless a test needs a custom
    list. *)
val create : ?model:Fault_model.t -> Circuit.t -> Fault.t array -> t

(** [model t] is the fault model [t] was created with. *)
val model : t -> Fault_model.t

(** [copy t] is a simulator over the same circuit, fault list and flat
    layout with fresh private scratch — the block's good values, the
    faulty-value mirror of the propagation kernel, the live-fault list
    of the dropping sweeps, the CPT memo and its path stack — and zeroed
    work counters; it can run
    concurrently with [t] from another domain (the shared arrays are
    never written after {!create}). *)
val copy : t -> t

(** [shard t n] is the per-worker simulator array for an [n]-participant
    parallel region: slot 0 is [t] itself, slots [1 .. n-1] are
    {!copy}s, each with its own kernel scratch.
    Pair with {!merge_sims} after the region so [t]'s counters account
    for the whole region. *)
val shard : t -> int -> t array

(** [merge_sims ~into shards] adds every shard's work counters into
    [into]'s (skipping [into] itself) and zeroes the donors, so repeated
    merges never double-count. *)
val merge_sims : into:t -> t array -> unit

val circuit : t -> Circuit.t
val faults : t -> Fault.t array
val fault_count : t -> int

(** [sims_performed t] counts per-fault detectability evaluations — the
    paper's "number of fault simulations" cost metric.  A traced fault
    grade counts exactly like a fault injection would, so Table 1 stays
    comparable with serial and per-fault-injection simulators. *)
val sims_performed : t -> int

(** [event_propagations t] counts cone propagations actually launched —
    one kernel sweep each, and each one a stem observability flip.  This
    is the work metric critical-path tracing shrinks against injecting
    every excited fault; the name predates the sweep kernel and is kept
    because reports read it. *)
val event_propagations : t -> int

(** [cone_hi t i] is the largest node index in [i]'s fanout cone ([i]
    itself when nothing reads [i]): the upper end of the index interval a
    propagation from [i] re-evaluates.  Exposed for tests. *)
val cone_hi : t -> int -> int

(** [good_values t block] is every node's good-machine word over
    [block], as the sweeps compute it — {!Reseed_sim.Logic_sim.simulate}'s
    result.  Exposed for tests. *)
val good_values : t -> Reseed_sim.Logic_sim.block -> int array

(** Every sweep below takes an optional [budget]: a tripped deadline or
    cancellation stops the sweep cleanly at the next 62-pattern block
    boundary, returning the (sound but possibly incomplete) detections
    gathered so far.  Callers that need completeness must re-check the
    budget after the call. *)

(** [detection_map ?budget t patterns] is one {!Bitvec.t} per fault,
    indexed over patterns: bit [p] set iff pattern [p] detects the fault.
    No dropping. *)
val detection_map : ?budget:Budget.t -> t -> bool array array -> Bitvec.t array

(** [detected_set ?budget t patterns ~active] is the set of faults from
    [active] detected by at least one pattern (with dropping inside the
    run).  Stops simulating blocks as soon as every active fault is
    detected. *)
val detected_set : ?budget:Budget.t -> t -> bool array array -> active:Bitvec.t -> Bitvec.t

(** [first_detections ?budget t ?active patterns] runs with fault
    dropping; result [i] is [Some p] when fault [i] is first detected by
    pattern [p].  Faults outside [active] (default: all) are skipped
    entirely.  Stops simulating blocks as soon as every live fault has a
    first detection. *)
val first_detections :
  ?budget:Budget.t -> t -> ?active:Bitvec.t -> bool array array -> int option array

(** [useful_length t ~live patterns] applies one burst under the
    Section-4 truncation rule: it runs [patterns] with fault dropping
    over the faults of [live], clears every fault it detects from
    [live], and returns one past the last pattern that detected one of
    them, or 0 (with [live] untouched) when none did.  Truncating the
    burst to that length detects the same faults. *)
val useful_length : t -> live:Bitvec.t -> bool array array -> int

(** [coverage_pct t detected] renders fault coverage as a percentage of
    the simulator's fault list. *)
val coverage_pct : t -> Bitvec.t -> float

(** Experiment drivers regenerating the paper's tables and figure.

    Every [reseed] command prepares its workload here; the table and
    figure drivers below serve [bench/main.exe].  A {!prepared}
    workload bundles everything that is TPG-independent (circuit, fault
    list, ATPG test set); each table row then reuses it across the three
    accumulator TPGs, exactly like the paper's evaluation. *)

open Reseed_atpg
open Reseed_fault
open Reseed_netlist
open Reseed_tpg
open Reseed_util

type prepared = {
  circuit : Circuit.t;
  sim : Fault_sim.t;
  tests : bool array array;  (** ATPGTS *)
  targets : Bitvec.t;  (** fault list F := faults ATPGTS covers *)
  atpg : Atpg.result;
  fault_model : Fault_model.t;
      (** the detection semantics the workload was prepared under; [sim]
          was created with the same model *)
  fingerprint : Fingerprint.t;
      (** the ATPG-stage fingerprint — netlist, ATPG settings and fault
          model.  Lineage salt for every downstream stage key of this
          workload. *)
  store : Artifact.store option;
      (** the artifact store the workload was prepared against; threaded
          to every flow run on this workload *)
}

(** [circuit_fingerprint c] hashes the netlist structurally — every
    node's kind, fanins and label, plus the PI/PO lists — so editing a
    circuit (not merely renaming it) changes the fingerprint.  Exposed
    for cache-invalidation tests. *)
val circuit_fingerprint : Circuit.t -> Fingerprint.t

(** [prepare ?scale_factor ?fault_model ?budget ?store name] loads a
    catalog circuit and runs the ATPG front-end once.
    [fault_model] (default {!Fault_model.Stuck_at}) fixes the detection
    semantics of the whole workload — fault list
    ({!Fault_model.faults}: {!Fault.all} under stuck-at), ATPG phases,
    every downstream sweep — and is folded into the [fingerprint], so
    artifacts never cross models.
    [budget] bounds the ATPG front-end (see {!Atpg.run}): on expiry the
    test set is partial but sound, and [targets] shrinks accordingly.

    [store] memoises the ATPG stage: a warm prepare skips test
    generation entirely and decodes the stored result, keyed by the
    [fingerprint] described on {!prepared}.  Budget-cut (partial) ATPG
    results are never persisted. *)
val prepare :
  ?scale_factor:int ->
  ?fault_model:Fault_model.t ->
  ?budget:Budget.t ->
  ?store:Artifact.store ->
  string ->
  prepared

(** [prepare_circuit ?fault_model ?budget ?store c] — same, for an
    arbitrary circuit. *)
val prepare_circuit :
  ?fault_model:Fault_model.t ->
  ?budget:Budget.t ->
  ?store:Artifact.store ->
  Circuit.t ->
  prepared

(** [paper_tpgs p] instantiates adder / multiplier / subtracter at the
    circuit's PI width. *)
val paper_tpgs : prepared -> Tpg.t list

(** One Table 1 cell group: set covering vs GATSBY for one TPG. *)
type table1_entry = {
  tpg : string;
  sc_triplets : int;
  sc_test_length : int;
  sc_rom_bits : int;  (** Σ triplet storage: the paper's area-overhead proxy *)
  sc_fault_sims : int;
  gatsby_triplets : int option;  (** [None] when GATSBY was skipped *)
  gatsby_test_length : int option;
  gatsby_fault_sims : int option;
}

type table1_row = { t1_name : string; entries : table1_entry list }

(** [table1_row ?cycles ?with_gatsby p] evaluates all three TPGs.
    [with_gatsby] defaults to [true]. *)
val table1_row : ?cycles:int -> ?with_gatsby:bool -> prepared -> table1_row

(** One Table 2 row: covering-instance statistics for one TPG. *)
type table2_entry = {
  t2_tpg : string;
  necessary : int;  (** triplets forced by essentiality *)
  reduced_rows : int;  (** residual matrix after reduction *)
  reduced_cols : int;
  from_solver : int;  (** triplets added by the exact solver *)
  iterations : int;
}

type table2_row = {
  t2_name : string;
  initial_triplets : int;  (** |ATPGTS| — rows of the initial matrix *)
  initial_faults : int;  (** |F| — columns that are real constraints *)
  t2_entries : table2_entry list;
}

val table2_row : ?cycles:int -> prepared -> table2_row

(** [figure2 ?grid ?pool p tpg] is the Figure 2 sweep for one TPG, on
    [pool] (default: {!Reseed_util.Pool.default}). *)
val figure2 :
  ?grid:int list -> ?pool:Pool.t -> prepared -> Tpg.t -> Tradeoff.point list

(** Rendering. *)

val render_table1 : table1_row list -> string
val render_table2 : table2_row list -> string

(** Suites: catalog names in Table 1 order. *)

val quick_suite : string list
(** small circuits — seconds each. *)

val full_suite : string list
(** every catalog entry; the largest are scaled unless [scale_factor 1]. *)

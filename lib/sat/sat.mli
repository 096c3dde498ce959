(** A small DPLL SAT solver over CNF.

    Built as the substrate for SAT-based test generation (Larrabee-style
    ATPG): unit propagation over occurrence lists, chronological
    backtracking, and a conflict budget that turns pathological instances
    into an explicit [Unknown] instead of a hang.  Complete within the budget: [Unsat] is
    a proof.

    The solver object is incremental in the assumption-based style:
    clauses and variables may be added between [solve] calls (the search
    structures are rebuilt per call), and [assumptions] scope a call to a
    sub-instance without committing clauses — retracting an assumption is
    just not passing it next time.

    Variables are positive integers [1..nvars]; a literal is [+v] or
    [-v]. *)

open Reseed_util

type t

type outcome =
  | Sat of bool array  (** model, indexed by variable (entry 0 unused) *)
  | Unsat
  | Unknown  (** conflict budget exhausted or wall-clock budget expired *)

(** [create nvars] — a solver over variables [1..nvars]. *)
val create : int -> t

(** [new_var t] extends the instance with a fresh variable and returns
    it.  Used by incremental encodings (e.g. cardinality counters) that
    outgrow the initial [create] allowance. *)
val new_var : t -> int

(** [add_clause t lits] adds a disjunction.  Duplicate literals are
    merged; a clause containing both [v] and [-v] is dropped as a
    tautology.  Adding the empty clause makes the instance trivially
    unsatisfiable.  Raises [Invalid_argument] on out-of-range literals. *)
val add_clause : t -> int list -> unit

(** [solve ?assumptions ?max_conflicts ?budget t] — [assumptions] are
    literals fixed before search (default none); [max_conflicts] defaults
    to 200_000.  [budget] adds cooperative wall-clock cancellation: the
    search loop polls it every ~1k steps (mirroring the ILP node-stride
    pattern) and returns [Unknown] when it has expired, so SAT-backed
    ATPG cannot overrun a [--deadline]. *)
val solve : ?assumptions:int list -> ?max_conflicts:int -> ?budget:Budget.t -> t -> outcome

val nvars : t -> int
val clause_count : t -> int

(** Exact 0/1 integer solver for (weighted) unate set covering — the
    *LINGO* substitute, run as an anytime algorithm.

    minimize    Σ w_i·x_i
    subject to  A·x ≥ 1 (every column covered),  x ∈ {0,1}^rows

    Branch-and-bound: branch on the hardest column (fewest covering
    rows), bound with the maximum of a {!Lagrangian} dual bound priced
    from root multipliers and the weighted independent-column bound,
    seed the incumbent with the (weighted) greedy solution.  A root dual
    bound that already meets the greedy seed proves optimality without
    opening a node.  A search still open after its first 500,000 nodes
    adopts the best of 64 seeded GRASP covers ({!Greedy.grasp_cover}) as
    its incumbent and runs on; every instance that closes inside that
    first quantum explores the plain search's node sequence.  When the
    search runs to completion ([stop_reason =
    Complete], [optimal = true]) the result is a global optimum — exactly
    what the paper gets out of LINGO on the reduced matrix.  When the
    node limit or the wall-clock budget trips first, the best incumbent
    found so far (at worst the greedy seed, always a valid cover) is
    returned with [optimal = false] and the reason recorded.

    A search node allocates nothing beyond the boxed float of the
    Lagrangian bound: per-column data (row count, cheapest covering
    weight) is read once per search from the matrix's cached transpose,
    each tree depth owns a residual buffer, and the frontier is held in
    flat int arrays (see {e Resumable search}).  The
    [ilp.solve] trace span reports nodes, prunes, incumbent updates, the
    stop reason, the root Lagrangian bound, the adopted GRASP cover's
    cost ([grasp_cost], only when the GRASP restarts ran) and the final
    cost. *)

open Reseed_util

type stop_reason =
  | Complete  (** exhaustive search finished: global optimum *)
  | Node_limit  (** [node_limit] exhausted: best incumbent returned *)
  | Budget of Budget.stop_reason
      (** wall-clock deadline or cancellation: best incumbent returned *)

(** [stop_reason_name r] is ["complete"], ["node-limit"], ["deadline"] or
    ["cancelled"]. *)
val stop_reason_name : stop_reason -> string

type result = {
  selected : int list;
      (** chosen row indices, ascending — a valid cover of every
          coverable column *)
  cost : float;
  optimal : bool;  (** [stop_reason = Complete] *)
  nodes_explored : int;
  stop_reason : stop_reason;
  uncovered : int list;
      (** columns no row covers, ascending — unreachable for any
          selection (undetectable faults on an unreduced matrix).  The
          solve covered everything else; [[]] on a feasible instance. *)
}

(** [solve ?weights ?node_limit ?budget m] — [weights] defaults to
    all-ones (cardinality minimisation); [node_limit] defaults to
    2_000_000; [budget] bounds wall-clock time (polled every few thousand
    nodes; an already-expired budget returns the greedy incumbent without
    branching).  The result is a pure function of [m], [weights] and
    [node_limit] when no budget trips.  Columns coverable by no row are excluded from the
    instance and reported in [uncovered] — the same silent degradation
    {!Greedy.solve} applies — so the exact path never crashes mid-flow on
    a matrix that still carries undetectable faults. *)
val solve :
  ?weights:float array -> ?node_limit:int -> ?budget:Budget.t -> Matrix.t -> result

(** {1 Resumable search}

    The branch-and-bound {!solve} runs on, with the depth-first
    frontier held in an explicit stack so it can run a node quantum at a
    time and adopt foreign incumbents between quanta ({!solve} adopts
    the GRASP cover this way).  A search left to run without injections
    explores the node sequence of the historical recursive search.

    A frame is two ints in flat arrays: the child's depth and the row it
    picks.  Each depth owns one residual-need buffer and one cost slot;
    popping a frame blits the parent's buffer (one depth up, intact by
    depth-first order) and subtracts the row.  Candidates are ordered by
    a stable insertion sort: cheapest first, larger marginal coverage on
    weight ties, then row index.  The pruning test takes the Lagrangian
    bound first and computes the independent-column bound only when the
    Lagrangian one does not prune.  That decides every node exactly as
    their maximum would: rounding is monotone, so [cost +. max a b >= x]
    holds exactly when [cost +. a >= x || cost +. b >= x]. *)

type search

(** The root of a search: the instance, its weights, the initial
    incumbent and the root Lagrangian bound optimised against the
    incumbent's cost.  Computing it is the whole root step; a caller
    that finds {!root_lb} already meets the incumbent is done without
    building a search. *)
type root

(** [root ?weights ?seed m] runs the root step.  [seed] is the initial
    incumbent as [(rows, cost)] (default: the weighted greedy cover). *)
val root : ?weights:float array -> ?seed:int list * float -> Matrix.t -> root

(** [root_lb r] is the root Lagrangian lower bound. *)
val root_lb : root -> float

(** [start ?node_limit r] prepares the search below [r], adopting its
    bound and incumbent. *)
val start : ?node_limit:int -> root -> search

(** [advance ?quantum ?budget s] explores up to [quantum] further nodes
    (default: unbounded), stopping early on exhaustion (optimality
    proved), the node limit, or budget expiry. *)
val advance : ?quantum:int -> ?budget:Budget.t -> search -> unit

(** [inject s ~rows ~cost] adopts a foreign incumbent when strictly
    better than the search's current one (never on ties, so a completed
    search still reports its own first-found optimum). *)
val inject : search -> rows:int list -> cost:float -> unit

(** [best s] is the current incumbent, rows ascending. *)
val best : search -> int list * float

(** [exhausted s] — the frontier is empty and nothing stopped the
    search: the incumbent is a proven optimum. *)
val exhausted : search -> bool

(** [search_stop s] is [None] while the search may continue (or has
    completed); [Node_limit] / [Budget] once tripped. *)
val search_stop : search -> stop_reason option

val nodes_explored : search -> int
val incumbent_updates : search -> int
val prunes : search -> int

(** Greedy set covering (Chvátal): repeatedly take the row covering the
    most still-uncovered columns — or, weighted, the row with the best
    cost-effectiveness ratio (new columns covered per unit weight).
    ln(n)-approximate; used as the upper bound seeding the exact
    branch-and-bound and as an ablation baseline against the exact
    solver.  Its randomised variant {!grasp_cover} supplies the exact
    search's second incumbent on instances the first node quantum does
    not close (see {!Ilp.solve}). *)

(** [solve ?weights m] returns selected row indices in pick order.  Each
    pick maximises [gain /. weights.(i)], the number of still-uncovered
    columns row [i] covers per unit weight, ties broken by lowest index.
    [weights] defaults to 1.0 for every row, which minimises cardinality:
    the ratio is then the integer gain, exactly.  Columns no row covers
    are ignored; the result always covers every coverable column.
    Raises [Invalid_argument] on a weight count mismatch or non-positive
    weights. *)
val solve : ?weights:float array -> Matrix.t -> int list

(** [cost ?weights rows] is the objective value of a selection:
    cardinality without weights, [Σ weights.(i)] with. *)
val cost : ?weights:float array -> int list -> float

(** [grasp_cover ?weights ~rng ~alpha m] is one GRASP construction: each
    pick draws uniformly (from [rng]) among the rows whose ratio
    [gain /. weight] is at least [alpha] times the best, then rows whose
    every column stays covered without them are trimmed, most expensive
    (then highest-index) first.  Rows come back ascending; the result
    covers every coverable column, keeps no redundant row and is a pure
    function of [m], [weights], [alpha] and [rng]'s state.  Raises
    [Invalid_argument] on bad weights, like {!solve}. *)
val grasp_cover :
  ?weights:float array -> rng:Reseed_util.Rng.t -> alpha:float -> Matrix.t -> int list

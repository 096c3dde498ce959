open Reseed_util

type config = {
  node_quantum : int;
  node_limit : int;
  restart_quantum : int;
  max_restarts : int;
  rcl_alpha : float;
  sat_row_limit : int;
  sat_conflict_quantum : int;
  sat_conflict_cap : int;
  seed : int;
}

(* The ILP quantum is deliberately large: a leg that closes its search
   inside round 1 has, by construction, received no foreign incumbent,
   so its answer is bit-identical to the standalone {!Ilp.solve} — the
   property the table-1 acceptance check leans on. *)
let default_config =
  {
    node_quantum = 500_000;
    node_limit = 2_000_000;
    restart_quantum = 8;
    max_restarts = 64;
    rcl_alpha = 0.8;
    sat_row_limit = 256;
    sat_conflict_quantum = 20_000;
    sat_conflict_cap = 1_280_000;
    seed = 0;
  }

type leg_stat = {
  leg : string;
  rounds : int;
  work : int;
  best_cost : float;
  improvements : int;
  proved : bool;
}

type result = {
  selected : int list;
  cost : float;
  optimal : bool;
  stop_reason : Ilp.stop_reason;
  winner : string;
  proved_by : string option;
  legs : leg_stat list;
  rounds : int;
  root_lb : float;
  uncovered : int list;
}

let epsilon = 1e-9

let m_rounds = Metrics.counter ~help:"portfolio barrier rounds" "portfolio_rounds"

let m_improvements =
  Metrics.counter ~help:"portfolio shared-incumbent improvements"
    "portfolio_incumbent_updates"

let m_proofs =
  Metrics.counter ~help:"portfolio optimality proofs" "portfolio_proofs"

let m_ilp_nodes =
  Metrics.counter ~help:"portfolio exact-leg nodes" "portfolio_ilp_nodes"

let m_sat_conflicts =
  Metrics.counter ~help:"portfolio SAT-leg conflicts" "portfolio_sat_conflicts"

let m_grasp_restarts =
  Metrics.counter ~help:"portfolio GRASP-leg restarts" "portfolio_grasp_restarts"

(* A racing leg.  All mutable state is owned by the leg and touched only
   by its own [run] — the pool may execute legs on any worker, but each
   index writes only its own record, so results are bit-identical at
   every job count (the {!Pool} determinism contract). *)
type leg = {
  name : string;
  mutable active : bool;
  mutable rounds_run : int;
  mutable work_done : int;
  mutable leg_best : float;
  mutable leg_improvements : int;
  mutable leg_proved : bool;
  mutable candidate : (int list * float) option;
      (** this round's proposal, rows ascending *)
  run : leg -> rows:int list -> cost:float -> Budget.t option -> unit;
}

let stat_of l =
  {
    leg = l.name;
    rounds = l.rounds_run;
    work = l.work_done;
    best_cost = l.leg_best;
    improvements = l.leg_improvements;
    proved = l.leg_proved;
  }

let propose l rows cost =
  l.candidate <- Some (rows, cost);
  if cost < l.leg_best -. epsilon then l.leg_best <- cost

(* ------------------------------------------------------------------ *)
(* Leg 1: the exact branch-and-bound, run a node quantum per round.    *)

let ilp_leg cfg search =
  let run l ~rows ~cost budget =
    Ilp.inject search ~rows ~cost;
    Ilp.advance ~quantum:cfg.node_quantum ?budget search;
    l.work_done <- Ilp.nodes_explored search;
    let brows, bcost = Ilp.best search in
    propose l brows bcost;
    if Ilp.exhausted search then l.leg_proved <- true;
    if Ilp.search_stop search <> None || l.leg_proved then l.active <- false
  in
  {
    name = "ilp";
    active = true;
    rounds_run = 0;
    work_done = 0;
    leg_best = infinity;
    leg_improvements = 0;
    leg_proved = false;
    candidate = None;
    run;
  }

(* ------------------------------------------------------------------ *)
(* Leg 2: SAT/cardinality descent — one at-most-(k−1) query per round
   against the incumbent's cardinality k, with a conflict allowance
   that doubles on every inconclusive answer.  [No_cover] is an
   optimality proof for the incumbent.  Cardinality only, so the leg is
   built solely when the objective is uniform. *)

let sat_leg cfg ~cost_of enc =
  let allowance = ref cfg.sat_conflict_quantum in
  let run l ~rows ~cost:_ budget =
    let k = List.length rows - 1 in
    match Satcover.solve_at_most enc ~k ~max_conflicts:!allowance ?budget () with
    | exception Invalid_argument _ -> l.active <- false
    | outcome -> (
        l.work_done <- l.work_done + Satcover.conflicts enc;
        match outcome with
        | Satcover.Cover c -> propose l c (cost_of c)
        | Satcover.No_cover -> l.leg_proved <- true; l.active <- false
        | Satcover.Unknown ->
            if not (Budget.check budget) then begin
              allowance := !allowance * 2;
              if !allowance > cfg.sat_conflict_cap then l.active <- false
            end)
  in
  {
    name = "sat";
    active = true;
    rounds_run = 0;
    work_done = 0;
    leg_best = infinity;
    leg_improvements = 0;
    leg_proved = false;
    candidate = None;
    run;
  }

(* ------------------------------------------------------------------ *)
(* Leg 3: GRASP — greedy with a restricted candidate list and seeded
   probabilistic tie-breaking, restarted [restart_quantum] times per
   round, each restart followed by a redundancy trim.  Restart [r]'s
   generator depends only on [(cfg.seed, r)], never on scheduling, so
   the leg's output stream is identical at every job count. *)

let grasp_cover ~rng ~alpha ~weight m =
  let n = Matrix.rows m in
  let need = Bitvec.copy (Matrix.universe m) in
  let picked = ref [] in
  let stuck = ref false in
  while (not !stuck) && not (Bitvec.is_empty need) do
    let best = ref 0. in
    for i = 0 to n - 1 do
      let gain = Bitvec.count_inter (Matrix.row m i) need in
      if gain > 0 then begin
        let r = float_of_int gain /. weight i in
        if r > !best then best := r
      end
    done;
    if !best <= 0. then stuck := true
    else begin
      let thresh = alpha *. !best in
      let rcl = ref [] and size = ref 0 in
      for i = n - 1 downto 0 do
        let gain = Bitvec.count_inter (Matrix.row m i) need in
        if gain > 0 && float_of_int gain /. weight i >= thresh then begin
          rcl := i :: !rcl;
          incr size
        end
      done;
      let choice = List.nth !rcl (Rng.int rng !size) in
      picked := choice :: !picked;
      Bitvec.diff_into ~into:need (Matrix.row m choice)
    end
  done;
  (* Trim: drop rows whose every column stays covered without them,
     most expensive (then highest-index) first. *)
  let counts = Array.make (Matrix.cols m) 0 in
  List.iter
    (fun i ->
      Bitvec.iter_ones (fun j -> counts.(j) <- counts.(j) + 1) (Matrix.row m i))
    !picked;
  let order =
    List.sort
      (fun a b -> compare (weight b, b) (weight a, a))
      !picked
  in
  let kept =
    List.filter
      (fun i ->
        let rs = Matrix.row m i in
        let redundant = ref true in
        Bitvec.iter_ones (fun j -> if counts.(j) < 2 then redundant := false) rs;
        if !redundant then begin
          Bitvec.iter_ones (fun j -> counts.(j) <- counts.(j) - 1) rs;
          false
        end
        else true)
      order
  in
  List.sort compare kept

let grasp_leg cfg ~weights ~cost_of m =
  let weight i = match weights with None -> 1.0 | Some w -> w.(i) in
  let restarts_done = ref 0 in
  let run l ~rows:_ ~cost:_ budget =
    let n = min cfg.restart_quantum (cfg.max_restarts - !restarts_done) in
    let best = ref None in
    for r = 0 to n - 1 do
      if not (Budget.check budget) then begin
        let rng = Rng.create ((cfg.seed * 1_000_003) + !restarts_done + r) in
        let rows = grasp_cover ~rng ~alpha:cfg.rcl_alpha ~weight m in
        let c = cost_of rows in
        match !best with
        | Some (_, bc) when bc <= c +. epsilon -> ()
        | _ -> best := Some (rows, c)
      end
    done;
    restarts_done := !restarts_done + n;
    l.work_done <- !restarts_done;
    (match !best with Some (rows, c) -> propose l rows c | None -> ());
    if !restarts_done >= cfg.max_restarts then l.active <- false
  in
  {
    name = "grasp";
    active = true;
    rounds_run = 0;
    work_done = 0;
    leg_best = infinity;
    leg_improvements = 0;
    leg_proved = false;
    candidate = None;
    run;
  }

(* ------------------------------------------------------------------ *)

let solve ?(config = default_config) ?weights ?budget ?pool m =
  let n_rows = Matrix.rows m and n_cols = Matrix.cols m in
  Trace.with_span "portfolio.solve"
    ~args:[ ("rows", string_of_int n_rows); ("cols", string_of_int n_cols) ]
  @@ fun () ->
  (match weights with
  | Some w ->
      if Array.length w <> n_rows then
        invalid_arg "Portfolio.solve: weight count mismatch";
      Array.iter
        (fun x -> if x <= 0. then invalid_arg "Portfolio.solve: weights must be > 0")
        w
  | None -> ());
  let uncovered = Matrix.uncoverable m in
  let cost_of rows = Greedy.cost ?weights rows in
  let seed_rows = List.sort compare (Greedy.solve_weighted ?weights m) in
  let seed_cost = cost_of seed_rows in
  let root = Ilp.root ?weights ~seed:(seed_rows, seed_cost) m in
  let root_lb = Ilp.root_lb root in
  if root_lb >= seed_cost -. epsilon then begin
    (* Dual bound meets the greedy seed at the root: optimal before any
       leg runs — identical to {!Ilp.solve}'s root short-circuit, so the
       two methods agree on these instances by construction. *)
    Metrics.incr m_proofs;
    {
      selected = seed_rows;
      cost = seed_cost;
      optimal = true;
      stop_reason = Ilp.Complete;
      winner = "seed";
      proved_by = Some "bound";
      legs = [];
      rounds = 0;
      root_lb;
      uncovered;
    }
  end
  else begin
    (* The search adopts the root bound [Ilp.solve] would compute, so a
       leg that closes without foreign incumbents explores the standalone
       solver's exact node sequence and reports its exact answer. *)
    let search = Ilp.start ~node_limit:config.node_limit root in
    let uniform =
      match weights with
      | None -> true
      | Some w -> n_rows = 0 || Array.for_all (fun x -> x = w.(0)) w
    in
    let legs =
      List.concat
        [
          [ ilp_leg config search ];
          (if uniform && n_rows > 0 && n_rows <= config.sat_row_limit then
             [
               sat_leg config ~cost_of
                 (Satcover.create ~ub:(List.length seed_rows) m);
             ]
           else []);
          [ grasp_leg config ~weights ~cost_of m ];
        ]
    in
    let best_rows = ref seed_rows and best_cost = ref seed_cost in
    let winner = ref "seed" and proved_by = ref None in
    let rounds = ref 0 and improvements = ref 0 in
    let stop = ref None in
    while !stop = None && !proved_by = None
          && List.exists (fun l -> l.active) legs do
      incr rounds;
      let active = Array.of_list (List.filter (fun l -> l.active) legs) in
      let rows = !best_rows and cost = !best_cost in
      (* Race the legs: one index per leg, each a deterministic work
         quantum against the incumbent frozen at the barrier. *)
      Pool.parallel_for ?pool ~chunk:1 ~label:"portfolio.round"
        ~total:(Array.length active) (fun ~worker:_ ~lo ~hi ->
          for i = lo to hi - 1 do
            let l = active.(i) in
            l.candidate <- None;
            l.rounds_run <- l.rounds_run + 1;
            l.run l ~rows ~cost budget
          done);
      (* Merge in fixed leg order: strictly better cost wins, so an
         equal-cost rediscovery never displaces the current holder. *)
      Array.iter
        (fun l ->
          match l.candidate with
          | Some (crows, ccost) when ccost < !best_cost -. epsilon ->
              best_rows := crows;
              best_cost := ccost;
              winner := l.name;
              l.leg_improvements <- l.leg_improvements + 1;
              incr improvements
          | _ -> ())
        active;
      (* Proofs, fixed priority: a closed exact search names its own
         first-found optimum (the standalone-ILP answer when it closed
         without foreign incumbents); then the SAT descent's No_cover;
         then the root dual bound meeting the merged incumbent. *)
      Array.iter
        (fun l ->
          if l.leg_proved && !proved_by = None then begin
            proved_by := Some l.name;
            if l.name = "ilp" then begin
              let brows, bcost = Ilp.best search in
              best_rows := brows;
              best_cost := bcost;
              winner := "ilp"
            end
          end)
        active;
      if !proved_by = None && root_lb >= !best_cost -. epsilon then
        proved_by := Some "bound";
      (match budget with
      | Some b when !proved_by = None && Budget.expired b ->
          stop := Option.map (fun r -> Ilp.Budget r) (Budget.stop_reason b)
      | _ -> ())
    done;
    Metrics.add m_rounds !rounds;
    Metrics.add m_improvements !improvements;
    if !proved_by <> None then Metrics.incr m_proofs;
    List.iter
      (fun l ->
        match l.name with
        | "ilp" -> Metrics.add m_ilp_nodes l.work_done
        | "sat" -> Metrics.add m_sat_conflicts l.work_done
        | _ -> Metrics.add m_grasp_restarts l.work_done)
      legs;
    let stop_reason =
      match (!proved_by, !stop) with
      | Some _, _ -> Ilp.Complete
      | None, Some r -> r
      | None, None -> Ilp.Node_limit
    in
    {
      selected = !best_rows;
      cost = !best_cost;
      optimal = !proved_by <> None;
      stop_reason;
      winner = !winner;
      proved_by = !proved_by;
      legs = List.map stat_of legs;
      rounds = !rounds;
      root_lb;
      uncovered;
    }
  end

open Reseed_fault
open Reseed_setcover
open Reseed_tpg
open Reseed_util

type objective = Min_triplets | Min_test_length

let objectives = [ Min_triplets; Min_test_length ]
let objective_name = function Min_triplets -> "triplets" | Min_test_length -> "length"

type config = {
  builder : Builder.config;
  method_ : Solution.method_;
  reduce : Reduce.config;
  objective : objective;
}

let default_config =
  {
    builder = Builder.default_config;
    method_ = Solution.Exact;
    reduce = Reduce.default_config;
    objective = Min_triplets;
  }

type result = {
  tpg_name : string;
  initial : Builder.t;
  solution : Solution.t;
  final_triplets : Triplet.t list;
  dropped_triplets : int;
  test_length : int;
  uniform_test_length : int;
  coverage_pct : float;
  fault_sims : int;
  elapsed_s : float;
  degraded : bool;
  stop_reason : Budget.stop_reason option;
}

let reseedings r = List.length r.final_triplets

let m_dropped =
  Metrics.counter
    ~help:"redundant selected triplets dropped during truncation"
    "flow_dropped_triplets"

(* Section 4 test-length accounting: apply the chosen triplets in order
   with fault dropping; each burst is truncated after the last pattern
   that detects a fault no earlier burst (or pattern) already covered. *)
let truncate_solution sim tpg ~triplets ~targets rows =
  Trace.with_span "flow.truncate" @@ fun () ->
  let live = Bitvec.copy targets in
  let final = ref [] in
  let dropped = ref 0 in
  List.iter
    (fun row ->
      let triplet = triplets.(row) in
      (* A *minimal* cover gives every selected triplet some unique fault,
         so nothing is dropped on the optimal path.  A degraded (greedy /
         incumbent) cover can select redundant rows; those are dropped
         from the final reseeding and counted, not silently vanished. *)
      match Fault_sim.useful_length sim ~live (Triplet.patterns tpg triplet) with
      | 0 -> incr dropped
      | len -> final := Triplet.truncate triplet len :: !final)
    rows;
  (List.rev !final, live, !dropped)

(* ------------------------------------------------------------------ *)
(* The cover stage: reduction, end-game and (for a reseeding flow) the
   Section-4 truncation, cached as one artifact.  Its key chains from the
   matrix-stage fingerprint [fpm], the lineage root, so any upstream
   change — tests, targets, TPG, builder config, or the ATPG-stage salt —
   invalidates it. *)

let cover_fingerprint config fpm =
  let open Fingerprint in
  let h = salted "cover" in
  let h = int64 h fpm in
  let h = string h (Solution.method_name config.method_) in
  let h = string h (objective_name config.objective) in
  let h = bool h config.reduce.Reduce.row_dominance in
  let h = bool h config.reduce.Reduce.col_dominance in
  let h = bool h config.reduce.Reduce.essentials in
  int h config.reduce.Reduce.col_dominance_limit

(* Only complete covers are stored: an incumbent cut short by a budget
   must be recomputed next time (maybe with more time).  What follows
   from the matrix — its size and its uncoverable columns — is not
   stored but recomputed on decode. *)
let encode_cover (s, truncation) =
  let st = s.Solution.stats in
  if st.Solution.degraded then None
  else begin
    let open Artifact.Codec in
    let b = Buffer.create 256 in
    int_list b st.Solution.necessary;
    int_list b st.Solution.from_solver;
    vint b st.Solution.reduced_rows;
    vint b st.Solution.reduced_cols;
    vint b st.Solution.reduction_iterations;
    vint b st.Solution.solver_nodes;
    u32 b (Bool.to_int st.Solution.solver_optimal);
    Option.iter
      (fun (final, missed, dropped) ->
        vint b dropped;
        bitvec b missed;
        u32 b (List.length final);
        List.iter
          (fun t ->
            word b t.Triplet.seed;
            word b t.Triplet.operand;
            u32 b t.Triplet.cycles)
          final)
      truncation;
    Some (Buffer.contents b)
  end

let decode_cover ?targets m r =
  let open Artifact.Codec in
  let necessary = get_int_list r in
  let from_solver = get_int_list r in
  let reduced_rows = get_vint r in
  let reduced_cols = get_vint r in
  let reduction_iterations = get_vint r in
  let solver_nodes = get_vint r in
  let solver_optimal =
    match get_u32 r with 0 -> false | 1 -> true | _ -> raise Malformed
  in
  let solution =
    {
      Solution.rows = List.sort_uniq compare (necessary @ from_solver);
      stats =
        {
          Solution.initial_rows = Matrix.rows m;
          initial_cols = Matrix.cols m;
          necessary;
          reduced_rows;
          reduced_cols;
          from_solver;
          reduction_iterations;
          solver_nodes;
          solver_optimal;
          solver_stop = Ilp.Complete;
          degraded = false;
          uncovered = Matrix.uncoverable m;
        };
    }
  in
  let truncation =
    Option.map
      (fun targets ->
        let dropped = get_vint r in
        let missed = get_bitvec r in
        if Bitvec.length missed <> Bitvec.length targets then raise Malformed;
        let n = get_u32 r in
        let final =
          List.init n (fun _ ->
              let seed = get_word r in
              let operand = get_word r in
              let cycles = get_u32 r in
              try Triplet.make ~seed ~operand ~cycles
              with Invalid_argument _ -> raise Malformed)
        in
        (final, missed, dropped))
      targets
  in
  (solution, truncation)

let cached_cover store ~fp ?targets m compute =
  Artifact.cached (Some store) ~stage:"cover" ~fp ~encode:encode_cover
    ~decode:(decode_cover ?targets m) compute

let run_prebuilt ?(config = default_config) ?pool:_ ?budget ?store ?fingerprint:fpm
    sim tpg ~initial ~targets =
  let t0 = Unix.gettimeofday () in
  let sims_before = Fault_sim.sims_performed sim in
  let m = initial.Builder.matrix in
  let row_weights =
    match config.objective with
    | Min_triplets -> None
    | Min_test_length ->
        Some (Array.map float_of_int initial.Builder.useful_cycles)
  in
  let compute () =
    let solution =
      Solution.solve ~method_:config.method_ ~reduce_config:config.reduce
        ?row_weights ?budget m
    in
    ( solution,
      Some
        (truncate_solution sim tpg ~triplets:initial.Builder.triplets ~targets
           solution.Solution.rows) )
  in
  (* A matrix with skipped rows differs from what its fingerprint
     promises: neither read nor write its cover. *)
  let solution, truncation =
    match (store, fpm) with
    | Some st, Some fpm when initial.Builder.rows_skipped = 0 ->
        cached_cover st ~fp:(cover_fingerprint config fpm) ~targets m compute
    | _ -> compute ()
  in
  let final_triplets, missed, dropped = Option.get truncation in
  let covered = Bitvec.count targets - Bitvec.count missed in
  let test_length =
    List.fold_left (fun acc t -> acc + t.Triplet.cycles) 0 final_triplets
  in
  (* The uniform scheme (no per-burst truncation hardware) runs every
     *selected* triplet for its full configured burst length, so the
     comparison baseline uses the pre-truncation cycle counts and counts
     the redundant rows the truncated flow drops — not the truncated
     cycles of the surviving subset, which understated it. *)
  let uniform_cycles =
    List.fold_left
      (fun acc row -> max acc initial.Builder.triplets.(row).Triplet.cycles)
      0 solution.Solution.rows
  in
  Metrics.add m_dropped dropped;
  {
    tpg_name = tpg.Tpg.name;
    initial;
    solution;
    final_triplets;
    dropped_triplets = dropped;
    test_length;
    uniform_test_length = List.length solution.Solution.rows * uniform_cycles;
    coverage_pct = Stats.pct covered (max 1 (Bitvec.count targets));
    fault_sims =
      initial.Builder.fault_sims + (Fault_sim.sims_performed sim - sims_before);
    elapsed_s = Unix.gettimeofday () -. t0;
    degraded =
      solution.Solution.stats.Solution.degraded || initial.Builder.rows_skipped > 0;
    stop_reason = Option.join (Option.map Budget.stop_reason budget);
  }

let run ?(config = default_config) ?pool ?budget ?store ?fingerprint sim tpg ~tests
    ~targets =
  Trace.with_span "flow.run" ~args:[ ("tpg", tpg.Tpg.name) ] @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let fpm =
    Builder.fingerprint ?salt:fingerprint ~fault_model:(Fault_sim.model sim)
      ~tests ~targets tpg ~config:config.builder
  in
  let initial =
    Builder.build ?pool ?budget ?store ~fingerprint:fpm sim tpg ~tests
      ~targets ~config:config.builder
  in
  let r =
    run_prebuilt ~config ?budget ?store ~fingerprint:fpm sim tpg ~initial
      ~targets
  in
  (* The prebuilt leg timed itself; report the whole flow, matrix build
     included.  [fault_sims] already covers both (it is counted from
     [initial.fault_sims] plus the truncation sweeps). *)
  { r with elapsed_s = Unix.gettimeofday () -. t0 }

let regrade sim tpg r =
  let all_patterns =
    Array.concat (List.map (fun t -> Triplet.patterns tpg t) r.final_triplets)
  in
  Fault_sim.detected_set sim all_patterns ~active:r.initial.Builder.targets

let verify sim tpg r = Bitvec.subset r.initial.Builder.targets (regrade sim tpg r)

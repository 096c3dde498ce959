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
(* Stage fingerprints and payload codecs for the covering stages.  The
   matrix-stage fingerprint [fpm] is the lineage root: reduce, solve and
   truncate keys all chain from it, so any upstream change — tests,
   targets, TPG, builder config, or the ATPG-stage salt — invalidates
   every downstream artifact at once. *)

let reduce_fingerprint ~fpm ~reduce ~row_weights =
  let open Fingerprint in
  let h = salted "reduce" in
  let h = int64 h fpm in
  let h = bool h reduce.Reduce.row_dominance in
  let h = bool h reduce.Reduce.col_dominance in
  let h = bool h reduce.Reduce.essentials in
  let h = int h reduce.Reduce.col_dominance_limit in
  option (array float) h row_weights

let solve_fingerprint ~base ~method_ ~row_weights =
  let open Fingerprint in
  let h = salted "solve" in
  let h = int64 h base in
  let h = string h (Solution.method_name method_) in
  option (array float) h row_weights

let truncate_fingerprint ~fpm ~rows =
  let open Fingerprint in
  let h = salted "truncate" in
  let h = int64 h fpm in
  list int h rows

let encode_reduce (r : Reduce.result) =
  let b = Buffer.create 256 in
  Artifact.Codec.int_list b r.Reduce.necessary;
  Artifact.Codec.int_list b r.Reduce.remaining_rows;
  Artifact.Codec.int_list b r.Reduce.remaining_cols;
  Artifact.Codec.vint b r.Reduce.iterations;
  Artifact.Codec.vint b r.Reduce.rows_dominated;
  Artifact.Codec.vint b r.Reduce.cols_dominated;
  Some (Buffer.contents b)

let decode_reduce r =
  let necessary = Artifact.Codec.get_int_list r in
  let remaining_rows = Artifact.Codec.get_int_list r in
  let remaining_cols = Artifact.Codec.get_int_list r in
  let iterations = Artifact.Codec.get_vint r in
  let rows_dominated = Artifact.Codec.get_vint r in
  let cols_dominated = Artifact.Codec.get_vint r in
  {
    Reduce.necessary;
    remaining_rows;
    remaining_cols;
    iterations;
    rows_dominated;
    cols_dominated;
  }

(* Only proven-complete end-games are worth reusing; an incumbent cut
   short by a budget must be recomputed next time (maybe with more time). *)
let encode_solve (e : Solution.endgame) =
  if e.Solution.stop <> Ilp.Complete then None
  else begin
    let b = Buffer.create 64 in
    Artifact.Codec.int_list b e.Solution.selected;
    Artifact.Codec.vint b e.Solution.nodes;
    Artifact.Codec.u32 b (if e.Solution.optimal then 1 else 0);
    Some (Buffer.contents b)
  end

let decode_solve r =
  let selected = Artifact.Codec.get_int_list r in
  let nodes = Artifact.Codec.get_vint r in
  let optimal =
    match Artifact.Codec.get_u32 r with
    | 0 -> false
    | 1 -> true
    | _ -> raise Artifact.Codec.Malformed
  in
  { Solution.selected; nodes; stop = Ilp.Complete; optimal }

let encode_truncate ~targets (final, missed, dropped) =
  if Bitvec.length missed <> Bitvec.length targets then None
  else begin
    let b = Buffer.create 256 in
    Artifact.Codec.vint b dropped;
    Artifact.Codec.bitvec b missed;
    Artifact.Codec.u32 b (List.length final);
    List.iter
      (fun t ->
        Artifact.Codec.word b t.Triplet.seed;
        Artifact.Codec.word b t.Triplet.operand;
        Artifact.Codec.u32 b t.Triplet.cycles)
      final;
    Some (Buffer.contents b)
  end

let decode_truncate ~targets r =
  let dropped = Artifact.Codec.get_vint r in
  let missed = Artifact.Codec.get_bitvec r in
  if Bitvec.length missed <> Bitvec.length targets then
    raise Artifact.Codec.Malformed;
  let n = Artifact.Codec.get_u32 r in
  let final =
    List.init n (fun _ ->
        let seed = Artifact.Codec.get_word r in
        let operand = Artifact.Codec.get_word r in
        let cycles = Artifact.Codec.get_u32 r in
        try Triplet.make ~seed ~operand ~cycles
        with Invalid_argument _ -> raise Artifact.Codec.Malformed)
  in
  (final, missed, dropped)

(* Only the reduce result is stored: the residual is cheap to rebuild and
   deterministic in (m, red), so [Solution.solve] recomputes it. *)
let memo ~method_ ~reduce ~row_weights store fpm =
  let fp_reduce = reduce_fingerprint ~fpm ~reduce ~row_weights in
  let base = if method_ = Solution.No_reduction_exact then fpm else fp_reduce in
  let fp_solve = solve_fingerprint ~base ~method_ ~row_weights in
  {
    Solution.reduce =
      Artifact.cached (Some store) ~stage:"reduce" ~fp:fp_reduce
        ~encode:encode_reduce ~decode:decode_reduce;
    endgame =
      Artifact.cached (Some store) ~stage:"solve" ~fp:fp_solve
        ~encode:encode_solve ~decode:decode_solve;
  }

let run_prebuilt ?(config = default_config) ?pool:_ ?budget ?store ?fingerprint:fpm
    sim tpg ~initial ~targets =
  let t0 = Unix.gettimeofday () in
  let sims_before = Fault_sim.sims_performed sim in
  let row_weights =
    match config.objective with
    | Min_triplets -> None
    | Min_test_length ->
        Some (Array.map float_of_int initial.Builder.useful_cycles)
  in
  (* A matrix with skipped rows differs from what its fingerprint
     promises: neither read nor write any downstream artifact for it. *)
  let cache =
    match (store, fpm) with
    | Some st, Some fpm when initial.Builder.rows_skipped = 0 -> Some (st, fpm)
    | _ -> None
  in
  let memo =
    Option.map
      (fun (st, fpm) ->
        memo ~method_:config.method_ ~reduce:config.reduce ~row_weights st fpm)
      cache
  in
  let solution =
    Solution.solve ~method_:config.method_ ~reduce_config:config.reduce
      ?row_weights ?budget ?memo initial.Builder.matrix
  in
  let final_triplets, missed, dropped =
    let compute () =
      truncate_solution sim tpg ~triplets:initial.Builder.triplets ~targets
        solution.Solution.rows
    in
    match cache with
    | Some (st, fpm) when not solution.Solution.stats.Solution.degraded ->
        let fp = truncate_fingerprint ~fpm ~rows:solution.Solution.rows in
        Artifact.cached (Some st) ~stage:"truncate" ~fp
          ~encode:(encode_truncate ~targets) ~decode:(decode_truncate ~targets)
          compute
    | _ -> compute ()
  in
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

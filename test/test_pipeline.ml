(* Stage pipeline over the content-addressed artifact store: fingerprint
   invalidation (every upstream knob must miss the cache; identical
   reruns must hit bit-identically), corruption recovery, cached-vs-plain
   flow equality, the shared-prefix trade-off sweep, and the batch
   campaign runner. *)

open Reseed_core
open Reseed_netlist
open Reseed_setcover
open Reseed_tpg
open Reseed_util

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let temp_counter = ref 0

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_store f =
  incr temp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "reseed-pipeline-%d-%d" (Unix.getpid ()) !temp_counter)
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () -> f (Artifact.open_store dir))

(* Counter deltas around a thunk — counters are global and monotonic. *)
let metric name = Metrics.value (Metrics.counter name)

let delta name f =
  let before = metric name in
  let v = f () in
  (v, metric name - before)

(* --- fingerprints ----------------------------------------------------- *)

let test_fingerprint_combinators () =
  let open Fingerprint in
  let h = salted "test" in
  check "deterministic" true (equal (string h "a") (string h "a"));
  check "value sensitive" false (equal (string h "a") (string h "b"));
  check "salt sensitive" false (equal (string (salted "other") "a") (string h "a"));
  (* Concatenation must not collide across field boundaries. *)
  check "length framed" false
    (equal (string (string h "ab") "c") (string (string h "a") "bc"));
  check "option framed" false (equal (option int h None) (option int h (Some 0)));
  check "list framed" false (equal (list int h [ 1; 2 ]) (list int h [ 12 ]));
  check_int "hex width" 16 (String.length (to_hex h))

let test_circuit_fingerprint () =
  let a = Suite.circuit_fingerprint (Library.load "c17") in
  let b = Suite.circuit_fingerprint (Library.load "c17") in
  let c = Suite.circuit_fingerprint (Library.load "c432") in
  check "same netlist, same fp" true (Fingerprint.equal a b);
  check "different netlist, different fp" false (Fingerprint.equal a c)

(* --- artifact store --------------------------------------------------- *)

let enc_str s = Some s
let dec_str r = Artifact.Codec.get_str r

let test_artifact_cached_and_corruption () =
  with_store @@ fun store ->
  let fp = Fingerprint.string (Fingerprint.salted "t") "payload" in
  let computes = ref 0 in
  let run () =
    Artifact.cached (Some store) ~stage:"t" ~fp
      ~encode:(fun v ->
        let b = Buffer.create 16 in
        Artifact.Codec.str b v;
        enc_str (Buffer.contents b))
      ~decode:dec_str
      (fun () ->
        incr computes;
        "hello")
  in
  let v1, misses = delta "artifact_misses" run in
  check_string "cold computes" "hello" v1;
  check_int "cold misses" 1 misses;
  let v2, hits = delta "artifact_hits" run in
  check_string "warm decodes" "hello" v2;
  check_int "warm hits" 1 hits;
  check_int "computed once" 1 !computes;
  (* Flip a payload byte: the checksum must reject it and the value must
     be recomputed and re-persisted. *)
  let path = Artifact.path store ~stage:"t" fp in
  let data = In_channel.with_open_bin path In_channel.input_all in
  let bad = Bytes.of_string data in
  let last = Bytes.length bad - 1 in
  Bytes.set bad last (Char.chr (Char.code (Bytes.get bad last) lxor 0xff));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc bad);
  let v3, corrupt = delta "artifact_corrupt" run in
  check_string "corrupt recomputes" "hello" v3;
  check_int "corruption detected" 1 corrupt;
  check_int "recomputed" 2 !computes;
  let v4, hits = delta "artifact_hits" run in
  check_string "overwritten artifact hits again" "hello" v4;
  check_int "rewarm hits" 1 hits

(* Detection-matrix rows are written and read as packed bits (tag 0).
   An index list (tag 1), the form earlier versions stored sparse rows
   in, is malformed like any other tag, and so is a truncated payload. *)
let test_row_codec () =
  let bits = Bitvec.of_list 100 [ 3; 17; 64; 99 ] in
  let decode s =
    let r = Artifact.Codec.reader s in
    let v = Artifact.Codec.get_row r in
    (v, Artifact.Codec.at_end r)
  in
  let b = Buffer.create 32 in
  Artifact.Codec.row b bits;
  let packed = Buffer.contents b in
  check "written as tag 0" true (packed.[0] = '\000');
  let v, at_end = decode packed in
  check "packed row round-trips" true (Bitvec.equal v bits && at_end);
  let index_list ?(tag = '\001') ~len ~cnt idx =
    let b = Buffer.create 32 in
    Buffer.add_char b tag;
    Artifact.Codec.u32 b len;
    Artifact.Codec.u32 b cnt;
    List.iter (Artifact.Codec.u32 b) idx;
    Buffer.contents b
  in
  let malformed what s =
    match decode s with
    | exception Artifact.Codec.Malformed -> ()
    | _ -> Alcotest.failf "%s: accepted" what
  in
  malformed "index list" (index_list ~len:100 ~cnt:4 [ 3; 17; 64; 99 ]);
  malformed "empty index list" (index_list ~len:70 ~cnt:0 []);
  malformed "unknown tag" (index_list ~tag:'\002' ~len:100 ~cnt:0 []);
  malformed "truncated row" (String.sub packed 0 (String.length packed - 1));
  malformed "truncated length" (String.sub packed 0 3);
  malformed "empty payload" ""

(* --- ATPG-stage invalidation ------------------------------------------ *)

let test_atpg_stage_invalidation () =
  with_store @@ fun store ->
  let c = Library.load "c17" in
  let prep ?fault_model () = Suite.prepare_circuit ?fault_model ~store c in
  let p_cold, m = delta "stage_atpg_cache_misses" (fun () -> prep ()) in
  check_int "cold run misses" 1 m;
  let p_warm, h = delta "stage_atpg_cache_hits" (fun () -> prep ()) in
  check_int "identical rerun hits" 1 h;
  check "warm tests identical" true (p_warm.Suite.tests = p_cold.Suite.tests);
  check "warm targets identical" true
    (Bitvec.equal p_warm.Suite.targets p_cold.Suite.targets);
  check "warm fingerprint identical" true
    (Fingerprint.equal p_warm.Suite.fingerprint p_cold.Suite.fingerprint);
  (* Each upstream knob must change the stage key. *)
  let miss name f =
    let p, m = delta "stage_atpg_cache_misses" f in
    check_int (name ^ " misses") 1 m;
    check (name ^ " changes fingerprint") false
      (Fingerprint.equal p.Suite.fingerprint p_cold.Suite.fingerprint)
  in
  miss "fault model" (fun () ->
      prep ~fault_model:Reseed_fault.Fault_model.Transition_delay ());
  (* A different netlist misses too (fresh store dir proves nothing —
     same store, different circuit key). *)
  let _, m =
    delta "stage_atpg_cache_misses" (fun () ->
        Suite.prepare_circuit ~store (Library.load "c432"))
  in
  check_int "netlist misses" 1 m

(* --- matrix-stage caching --------------------------------------------- *)

let test_matrix_stage_bit_identity () =
  with_store @@ fun store ->
  let p = Suite.prepare_circuit (Library.load "c17") in
  let tpg = Accumulator.adder (Circuit.input_count p.Suite.circuit) in
  let build ~cycles =
    let config = { Builder.default_config with Builder.cycles } in
    let fp =
      Builder.fingerprint ~salt:p.Suite.fingerprint ~tests:p.Suite.tests
        ~targets:p.Suite.targets tpg ~config
    in
    Builder.build ~store ~fingerprint:fp p.Suite.sim tpg ~tests:p.Suite.tests
      ~targets:p.Suite.targets ~config
  in
  let cold, m = delta "stage_matrix_cache_misses" (fun () -> build ~cycles:40) in
  check_int "cold misses" 1 m;
  let warm, h = delta "stage_matrix_cache_hits" (fun () -> build ~cycles:40) in
  check_int "warm hits" 1 h;
  check_int "warm run simulates nothing" 0 warm.Builder.fault_sims;
  check "matrix bit-identical" true
    (Array.for_all
       (fun i ->
         Bitvec.equal (Matrix.row cold.Builder.matrix i) (Matrix.row warm.Builder.matrix i))
       (Array.init (Matrix.rows cold.Builder.matrix) Fun.id));
  check "useful_cycles identical" true
    (cold.Builder.useful_cycles = warm.Builder.useful_cycles);
  check "triplets identical" true (cold.Builder.triplets = warm.Builder.triplets);
  (* Builder cycles participate in the key. *)
  let _, m = delta "stage_matrix_cache_misses" (fun () -> build ~cycles:80) in
  check_int "different cycles miss" 1 m

(* A matrix blob whose rows are index lists (tag 1), as stores filled by
   earlier versions hold it, is corrupt: the stage recomputes the same
   matrix and rewrites the blob with packed rows, byte for byte what a
   cold build writes. *)
let test_matrix_stage_index_list_recomputed () =
  with_store @@ fun store ->
  let p = Suite.prepare_circuit (Library.load "c17") in
  let tpg = Accumulator.adder (Circuit.input_count p.Suite.circuit) in
  let config = Builder.default_config in
  let fp =
    Builder.fingerprint ~salt:p.Suite.fingerprint ~tests:p.Suite.tests
      ~targets:p.Suite.targets tpg ~config
  in
  let build () =
    Builder.build ~store ~fingerprint:fp p.Suite.sim tpg ~tests:p.Suite.tests
      ~targets:p.Suite.targets ~config
  in
  let cold = build () in
  let path = Artifact.path store ~stage:"matrix" fp in
  let read () = In_channel.with_open_bin path In_channel.input_all in
  let packed = read () in
  let m = cold.Builder.matrix in
  let b = Buffer.create 256 in
  Artifact.Codec.u32 b (Matrix.rows m);
  Artifact.Codec.u32 b (Matrix.cols m);
  Array.iteri
    (fun i useful ->
      let ones = Bitvec.to_list (Matrix.row m i) in
      Artifact.Codec.u32 b useful;
      Buffer.add_char b '\001';
      Artifact.Codec.u32 b (Matrix.cols m);
      Artifact.Codec.u32 b (List.length ones);
      List.iter (Artifact.Codec.u32 b) ones)
    cold.Builder.useful_cycles;
  Artifact.save store ~stage:"matrix" fp (Buffer.contents b);
  check "index-list blob stored" false (read () = packed);
  let (again, corrupt), misses =
    delta "stage_matrix_cache_misses" (fun () -> delta "artifact_corrupt" build)
  in
  check_int "counts as corrupt" 1 corrupt;
  check_int "misses" 1 misses;
  check "same matrix" true
    (Array.for_all
       (fun i -> Bitvec.equal (Matrix.row m i) (Matrix.row again.Builder.matrix i))
       (Array.init (Matrix.rows m) Fun.id));
  check "same useful cycles" true
    (cold.Builder.useful_cycles = again.Builder.useful_cycles);
  check "rewritten with packed rows" true (read () = packed);
  let _, hits = delta "stage_matrix_cache_hits" (fun () -> ignore (build ())) in
  check_int "rewritten blob hits" 1 hits

(* --- cached flow vs plain flow ----------------------------------------- *)

let flow_signature r =
  ( Flow.reseedings r,
    r.Flow.test_length,
    r.Flow.uniform_test_length,
    r.Flow.final_triplets,
    r.Flow.coverage_pct,
    r.Flow.degraded )

(* Every method x objective: the memoised solve must hand back the very
   same [Solution.t] as the plain one — rows and every stats field — cold
   and warm.  The mp-lfsr TPG at T=5 leaves c17 a non-empty residual, so
   the end-game stage is exercised, not only the reducer. *)
let test_cached_flow_matches_plain () =
  let p = Suite.prepare_circuit (Library.load "c17") in
  let tpg = Lfsr.multi_polynomial (Circuit.input_count p.Suite.circuit) in
  let builder = { Builder.default_config with Builder.cycles = 5 } in
  List.iter
    (fun method_ ->
      List.iter
        (fun (objective, oname) ->
          with_store @@ fun store ->
          let config =
            { Flow.default_config with Flow.builder; method_; objective }
          in
          let run ?store ?fingerprint () =
            Flow.run ~config ?store ?fingerprint p.Suite.sim tpg
              ~tests:p.Suite.tests ~targets:p.Suite.targets
          in
          let fingerprint = p.Suite.fingerprint in
          let label what =
            Printf.sprintf "%s/%s: %s" (Solution.method_name method_) oname what
          in
          let plain = run () in
          let cold = run ~store ~fingerprint () in
          let (warm, sims), misses =
            delta "artifact_misses" (fun () ->
                delta "fault_sims" (fun () -> run ~store ~fingerprint ()))
          in
          let stats = plain.Flow.solution.Solution.stats in
          check (label "residual non-empty") true (stats.Solution.reduced_rows > 0);
          check (label "cold solution = plain") true
            (cold.Flow.solution = plain.Flow.solution);
          check (label "warm solution = plain") true
            (warm.Flow.solution = plain.Flow.solution);
          check (label "cold = plain") true (flow_signature cold = flow_signature plain);
          check (label "warm = plain") true (flow_signature warm = flow_signature plain);
          check_int (label "fully warm run simulates nothing") 0 sims;
          check_int (label "fully warm run misses nothing") 0 misses;
          check (label "verifies") true (Flow.verify p.Suite.sim tpg warm))
        [ (Flow.Min_triplets, "triplets"); (Flow.Min_test_length, "length") ])
    Solution.methods

(* --- cover stage --------------------------------------------------------- *)

(* c17 under the mp-lfsr TPG at T=5: reduction leaves a non-empty
   residual, so the exact end-game runs and a budget can cut it short.
   [run] is the covering half over one prebuilt matrix. *)
let cover_setup () =
  let p = Suite.prepare_circuit (Library.load "c17") in
  let tpg = Lfsr.multi_polynomial (Circuit.input_count p.Suite.circuit) in
  let builder = { Builder.default_config with Builder.cycles = 5 } in
  let config = { Flow.default_config with Flow.builder } in
  let tests = p.Suite.tests and targets = p.Suite.targets in
  let fpm = Builder.fingerprint ~salt:p.Suite.fingerprint ~tests ~targets tpg ~config:builder in
  let initial = Builder.build p.Suite.sim tpg ~tests ~targets ~config:builder in
  let run ?budget store =
    Flow.run_prebuilt ~config ?budget ~store ~fingerprint:fpm p.Suite.sim tpg ~initial
      ~targets
  in
  (targets, Flow.cover_fingerprint config fpm, run)

let test_degraded_cover_not_written () =
  with_store @@ fun store ->
  let _, fp, run = cover_setup () in
  let blob = Artifact.path store ~stage:"cover" fp in
  let cut, writes =
    delta "artifact_writes" (fun () -> run ~budget:(Budget.create ~deadline_s:0.0 ()) store)
  in
  let stats = cut.Flow.solution.Solution.stats in
  check "residual non-empty" true (stats.Solution.reduced_rows > 0);
  check "end-game cut short" true (stats.Solution.degraded && cut.Flow.degraded);
  check_int "degraded run writes nothing" 0 writes;
  check "no cover blob" false (Sys.file_exists blob);
  let full, writes = delta "artifact_writes" (fun () -> run store) in
  check "unbudgeted rerun complete" false full.Flow.degraded;
  check_int "unbudgeted rerun writes the cover" 1 writes;
  check "cover blob written" true (Sys.file_exists blob);
  let (warm, sims), hits =
    delta "stage_cover_cache_hits" (fun () -> delta "fault_sims" (fun () -> run store))
  in
  check_int "third run hits the cover" 1 hits;
  check_int "third run simulates nothing" 0 sims;
  check "third run = second" true
    (warm.Flow.solution = full.Flow.solution && flow_signature warm = flow_signature full)

(* Each defect is caught by the decoder, counted as one corrupt blob, and
   recomputed to the identical result, which overwrites the blob.  The
   payloads are built here from the layout [Flow] writes; the unmodified
   one must be the very blob a cold run wrote. *)
let test_cover_decoder_rejects () =
  with_store @@ fun store ->
  let targets, fp, run = cover_setup () in
  let path = Artifact.path store ~stage:"cover" fp in
  let read () = In_channel.with_open_bin path In_channel.input_all in
  let good = run store in
  let written = read () in
  check "full coverage: nothing missed" true (good.Flow.coverage_pct = 100.0);
  let payload ?optimal ?(missed = Bitvec.create (Bitvec.length targets))
      ?(cycles = fun t -> t.Triplet.cycles) () =
    let st = good.Flow.solution.Solution.stats in
    let open Artifact.Codec in
    let b = Buffer.create 256 in
    int_list b st.Solution.necessary;
    int_list b st.Solution.from_solver;
    vint b st.Solution.reduced_rows;
    vint b st.Solution.reduced_cols;
    vint b st.Solution.reduction_iterations;
    vint b st.Solution.solver_nodes;
    u32 b (Option.value optimal ~default:(Bool.to_int st.Solution.solver_optimal));
    vint b good.Flow.dropped_triplets;
    bitvec b missed;
    u32 b (List.length good.Flow.final_triplets);
    List.iter
      (fun t ->
        word b t.Triplet.seed;
        word b t.Triplet.operand;
        u32 b (cycles t))
      good.Flow.final_triplets;
    Buffer.contents b
  in
  let whole = payload () in
  Artifact.save store ~stage:"cover" fp whole;
  check "test layout = written blob" true (read () = written);
  List.iter
    (fun (what, bad) ->
      Artifact.save store ~stage:"cover" fp bad;
      let (r, corrupt), misses =
        delta "stage_cover_cache_misses" (fun () ->
            delta "artifact_corrupt" (fun () -> run store))
      in
      check_int (what ^ ": one corrupt blob") 1 corrupt;
      check_int (what ^ ": recomputed") 1 misses;
      check (what ^ ": same solution") true (r.Flow.solution = good.Flow.solution);
      check (what ^ ": same flow") true (flow_signature r = flow_signature good);
      check (what ^ ": blob rewritten") true (read () = written))
    [
      ("missed mask length", payload ~missed:(Bitvec.create (Bitvec.length targets + 1)) ());
      ("optimal byte 2", payload ~optimal:2 ());
      ("invalid triplet", payload ~cycles:(fun _ -> 0) ());
      ("truncated payload", String.sub whole 0 (String.length whole - 1));
    ]

(* --- trade-off sweep --------------------------------------------------- *)

let test_sweep_matches_per_point_runs () =
  with_store @@ fun store ->
  let p = Suite.prepare_circuit (Library.load "c17") in
  let tpg = Accumulator.adder (Circuit.input_count p.Suite.circuit) in
  let grid = [ 10; 20; 40 ] in
  let sweep store =
    Tradeoff.sweep ~store ~fingerprint:p.Suite.fingerprint p.Suite.sim tpg
      ~tests:p.Suite.tests ~targets:p.Suite.targets ~grid
  in
  let config_at cycles =
    { Flow.default_config with Flow.builder = { Builder.default_config with Builder.cycles } }
  in
  let run ?store cycles =
    Flow.run ~config:(config_at cycles) ?store ~fingerprint:p.Suite.fingerprint
      p.Suite.sim tpg ~tests:p.Suite.tests ~targets:p.Suite.targets
  in
  let points = sweep store in
  let naive =
    List.map
      (fun cycles ->
        let r = run cycles in
        { Tradeoff.cycles; triplets = Flow.reseedings r; test_length = r.Flow.test_length })
      grid
  in
  check "prefix-shared sweep = naive per-point flows" true (points = naive);
  (* Warm: every point's matrix is a [matrix]-stage hit, and nothing is
     simulated or missed. *)
  let ((warm, hits), sims), misses =
    delta "artifact_misses" (fun () ->
        delta "fault_sims" (fun () ->
            delta "stage_matrix_cache_hits" (fun () -> sweep store)))
  in
  check "warm sweep identical" true (warm = points);
  check_int "one matrix hit per grid point" (List.length grid) hits;
  check_int "warm sweep simulates nothing" 0 sims;
  check_int "warm sweep misses nothing" 0 misses;
  (* A standalone flow at a swept T finds everything the sweep wrote, and
     the sweep's matrix blob is the one a cold standalone run writes. *)
  let (_, sims), misses =
    delta "artifact_misses" (fun () -> delta "fault_sims" (fun () -> run ~store 20))
  in
  check_int "solve after sweep simulates nothing" 0 sims;
  check_int "solve after sweep misses nothing" 0 misses;
  let matrix_blob store =
    let fp =
      Builder.fingerprint ~salt:p.Suite.fingerprint ~tests:p.Suite.tests
        ~targets:p.Suite.targets tpg ~config:(config_at 20).Flow.builder
    in
    In_channel.with_open_bin (Artifact.path store ~stage:"matrix" fp) In_channel.input_all
  in
  with_store (fun cold ->
      ignore (run ~store:cold 20);
      check "sweep matrix blob = standalone blob" true
        (matrix_blob store = matrix_blob cold);
      (* A store that already holds one point's matrix: the sweep reads it
         and thresholds the others, with the same result. *)
      let partial, hits = delta "stage_matrix_cache_hits" (fun () -> sweep cold) in
      check "sweep over a partly filled store = cold sweep" true (partial = points);
      check_int "the solved point's matrix is reused" 1 hits)

let test_render_zero_triplets () =
  let s =
    Tradeoff.render
      [
        { Tradeoff.cycles = 8; triplets = 0; test_length = 0 };
        { Tradeoff.cycles = 16; triplets = 0; test_length = 0 };
      ]
  in
  check "renders without dividing by zero" true (String.length s > 0)

(* --- reduction guard --------------------------------------------------- *)

let test_col_dominance_limit_skips () =
  (* Cyclic instance: every column is covered twice or more and no row's
     cover is a subset of another's, so columns survive the essentiality
     and row-dominance passes and the column-dominance guard is reached. *)
  let m =
    Matrix.of_rows ~cols:6
      (Array.of_list
         (List.map (Bitvec.of_list 6)
            [ [ 0; 1; 2 ]; [ 2; 3 ]; [ 3; 4; 5 ]; [ 0; 5 ]; [ 1; 4 ]; [ 2; 5 ] ]))
  in
  let limited =
    { Reduce.default_config with Reduce.col_dominance_limit = 2 }
  in
  let r, skipped =
    delta "reduce_coldom_skipped" (fun () -> Reduce.run ~config:limited m)
  in
  check "pass skipped at least once" true (skipped >= 1);
  (* Skipping the pass must match disabling it outright. *)
  let off =
    Reduce.run ~config:{ Reduce.default_config with Reduce.col_dominance = false } m
  in
  check "limited = disabled" true
    (r.Reduce.necessary = off.Reduce.necessary
    && r.Reduce.remaining_rows = off.Reduce.remaining_rows
    && r.Reduce.remaining_cols = off.Reduce.remaining_cols);
  let full, skipped_full =
    delta "reduce_coldom_skipped" (fun () -> Reduce.run m)
  in
  check_int "default limit never skips here" 0 skipped_full;
  check_int "col dominance active by default" full.Reduce.cols_dominated
    full.Reduce.cols_dominated

(* --- budgets ----------------------------------------------------------- *)

let test_budget_sub () =
  let parent = Budget.create () in
  let child = Budget.sub ~deadline_s:(-1.0) parent in
  check "child trips on own deadline" true (Budget.expired child);
  check "parent unaffected by child" false (Budget.expired parent);
  check "child reason" true (Budget.stop_reason child = Some Budget.Deadline);
  let child2 = Budget.sub parent in
  check "fresh child live" false (Budget.expired child2);
  Budget.cancel parent;
  check "parent expiry reaches child" true (Budget.expired child2);
  check "reason inherited" true (Budget.stop_reason child2 = Some Budget.Cancelled)

(* --- batch runner ------------------------------------------------------ *)

let manifest_text =
  {|
# two circuits x one TPG, one explicit extra
circuits = c17
tpgs     = adder, subtracter
cycles   = 40
method   = exact
job c17 multiplier 60
|}

let test_batch_parse () =
  let m = Batch.parse_string manifest_text in
  check "method" true (m.Batch.method_ = Solution.Exact);
  check "objective defaults" true (m.Batch.objective = Flow.Min_triplets);
  check_int "scale defaults" 1 m.Batch.scale;
  check "no deadline" true (m.Batch.job_deadline = None);
  let reseed tpg cycles =
    Batch.Reseed { tpg; cycles; fault_model = Reseed_fault.Fault_model.Stuck_at }
  in
  check "jobs: cross product then explicit" true
    (m.Batch.jobs
    = [
        { Batch.circuit = "c17"; task = reseed "adder" 40 };
        { Batch.circuit = "c17"; task = reseed "subtracter" 40 };
        { Batch.circuit = "c17"; task = reseed "multiplier" 60 };
      ]);
  (* Every method and objective name parses back to its value. *)
  List.iter
    (fun m ->
      let text = Printf.sprintf "method = %s\njob c17 adder 10" (Solution.method_name m) in
      check ("method " ^ Solution.method_name m) true
        ((Batch.parse_string text).Batch.method_ = m))
    Solution.methods;
  List.iter
    (fun o ->
      let text = Printf.sprintf "objective = %s\njob c17 adder 10" (Flow.objective_name o) in
      check ("objective " ^ Flow.objective_name o) true
        ((Batch.parse_string text).Batch.objective = o))
    Flow.objectives

let test_batch_parse_errors () =
  let rejects name text =
    match Batch.parse_string text with
    | exception Error.Reseed_error e ->
        check (name ^ " is an input error") true (e.Error.code = Error.Input_error)
    | _ -> Alcotest.failf "%s: expected Reseed_error" name
  in
  rejects "unknown key" "frobnicate = 1\njob c17 adder 10";
  rejects "unknown tpg" "job c17 warp-core 10";
  rejects "bad cycles" "job c17 adder zero";
  rejects "bad job arity" "job c17 adder";
  rejects "empty manifest" "# nothing here\n";
  rejects "missing tpgs" "circuits = c17\ncycles = 10";
  let message text =
    match Batch.parse_string text with
    | exception Error.Reseed_error e -> e.Error.message
    | _ -> Alcotest.failf "%S: expected Reseed_error" text
  in
  check_string "unknown method"
    "unknown method \"fast\" (exact|greedy|noreduce)"
    (message "method = fast\njob c17 adder 10");
  check_string "unknown objective" "unknown objective \"speed\" (triplets|length)"
    (message "objective = speed\njob c17 adder 10")

let test_batch_cold_warm_reports_identical () =
  with_store @@ fun store ->
  let m = Batch.parse_string manifest_text in
  let r_cold = Batch.run ~store m in
  let json_cold = Batch.report_json m r_cold in
  let r_warm, hits = delta "artifact_hits" (fun () -> Batch.run ~store m) in
  check "cold/warm results identical" true (r_cold = r_warm);
  check_string "cold/warm reports byte-identical" json_cold
    (Batch.report_json m r_warm);
  check "warm campaign hits the store" true (hits > 0);
  check "all ok" true (List.for_all (fun r -> r.Batch.status = Batch.Ok) r_warm)

let test_batch_expired_budget_skips () =
  let m = Batch.parse_string manifest_text in
  let budget = Budget.create () in
  Budget.cancel budget;
  let rs = Batch.run ~budget m in
  check "all skipped" true (List.for_all (fun r -> r.Batch.status = Batch.Skipped) rs);
  check_int "still one result per job" (List.length m.Batch.jobs) (List.length rs)

let suite =
  [
    ( "pipeline",
      [
        Alcotest.test_case "fingerprint: combinators framed" `Quick
          test_fingerprint_combinators;
        Alcotest.test_case "fingerprint: circuit structure" `Quick
          test_circuit_fingerprint;
        Alcotest.test_case "artifact: cached + corruption recovery" `Quick
          test_artifact_cached_and_corruption;
        Alcotest.test_case "artifact: row codec reads packed rows only" `Quick
          test_row_codec;
        Alcotest.test_case "atpg stage: every knob invalidates" `Quick
          test_atpg_stage_invalidation;
        Alcotest.test_case "matrix stage: warm hit bit-identical" `Quick
          test_matrix_stage_bit_identity;
        Alcotest.test_case "matrix stage: index-list blob recomputed" `Quick
          test_matrix_stage_index_list_recomputed;
        Alcotest.test_case "flow: cached = plain" `Quick
          test_cached_flow_matches_plain;
        Alcotest.test_case "cover: degraded end-game writes no blob" `Quick
          test_degraded_cover_not_written;
        Alcotest.test_case "cover: decoder rejects malformed payloads" `Quick
          test_cover_decoder_rejects;
        Alcotest.test_case "sweep: prefix sharing = per-point flows" `Quick
          test_sweep_matches_per_point_runs;
        Alcotest.test_case "tradeoff: render all-zero series" `Quick
          test_render_zero_triplets;
        Alcotest.test_case "reduce: col-dominance limit skips" `Quick
          test_col_dominance_limit_skips;
        Alcotest.test_case "budget: sub-budget semantics" `Quick test_budget_sub;
        Alcotest.test_case "batch: manifest parses" `Quick test_batch_parse;
        Alcotest.test_case "batch: bad manifests rejected" `Quick
          test_batch_parse_errors;
        Alcotest.test_case "batch: cold/warm reports identical" `Quick
          test_batch_cold_warm_reports_identical;
        Alcotest.test_case "batch: expired budget skips jobs" `Quick
          test_batch_expired_budget_skips;
      ] );
  ]

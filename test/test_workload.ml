(* Workload-generic core: the transition-delay model against the serial
   launch/capture checker (the simulator and the reference's per-fault
   injection engine, block-boundary carries included),
   stuck-at-through-the-abstraction differentials, cross-model cache
   keying, the extended batch manifest schema, and the
   code-based compression workload. *)

open Reseed_atpg
open Reseed_core
open Reseed_fault
open Reseed_netlist
open Reseed_setcover
open Reseed_tpg
open Reseed_util

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let metric name = Metrics.value (Metrics.counter name)

let delta name f =
  let before = metric name in
  let v = f () in
  (v, metric name - before)

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
      (Printf.sprintf "reseed-workload-%d-%d" (Unix.getpid ()) !temp_counter)
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () -> f (Artifact.open_store dir))

module R = Fault_sim_reference

(* --- transition-delay oracle -------------------------------------------- *)

(* The simulator and the reference's injection engine, as one interface:
   a name and a detection map. *)
let transition_maps c faults =
  let model = Fault_model.Transition_delay in
  [
    ("cpt", Sweeps.detection_map (Fault_sim.create ~model c faults));
    ("event", R.detection_map (R.create ~engine:R.Event ~model c faults));
  ]

let cross_check_transition c patterns =
  let model = Fault_model.Transition_delay in
  let faults = Fault_model.faults model c in
  List.iter
    (fun (name, detection_map) ->
      let map = detection_map patterns in
      Array.iteri
        (fun fi fault ->
          for p = 0 to Array.length patterns - 1 do
            let serial = Fault_checker.detects model c fault patterns p in
            let fast = Bitvec.get map.(fi) p in
            if serial <> fast then
              Alcotest.failf "[%s] %s pattern %d: serial=%b fast=%b" name
                (Fault_model.fault_to_string model c fault)
                p serial fast
          done)
        faults)
    (transition_maps c faults)

(* Hand-built circuits: small enough to brute-force, fanout-heavy enough
   that Pin faults get launch sites distinct from their stems. *)
let hand_fanout () =
  let open Circuit.Builder in
  let b = create "hand_fanout" in
  let a = add_input b "a" in
  let x = add_input b "x" in
  let y = add_input b "y" in
  let g1 = add_gate b Gate.Nand [ a; x ] "g1" in
  let g2 = add_gate b Gate.Or [ g1; y ] "g2" in
  let g3 = add_gate b Gate.And [ g1; a ] "g3" in
  let g4 = add_gate b Gate.Xor [ g2; g3 ] "g4" in
  let g5 = add_gate b Gate.Not [ g1 ] "g5" in
  mark_output b g4;
  mark_output b g5;
  finalize b

let hand_reconvergent () =
  let open Circuit.Builder in
  let b = create "hand_reconv" in
  let a = add_input b "a" in
  let x = add_input b "x" in
  let n1 = add_gate b Gate.Not [ a ] "n1" in
  let g1 = add_gate b Gate.Nor [ n1; x ] "g1" in
  let g2 = add_gate b Gate.And [ a; x ] "g2" in
  let g3 = add_gate b Gate.Or [ g1; g2 ] "g3" in
  let g4 = add_gate b Gate.Xnor [ g3; n1 ] "g4" in
  mark_output b g4;
  finalize b

let random_patterns ~seed ~inputs n =
  let rng = Rng.create seed in
  Array.init n (fun _ -> Array.init inputs (fun _ -> Rng.bool rng))

(* 150 patterns cross the 62-pattern block boundary twice, so the launch
   carry between blocks is part of what the oracle checks. *)
let test_transition_oracle_c17 () =
  let c = Library.c17 () in
  cross_check_transition c (random_patterns ~seed:41 ~inputs:5 150)

let test_transition_oracle_hand () =
  cross_check_transition (hand_fanout ()) (random_patterns ~seed:42 ~inputs:3 150);
  cross_check_transition (hand_reconvergent ())
    (random_patterns ~seed:43 ~inputs:2 150)

(* Deterministic block-boundary carry: one AND gate, every pattern (1,1)
   except pattern 61 = (0,0).  The slow-to-rise output fault is launched
   exactly at lane 61 of block 0 and captured at lane 0 of block 1. *)
let test_transition_block_carry () =
  let open Circuit.Builder in
  let b = create "carry" in
  let a = add_input b "a" in
  let x = add_input b "x" in
  let g1 = add_gate b Gate.And [ a; x ] "g1" in
  mark_output b g1;
  let c = finalize b in
  let faults = Fault_model.faults Fault_model.Transition_delay c in
  let g1i = Circuit.find c "g1" in
  let index_of stuck =
    let found = ref (-1) in
    Array.iteri
      (fun i (f : Fault.t) ->
        if f.Fault.site = Fault.Out g1i && f.Fault.stuck = stuck then found := i)
      faults;
    !found
  in
  let str = index_of false and stf = index_of true in
  check "both output transition faults enumerated" true (str >= 0 && stf >= 0);
  let patterns =
    Array.init 70 (fun p ->
        if p = 61 then [| false; false |] else [| true; true |])
  in
  List.iter
    (fun (name, detection_map) ->
      let map = detection_map patterns in
      check (name ^ ": STR launched at lane 61, captured at lane 0 of block 1")
        true
        (Bitvec.get map.(str) 62);
      check (name ^ ": STR capture needs good=1") false (Bitvec.get map.(str) 61);
      check (name ^ ": STR needs a 0 launch") false (Bitvec.get map.(str) 5);
      check (name ^ ": STF captured where the output falls") true
        (Bitvec.get map.(stf) 61);
      check (name ^ ": pattern 0 detects nothing") false
        (Bitvec.get map.(str) 0 || Bitvec.get map.(stf) 0))
    (transition_maps c faults);
  cross_check_transition c patterns

(* --- stuck-at through the abstraction ---------------------------------- *)

let test_stuck_model_is_verbatim () =
  let c = Library.c17 () in
  let via_model = Fault_model.faults Fault_model.Stuck_at c in
  let direct = Fault.all c in
  check_int "same fault count" (Array.length direct) (Array.length via_model);
  Array.iteri
    (fun i f -> check "same fault list" true (Fault.equal f direct.(i)))
    via_model;
  let patterns = random_patterns ~seed:7 ~inputs:5 100 in
  let map_default =
    Sweeps.detection_map (Fault_sim.create c direct) patterns
  in
  let map_explicit =
    Sweeps.detection_map
      (Fault_sim.create ~model:Fault_model.Stuck_at c via_model)
      patterns
  in
  Array.iteri
    (fun i row ->
      check "detection map identical" true (Bitvec.equal row map_explicit.(i)))
    map_default

let test_stuck_atpg_differential () =
  let c = Library.load "s420" in
  let _, r_default = Atpg.run_circuit c in
  let _, r_explicit = Atpg.run_circuit ~fault_model:Fault_model.Stuck_at c in
  check "test sets identical" true (r_default.Atpg.tests = r_explicit.Atpg.tests);
  check "detected sets identical" true
    (Bitvec.equal r_default.Atpg.detected r_explicit.Atpg.detected);
  check "untestable identical" true
    (r_default.Atpg.untestable = r_explicit.Atpg.untestable)

let test_stuck_flow_differential () =
  let c = Library.load "c432" in
  let p_default = Suite.prepare_circuit c in
  let p_explicit = Suite.prepare_circuit ~fault_model:Fault_model.Stuck_at c in
  check "prepare fingerprints identical" true
    (Fingerprint.equal p_default.Suite.fingerprint p_explicit.Suite.fingerprint);
  check "test sets identical" true (p_default.Suite.tests = p_explicit.Suite.tests);
  let flow p =
    let tpg = Accumulator.adder (Circuit.input_count p.Suite.circuit) in
    Flow.run p.Suite.sim tpg ~tests:p.Suite.tests ~targets:p.Suite.targets
  in
  let r_default = flow p_default and r_explicit = flow p_explicit in
  check_int "same triplet count" (Flow.reseedings r_default)
    (Flow.reseedings r_explicit);
  check_int "same test length" r_default.Flow.test_length
    r_explicit.Flow.test_length;
  check "same triplets" true
    (r_default.Flow.final_triplets = r_explicit.Flow.final_triplets)

(* --- transition end-to-end --------------------------------------------- *)

let test_transition_flow_end_to_end () =
  let c = Library.c17 () in
  let p = Suite.prepare_circuit ~fault_model:Fault_model.Transition_delay c in
  check "prepared under the requested model" true
    (p.Suite.fault_model = Fault_model.Transition_delay);
  check "simulator carries the model" true
    (Fault_sim.model p.Suite.sim = Fault_model.Transition_delay);
  check "targets are non-empty" true (Bitvec.count p.Suite.targets > 0);
  let tpg = Accumulator.adder (Circuit.input_count c) in
  let r = Flow.run p.Suite.sim tpg ~tests:p.Suite.tests ~targets:p.Suite.targets in
  check "at least one reseeding" true (Flow.reseedings r >= 1);
  check "positive test length" true (r.Flow.test_length > 0);
  check "full coverage of the transition targets" true
    (r.Flow.coverage_pct >= 100.0 -. 1e-9);
  check "not degraded" false r.Flow.degraded

(* --- cross-model cache keying ------------------------------------------ *)

let test_cross_model_cache_miss () =
  with_store @@ fun store ->
  let c = Library.load "c17" in
  let p_stuck, m =
    delta "stage_atpg_cache_misses" (fun () -> Suite.prepare_circuit ~store c)
  in
  check_int "cold stuck-at run misses" 1 m;
  let _, h =
    delta "stage_atpg_cache_hits" (fun () -> Suite.prepare_circuit ~store c)
  in
  check_int "warm stuck-at rerun hits" 1 h;
  (* The warm stuck-at artifact must never satisfy a transition-delay
     request: same circuit, same store, different fault model. *)
  let p_trans, m =
    delta "stage_atpg_cache_misses" (fun () ->
        Suite.prepare_circuit ~fault_model:Fault_model.Transition_delay ~store c)
  in
  check_int "transition run misses despite warm stuck-at cache" 1 m;
  check "stage keys differ across models" false
    (Fingerprint.equal p_stuck.Suite.fingerprint p_trans.Suite.fingerprint);
  let _, h =
    delta "stage_atpg_cache_hits" (fun () ->
        Suite.prepare_circuit ~fault_model:Fault_model.Transition_delay ~store c)
  in
  check_int "transition rerun hits its own artifact" 1 h

(* --- batch manifest schema --------------------------------------------- *)

let test_manifest_fault_models_and_compress () =
  let m =
    Batch.parse_string
      "circuits = c17\n\
       tpgs = adder\n\
       cycles = 10\n\
       fault_model = transition\n\
       job s420 adder 20 stuck\n\
       compress c17 8\n"
  in
  check "manifest default model" true
    (m.Batch.fault_model = Fault_model.Transition_delay);
  check "jobs: cross product under the default, then explicit" true
    (m.Batch.jobs
    = [
        {
          Batch.circuit = "c17";
          task =
            Batch.Reseed
              {
                tpg = "adder";
                cycles = 10;
                fault_model = Fault_model.Transition_delay;
              };
        };
        {
          Batch.circuit = "s420";
          task =
            Batch.Reseed
              { tpg = "adder"; cycles = 20; fault_model = Fault_model.Stuck_at };
        };
        { Batch.circuit = "c17"; task = Batch.Compress { width = 8 } };
      ]);
  check "compression jobs prepare under stuck-at" true
    (Batch.job_model (List.nth m.Batch.jobs 2) = Fault_model.Stuck_at)

let test_manifest_rejects_with_line_numbers () =
  let rejects name ~line text =
    match Batch.parse_string text with
    | exception Error.Reseed_error e ->
        check (name ^ " is an input error") true
          (e.Error.code = Error.Input_error);
        check_int (name ^ " carries the line number") line
          (Option.value ~default:(-1) e.Error.line)
    | _ -> Alcotest.failf "%s: expected Reseed_error" name
  in
  rejects "unknown manifest fault model" ~line:1
    "fault_model = stuckish\njob c17 adder 10";
  rejects "unknown job-line fault model" ~line:2
    "# header\njob c17 adder 10 slowpath";
  rejects "bad compress width" ~line:2 "# header\ncompress c17 99";
  rejects "non-numeric compress width" ~line:1 "compress c17 wide";
  rejects "compress arity" ~line:1 "compress c17";
  rejects "unknown workload" ~line:3 "# one\n# two\nfrobnicate c17 8";
  rejects "unknown key" ~line:1 "frobnicate = 1\njob c17 adder 10";
  rejects "unknown circuit in the circuits line" ~line:2
    "tpgs = adder\ncircuits = c17, nosuch\ncycles = 10";
  rejects "unknown job-line circuit" ~line:3 "# one\njob c17 adder 10\njob nosuch adder 10"

let count_substring haystack needle =
  let n = String.length needle and h = String.length haystack in
  let count = ref 0 in
  for i = 0 to h - n do
    if String.sub haystack i n = needle then incr count
  done;
  !count

let test_batch_mixed_workloads_run () =
  let m =
    Batch.parse_string
      "circuits = c17\n\
       tpgs = adder\n\
       cycles = 30\n\
       job c17 adder 30 transition\n\
       compress c17 4\n"
  in
  let results = Batch.run m in
  check_int "three jobs" 3 (List.length results);
  List.iter
    (fun r -> check "job ran" true (r.Batch.status = Batch.Ok))
    results;
  (match (List.nth results 2).Batch.metrics with
  | Batch.Compress_metrics { entries; dictionary_bits; raw_bits; _ } ->
      check "entries selected" true (entries > 0);
      check "dictionary sized" true (dictionary_bits = entries * 4);
      check "raw bits positive" true (raw_bits > 0)
  | Batch.Reseed_metrics _ -> Alcotest.fail "third job should be compression");
  let report = Batch.report_json m results in
  check_int "exactly one transition job line" 1
    (count_substring report "\"fault_model\": \"transition\"");
  check_int "exactly one compression job line" 1
    (count_substring report "\"task\": \"compress\"");
  (* The stuck-at job line keeps the historical shape: no fault_model. *)
  check_int "stuck-at lines carry no fault_model field" 1
    (count_substring report "\"fault_model\"")

(* --- compression workload ---------------------------------------------- *)

let test_corpus_of_text () =
  let corpus = Workload.corpus_of_text ~width:2 "01X1\n# comment\n10\n" in
  check_int "three blocks" 3 (Array.length corpus.Workload.blocks);
  let b0 = corpus.Workload.blocks.(0)
  and b1 = corpus.Workload.blocks.(1)
  and b2 = corpus.Workload.blocks.(2) in
  (* bit j of a block is character j of its slice. *)
  check "block 0 = 01" true (b0.Workload.value = 2 && b0.Workload.care = 3);
  check "block 1 = X1" true (b1.Workload.value = 2 && b1.Workload.care = 2);
  check "block 2 = 10" true (b2.Workload.value = 1 && b2.Workload.care = 3);
  check "X position accepts both" true
    (Workload.covers ~entry:2 b1 && Workload.covers ~entry:3 b1);
  check "care positions constrain" false (Workload.covers ~entry:1 b0)

let test_corpus_bad_char_coordinates () =
  match Workload.corpus_of_text ~file:"corp.txt" ~width:4 "0101\n0121\n" with
  | exception Error.Reseed_error e ->
      check "input error" true (e.Error.code = Error.Input_error);
      check_int "line" 2 (Option.value ~default:(-1) e.Error.line);
      check_int "column" 3 (Option.value ~default:(-1) e.Error.column)
  | _ -> Alcotest.fail "bad corpus character must be rejected"

let test_compress_tail_padding () =
  (* A 5-bit vector at width 4: the tail block has one cared bit. *)
  let corpus = Workload.corpus_of_text ~width:4 "10110\n" in
  check_int "two blocks" 2 (Array.length corpus.Workload.blocks);
  let tail = corpus.Workload.blocks.(1) in
  check "tail cares about bit 0 only" true
    (tail.Workload.care = 1 && tail.Workload.value = 0);
  let r = Workload.solve corpus in
  check "tail block covered" true
    (List.exists (fun e -> Workload.covers ~entry:e tail) r.Workload.entries)

let test_compress_solve_and_accounting () =
  let corpus = Workload.corpus_of_text ~width:3 "101101\nX01\n101\n" in
  let r = Workload.solve corpus in
  check_int "corpus blocks" 4 r.Workload.corpus_blocks;
  (* 101 appears three times plus X01: distinct ternary blocks = 2. *)
  check_int "distinct blocks" 2 r.Workload.distinct_blocks;
  (* 101 covers X01 too, so one entry suffices. *)
  check_int "one dictionary entry" 1 (List.length r.Workload.entries);
  check_int "dictionary bits" 3 r.Workload.dictionary_bits;
  check_int "index bits (log2 1 = 0)" 0 r.Workload.index_bits;
  check_int "raw bits" 12 r.Workload.raw_bits;
  Array.iter
    (fun b ->
      check "every block covered" true
        (List.exists (fun e -> Workload.covers ~entry:e b) r.Workload.entries))
    corpus.Workload.blocks;
  check "entry renders bit 0 first" true
    (Workload.entry_to_string ~width:3 (List.hd r.Workload.entries) = "101")

(* Every method: the memoised solve hands back the very same
   [Solution.t] — rows and every stats field — cold and warm.  This
   corpus leaves a 4x4 residual after reduction, so the end-game stage
   is exercised, not only the reducer. *)
let test_compress_cached_solve_identical () =
  let corpus =
    Workload.corpus_of_text ~width:5
      "00XXX\nX111X\nX10X00XX0XX1X1X\n1X100XX01X\n"
  in
  List.iter
    (fun method_ ->
      with_store @@ fun store ->
      let label what = Solution.method_name method_ ^ ": " ^ what in
      let plain = Workload.solve ~method_ corpus in
      let cold = Workload.solve ~method_ ~store corpus in
      let (warm, hits), misses =
        delta "artifact_misses" (fun () ->
            delta "artifact_hits" (fun () -> Workload.solve ~method_ ~store corpus))
      in
      check (label "residual non-empty") true
        (plain.Workload.solution.Solution.stats.Solution.reduced_rows > 0);
      check (label "warm rerun hits the store") true (hits > 0);
      check_int (label "warm rerun misses nothing") 0 misses;
      check (label "cold solution = plain") true
        (cold.Workload.solution = plain.Workload.solution);
      check (label "warm solution = plain") true
        (warm.Workload.solution = plain.Workload.solution);
      check (label "entries identical") true
        (cold.Workload.entries = plain.Workload.entries
        && warm.Workload.entries = plain.Workload.entries))
    Solution.methods

(* At width 12 the ATPG corpora of c880 and s953 give the sparsest
   covering matrices the workload builds — every row holds at most one
   set bit per 64 columns.  Their shape and answer are pinned to the
   values recorded when such rows were still stored as index lists. *)
let test_compress_atpg_corpora_pinned () =
  List.iter
    (fun (name, (rows, cols), necessary, entries) ->
      let p = Suite.prepare_circuit (Library.load ~scale_factor:1 name) in
      let corpus = Workload.corpus_of_patterns ~width:12 p.Suite.tests in
      let r = Workload.solve corpus in
      let st = r.Workload.solution.Solution.stats in
      check_int (name ^ " matrix rows") rows st.Solution.initial_rows;
      check_int (name ^ " matrix cols") cols st.Solution.initial_cols;
      check_int (name ^ " necessary") necessary (List.length st.Solution.necessary);
      check_int (name ^ " entries") entries (List.length r.Workload.entries))
    [ ("c880", (309, 320), 309, 309); ("s953", (271, 284), 252, 252) ]

let random_corpus_text rng ~lines ~width ~exact ~allow_x =
  String.concat "\n"
    (List.init lines (fun _ ->
         let len =
           if exact then width * (1 + Rng.int rng 3)
           else 1 + Rng.int rng (width * 3)
         in
         String.init len (fun _ ->
             match Rng.int rng (if allow_x then 3 else 2) with
             | 0 -> '0'
             | 1 -> '1'
             | _ -> 'X')))

(* Fully-specified corpus, no padded tail: every block constrains all its
   bits, so the minimum dictionary is exactly the set of distinct block
   values. *)
let prop_compress_no_x_cost =
  QCheck.Test.make ~name:"compression: no-X corpus needs distinct blocks"
    ~count:15
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Rng.create (seed + 1) in
      let width = 2 + Rng.int rng 4 in
      let text =
        random_corpus_text rng ~lines:(1 + Rng.int rng 4) ~width ~exact:true
          ~allow_x:false
      in
      let corpus = Workload.corpus_of_text ~width text in
      let r = Workload.solve corpus in
      List.length r.Workload.entries = r.Workload.distinct_blocks)

(* Don't-cares only help: the dictionary still covers every block and
   never exceeds the distinct-block count. *)
let prop_compress_with_x_covers =
  QCheck.Test.make ~name:"compression: dictionary covers, X never hurts"
    ~count:15
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Rng.create (seed + 2) in
      let width = 2 + Rng.int rng 4 in
      let text =
        random_corpus_text rng ~lines:(1 + Rng.int rng 4) ~width ~exact:false
          ~allow_x:true
      in
      let corpus = Workload.corpus_of_text ~width text in
      let r = Workload.solve corpus in
      Array.for_all
        (fun b -> List.exists (fun e -> Workload.covers ~entry:e b) r.Workload.entries)
        corpus.Workload.blocks
      && List.length r.Workload.entries <= r.Workload.distinct_blocks)

let suite =
  [
    ( "workload",
      [
        Alcotest.test_case "transition oracle: c17, 150 patterns" `Quick
          test_transition_oracle_c17;
        Alcotest.test_case "transition oracle: hand-built circuits" `Quick
          test_transition_oracle_hand;
        Alcotest.test_case "transition: block-boundary launch carry" `Quick
          test_transition_block_carry;
        Alcotest.test_case "stuck-at model is verbatim" `Quick
          test_stuck_model_is_verbatim;
        Alcotest.test_case "stuck-at ATPG differential" `Quick
          test_stuck_atpg_differential;
        Alcotest.test_case "stuck-at flow differential" `Quick
          test_stuck_flow_differential;
        Alcotest.test_case "transition flow end-to-end" `Quick
          test_transition_flow_end_to_end;
        Alcotest.test_case "cross-model cache miss" `Quick
          test_cross_model_cache_miss;
        Alcotest.test_case "manifest: fault models and compress" `Quick
          test_manifest_fault_models_and_compress;
        Alcotest.test_case "manifest: rejects with line numbers" `Quick
          test_manifest_rejects_with_line_numbers;
        Alcotest.test_case "batch: mixed workloads run" `Quick
          test_batch_mixed_workloads_run;
        Alcotest.test_case "compress: corpus parsing" `Quick test_corpus_of_text;
        Alcotest.test_case "compress: bad char coordinates" `Quick
          test_corpus_bad_char_coordinates;
        Alcotest.test_case "compress: tail padding" `Quick
          test_compress_tail_padding;
        Alcotest.test_case "compress: solve and accounting" `Quick
          test_compress_solve_and_accounting;
        Alcotest.test_case "compress: cached solve identical" `Quick
          test_compress_cached_solve_identical;
        Alcotest.test_case "compress: sparse ATPG corpora pinned" `Quick
          test_compress_atpg_corpora_pinned;
        QCheck_alcotest.to_alcotest prop_compress_no_x_cost;
        QCheck_alcotest.to_alcotest prop_compress_with_x_covers;
      ] );
  ]

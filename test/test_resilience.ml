(* Anytime-flow resilience: deadlines and cancellation degrade gracefully,
   sharded matrix builds resume bit-identically from the store (even past
   truncated, corrupt or stale shards), and pool worker failures surface
   structured errors instead of hanging or killing the pool. *)

open Reseed_core
open Reseed_gatsby
open Reseed_netlist
open Reseed_setcover
open Reseed_tpg
open Reseed_util

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let prepared_c17 = lazy (Suite.prepare "c17")

let mk_matrix ~cols rows =
  Matrix.of_rows ~cols (Array.of_list (List.map (Bitvec.of_list cols) rows))

(* --- budgets --- *)

let test_budget_latch () =
  let b = Budget.create () in
  check "live" false (Budget.expired b);
  check "check None" false (Budget.check None);
  Budget.cancel b;
  check "cancelled" true (Budget.expired b);
  check "reason" true (Budget.stop_reason b = Some Budget.Cancelled);
  let d = Budget.create ~deadline_s:(-1.0) () in
  check "past deadline" true (Budget.expired d);
  check "deadline reason" true (Budget.stop_reason d = Some Budget.Deadline);
  (* Cancel wins even after a deadline trip is possible. *)
  let e = Budget.create ~deadline_s:(-1.0) () in
  Budget.cancel e;
  check "cancel precedence" true (Budget.stop_reason e = Some Budget.Cancelled)

let test_ilp_expired_budget_returns_incumbent () =
  (* 6x6 diagonal-ish instance: solvable, but the budget is already dead,
     so the solver must hand back its greedy incumbent immediately. *)
  let m =
    mk_matrix ~cols:6
      [ [ 0; 1; 2 ]; [ 2; 3 ]; [ 3; 4; 5 ]; [ 0; 5 ]; [ 1; 4 ]; [ 2; 5 ] ]
  in
  let budget = Budget.create ~deadline_s:0.0 () in
  let r = Ilp.solve ~budget m in
  check "not optimal" false r.Ilp.optimal;
  check "stop reason" true (r.Ilp.stop_reason = Ilp.Budget Budget.Deadline);
  check "incumbent covers" true (Matrix.covers m ~rows_subset:r.Ilp.selected);
  (* Same instance unconstrained is solved to optimality. *)
  let full = Ilp.solve m in
  check "unconstrained optimal" true full.Ilp.optimal;
  check "unconstrained complete" true (full.Ilp.stop_reason = Ilp.Complete);
  check "incumbent no better than optimum" true
    (List.length full.Ilp.selected <= List.length r.Ilp.selected)

let test_solution_records_degradation () =
  let m = mk_matrix ~cols:4 [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 0; 3 ] ] in
  let budget = Budget.create ~deadline_s:0.0 () in
  (* Reduction alone can finish this instance; disable it so the solver
     actually sees the budget. *)
  let s = Solution.solve ~method_:Solution.No_reduction_exact ~budget m in
  check "valid cover" true (Solution.verify m s);
  check "degraded recorded" true s.Solution.stats.Solution.degraded;
  check "solver not optimal" false s.Solution.stats.Solution.solver_optimal;
  let live = Solution.solve ~method_:Solution.No_reduction_exact m in
  check "live not degraded" false live.Solution.stats.Solution.degraded

let test_ga_budget_stops_after_initial_cohort () =
  let problem =
    {
      Ga.init = (fun rng -> Rng.int rng 1000);
      fitness = Array.map float_of_int;
      crossover = (fun _ a b -> max a b);
      mutate = (fun rng g -> g + Rng.int rng 3);
    }
  in
  let budget = Budget.create () in
  Budget.cancel budget;
  let config = { Ga.population = 8; generations = 50 } in
  let o = Ga.optimize ~config ~budget ~rng:(Rng.create 7) problem in
  check "stopped early" true o.Ga.stopped_early;
  check_int "only the initial cohort evaluated" 8 o.Ga.evaluations

let test_builder_cancelled_budget_skips_all_rows () =
  let p = Lazy.force prepared_c17 in
  let tpg = Accumulator.adder 5 in
  let budget = Budget.create () in
  Budget.cancel budget;
  let b =
    Builder.build ~budget p.Suite.sim tpg ~tests:p.Suite.tests ~targets:p.Suite.targets
      ~config:Builder.default_config
  in
  check_int "all rows skipped" (Array.length p.Suite.tests) b.Builder.rows_skipped;
  check "matrix rows empty" true
    (Array.for_all
       (fun i -> Bitvec.is_empty (Matrix.row b.Builder.matrix i))
       (Array.init (Matrix.rows b.Builder.matrix) Fun.id));
  (* The degraded matrix still flows through the covering pipeline. *)
  let s = Solution.solve b.Builder.matrix in
  check "solvable" true (Solution.verify b.Builder.matrix s)

let test_flow_degraded_result_is_sound () =
  let p = Lazy.force prepared_c17 in
  let tpg = Accumulator.adder 5 in
  let budget = Budget.create () in
  Budget.cancel budget;
  let r = Flow.run ~budget p.Suite.sim tpg ~tests:p.Suite.tests ~targets:p.Suite.targets in
  check "degraded" true r.Flow.degraded;
  check "stop reason" true (r.Flow.stop_reason = Some Budget.Cancelled);
  check "coverage honest" true (r.Flow.coverage_pct < 100.0);
  check "no phantom triplets" true (List.length r.Flow.final_triplets = 0)

(* --- checkpoint/resume through the store's matrix shards --- *)

let config = Builder.default_config

let build_ck ?budget ?(config = config) (sim, tpg, tests, targets) store =
  Builder.build ?budget ~store sim tpg ~tests ~targets ~config

let plain_build ?(config = config) (sim, tpg, tests, targets) =
  Builder.build sim tpg ~tests ~targets ~config

(* Remove the whole-stage [matrix] artifact so the next build misses it
   and resumes row-by-row from the shards. *)
let drop_matrix store (_, tpg, tests, targets) =
  Sys.remove
    (Artifact.path store ~stage:"matrix" (Builder.fingerprint ~tests ~targets tpg ~config))

(* The shard holding rows [0,16): keyed by the matrix fingerprint plus
   the row range. *)
let first_shard store (_, tpg, tests, targets) =
  let fp = Builder.fingerprint ~tests ~targets tpg ~config in
  Artifact.path store ~stage:"matrixshard" Fingerprint.(int (int fp 0) 16)

let rows_of (_, _, tests, _) = Array.length tests

let test_checkpoint_roundtrip_bit_identical () =
  let fx = Test_scale.build_fixture () in
  let reference = plain_build fx in
  Test_scale.with_tmp_store @@ fun store ->
  let first = build_ck fx store in
  check_int "nothing restored on first run" 0 first.Builder.rows_restored;
  Test_scale.same_build reference first;
  drop_matrix store fx;
  let resumed = build_ck fx store in
  check_int "full restore" (rows_of fx) resumed.Builder.rows_restored;
  check_int "no simulations on restore" 0 resumed.Builder.fault_sims;
  Test_scale.same_build reference resumed

(* Damage the first shard with [damage], then resume: exactly its 16 rows
   are re-simulated, the other shards restored, and the matrix is
   bit-identical.  The recomputed shard is rewritten, so the next resume
   restores everything. *)
let resume_past_damaged_shard damage =
  let fx = Test_scale.build_fixture () in
  let reference = plain_build fx in
  Test_scale.with_tmp_store @@ fun store ->
  ignore (build_ck fx store);
  drop_matrix store fx;
  damage (first_shard store fx);
  let resumed = build_ck fx store in
  check_int "only the damaged shard re-simulated" (rows_of fx - 16)
    resumed.Builder.rows_restored;
  Test_scale.same_build reference resumed;
  drop_matrix store fx;
  check_int "damaged shard rewritten" (rows_of fx)
    (build_ck fx store).Builder.rows_restored

let test_checkpoint_truncated_chunk_is_resimulated () =
  resume_past_damaged_shard (fun shard ->
      (* Kill mid-write: cut the shard inside its payload. *)
      let size = (Unix.stat shard).Unix.st_size in
      let fd = Unix.openfile shard [ Unix.O_WRONLY ] 0 in
      Unix.ftruncate fd (size / 2);
      Unix.close fd)

let test_checkpoint_corrupt_payload_is_resimulated () =
  resume_past_damaged_shard (fun shard ->
      (* Flip the low byte of the first row's useful-cycle count (after
         the 36-byte blob header and the u32 row count): any value decodes,
         so only the checksum can catch it. *)
      let off = 36 + 4 in
      let fd = Unix.openfile shard [ Unix.O_RDWR ] 0 in
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      let b = Bytes.create 1 in
      ignore (Unix.read fd b 0 1);
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      ignore (Unix.write fd b 0 1);
      Unix.close fd)

let test_checkpoint_fingerprint_mismatch_restores_nothing () =
  let fx = Test_scale.build_fixture () in
  Test_scale.with_tmp_store @@ fun store ->
  ignore (build_ck fx store);
  (* Different evolution length → different matrix → the stored shards
     describe another build and must not be restored. *)
  let config = { config with Builder.cycles = 40 } in
  let other = build_ck ~config fx store in
  check_int "stale shards not restored" 0 other.Builder.rows_restored;
  Test_scale.same_build (plain_build ~config fx) other

let test_checkpoint_interrupted_build_resumes_bit_identically () =
  (* Cancel the budget of a sharded build, then resume without one: D and
     the final solution must match an uninterrupted run. *)
  let fx = Test_scale.build_fixture () in
  let reference = plain_build fx in
  let ref_solution = Solution.solve reference.Builder.matrix in
  Test_scale.with_tmp_store @@ fun store ->
  let budget = Budget.create () in
  Budget.cancel budget;
  let partial = build_ck ~budget fx store in
  check "interrupted run incomplete" true (partial.Builder.rows_skipped > 0);
  let resumed = build_ck fx store in
  check_int "no rows skipped after resume" 0 resumed.Builder.rows_skipped;
  Test_scale.same_build reference resumed;
  let resumed_solution = Solution.solve resumed.Builder.matrix in
  check "identical solution rows" true
    (ref_solution.Solution.rows = resumed_solution.Solution.rows)

(* --- pool failure containment --- *)

let test_pool_task_error_context () =
  Pool.with_pool ~jobs:3 (fun pool ->
      match
        Pool.parallel_for ~pool ~label:"resilience probe" ~total:20 (fun ~worker:_ i ->
            if i = 8 then invalid_arg "injected")
      with
      | () -> Alcotest.fail "expected Task_error"
      | exception Pool.Task_error { label; index; attempts; exn; _ } ->
          check "label" true (label = "resilience probe");
          check_int "index" 8 index;
          check_int "attempted twice" 2 attempts;
          check "underlying exn" true (exn = Invalid_argument "injected"))

let test_pool_transient_failure_retried () =
  (* Fails the first attempt of one index only; the retry must succeed and
     the overall region complete with correct results. *)
  let attempts = Array.init 32 (fun _ -> Atomic.make 0) in
  let out = Array.make 32 0 in
  Pool.with_pool ~jobs:4 (fun pool ->
      Pool.parallel_for ~pool ~label:"transient" ~total:32 (fun ~worker:_ i ->
          if i = 13 && Atomic.fetch_and_add attempts.(i) 1 = 0 then
            failwith "transient glitch";
          out.(i) <- i * 3));
  check "result correct" true (out = Array.init 32 (fun i -> i * 3));
  check_int "failed index ran twice" 2 (Atomic.get attempts.(13))

let test_pool_inline_jobs_one_retries_too () =
  let tries = Atomic.make 0 in
  Pool.with_pool ~jobs:1 (fun pool ->
      Pool.parallel_for ~pool ~total:4 (fun ~worker:_ i ->
          if i = 0 && Atomic.fetch_and_add tries 1 = 0 then failwith "once"))

(* --- parser diagnostics --- *)

let expect_error f =
  match f () with
  | _ -> Alcotest.fail "expected Reseed_error"
  | exception Error.Reseed_error e -> e

let test_bench_io_error_coordinates () =
  let e =
    expect_error (fun () ->
        Bench_io.parse ~file:"x.bench" ~name:"x" "INPUT(a)\nOUTPUT(y)\ny = NOT(q)\n")
  in
  check "input code" true (e.Error.code = Error.Input_error);
  check "file recorded" true (e.Error.file = Some "x.bench");
  check "line of the bad reference" true (e.Error.line = Some 3);
  let loop =
    expect_error (fun () ->
        Bench_io.parse ~name:"l" "INPUT(a)\nOUTPUT(y)\ny = NOT(z)\nz = NOT(y)\n")
  in
  check "loop has a line" true (loop.Error.line <> None);
  let rendered = Error.to_string e in
  check "rendered coordinates" true
    (String.length rendered > String.length "x.bench:3:"
    && String.sub rendered 0 10 = "x.bench:3:")

let test_bench_io_bad_syntax_line () =
  let e =
    expect_error (fun () ->
        Bench_io.parse ~name:"s" "INPUT(a)\nOUTPUT(y)\ny = NOT(a\n")
  in
  check_int "syntax error line"
    3
    (match e.Error.line with Some l -> l | None -> -1)

let test_unknown_circuit_error () =
  let e = expect_error (fun () -> Library.load "z9999") in
  check "input code" true (e.Error.code = Error.Input_error);
  check "names listed" true
    (let m = e.Error.message in
     let has_sub needle =
       let nl = String.length needle and ml = String.length m in
       let rec go i = i + nl <= ml && (String.sub m i nl = needle || go (i + 1)) in
       go 0
     in
     has_sub "c432" && has_sub "z9999")

let suite =
  [
    ( "resilience",
      [
        Alcotest.test_case "budget latch + precedence" `Quick test_budget_latch;
        Alcotest.test_case "ilp: expired budget → incumbent" `Quick
          test_ilp_expired_budget_returns_incumbent;
        Alcotest.test_case "solution: degradation recorded" `Quick
          test_solution_records_degradation;
        Alcotest.test_case "ga: budget stops after first cohort" `Quick
          test_ga_budget_stops_after_initial_cohort;
        Alcotest.test_case "builder: cancelled budget skips rows" `Quick
          test_builder_cancelled_budget_skips_all_rows;
        Alcotest.test_case "flow: degraded result is sound" `Quick
          test_flow_degraded_result_is_sound;
        Alcotest.test_case "checkpoint: roundtrip bit-identical" `Quick
          test_checkpoint_roundtrip_bit_identical;
        Alcotest.test_case "checkpoint: truncated chunk re-simulated" `Quick
          test_checkpoint_truncated_chunk_is_resimulated;
        Alcotest.test_case "checkpoint: corrupt payload re-simulated" `Quick
          test_checkpoint_corrupt_payload_is_resimulated;
        Alcotest.test_case "checkpoint: fingerprint mismatch restores nothing" `Quick
          test_checkpoint_fingerprint_mismatch_restores_nothing;
        Alcotest.test_case "checkpoint: interrupt + resume = uninterrupted" `Quick
          test_checkpoint_interrupted_build_resumes_bit_identically;
        Alcotest.test_case "pool: task error carries context" `Quick
          test_pool_task_error_context;
        Alcotest.test_case "pool: transient failure retried once" `Quick
          test_pool_transient_failure_retried;
        Alcotest.test_case "pool: inline path retries too" `Quick
          test_pool_inline_jobs_one_retries_too;
        Alcotest.test_case "bench_io: file:line diagnostics" `Quick
          test_bench_io_error_coordinates;
        Alcotest.test_case "bench_io: syntax error line" `Quick
          test_bench_io_bad_syntax_line;
        Alcotest.test_case "library: unknown circuit lists catalog" `Quick
          test_unknown_circuit_error;
      ] );
  ]

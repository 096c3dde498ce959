(* Multicore engine: Pool scheduling, per-domain simulator shards, and
   jobs-count invariance of every parallel phase.  All pools here are
   explicit ([with_pool ~jobs:4]) so the tests spawn real domains even on
   a single-core CI runner, where the default pool degrades to inline. *)

open Reseed_core
open Reseed_fault
open Reseed_netlist
open Reseed_gatsby
open Reseed_setcover
open Reseed_tpg
open Reseed_util

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Pool ----------------------------------------------------------- *)

(* [Array.init n f] over [pool]: index [i] writes slot [i]. *)
let par_init ~pool n f =
  let out = Array.make n None in
  Pool.parallel_for ~pool ~total:n (fun ~worker:_ i -> out.(i) <- Some (f i));
  Array.map Option.get out

let test_pool_map () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          check_int "jobs" jobs (Pool.jobs pool);
          let f x = (x * 7919) mod 104729 in
          check
            (Printf.sprintf "init = sequential init at jobs=%d" jobs)
            true
            (par_init ~pool 777 f = Array.init 777 f);
          Pool.parallel_for ~pool ~total:0 (fun ~worker:_ _ ->
              Alcotest.fail "an empty region runs nothing")))
    [ 1; 2; 4 ]

let test_pool_reuse_and_order () =
  (* Result slot [i] always holds task [i]'s value, across repeated jobs
     on one pool. *)
  Pool.with_pool ~jobs:3 (fun pool ->
      for round = 1 to 20 do
        let n = 50 + round in
        let out = par_init ~pool n (fun i -> (round * 1000) + i) in
        Array.iteri (fun i v -> check_int "slot" ((round * 1000) + i) v) out
      done)

let test_pool_exception () =
  Pool.with_pool ~jobs:4 (fun pool ->
      (match
         Pool.parallel_for ~pool ~label:"boom job" ~total:100 (fun ~worker:_ i ->
             if i = 42 then failwith "boom")
       with
      | () -> Alcotest.fail "expected exception"
      | exception Pool.Task_error { label; index; attempts; exn; _ } ->
          check "exn propagated" true (exn = Failure "boom");
          check "task label" true (label = "boom job");
          check_int "failing index" 42 index;
          check "retried once" true (attempts = 2));
      (* The pool survives a failed job. *)
      let xs = par_init ~pool 100 (fun i -> i * i) in
      check "pool usable after failure" true (xs = Array.init 100 (fun i -> i * i)))

let test_pool_nested () =
  (* A submission from inside a running job must not deadlock: the inner
     call degrades to the sequential path. *)
  Pool.with_pool ~jobs:4 (fun pool ->
      let out =
        par_init ~pool 8 (fun i ->
            let inner = par_init ~pool 10 (fun j -> (i * 10) + j) in
            Array.fold_left ( + ) 0 inner)
      in
      check "nested totals" true
        (out = Array.init 8 (fun i -> (i * 100) + 45)))

let test_pool_jobs_one_inline () =
  Pool.with_pool ~jobs:1 (fun pool ->
      let d = Domain.self () in
      let saw = ref true in
      Pool.parallel_for ~pool ~total:64 (fun ~worker:_ _ ->
          if Domain.self () <> d then saw := false);
      check "jobs=1 runs on the calling domain" true !saw)

(* --- Fault_sim.copy isolation --------------------------------------- *)

let random_patterns rng ~inputs ~n =
  Array.init n (fun _ -> Array.init inputs (fun _ -> Rng.bool rng))

let test_copy_isolation () =
  let c = Library.load "c432" in
  let faults = Fault.all c in
  let sim = Fault_sim.create c faults in
  let rng = Rng.create 99 in
  let inputs = Circuit.input_count c in
  let jobs = 4 in
  let batches = Array.init jobs (fun _ -> random_patterns rng ~inputs ~n:40) in
  let active = Bitvec.create (Array.length faults) in
  Bitvec.fill_all active;
  (* Sequential reference: a fresh simulator per batch. *)
  let expect =
    Array.map
      (fun ps -> Fault_sim.detected_set (Fault_sim.create c faults) ps ~active)
      batches
  in
  (* Concurrent run: all batches at once, one shard per worker. *)
  let shard = Fault_sim.shard sim jobs in
  let got = Array.make jobs (Bitvec.create 0) in
  Pool.with_pool ~jobs (fun pool ->
      Pool.parallel_for ~pool ~total:jobs (fun ~worker:_ i ->
          got.(i) <- Fault_sim.detected_set shard.(i) batches.(i) ~active));
  Array.iteri
    (fun i e -> check (Printf.sprintf "batch %d isolated" i) true (Bitvec.equal e got.(i)))
    expect;
  let before = Fault_sim.sims_performed sim in
  Fault_sim.merge_sims ~into:sim shard;
  check "merge_sims adds donor work" true (Fault_sim.sims_performed sim > before);
  let after = Fault_sim.sims_performed sim in
  Fault_sim.merge_sims ~into:sim shard;
  check_int "merge_sims idempotent" after (Fault_sim.sims_performed sim)

(* --- Builder / Gatsby / Tradeoff: jobs-count invariance -------------- *)

let builder_setup () =
  let c = Library.c17 () in
  let faults = Fault.all c in
  let inputs = Circuit.input_count c in
  let rng = Rng.create 7 in
  let tests = random_patterns rng ~inputs ~n:12 in
  let targets = Bitvec.create (Array.length faults) in
  Bitvec.fill_all targets;
  (c, faults, tests, targets, Accumulator.adder inputs)

let build_with ~jobs =
  let c, faults, tests, targets, tpg = builder_setup () in
  let sim = Fault_sim.create c faults in
  Pool.with_pool ~jobs (fun pool ->
      Builder.build ~pool sim tpg ~tests ~targets ~config:Builder.default_config)

let test_builder_jobs_invariant () =
  let b1 = build_with ~jobs:1 and b4 = build_with ~jobs:4 in
  check_int "rows" (Matrix.rows b1.Builder.matrix) (Matrix.rows b4.Builder.matrix);
  check_int "cols" (Matrix.cols b1.Builder.matrix) (Matrix.cols b4.Builder.matrix);
  for r = 0 to Matrix.rows b1.Builder.matrix - 1 do
    check
      (Printf.sprintf "matrix row %d bit-identical" r)
      true
      (Bitvec.equal (Matrix.row b1.Builder.matrix r) (Matrix.row b4.Builder.matrix r))
  done;
  check "useful_cycles identical" true (b1.Builder.useful_cycles = b4.Builder.useful_cycles);
  check_int "fault_sims identical" b1.Builder.fault_sims b4.Builder.fault_sims

let gatsby_with ~jobs =
  let c, faults, _tests, targets, tpg = builder_setup () in
  let sim = Fault_sim.create c faults in
  let config =
    { Gatsby.cycles = 30; max_rounds = 30; ga = { Ga.population = 6; generations = 3 } }
  in
  let rng = Rng.create 2024 in
  Pool.with_pool ~jobs (fun pool -> Gatsby.run ~config ~pool sim tpg ~rng ~targets)

let test_gatsby_jobs_invariant () =
  let g1 = gatsby_with ~jobs:1 and g4 = gatsby_with ~jobs:4 in
  check "detected identical" true (Bitvec.equal g1.Gatsby.detected g4.Gatsby.detected);
  check_int "test_length" g1.Gatsby.test_length g4.Gatsby.test_length;
  check_int "triplets" (List.length g1.Gatsby.triplets) (List.length g4.Gatsby.triplets);
  check_int "ga_evaluations" g1.Gatsby.ga_evaluations g4.Gatsby.ga_evaluations;
  check_int "fault_sims" g1.Gatsby.fault_sims g4.Gatsby.fault_sims

let tradeoff_with ~jobs =
  let c, faults, tests, targets, tpg = builder_setup () in
  let sim = Fault_sim.create c faults in
  Pool.with_pool ~jobs (fun pool ->
      Tradeoff.sweep ~pool sim tpg ~tests ~targets ~grid:[ 8; 16; 32; 64 ])

let test_tradeoff_jobs_invariant () =
  check "figure-2 series identical" true (tradeoff_with ~jobs:1 = tradeoff_with ~jobs:4)

(* A malformed RESEED_JOBS is a usage error naming the variable and its
   value, never a silent fallback to every core; blank means unset. *)
let test_pool_env_malformed () =
  Fun.protect ~finally:(fun () -> Unix.putenv "RESEED_JOBS" "") @@ fun () ->
  List.iter
    (fun v ->
      Unix.putenv "RESEED_JOBS" v;
      match Pool.default_jobs () with
      | n -> Alcotest.failf "RESEED_JOBS=%S accepted as %d" v n
      | exception Error.Reseed_error e ->
          Alcotest.(check string) "usage code" "usage" (Error.code_name e.Error.code);
          Alcotest.(check string) "message names variable and value"
            (Printf.sprintf "RESEED_JOBS=%S: expected a positive integer" v)
            e.Error.message)
    [ "2x"; "0"; "-3" ];
  Unix.putenv "RESEED_JOBS" " 3 ";
  check_int "surrounding blanks are trimmed" 3 (Pool.default_jobs ());
  Unix.putenv "RESEED_JOBS" "";
  check_int "blank means unset" (Domain.recommended_domain_count ())
    (Pool.default_jobs ())

let suite =
  [
    ( "parallel",
      [
        Alcotest.test_case "pool: maps match sequential" `Quick test_pool_map;
        Alcotest.test_case "pool: slot order across reuse" `Quick test_pool_reuse_and_order;
        Alcotest.test_case "pool: exception propagation" `Quick test_pool_exception;
        Alcotest.test_case "pool: nested call degrades" `Quick test_pool_nested;
        Alcotest.test_case "pool: jobs=1 inline" `Quick test_pool_jobs_one_inline;
        Alcotest.test_case "pool: malformed RESEED_JOBS is a usage error" `Quick
          test_pool_env_malformed;
        Alcotest.test_case "fault_sim: shard isolation" `Quick test_copy_isolation;
        Alcotest.test_case "builder: jobs=1 = jobs=4" `Quick test_builder_jobs_invariant;
        Alcotest.test_case "gatsby: jobs=1 = jobs=4" `Quick test_gatsby_jobs_invariant;
        Alcotest.test_case "tradeoff: jobs=1 = jobs=4" `Quick test_tradeoff_jobs_invariant;
      ] );
  ]

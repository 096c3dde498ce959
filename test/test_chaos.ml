(* Fault injection and crash consistency: the chaos spec grammar, the
   deterministic injection schedule, the shared retry policy, and the
   end-to-end guarantee that any single injected fault either heals,
   degrades to a cache miss, or surfaces as a documented diagnostic —
   never as a silently wrong answer. *)

open Reseed_core
open Reseed_netlist
open Reseed_tpg
open Reseed_util

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* Force the modules that register catalog faultpoints to be linked (a
   library member with no other reference would never run its
   initialiser, silently shrinking the catalog). *)
let touch_registrars () =
  ignore (Batch.parse_string "job c17 adder 10");
  ignore (Bench_io.parse ~name:"t" "INPUT(a)\nOUTPUT(o)\no = NOT(a)\n")

let temp_counter = ref 0

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_temp_dir f =
  incr temp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "reseed-chaos-%d-%d" (Unix.getpid ()) !temp_counter)
  in
  Artifact.mkdir_p dir;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () -> f dir)

let with_chaos spec f =
  Faultpoint.configure_string spec;
  Fun.protect ~finally:Faultpoint.disable f

let metric name = Metrics.value (Metrics.counter name)

let delta name f =
  let before = metric name in
  let v = f () in
  (v, metric name - before)

(* --- spec grammar ------------------------------------------------------ *)

let test_spec_parse_valid () =
  let accepts s =
    Faultpoint.configure_string s;
    check (s ^ " enables") true (Faultpoint.enabled ())
  in
  Fun.protect ~finally:Faultpoint.disable @@ fun () ->
  accepts "1:artifact.write=eio";
  accepts "42:artifact.*=torn:0.25@3";
  accepts "0:*=latency:0.0@p0.5";
  accepts "7:pool.task=fail@1,artifact.read=flip@2";
  Faultpoint.disable ();
  check "disable disables" false (Faultpoint.enabled ())

let test_spec_parse_invalid () =
  let rejects name s =
    match Faultpoint.configure_string s with
    | exception Error.Reseed_error e ->
        check (name ^ " is a usage error") true (e.Error.code = Error.Usage)
    | () -> Alcotest.failf "%s: expected Reseed_error" name
  in
  rejects "no seed" "artifact.write=eio";
  rejects "bad seed" "x:artifact.write=eio";
  rejects "no rules" "1:";
  rejects "no kind" "1:artifact.write";
  rejects "unknown kind" "1:artifact.write=explode";
  rejects "bad selector" "1:artifact.write=eio@zero";
  rejects "bad probability" "1:artifact.write=eio@p2";
  rejects "bad argument" "1:artifact.write=torn:-1";
  rejects "empty point" "1:=eio"

let test_catalog_registered () =
  touch_registrars ();
  let all = Faultpoint.all () in
  List.iter
    (fun p -> check ("catalog has " ^ p) true (List.mem p all))
    [
      "artifact.read"; "artifact.write"; "artifact.publish"; "pool.task";
      "batch.job"; "bench.write";
    ]

(* --- deterministic schedules ------------------------------------------- *)

let test_nth_selector () =
  let fp = Faultpoint.register "chaos.test.nth" in
  with_chaos "1:chaos.test.nth=fail@2" @@ fun () ->
  let fires () =
    match Faultpoint.hit fp with
    | () -> false
    | exception Faultpoint.Injected _ -> true
  in
  check "hit 1 passes" false (fires ());
  check "hit 2 fires" true (fires ());
  check "hit 3 passes" false (fires ());
  check_int "hits counted" 3 (Faultpoint.hit_count fp)

let test_probabilistic_schedule_replays () =
  let fp = Faultpoint.register "chaos.test.prob" in
  let schedule () =
    List.init 64 (fun _ ->
        match Faultpoint.hit fp with
        | () -> false
        | exception Faultpoint.Injected _ -> true)
  in
  let a = with_chaos "9:chaos.test.prob=fail@p0.5" schedule in
  let b = with_chaos "9:chaos.test.prob=fail@p0.5" schedule in
  check "same seed replays identically" true (a = b);
  let fired = List.length (List.filter Fun.id a) in
  check "some hits fire" true (fired > 0);
  check "some hits pass" true (fired < 64)

let test_mangle_torn_and_flip () =
  let fp = Faultpoint.register "chaos.test.mangle" in
  let torn =
    with_chaos "1:chaos.test.mangle=torn:0.5@1" @@ fun () ->
    Faultpoint.mangle fp "0123456789"
  in
  check_string "torn keeps the prefix" "01234" torn;
  let flipped =
    with_chaos "1:chaos.test.mangle=flip@1" @@ fun () ->
    Faultpoint.mangle fp "0123456789"
  in
  check "flip changes the payload" true (flipped <> "0123456789");
  check_int "flip keeps the length" 10 (String.length flipped);
  let diff = ref 0 in
  String.iteri
    (fun i c -> if c <> flipped.[i] then incr diff)
    "0123456789";
  check_int "flip touches one byte" 1 !diff;
  (* Disabled points return the payload unchanged through the fast path. *)
  check_string "disabled mangle is identity" "abc" (Faultpoint.mangle fp "abc")

(* --- retry policy ------------------------------------------------------ *)

let fast = { Retry.max_attempts = 3; base_delay_s = 0.; max_delay_s = 0. }

let test_retry_transient_heals () =
  let calls = ref 0 in
  let r, retries =
    delta "retry_attempts" (fun () ->
        Retry.run ~config:fast (fun ~attempt ->
            incr calls;
            if attempt = 1 then raise (Unix.Unix_error (Unix.EIO, "t", ""));
            "ok"))
  in
  check "heals" true (r = Ok "ok");
  check_int "two calls" 2 !calls;
  check_int "one retry counted" 1 retries

let test_retry_permanent_immediate () =
  let calls = ref 0 in
  let r =
    Retry.run ~config:fast (fun ~attempt:_ ->
        incr calls;
        raise (Unix.Unix_error (Unix.ENOENT, "t", "")))
  in
  (match r with
  | Error { Retry.attempts; _ } -> check_int "one attempt" 1 attempts
  | Ok _ -> Alcotest.fail "expected failure");
  check_int "never retried" 1 !calls

let test_retry_exhaustion () =
  match
    Retry.run ~config:fast (fun ~attempt:_ ->
        raise (Unix.Unix_error (Unix.EIO, "t", "")))
  with
  | Error { Retry.attempts; exn = Unix.Unix_error (Unix.EIO, _, _); _ } ->
      check_int "all attempts used" fast.Retry.max_attempts attempts
  | _ -> Alcotest.fail "expected EIO failure after exhaustion"

let test_retry_classification_defaults () =
  let cls e = Retry.class_name (Retry.classify e) in
  check_string "eio transient" "transient"
    (cls (Unix.Unix_error (Unix.EIO, "", "")));
  check_string "enospc permanent" "permanent"
    (cls (Unix.Unix_error (Unix.ENOSPC, "", "")));
  check_string "injected transient" "transient"
    (cls (Faultpoint.Injected { point = "p"; fault = "fail" }));
  check_string "sys_error transient" "transient" (cls (Sys_error "x"));
  check_string "diagnostics permanent" "permanent"
    (cls
       (Error.Reseed_error
          { Error.code = Error.Input_error; message = ""; file = None;
            line = None; column = None }));
  check_string "anything else permanent" "permanent" (cls Exit)

let test_retry_backoff_deterministic () =
  let cfg = { Retry.max_attempts = 3; base_delay_s = 0.001; max_delay_s = 0.01 } in
  let fail_all () =
    match
      Retry.run ~config:cfg ~label:"t" (fun ~attempt:_ ->
          raise (Unix.Unix_error (Unix.EIO, "t", "")))
    with
    | Error f -> f.Retry.backoff_s
    | Ok _ -> assert false
  in
  let a = fail_all () and b = fail_all () in
  check "backoff accumulated" true (a > 0.);
  check "backoff deterministic across runs" true (a = b)

(* --- artifact store under chaos ---------------------------------------- *)

let enc v =
  let b = Buffer.create 16 in
  Artifact.Codec.str b v;
  Some (Buffer.contents b)

let dec r = Artifact.Codec.get_str r

let cached store fp computes =
  Artifact.cached (Some store) ~stage:"chaos" ~fp ~encode:enc ~decode:dec
    (fun () ->
      incr computes;
      "payload")

let test_artifact_torn_write_recovers () =
  with_temp_dir @@ fun dir ->
  let store = Artifact.open_store dir in
  let fp = Fingerprint.string (Fingerprint.salted "chaos") "torn" in
  let computes = ref 0 in
  (* The torn first write publishes a truncated blob... *)
  let v1 = with_chaos "1:artifact.write=torn@1" (fun () -> cached store fp computes) in
  check_string "torn run still returns the result" "payload" v1;
  (* ...which the next run detects, recomputes and rewrites. *)
  let before_rw = metric "artifact_rewrites" in
  let v2, corrupt = delta "artifact_corrupt" (fun () -> cached store fp computes) in
  check_string "recovered" "payload" v2;
  check "corruption detected" true (corrupt >= 1);
  check_int "recomputed" 2 !computes;
  check_int "rewrite counted" 1 (metric "artifact_rewrites" - before_rw);
  (* The rewrite healed the blob: warm from here on. *)
  let v3, hits = delta "artifact_hits" (fun () -> cached store fp computes) in
  check_string "warm" "payload" v3;
  check_int "hits after rewrite" 1 hits;
  check_int "no further recompute" 2 !computes

let test_artifact_rewrite_counted () =
  with_temp_dir @@ fun dir ->
  let store = Artifact.open_store dir in
  let fp = Fingerprint.string (Fingerprint.salted "chaos") "rewrite" in
  let computes = ref 0 in
  ignore (with_chaos "1:artifact.write=flip@1" (fun () -> cached store fp computes));
  let _, rewrites = delta "artifact_rewrites" (fun () -> cached store fp computes) in
  check_int "corrupt blob overwrite counted" 1 rewrites

let test_artifact_read_eio_heals () =
  with_temp_dir @@ fun dir ->
  let store = Artifact.open_store dir in
  let fp = Fingerprint.string (Fingerprint.salted "chaos") "read" in
  let computes = ref 0 in
  ignore (cached store fp computes);
  check_int "written clean" 1 !computes;
  let v, retries =
    delta "retry_attempts" (fun () ->
        with_chaos "1:artifact.read=eio@1" (fun () -> cached store fp computes))
  in
  check_string "healed through retry" "payload" v;
  check "retried" true (retries >= 1);
  check_int "no recompute" 1 !computes

let test_artifact_save_failure_nonfatal () =
  with_temp_dir @@ fun dir ->
  let store = Artifact.open_store dir in
  let fp = Fingerprint.string (Fingerprint.salted "chaos") "nospace" in
  let computes = ref 0 in
  (* ENOSPC is permanent: the save fails, the result survives. *)
  let v, failures =
    delta "artifact_write_failures" (fun () ->
        with_chaos "1:artifact.write=enospc@1" (fun () -> cached store fp computes))
  in
  check_string "result survives failed save" "payload" v;
  check_int "failure counted" 1 failures;
  check_int "computed" 1 !computes;
  (* Nothing was cached: the next run misses and saves cleanly. *)
  let v2, misses = delta "artifact_misses" (fun () -> cached store fp computes) in
  check_string "recomputes next run" "payload" v2;
  check_int "missed" 1 misses;
  check_int "computed again" 2 !computes

let test_pool_task_fault_heals () =
  with_chaos "1:pool.task=fail@1" @@ fun () ->
  Pool.with_pool ~jobs:2 @@ fun pool ->
  let out = Pool.parallel_init ~pool ~chunk:4 16 (fun i -> i * i) in
  check "pool result correct under one-shot fault" true
    (Array.for_all Fun.id (Array.mapi (fun i v -> v = i * i) out))

let test_pool_task_exhaustion_is_task_error () =
  with_chaos "1:pool.task=fail" @@ fun () ->
  (* [fail] with no selector fires on every hit: retries cannot heal it
     and the pool must surface a structured Task_error. *)
  Pool.with_pool ~jobs:2 @@ fun pool ->
  match Pool.parallel_init ~pool 8 (fun i -> i) with
  | _ -> Alcotest.fail "expected Task_error"
  | exception Pool.Task_error { attempts; exn = Faultpoint.Injected _; _ } ->
      check_int "attempt count surfaced" 2 attempts

(* --- flow-level crash consistency -------------------------------------- *)

let prepared_c17 = lazy (Suite.prepare "c17")

let flow_signature (r : Flow.result) =
  ( Flow.reseedings r,
    r.Flow.test_length,
    r.Flow.final_triplets,
    r.Flow.coverage_pct )

let run_flow ~dir =
  let p = Lazy.force prepared_c17 in
  let tpg = Accumulator.adder (Circuit.input_count p.Suite.circuit) in
  let config =
    {
      Flow.default_config with
      Flow.builder = { Builder.default_config with Builder.cycles = 40 };
    }
  in
  let store = Artifact.open_store (Filename.concat dir "cache") in
  Flow.run ~config ~store ~fingerprint:p.Suite.fingerprint p.Suite.sim tpg
    ~tests:p.Suite.tests ~targets:p.Suite.targets

(* A save that keeps failing only costs cache misses: with every
   artifact write (matrix shards included) failing with EIO, the sharded
   flow still returns the clean answer. *)
let test_persistent_write_fault_heals () =
  with_temp_dir @@ fun dir ->
  let clean = flow_signature (run_flow ~dir:(Filename.concat dir "a")) in
  let faulted, failures =
    delta "artifact_write_failures" (fun () ->
        with_chaos "1:artifact.write=eio" (fun () ->
            flow_signature (run_flow ~dir:(Filename.concat dir "b"))))
  in
  check "flow identical under persistent write fault" true (clean = faulted);
  check "saves failed" true (failures > 0)

(* Any single injected fault: the flow either produces the exact clean
   solution or raises a documented diagnostic — never a wrong answer. *)
let prop_single_fault_never_wrong =
  let points = [ "artifact.read"; "artifact.write"; "artifact.publish"; "pool.task" ] in
  let kinds = Faultpoint.[ Eio; Enospc; Torn; Flip; Fail ] in
  QCheck.Test.make ~name:"single fault: clean answer or documented error"
    ~count:25
    QCheck.(
      triple
        (int_bound (List.length points - 1))
        (int_bound (List.length kinds - 1))
        (int_range 1 1000))
    (fun (pi, ki, seed) ->
      touch_registrars ();
      with_temp_dir @@ fun dir ->
      let reference = flow_signature (run_flow ~dir:(Filename.concat dir "ref")) in
      let point = List.nth points pi and kind = List.nth kinds ki in
      let spec =
        Printf.sprintf "%d:%s=%s@1" seed point (Faultpoint.kind_name kind)
      in
      let outcome =
        with_chaos spec (fun () ->
            match run_flow ~dir:(Filename.concat dir "chaos") with
            | r -> `Result (flow_signature r)
            | exception Error.Reseed_error _ -> `Documented
            | exception Pool.Task_error _ -> `Documented
            | exception Unix.Unix_error _ -> `Documented)
      in
      match outcome with
      | `Result s -> s = reference
      | `Documented -> true)

let suite =
  [
    ( "chaos",
      [
        Alcotest.test_case "spec: valid forms accepted" `Quick test_spec_parse_valid;
        Alcotest.test_case "spec: malformed rejected as usage" `Quick
          test_spec_parse_invalid;
        Alcotest.test_case "catalog: pipeline points registered" `Quick
          test_catalog_registered;
        Alcotest.test_case "schedule: @N fires exactly once" `Quick test_nth_selector;
        Alcotest.test_case "schedule: @p replays per seed" `Quick
          test_probabilistic_schedule_replays;
        Alcotest.test_case "mangle: torn and flip are deterministic" `Quick
          test_mangle_torn_and_flip;
        Alcotest.test_case "retry: transient heals" `Quick test_retry_transient_heals;
        Alcotest.test_case "retry: permanent fails fast" `Quick
          test_retry_permanent_immediate;
        Alcotest.test_case "retry: exhaustion surfaces last error" `Quick
          test_retry_exhaustion;
        Alcotest.test_case "retry: default classification" `Quick
          test_retry_classification_defaults;
        Alcotest.test_case "retry: deterministic backoff" `Quick
          test_retry_backoff_deterministic;
        Alcotest.test_case "artifact: torn write detected and rewritten" `Quick
          test_artifact_torn_write_recovers;
        Alcotest.test_case "artifact: rewrite counter" `Quick
          test_artifact_rewrite_counted;
        Alcotest.test_case "artifact: read EIO heals warm hit" `Quick
          test_artifact_read_eio_heals;
        Alcotest.test_case "artifact: failed save is non-fatal" `Quick
          test_artifact_save_failure_nonfatal;
        Alcotest.test_case "pool: one-shot task fault heals" `Quick
          test_pool_task_fault_heals;
        Alcotest.test_case "pool: persistent fault is Task_error" `Quick
          test_pool_task_exhaustion_is_task_error;
        Alcotest.test_case "flow: persistent write EIO heals" `Quick
          test_persistent_write_fault_heals;
        QCheck_alcotest.to_alcotest prop_single_fault_never_wrong;
      ] );
  ]

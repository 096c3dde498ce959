(* Fault injection and crash consistency: the chaos spec grammar, the
   deterministic injection schedule, the store's failure-is-a-miss
   contract, and the end-to-end guarantee that any single injected fault
   either heals, degrades to a cache miss, or surfaces as a documented
   diagnostic — never as a silently wrong answer. *)

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

(* A data fault needs a payload: at a control point ([hit]) a selected
   [torn] or [flip] rule changes nothing and counts no injection, while
   the same rule at a data point ([mangle]) counts one; a control fault
   counts at either. *)
let test_data_fault_needs_payload () =
  let fp = Faultpoint.register "chaos.test.payload" in
  let injected spec f = snd (delta "chaos_injected" (fun () -> with_chaos spec f)) in
  List.iter
    (fun kind ->
      let spec = "1:chaos.test.payload=" ^ kind in
      check_int (kind ^ " at hit") 0 (injected spec (fun () -> Faultpoint.hit fp));
      check_int (kind ^ " at mangle") 1
        (injected spec (fun () -> ignore (Faultpoint.mangle fp "0123456789"))))
    [ "torn"; "flip" ];
  check_int "latency at hit" 1
    (injected "1:chaos.test.payload=latency:0" (fun () -> Faultpoint.hit fp))

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

(* No read is retried: an injected read error costs one miss and one
   recompute, and the value is unchanged. *)
let test_artifact_read_eio_is_miss () =
  with_temp_dir @@ fun dir ->
  let store = Artifact.open_store dir in
  let fp = Fingerprint.string (Fingerprint.salted "chaos") "read" in
  let computes = ref 0 in
  ignore (cached store fp computes);
  check_int "written clean" 1 !computes;
  let v, misses =
    delta "artifact_misses" (fun () ->
        with_chaos "1:artifact.read=eio@1" (fun () -> cached store fp computes))
  in
  check_string "same value" "payload" v;
  check_int "one miss" 1 misses;
  check_int "one recompute" 2 !computes

let test_artifact_save_failure_nonfatal () =
  with_temp_dir @@ fun dir ->
  let store = Artifact.open_store dir in
  let fp = Fingerprint.string (Fingerprint.salted "chaos") "nospace" in
  let computes = ref 0 in
  (* An ENOSPC save fails, and the result survives. *)
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
  let out = Array.make 16 0 in
  Pool.parallel_for ~pool ~total:16 (fun ~worker:_ i -> out.(i) <- i * i);
  check "pool result correct under one-shot fault" true
    (out = Array.init 16 (fun i -> i * i))

(* Every index passes [pool.task] on its own, inline or on the pool: a
   10-index region with its third hit failed hits the point 11 times
   (10 indices plus one retry) and runs every body exactly once. *)
let test_pool_task_hit_per_index () =
  let fp = Faultpoint.register "pool.task" in
  List.iter
    (fun jobs ->
      with_chaos "1:pool.task=fail@3" @@ fun () ->
      Pool.with_pool ~jobs @@ fun pool ->
      let runs = Array.init 10 (fun _ -> Atomic.make 0) in
      Pool.parallel_for ~pool ~total:10 (fun ~worker:_ i -> Atomic.incr runs.(i));
      let what s = Printf.sprintf "jobs=%d: %s" jobs s in
      check_int (what "pool.task hits") 11 (Faultpoint.hit_count fp);
      Array.iteri
        (fun i r -> check_int (what (Printf.sprintf "index %d runs" i)) 1 (Atomic.get r))
        runs)
    [ 1; 4 ]

let test_pool_task_exhaustion_is_task_error () =
  with_chaos "1:pool.task=fail" @@ fun () ->
  (* [fail] with no selector fires on every hit: retries cannot heal it
     and the pool must surface a structured Task_error. *)
  Pool.with_pool ~jobs:2 @@ fun pool ->
  match Pool.parallel_for ~pool ~total:8 (fun ~worker:_ _ -> ()) with
  | () -> Alcotest.fail "expected Task_error"
  | exception Pool.Task_error { attempts; exn = Faultpoint.Injected _; _ } ->
      check_int "attempt count surfaced" 2 attempts

(* A structured diagnostic is wrapped at once, never re-run: re-running
   a documented failure only duplicates its side effects. *)
let test_pool_diagnostic_not_rerun () =
  let runs = Atomic.make 0 in
  Pool.with_pool ~jobs:1 @@ fun pool ->
  match
    Pool.parallel_for ~pool ~total:1 (fun ~worker:_ _ ->
        Atomic.incr runs;
        Error.fail Error.Input_error "documented")
  with
  | _ -> Alcotest.fail "expected Task_error"
  | exception Pool.Task_error { attempts; exn = Error.Reseed_error _; _ } ->
      check_int "wrapped at the first attempt" 1 attempts;
      check_int "ran once" 1 (Atomic.get runs)

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

(* A save that fails on every hit only costs cache misses: it is never
   raised, it is counted, and the sharded flow (matrix shards included)
   still returns the clean answer. *)
let check_persistent_save_faults specs =
  with_temp_dir @@ fun dir ->
  let clean = flow_signature (run_flow ~dir:(Filename.concat dir "clean")) in
  List.iter
    (fun spec ->
      let faulted, failures =
        delta "artifact_write_failures" (fun () ->
            with_chaos spec (fun () ->
                flow_signature (run_flow ~dir:(Filename.concat dir spec))))
      in
      check (spec ^ ": flow identical") true (clean = faulted);
      check (spec ^ ": saves failed") true (failures > 0))
    specs

let test_persistent_write_fault_heals () =
  check_persistent_save_faults [ "1:artifact.write=eio" ]

(* Every other kind that makes a save fail, at both write points. *)
let test_persistent_save_fault_any_kind () =
  check_persistent_save_faults
    [
      "1:artifact.write=enospc"; "1:artifact.write=fail";
      "1:artifact.publish=eio"; "1:artifact.publish=enospc";
      "1:artifact.publish=fail";
    ]

(* --- damaged store ------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* Every file under [root]: path relative to [root], contents. *)
let snapshot root =
  let rec walk rel =
    let path = Filename.concat root rel in
    if Sys.is_directory path then
      List.concat_map
        (fun n -> walk (if rel = "" then n else Filename.concat rel n))
        (List.sort compare (Array.to_list (Sys.readdir path)))
    else [ (rel, read_file path) ]
  in
  walk ""

(* Damage every artifact of a filled store, then rerun the flow: each
   damaged artifact loads as a miss ([corrupt] of them counted
   [artifact_corrupt]), the answer is the clean one, and the rerun
   leaves the store byte-identical to the clean store — a crash that
   loses or tears artifacts costs recomputes, never a result. *)
let test_damaged_store ~corrupt damage () =
  with_temp_dir @@ fun dir ->
  let clean = flow_signature (run_flow ~dir) in
  let cache = Filename.concat dir "cache" in
  let filled = snapshot cache in
  List.iter (fun (rel, _) -> damage (Filename.concat cache rel)) filled;
  let n = List.length filled in
  check "store filled" true (n > 0);
  let (rerun, misses), corrupted =
    delta "artifact_corrupt" (fun () ->
        delta "artifact_misses" (fun () -> flow_signature (run_flow ~dir)))
  in
  check "rerun answer identical" true (clean = rerun);
  check_int "every damaged artifact missed" n misses;
  check_int "corrupt counted" (if corrupt then n else 0) corrupted;
  check "store rewritten byte-identical" true (snapshot cache = filled)

let zero_length path = write_file path ""

let truncated path =
  let s = read_file path in
  write_file path (String.sub s 0 (String.length s / 2))

(* A crash between the [.tmp] write and the rename: the artifact is
   missing and a torn [.tmp] sits beside it. *)
let tmp_orphan path =
  let s = read_file path in
  Sys.remove path;
  write_file (path ^ ".tmp") (String.sub s 0 (String.length s / 2))

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
        Alcotest.test_case "torn and flip count only with a payload" `Quick
          test_data_fault_needs_payload;
        Alcotest.test_case "mangle: torn and flip are deterministic" `Quick
          test_mangle_torn_and_flip;
        Alcotest.test_case "artifact: torn write detected and rewritten" `Quick
          test_artifact_torn_write_recovers;
        Alcotest.test_case "artifact: rewrite counter" `Quick
          test_artifact_rewrite_counted;
        Alcotest.test_case "artifact: read EIO is a miss" `Quick
          test_artifact_read_eio_is_miss;
        Alcotest.test_case "artifact: failed save is non-fatal" `Quick
          test_artifact_save_failure_nonfatal;
        Alcotest.test_case "pool: one-shot task fault heals" `Quick
          test_pool_task_fault_heals;
        Alcotest.test_case "pool: pool.task hit once per index" `Quick
          test_pool_task_hit_per_index;
        Alcotest.test_case "pool: persistent fault is Task_error" `Quick
          test_pool_task_exhaustion_is_task_error;
        Alcotest.test_case "pool: diagnostic is not re-run" `Quick
          test_pool_diagnostic_not_rerun;
        Alcotest.test_case "flow: persistent write EIO heals" `Quick
          test_persistent_write_fault_heals;
        Alcotest.test_case "flow: persistent save fault of any kind heals" `Quick
          test_persistent_save_fault_any_kind;
        Alcotest.test_case "store: zero-length artifact is a miss" `Quick
          (test_damaged_store ~corrupt:true zero_length);
        Alcotest.test_case "store: truncated artifact is a miss" `Quick
          (test_damaged_store ~corrupt:true truncated);
        Alcotest.test_case "store: missing artifact is a miss" `Quick
          (test_damaged_store ~corrupt:false Sys.remove);
        Alcotest.test_case "store: .tmp orphan is a miss" `Quick
          (test_damaged_store ~corrupt:false tmp_orphan);
        QCheck_alcotest.to_alcotest prop_single_fault_never_wrong;
      ] );
  ]

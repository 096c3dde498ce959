(* Tracing/metrics layer: span nesting and cross-domain merge, the
   near-zero disabled path, metrics registry round-trips, and regression
   tests for the covering-solver consistency fixes that shipped with the
   observability work. *)

open Reseed_netlist
open Reseed_setcover
open Reseed_tpg
open Reseed_core
open Reseed_util

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* --- Trace ------------------------------------------------------------ *)

(* The tracer is process-global: serialise every test that touches it
   behind a fresh reset/disable bracket. *)
let with_tracer f =
  Trace.reset ();
  Trace.enable ();
  Fun.protect ~finally:(fun () -> Trace.disable ()) f

let test_span_nesting () =
  with_tracer @@ fun () ->
  let r =
    Trace.with_span "outer" (fun () ->
        Trace.with_span "inner-a" (fun () -> ());
        Trace.with_span "inner-b" ~args:[ ("k", "v") ] (fun () -> 41 + 1))
  in
  check_int "body result" 42 r;
  match Trace.events () with
  | [ outer; a; b ] ->
      check "order: parent first" true
        (outer.Trace.name = "outer" && a.Trace.name = "inner-a"
        && b.Trace.name = "inner-b");
      check "parent starts first" true (outer.Trace.ts_ns <= a.Trace.ts_ns);
      check "children ordered" true (a.Trace.ts_ns <= b.Trace.ts_ns);
      check "parent encloses children" true
        (Int64.add outer.Trace.ts_ns outer.Trace.dur_ns
        >= Int64.add b.Trace.ts_ns b.Trace.dur_ns);
      check "args kept" true (b.Trace.args = [ ("k", "v") ])
  | evs -> Alcotest.failf "expected 3 events, got %d" (List.length evs)

(* [result_args] sees the body's result and is appended to [args]; it is
   never called while the tracer is off. *)
let test_span_result_args () =
  (with_tracer @@ fun () ->
   ignore
     (Trace.with_span "r" ~args:[ ("a", "1") ]
        ~result_args:(fun v -> [ ("v", string_of_int v) ])
        (fun () -> 7));
   match Trace.events () with
   | [ e ] -> check "result args appended" true (e.Trace.args = [ ("a", "1"); ("v", "7") ])
   | _ -> Alcotest.fail "expected exactly one event");
  Trace.disable ();
  let called = ref false in
  Trace.with_span "off" ~result_args:(fun () -> called := true; []) Fun.id;
  check "result args not called while off" false !called

(* Each PODEM call's span says how much search it used and how it ended,
   and implications are counted. *)
let test_podem_span_args () =
  let open Reseed_atpg in
  let c = Library.c17 () in
  let faults = Reseed_fault.Fault.all c in
  let implications = Metrics.counter "podem_implications" in
  let before = Metrics.value implications in
  let stats = Podem.new_stats () in
  (with_tracer @@ fun () ->
   Array.iter
     (fun fault -> ignore (Podem.generate c fault ~rng:(Rng.create 1) ~stats ()))
     faults);
  check "implications counted" true (Metrics.value implications > before);
  let spans = List.filter (fun e -> e.Trace.name = "podem.generate") (Trace.events ()) in
  check_int "one span per call" (Array.length faults) (List.length spans);
  let sum key =
    List.fold_left (fun acc e -> acc + int_of_string (List.assoc key e.Trace.args)) 0 spans
  in
  check_int "span decisions sum to stats" stats.Podem.decisions (sum "decisions");
  check_int "span backtracks sum to stats" stats.Podem.backtracks (sum "backtracks");
  check "every span has a test outcome" true
    (List.for_all (fun e -> List.assoc "outcome" e.Trace.args = "test") spans)

(* The reduction funnel rides on the [reduce.run] span, and the residual
   build has a span of its own. *)
let test_reduce_span_args () =
  let m =
    Matrix.of_rows ~cols:4
      (Array.map (Bitvec.of_list 4) [| [ 0; 1 ]; [ 0 ]; [ 1; 2 ]; [ 2; 3 ]; [ 3 ] |])
  in
  let r =
    with_tracer @@ fun () ->
    let r = Reduce.run m in
    ignore (Reduce.residual m r);
    r
  in
  let span name = List.find (fun e -> e.Trace.name = name) (Trace.events ()) in
  let arg key = List.assoc key (span "reduce.run").Trace.args in
  check_int "iterations" r.Reduce.iterations (int_of_string (arg "iterations"));
  check_int "necessary" (List.length r.Reduce.necessary) (int_of_string (arg "necessary"));
  check_int "rows dominated" r.Reduce.rows_dominated (int_of_string (arg "rows_dominated"));
  check_int "cols dominated" r.Reduce.cols_dominated (int_of_string (arg "cols_dominated"));
  check "residual span" true ((span "reduce.residual").Trace.ph = 'X')

(* The [ilp.solve] span says why the search ended where it did: its
   node, prune and incumbent counts (the same numbers the counters get),
   the stop reason, the root Lagrangian bound, the GRASP cover it adopted
   (only when its first node quantum left it open) and the final cost. *)
let test_ilp_span_args () =
  (* Greedy takes 3 rows here, the optimum is 2: the search branches. *)
  let m =
    Matrix.of_rows ~cols:8
      (Array.map (Bitvec.of_list 8)
         [| [ 0; 1; 2; 3 ]; [ 4; 5; 6; 7 ]; [ 0; 1; 4; 5; 2 ] |])
  in
  let counter name =
    match Metrics.get name with Some (Metrics.Counter_v n) -> n | _ -> 0
  in
  let prunes0 = counter "ilp_bound_prunes"
  and incs0 = counter "ilp_incumbent_updates" in
  let r = with_tracer @@ fun () -> Ilp.solve m in
  let args = (List.find (fun e -> e.Trace.name = "ilp.solve") (Trace.events ())).Trace.args in
  let arg key = List.assoc key args in
  check "branched" true (r.Ilp.nodes_explored > 0);
  check_int "nodes" r.Ilp.nodes_explored (int_of_string (arg "nodes"));
  check_int "prunes" (counter "ilp_bound_prunes" - prunes0) (int_of_string (arg "prunes"));
  check_int "incumbent updates"
    (counter "ilp_incumbent_updates" - incs0)
    (int_of_string (arg "incumbent_updates"));
  check "stop reason" true (arg "stop_reason" = "complete");
  check "root bound below the optimum" true (float_of_string (arg "root_lb") <= r.Ilp.cost);
  check "cost" true (float_of_string (arg "cost") = r.Ilp.cost);
  check "closed in the first quantum: no GRASP" false (List.mem_assoc "grasp_cost" args);
  let m = Test_endgame.open_instance () in
  let r = with_tracer @@ fun () -> Ilp.solve ~node_limit:500_001 m in
  let args = (List.find (fun e -> e.Trace.name = "ilp.solve") (Trace.events ())).Trace.args in
  let grasp_cost = float_of_string (List.assoc "grasp_cost" args) in
  check "grasp_cost is the GRASP best" true (grasp_cost = Test_endgame.grasp_best m);
  check "cost no worse than grasp_cost" true (r.Ilp.cost <= grasp_cost)

let test_span_exception_recorded () =
  with_tracer @@ fun () ->
  (try Trace.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
  check "span recorded on exception" true (Trace.span_names () = [ "boom" ])

let test_instant () =
  with_tracer @@ fun () ->
  Trace.instant "marker" ~args:[ ("width", "100") ];
  match Trace.events () with
  | [ e ] ->
      check "instant phase" true (e.Trace.ph = 'i');
      check "zero duration" true (e.Trace.dur_ns = 0L)
  | _ -> Alcotest.fail "expected exactly one event"

(* Worker-domain spans land in per-domain buffers and merge at export:
   the multiset of span names must not depend on the job count. *)
let names_at_jobs jobs =
  with_tracer @@ fun () ->
  Pool.with_pool ~jobs (fun pool ->
      Pool.parallel_for ~pool ~total:16 (fun ~worker:_ i ->
          Trace.with_span (Printf.sprintf "job-%02d" i) (fun () -> ())));
  List.sort compare (Trace.span_names ())

let test_merge_determinism () =
  let seq = names_at_jobs 1 in
  check_int "16 spans at jobs=1" 16 (List.length seq);
  check "jobs=1 = jobs=4" true (seq = names_at_jobs 4);
  check "jobs=1 = jobs=3" true (seq = names_at_jobs 3)

let test_disabled_zero_alloc () =
  Trace.disable ();
  let f = Fun.id in
  (* Warm up so the closure and any lazy setup are allocated. *)
  for _ = 1 to 100 do
    Trace.with_span "off" f
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Trace.with_span "off" f
  done;
  let allocated = Gc.minor_words () -. before in
  (* One word of slack per 100 iterations covers harness noise; a clock
     read or event allocation per span would cost thousands. *)
  check "disabled span allocates nothing" true (allocated < 100.0)

let test_chrome_json_shape () =
  with_tracer @@ fun () ->
  Trace.with_span "a\"b" ~args:[ ("n", "1") ] (fun () -> ());
  let json = Trace.to_json () in
  let has s = contains json s in
  check "traceEvents key" true (has "\"traceEvents\"");
  check "escaped name" true (has "\"a\\\"b\"");
  check "complete phase" true (has "\"ph\":\"X\"");
  check "args object" true (has "\"args\":{\"n\":\"1\"}")

(* --- Metrics ---------------------------------------------------------- *)

let test_metrics_roundtrip () =
  let c = Metrics.counter ~help:"test counter" "obs_test_counter" in
  let g = Metrics.gauge "obs_test_gauge" in
  let base = Metrics.value c in
  Metrics.incr c;
  Metrics.add c 41;
  Metrics.set g 2.5;
  check_int "counter accumulates" (base + 42) (Metrics.value c);
  check "gauge holds" true (Metrics.gauge_value g = 2.5);
  (* Registration is idempotent: same name, same cell. *)
  let c' = Metrics.counter "obs_test_counter" in
  Metrics.incr c';
  check_int "same cell" (base + 43) (Metrics.value c);
  check "snapshot sees counter" true
    (Metrics.get "obs_test_counter" = Some (Metrics.Counter_v (base + 43)));
  check "snapshot sees gauge" true
    (Metrics.get "obs_test_gauge" = Some (Metrics.Gauge_v 2.5));
  check "help kept" true (Metrics.help "obs_test_counter" = Some "test counter");
  check "kind mismatch rejected" true
    (try
       ignore (Metrics.gauge "obs_test_counter");
       false
     with Invalid_argument _ -> true);
  let names = List.map fst (Metrics.snapshot ()) in
  check "snapshot sorted" true (List.sort compare names = names)

let test_metrics_parallel_adds () =
  let c = Metrics.counter "obs_test_parallel" in
  let base = Metrics.value c in
  Pool.with_pool ~jobs:4 (fun pool ->
      Pool.parallel_for ~pool ~total:64 (fun ~worker:_ _ -> Metrics.add c 5));
  check_int "atomic under contention" (base + 320) (Metrics.value c)

let test_metrics_json () =
  ignore (Metrics.counter "obs_test_json");
  let json = Metrics.to_json () in
  check "flat json has key" true (contains json "\"obs_test_json\":");
  let nd = Metrics.to_ndjson () in
  check "ndjson self-describing" true
    (List.exists
       (fun line -> contains line "\"name\":\"obs_test_json\"")
       (String.split_on_char '\n' nd))

(* --- Bugfix regressions ----------------------------------------------- *)

let matrix_of cols rows =
  let m = Matrix.create ~rows:(List.length rows) ~cols in
  List.iteri (fun i cs -> List.iter (fun j -> Matrix.set m ~row:i ~col:j) cs) rows;
  m

(* Ilp.solve on a matrix with an uncoverable column: cover the rest and
   report, exactly like Greedy.solve's silent skip — no more mid-flow
   crash on undetectable faults. *)
let test_ilp_uncovered_consistency () =
  let m = matrix_of 3 [ [ 0 ]; [ 2 ] ] in
  let r = Ilp.solve m in
  check "uncovered column reported" true (r.Ilp.uncovered = [ 1 ]);
  check "coverable columns solved" true (r.Ilp.selected = [ 0; 1 ]);
  check "complete" true (r.Ilp.optimal);
  check "greedy agrees on coverage" true
    (List.sort compare (Greedy.solve m) = r.Ilp.selected)

(* storage_bits: ceil(log2 T) counter, not floor + 1 — a power-of-two
   burst length no longer pays a phantom bit. *)
let test_storage_bits_pow2 () =
  let bits cycles =
    let t =
      Triplet.make ~seed:(Word.of_int 4 3) ~operand:(Word.of_int 4 1) ~cycles
    in
    Triplet.storage_bits t - 8
  in
  check_int "T=1 needs a bit" 1 (bits 1);
  check_int "T=2" 1 (bits 2);
  check_int "T=3" 2 (bits 3);
  check_int "T=8 is 3 bits, not 4" 3 (bits 8);
  check_int "T=9" 4 (bits 9);
  check_int "T=150" 8 (bits 150);
  check_int "T=1024 is 10 bits, not 11" 10 (bits 1024)

(* uniform_test_length must price the uniform-T scheme: every selected
   triplet at its full configured burst length, not the truncated cycles
   of the surviving subset. *)
let test_uniform_test_length () =
  let circuit = Library.load "c17" in
  let p = Suite.prepare_circuit circuit in
  let tpg = Accumulator.adder (Circuit.input_count circuit) in
  let cycles = 150 in
  let config =
    {
      Flow.default_config with
      Flow.builder = { Builder.default_config with Builder.cycles };
    }
  in
  let r = Flow.run ~config p.Suite.sim tpg ~tests:p.Suite.tests ~targets:p.Suite.targets in
  let n_selected = List.length r.Flow.solution.Solution.rows in
  check "something selected" true (n_selected > 0);
  check_int "uniform = |selected| x configured T" (n_selected * cycles)
    r.Flow.uniform_test_length;
  check "uniform >= truncated total" true (r.Flow.uniform_test_length >= r.Flow.test_length)

(* default_taps: primitive polynomials all the way to width 64.
   Exhaustive maximal-orbit check while 2^w is small, no-short-cycle
   sanity beyond, metrics-visible fallback past 64. *)
let test_default_taps_maximal () =
  for w = 2 to 16 do
    let tpg = Lfsr.fibonacci w (Lfsr.default_taps w) in
    let seed = Word.of_int w 1 and operand = Word.zero w in
    let expected = (1 lsl w) - 1 in
    match Tpg.period tpg ~seed ~operand ~limit:(expected + 2) with
    | Some p -> check_int (Printf.sprintf "width %d maximal" w) expected p
    | None -> Alcotest.failf "width %d: no period within 2^w+2" w
  done

let test_default_taps_no_short_cycle () =
  List.iter
    (fun w ->
      let tpg = Lfsr.fibonacci w (Lfsr.default_taps w) in
      let seed = Word.of_int w 1 and operand = Word.zero w in
      check
        (Printf.sprintf "width %d: no cycle within 65535 steps" w)
        true
        (Tpg.period tpg ~seed ~operand ~limit:65_535 = None))
    [ 17; 23; 31; 36; 41; 54; 60; 64 ]

let test_default_taps_fallback_metric () =
  let before =
    match Metrics.get "lfsr_fallback_taps" with
    | Some (Metrics.Counter_v n) -> n
    | _ -> 0
  in
  check "fallback taps shape" true (Lfsr.default_taps 100 = [ 99; 0 ]);
  match Metrics.get "lfsr_fallback_taps" with
  | Some (Metrics.Counter_v n) -> check_int "fallback counted" (before + 1) n
  | _ -> Alcotest.fail "lfsr_fallback_taps not registered"

let suite =
  [
    ( "observability",
      [
        Alcotest.test_case "span nesting" `Quick test_span_nesting;
        Alcotest.test_case "span on exception" `Quick test_span_exception_recorded;
        Alcotest.test_case "span result args" `Quick test_span_result_args;
        Alcotest.test_case "podem span args" `Quick test_podem_span_args;
        Alcotest.test_case "reduce span args" `Quick test_reduce_span_args;
        Alcotest.test_case "ilp span args" `Quick test_ilp_span_args;
        Alcotest.test_case "instant" `Quick test_instant;
        Alcotest.test_case "merge determinism across jobs" `Quick test_merge_determinism;
        Alcotest.test_case "disabled zero alloc" `Quick test_disabled_zero_alloc;
        Alcotest.test_case "chrome json shape" `Quick test_chrome_json_shape;
        Alcotest.test_case "metrics roundtrip" `Quick test_metrics_roundtrip;
        Alcotest.test_case "metrics parallel adds" `Quick test_metrics_parallel_adds;
        Alcotest.test_case "metrics json" `Quick test_metrics_json;
        Alcotest.test_case "ilp uncovered consistency" `Quick test_ilp_uncovered_consistency;
        Alcotest.test_case "storage bits pow2" `Quick test_storage_bits_pow2;
        Alcotest.test_case "uniform test length" `Quick test_uniform_test_length;
        Alcotest.test_case "taps maximal 2..16" `Quick test_default_taps_maximal;
        Alcotest.test_case "taps no short cycle" `Quick test_default_taps_no_short_cycle;
        Alcotest.test_case "taps fallback metric" `Quick test_default_taps_fallback_metric;
      ] );
  ]

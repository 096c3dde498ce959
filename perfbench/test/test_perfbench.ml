(* The benchmark's own logic: span self-time aggregation, the quartile
   rule, the [compare] verdicts on fixture result files, and agreement
   between the metric definitions and BENCHMARK.json. *)

open Perfbench
module Trace = Reseed_util.Trace

let check_float msg expected got = Alcotest.(check (float 1e-9)) msg expected got

(* --- self time ------------------------------------------------------ *)

let ms = 1_000_000L

let ev ?(ph = 'X') ~tid name ts dur : Trace.event =
  { Trace.name; ph; ts_ns = Int64.mul ts ms; dur_ns = Int64.mul dur ms; tid; args = [] }

(* Domain 0: A[0,100) holds B[10,40) (which holds C[20,30)) and
   D[50,70); E[100,110) starts where A ends; P[200,300) and its child
   Q[200,250) start together.  Domain 1: F[15,60) overlaps A in time
   but is not its child; it holds G[20,30).  Given out of order, with an
   instant that must be ignored. *)
let spans () =
  Layers.self_times
    [
      ev ~tid:1 "fault_sim.sweep" 20L 10L;
      ev ~tid:0 "D" 50L 20L;
      ev ~tid:0 "fault_sim.sweep" 20L 10L;
      ev ~tid:0 "A" 0L 100L;
      ev ~tid:0 "E" 100L 10L;
      ev ~ph:'i' ~tid:0 "marker" 25L 0L;
      ev ~tid:1 "F" 15L 45L;
      ev ~tid:0 "B" 10L 30L;
      ev ~tid:0 "Q" 200L 50L;
      ev ~tid:0 "P" 200L 100L;
    ]

let self_of name =
  match List.assoc_opt name (Layers.by_name (spans ())) with
  | Some (_, _, self) -> self
  | None -> Alcotest.failf "no span %s" name

let test_self_nested () =
  check_float "A minus B and D" 0.050 (self_of "A");
  check_float "B minus C" 0.020 (self_of "B");
  check_float "D is a leaf" 0.020 (self_of "D");
  check_float "E follows A, not inside it" 0.010 (self_of "E");
  check_float "P minus Q (same start)" 0.050 (self_of "P");
  check_float "Q" 0.050 (self_of "Q")

let test_self_two_domains () =
  check_float "F minus G only" 0.035 (self_of "F");
  (match List.assoc_opt "fault_sim.sweep" (Layers.by_name (spans ())) with
  | Some (n, total, self) ->
      Alcotest.(check int) "both domains counted" 2 n;
      check_float "total" 0.020 total;
      check_float "self" 0.020 self
  | None -> Alcotest.fail "fault_sim.sweep missing");
  check_float "prefix sum" 0.020 (Layers.self_s ~prefix:"fault_sim." (spans ()));
  let within name = Layers.named ~name (spans ()) in
  check_float "starting inside B, any domain" 0.020
    (Layers.self_s ~within:(within "B") ~prefix:"fault_sim." (spans ()));
  check_float "nothing starts inside D" 0.
    (Layers.self_s ~within:(within "D") ~prefix:"fault_sim." (spans ()));
  Alcotest.(check int) "instant dropped" 9 (List.length (spans ()))

(* --- quartiles ------------------------------------------------------ *)

(* Reference values from Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let q xs = Summary.quartiles xs in
  let eq3 msg (a, b, c) (x, y, z) =
    check_float (msg ^ " q1") a x;
    check_float (msg ^ " q2") b y;
    check_float (msg ^ " q3") c z
  in
  eq3 "1..10" (2.75, 5.5, 8.25) (q [ 10.; 9.; 8.; 7.; 6.; 5.; 4.; 3.; 2.; 1. ]);
  eq3 "two (extrapolated)" (0.75, 1.5, 2.25) (q [ 2.; 1. ]);
  eq3 "three" (1.0, 2.0, 3.0) (q [ 1.; 2.; 3. ]);
  eq3 "five" (1.5, 3.0, 4.5) (q [ 1.; 2.; 3.; 4.; 5. ]);
  eq3 "one" (4.0, 4.0, 4.0) (q [ 4. ])

(* --- compare -------------------------------------------------------- *)

let compare_fixtures () =
  Summary.compare_files (Json.read_file "fixtures/old.json") (Json.read_file "fixtures/new.json")

let status_of rows workload metric =
  match
    List.find_opt
      (fun r -> r.Summary.workload = workload && r.Summary.metric.Summary.name = metric)
      rows
  with
  | Some r -> Summary.status_name r.Summary.status
  | None -> Alcotest.failf "no row %s/%s" workload metric

let test_compare_verdicts () =
  let rows, missing = compare_fixtures () in
  let st = status_of rows in
  Alcotest.(check string) "faster everywhere" "improved" (st "improved" "wall_s");
  Alcotest.(check string) "same count" "unchanged" (st "improved" "triplets");
  Alcotest.(check string) "median past the bound" "REGRESSED" (st "regressed" "wall_s");
  Alcotest.(check string) "inside the bound" "unchanged" (st "regressed" "peak_rss_mb");
  Alcotest.(check string) "spread wider than the bound" "unresolved"
    (st "unresolved" "wall_s");
  Alcotest.(check string) "one triplet more" "CHANGED" (st "changed" "triplets");
  Alcotest.(check string) "coverage held" "unchanged" (st "changed" "coverage_pct");
  Alcotest.(check int) "fixtures omit metrics" 25 (List.length missing);
  let failing = List.filter (fun r -> Summary.failing r.Summary.status) rows in
  Alcotest.(check (list string)) "failing rows" [ "regressed"; "changed" ]
    (List.map (fun r -> r.Summary.workload) failing)

let test_compare_self () =
  let f = Json.read_file "fixtures/old.json" in
  let rows, _ = Summary.compare_files f f in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (r.Summary.workload ^ "/" ^ r.Summary.metric.Summary.name)
        false
        (Summary.failing r.Summary.status))
    rows

(* --- BENCHMARK.json ------------------------------------------------- *)

let str_field k j =
  match Option.bind (Json.member k j) Json.to_str with
  | Some s -> s
  | None -> Alcotest.failf "missing %s" k

(* BENCHMARK.json cannot hold metrics that read 0, so it lists a subset
   of the end-to-end metrics; names, units, directions and bounds must
   match the definitions [compare] applies, and the per-layer list must
   be exactly what a traced run reports. *)
let test_benchmark_json () =
  let b = Json.read_file "../../BENCHMARK.json" in
  let list k = Json.to_list (Option.value (Json.member k b) ~default:Json.Null) in
  Alcotest.(check (list (pair string string))) "workloads"
    (List.map (fun w -> (w.Workloads.name, w.Workloads.why)) Workloads.all)
    (List.map (fun w -> (str_field "name" w, str_field "why" w)) (list "workloads"));
  Alcotest.(check (list (pair string string))) "end-to-end"
    (List.filter_map
       (fun (s : Summary.spec) ->
         if Summary.in_benchmark_json s then
           Some
             ( s.name,
               Printf.sprintf "%s %s %g" s.unit_
                 (match s.better with Summary.Lower -> "lower" | Summary.Higher -> "higher")
                 s.bound )
         else None)
       Summary.end_to_end)
    (List.map
       (fun m ->
         ( str_field "name" m,
           Printf.sprintf "%s %s %g" (str_field "unit" m) (str_field "better" m)
             (Option.get (Option.bind (Json.member "bound" m) Json.to_num)) ))
       (list "end_to_end"));
  let g = Gc.quick_stat () in
  let empty =
    {
      Harness.wall_s = 1.;
      totals = { Harness.triplets = 0; test_length = 0; fault_sims = 0; coverage_pct = 100. };
      ops = [];
    }
  in
  Alcotest.(check (list (pair string string))) "per-layer"
    (List.map
       (fun (k, u, _) -> (k, u))
       (Harness.per_layer ~jobs:2 ~untraced_median:1. ~bytes_written:0 (empty, [], [], (g, g))))
    (List.map (fun m -> (str_field "name" m, str_field "unit" m)) (list "per_layer"))

let () =
  Alcotest.run "perfbench"
    [
      ( "self time",
        [
          Alcotest.test_case "nested spans" `Quick test_self_nested;
          Alcotest.test_case "two domains" `Quick test_self_two_domains;
        ] );
      ("quartiles", [ Alcotest.test_case "python exclusive method" `Quick test_quartiles ]);
      ( "compare",
        [
          Alcotest.test_case "fixture verdicts" `Quick test_compare_verdicts;
          Alcotest.test_case "a file against itself" `Quick test_compare_self;
        ] );
      ("benchmark.json", [ Alcotest.test_case "mirrors the code" `Quick test_benchmark_json ]);
    ]

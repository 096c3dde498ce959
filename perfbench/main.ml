(* perfbench — the reseeding system's benchmark.

     main.exe --workload W [--seed N] [--jobs J] (--seconds S | --reps R)
              [--trace 0|1] [--out FILE]
         Run one workload in this process.  The last line of standard
         output is one JSON object: correctness, operations attempted and
         failed, and the end-to-end metrics (--trace 0) or the per-layer
         metrics of one extra traced repetition (--trace 1).  --out also
         writes the full result (every sample, per-layer metrics, span
         self times) to FILE and, when traced, a Chrome trace beside it.

     main.exe run [--workload W] [--reps R] [--seed N] [--jobs J] [--out FILE]
         Run every workload (or one), each in its own child process, one
         at a time, with its default repetitions plus one traced
         repetition; print every metric and write the combined result.

     main.exe compare OLD NEW
         Compare two result files; exit 1 on a regression beyond a bound
         or any change in an exact metric. *)

open Perfbench

let work_root = Filename.concat "perfbench" "_work"

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let workload_or_die name =
  match Workloads.find name with
  | Some w -> w
  | None ->
      die "unknown workload %S (expected %s)" name
        (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all))

let trace_file_of out = Filename.remove_extension out ^ ".trace.json"

let print_result (r : Harness.result) =
  Printf.printf "== %s (seed %d, jobs %d): %d operations, %d failed\n" r.Harness.workload
    r.Harness.seed r.Harness.jobs r.Harness.attempted r.Harness.failed;
  List.iter (fun f -> Printf.printf "  FAILED %s\n" f) r.Harness.failures;
  List.iter
    (fun (k, (s : Summary.stat)) ->
      Printf.printf "  %-14s %14.6g %-6s [p25 %.6g, p75 %.6g] n=%d\n" k s.Summary.median
        (Summary.unit_of k) s.Summary.p25 s.Summary.p75 s.Summary.n)
    (Summary.stats r);
  if r.Harness.per_layer <> [] then begin
    Printf.printf "  per-layer (traced repetition):\n";
    List.iter
      (fun (k, u, v) -> Printf.printf "    %-28s %16.6g %s\n" k v u)
      r.Harness.per_layer
  end;
  flush stdout

(* The one-line result, always the last line printed. *)
let result_line (r : Harness.result) ~trace =
  let open Json in
  let metric v u = Obj [ ("value", Num v); ("unit", Str u) ] in
  let metrics =
    if trace then List.map (fun (k, u, v) -> (k, metric v u)) r.Harness.per_layer
    else
      let stats = Summary.stats r in
      List.filter_map
        (fun (s : Summary.spec) ->
          if Summary.in_benchmark_json s then
            Some (s.name, metric (List.assoc s.name stats).Summary.median s.unit_)
          else None)
        Summary.end_to_end
  in
  to_string
    (Obj
       [
         ("correct", Bool (r.Harness.failed = 0));
         ("attempted", Num (float_of_int r.Harness.attempted));
         ("failed", Num (float_of_int r.Harness.failed));
         ("metrics", Obj metrics);
       ])

(* [with_work_dir tag f] runs [f dir] in a fresh private directory under
   [work_root] and removes it (and [work_root], once empty) afterwards. *)
let with_work_dir tag f =
  let dir = Filename.concat work_root (Printf.sprintf "%s-%d" tag (Unix.getpid ())) in
  Workloads.rm_rf dir;
  Reseed_core.Artifact.mkdir_p dir;
  Fun.protect
    ~finally:(fun () ->
      Workloads.rm_rf dir;
      try Unix.rmdir work_root with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let one_workload ~workload ~seed ~jobs ~stop ~trace ~out =
  let w = workload_or_die workload in
  let r =
    with_work_dir "one" (fun work_dir ->
        Harness.run w ~seed ~jobs ~stop ~trace ~work_dir
          ?trace_file:(if trace then Option.map trace_file_of out else None))
  in
  Option.iter (fun path -> Json.write_file path (Summary.to_json r)) out;
  print_result r;
  print_endline (result_line r ~trace)

(* Each workload is a re-exec of this executable, so its peak RSS is its
   own; the children run strictly one after another. *)
let run_all ~only ~reps ~seed ~jobs ~out =
  let workloads = match only with Some w -> [ workload_or_die w ] | None -> Workloads.all in
  let results =
    with_work_dir "run" @@ fun work_dir ->
    List.map
      (fun (w : Workloads.t) ->
        (* Beside [out] the child also leaves its Chrome trace. *)
        let child_out =
          match out with
          | Some o -> Printf.sprintf "%s.%s.json" (Filename.remove_extension o) w.name
          | None -> Filename.concat work_dir (w.name ^ ".json")
        in
        let args =
          [
            Sys.executable_name; "--workload"; w.name; "--seed"; string_of_int seed;
            "--jobs"; string_of_int jobs;
            "--reps"; string_of_int (Option.value reps ~default:w.reps);
            "--trace"; "1"; "--out"; child_out;
          ]
        in
        Reseed_core.Artifact.mkdir_p (Filename.dirname child_out);
        let pid =
          Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin Unix.stdout
            Unix.stderr
        in
        let _, status = Unix.waitpid [] pid in
        let detail =
          match status with
          | Unix.WEXITED 0 when Sys.file_exists child_out ->
              let j = Json.read_file child_out in
              Sys.remove child_out;
              Some j
          | _ -> None
        in
        (w.name, detail))
      workloads
  in
  let ok =
    List.for_all
      (fun (_, d) ->
        match Option.bind d (Json.member "correct") with Some (Json.Bool b) -> b | _ -> false)
      results
  in
  let combined =
    Json.Obj
      [
        ("schema", Json.Str "perfbench-result/1");
        ("seed", Json.Num (float_of_int seed));
        ("jobs", Json.Num (float_of_int jobs));
        ("correct", Json.Bool ok);
        ( "workloads",
          Json.Arr
            (List.map
               (fun (name, d) ->
                 match d with
                 | Some j -> j
                 | None ->
                     Json.Obj [ ("workload", Json.Str name); ("correct", Json.Bool false) ])
               results) );
      ]
  in
  Option.iter (fun path -> Json.write_file path combined; Printf.printf "wrote %s\n" path) out;
  if not ok then begin
    prerr_endline "perfbench: a workload failed its correctness checks";
    exit 1
  end

let compare_cmd old_path new_path =
  let rows, missing =
    Summary.compare_files (Json.read_file old_path) (Json.read_file new_path)
  in
  print_string (Summary.render rows);
  List.iter (fun m -> Printf.printf "missing: %s\n" m) missing;
  let bad = List.filter (fun r -> Summary.failing r.Summary.status) rows in
  List.iter
    (fun r ->
      Printf.printf "FAIL %s %s: %s\n" r.Summary.workload r.Summary.metric.Summary.name
        (Summary.status_name r.Summary.status))
    bad;
  if bad <> [] || missing <> [] then exit 1

let () =
  let argv = Sys.argv in
  let mode, args =
    if Array.length argv > 1 && (argv.(1) = "run" || argv.(1) = "compare") then
      (argv.(1), Array.sub argv 1 (Array.length argv - 1))
    else ("one", argv)
  in
  let workload = ref None and seed = ref 0 and jobs = ref 2 and reps = ref None in
  let seconds = ref None and trace = ref 0 and out = ref None and anon = ref [] in
  let specs =
    [
      ("--workload", Arg.String (fun s -> workload := Some s), "W  workload name");
      ("--seed", Arg.Set_int seed, "N  input seed (default 0)");
      ("--jobs", Arg.Set_int jobs, "J  pool size (default 2)");
      ("--reps", Arg.Int (fun n -> reps := Some n), "R  repetitions");
      ("--seconds", Arg.Float (fun s -> seconds := Some s), "S  measure for S seconds");
      ("--trace", Arg.Set_int trace, "0|1  add a traced repetition");
      ("--out", Arg.String (fun s -> out := Some s), "FILE  result file");
    ]
  in
  let usage = "usage: main.exe (--workload W ... | run ... | compare OLD NEW)" in
  (try Arg.parse_argv ~current:(ref 0) args specs (fun a -> anon := a :: !anon) usage with
  | Arg.Bad m -> die "%s" m
  | Arg.Help m ->
      print_string m;
      exit 0);
  if !jobs < 1 then die "--jobs must be at least 1";
  if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
  match (mode, List.rev !anon) with
  | "compare", [ old_path; new_path ] -> compare_cmd old_path new_path
  | "compare", _ -> die "compare takes two result files"
  | "run", [] -> run_all ~only:!workload ~reps:!reps ~seed:!seed ~jobs:!jobs ~out:!out
  | "one", [] -> (
      let stop =
        match (!reps, !seconds) with
        | Some n, None when n >= 1 -> Harness.Reps n
        | None, Some s when s > 0. -> Harness.Seconds s
        | _ -> die "give exactly one of --reps (>= 1) or --seconds (> 0)"
      in
      match !workload with
      | Some workload ->
          one_workload ~workload ~seed:!seed ~jobs:!jobs ~stop ~trace:(!trace = 1) ~out:!out
      | None -> die "%s" usage)
  | _, a :: _ -> die "unexpected argument %S" a
  | _ -> die "%s" usage

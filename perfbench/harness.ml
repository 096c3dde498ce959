(* Runs one workload in this process: timed setups, untraced
   repetitions, an optional traced repetition, then the correctness
   checks, all outside the timed regions. *)

open Reseed_util

type stop = Reps of int | Seconds of float

let now = Layers.now

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

type totals = { triplets : int; test_length : int; fault_sims : int; coverage_pct : float }

type rep_summary = {
  wall_s : float;
  totals : totals;
  ops : (string * (Workloads.op, string) result) list;
}

type result = {
  workload : string;
  seed : int;
  jobs : int;
  setup_s : float list;
  walls : float list;  (** untraced repetitions *)
  totals : totals;  (** first repetition's *)
  peak_rss_mb : float;
  attempted : int;
  failed : int;
  failures : string list;
  per_layer : (string * string * float) list;  (** name, unit, value *)
  spans : (string * (int * float * float)) list;
      (** traced repetition: name → count, total s, self s *)
}

let summarise_rep wall_s outcomes =
  let ops =
    List.map
      (fun (o : Workloads.outcome) ->
        (o.label, Result.map (fun force -> force ()) o.result))
      outcomes
  in
  let oks = List.filter_map (fun (_, r) -> Result.to_option r) ops in
  let sum f = List.fold_left (fun acc (op : Workloads.op) -> acc + f op) 0 oks in
  let totals =
    {
      triplets = sum (fun op -> op.triplets);
      test_length = sum (fun op -> op.test_length);
      fault_sims = sum (fun op -> op.fault_sims);
      coverage_pct =
        List.fold_left
          (fun acc (op : Workloads.op) -> Float.min acc op.coverage_pct)
          100. oks;
    }
  in
  { wall_s; totals; ops }

(* One repetition: a full major collection first (untimed) so every
   repetition starts from a compacted heap, then the timed operations. *)
let one_rep (inst : Workloads.instance) =
  Gc.full_major ();
  let outcomes, wall_s = timed inst.Workloads.rep in
  summarise_rep wall_s outcomes

let counter_deltas before after =
  List.filter_map
    (fun (name, v) ->
      match (v, List.assoc_opt name before) with
      | Metrics.Counter_v a, Some (Metrics.Counter_v b) -> Some (name, float_of_int (a - b))
      | Metrics.Counter_v a, None -> Some (name, float_of_int a)
      | _ -> None)
    after

(* The traced repetition: spans recorded in memory, counters and GC
   statistics taken as deltas around it. *)
let traced_rep inst =
  Gc.full_major ();
  Layers.reset ();
  Trace.reset ();
  Trace.enable ();
  let m0 = Metrics.snapshot () in
  let g0 = Gc.quick_stat () in
  let outcomes, wall_s =
    Fun.protect ~finally:Trace.disable (fun () ->
        timed (fun () -> Trace.with_span "bench.rep" inst.Workloads.rep))
  in
  let g1 = Gc.quick_stat () in
  let m1 = Metrics.snapshot () in
  let spans = Layers.self_times (Trace.events ()) in
  (summarise_rep wall_s outcomes, spans, counter_deltas m0 m1, (g0, g1))

let sum_counts rep =
  let h = Hashtbl.create 16 in
  List.iter
    (fun (_, r) ->
      match r with
      | Ok (op : Workloads.op) ->
          List.iter
            (fun (k, v) ->
              Hashtbl.replace h k (v +. Option.value (Hashtbl.find_opt h k) ~default:0.))
            op.counts
      | Error _ -> ())
    rep.ops;
  fun k -> Option.value (Hashtbl.find_opt h k) ~default:0.

let ratio a b = if b > 0. then a /. b else 0.

(* Every per-layer metric, always in this order and always present: a
   layer the workload does not exercise reads 0. *)
let per_layer ~jobs ~untraced_median ~bytes_written (rep, spans, deltas, (g0, g1)) =
  let c k = Option.value (List.assoc_opt k deltas) ~default:0. in
  let n = sum_counts rep in
  let self prefix = Layers.self_s ~prefix spans in
  let bench l = Layers.total_s ~name:("bench." ^ l) spans in
  let matrix_spans = Layers.named ~name:"bench.matrix" spans in
  let builder_busy = Layers.self_s ~within:matrix_spans ~prefix:"fault_sim." spans in
  let fs_busy = self "fault_sim." in
  let reduce_s = self "reduce." and ilp_s = self "ilp." in
  let rep_wall = Layers.total_s ~name:"bench.rep" spans in
  let layered = bench "atpg" +. bench "matrix" +. bench "cover" in
  let hits = c "artifact_hits" and misses = c "artifact_misses" in
  let s = "s" and count = "count" and pct = "%" in
  [
    ("atpg.wall_s", s, bench "atpg");
    ("atpg.patterns", count, n "atpg.patterns");
    ("atpg.podem_decisions", count, c "podem_decisions");
    ("atpg.podem_backtracks", count, c "podem_backtracks");
    ("atpg.aborted", count, c "atpg_aborted");
    ("fault_sim.sims", count, c "fault_sims");
    ("fault_sim.event_props", count, c "event_propagations");
    ("fault_sim.props_per_sim", "ratio", ratio (c "event_propagations") (c "fault_sims"));
    ("fault_sim.busy_s", s, fs_busy);
    ("fault_sim.sims_per_busy_s", "1/s", ratio (c "fault_sims") fs_busy);
    ("builder.wall_s", s, bench "matrix");
    ( "builder.parallel_eff",
      "ratio",
      ratio builder_busy (bench "matrix" *. float_of_int jobs) );
    ("builder.rows", count, n "builder.rows");
    ("builder.ones", count, n "builder.ones");
    ("builder.density", "ratio", ratio (n "builder.ones") (n "builder.cells"));
    ("builder.alloc_mw", "Mword", Layers.alloc_mw "matrix");
    ("reduce.wall_s", s, reduce_s);
    ("reduce.cells_in", count, n "reduce.cells_in");
    ("reduce.cells_per_s", "1/s", ratio (n "reduce.cells_in") reduce_s);
    ("reduce.residual_cells", count, n "reduce.residual_cells");
    ("reduce.kept_ratio", "ratio", ratio (n "reduce.residual_cells") (n "reduce.cells_in"));
    ("reduce.iterations", count, c "reduce_iterations");
    ("ilp.wall_s", s, ilp_s);
    ("ilp.nodes", count, c "nodes_explored");
    ("ilp.nodes_per_s", "1/s", ratio (c "nodes_explored") ilp_s);
    ("ilp.prune_ratio", "ratio", ratio (c "ilp_bound_prunes") (c "nodes_explored"));
    ("truncate.wall_s", s, self "flow.truncate");
    ("truncate.fault_sims", count, n "truncate.fault_sims");
    ("artifact.hit_ratio", "ratio", ratio hits (hits +. misses));
    ("artifact.writes", count, c "artifact_writes");
    ("artifact.bytes_written", "B", float_of_int bytes_written);
    ("artifact.load_s", s, if hits > 0. && misses = 0. then layered else 0.);
    ("gc.minor_mw", "Mword", (g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6);
    ("gc.major_collections", count, float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
    ( "gc.top_heap_mb",
      "MB",
      float_of_int (g1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576. );
    ("trace_overhead_pct", pct, 100. *. (ratio rep_wall untraced_median -. 1.));
    ("layers.unaccounted_pct", pct, 100. *. (1. -. ratio layered rep_wall));
  ]

let check_rep ~deep (first : rep_summary option) rep =
  let by_label = Option.map (fun f -> f.ops) first in
  List.filter_map
    (fun (label, r) ->
      match r with
      | Error e -> Some (label ^ ": raised " ^ e)
      | Ok (op : Workloads.op) -> (
          let same_as_first =
            match Option.bind by_label (List.assoc_opt label) with
            | Some (Ok (f : Workloads.op)) ->
                f.triplets = op.triplets && f.test_length = op.test_length
                && f.fault_sims = op.fault_sims && f.coverage_pct = op.coverage_pct
            | Some (Error _) | None -> true
          in
          match (same_as_first, deep && not (op.verify ())) with
          | false, _ -> Some (label ^ ": differs from the first repetition")
          | true, true -> Some (label ^ ": verification failed")
          | true, false -> None))
    rep.ops

(* VmHWM from /proc/self/status where there is one: unlike getrusage's
   maximum it starts afresh at exec, so it leaves out a launcher such as
   [dune exec] that execs this program. *)
let peak_rss_mb () =
  let vm_hwm () =
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec find () =
          match input_line ic with
          | line -> (
              try Scanf.sscanf line "VmHWM: %d kB" Option.some
              with Scanf.Scan_failure _ | Failure _ | End_of_file -> find ())
          | exception End_of_file -> None
        in
        find ())
  in
  let kb =
    match vm_hwm () with
    | Some kb -> Some kb
    | None | (exception Sys_error _) -> Rss.peak_kb ()
  in
  float_of_int (Option.value kb ~default:0) /. 1024.

let run ?trace_file (w : Workloads.t) ~seed ~jobs ~stop ~trace ~work_dir =
  Pool.with_pool ~jobs @@ fun pool ->
  let settings = { Workloads.seed; pool; work_dir } in
  (* Two set-ups; the first is discarded and [setup_s] is their median. *)
  let rec setups k acc =
    Gc.full_major ();
    let inst, t = timed (fun () -> w.Workloads.setup settings) in
    if k <= 1 then (inst, List.rev (t :: acc))
    else begin
      inst.Workloads.cleanup ();
      setups (k - 1) (t :: acc)
    end
  in
  let inst, setup_s = setups 2 [] in
  Fun.protect ~finally:inst.Workloads.cleanup @@ fun () ->
  let t_start = now () in
  let more i =
    match stop with
    | Reps n -> i < n
    | Seconds sec -> i = 0 || now () -. t_start < sec
  in
  (* Outputs are deterministic per seed: the first repetition is verified
     in depth, every later one must reproduce it operation by operation. *)
  let first = one_rep inst in
  (* Peak RSS is a process high-water mark: read it after the setups and
     one repetition, so it does not depend on how many repetitions fit. *)
  let peak_rss_mb = peak_rss_mb () in
  let rec loop i failures attempted walls =
    if not (more i) then (failures, attempted, List.rev walls)
    else
      let rep = one_rep inst in
      loop (i + 1)
        (failures @ check_rep ~deep:false (Some first) rep)
        (attempted + List.length rep.ops)
        (rep.wall_s :: walls)
  in
  let failures, attempted, walls =
    loop 1 (check_rep ~deep:true None first) (List.length first.ops) [ first.wall_s ]
  in
  let failures, attempted, per_layer, spans =
    if not trace then (failures, attempted, [], [])
    else begin
      let store_size () =
        let dir = inst.Workloads.store () in
        (dir, Option.fold ~none:0 ~some:Workloads.du dir)
      in
      let dir0, size0 = store_size () in
      let ((rep, spans, _, _) as traced) = traced_rep inst in
      Option.iter Trace.write_file trace_file;
      let dir1, size1 = store_size () in
      let bytes_written = if dir1 = dir0 then size1 - size0 else size1 in
      ( failures @ check_rep ~deep:false (Some first) rep,
        attempted + List.length rep.ops,
        per_layer ~jobs ~untraced_median:(Stats.median walls) ~bytes_written traced,
        Layers.by_name spans )
    end
  in
  let failures =
    match w.Workloads.reference with
    | Some (t, l, f) when seed = 0 ->
        let got = first.totals in
        if got.triplets = t && got.test_length = l && got.fault_sims = f then failures
        else
          failures
          @ [
              Printf.sprintf
                "totals (triplets %d, test length %d, fault sims %d) differ from the \
                 seed-0 reference (%d, %d, %d)"
                got.triplets got.test_length got.fault_sims t l f;
            ]
    | _ -> failures
  in
  {
    workload = w.Workloads.name;
    seed;
    jobs;
    setup_s;
    walls;
    totals = first.totals;
    peak_rss_mb;
    attempted;
    failed = min attempted (List.length failures);
    failures;
    per_layer;
    spans;
  }

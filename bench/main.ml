(* Benchmark harness regenerating every table and figure of the paper.

   Subcommands (default [all]):
     table1   — Table 1: reseeding solution, set covering vs GATSBY
     table2   — Table 2: detection-matrix reduction statistics
     figure2  — Figure 2: reseedings vs test length trade-off (s1238/adder)
     ablation — design-choice ablations called out in DESIGN.md
     micro    — bechamel micro-benchmarks of the hot kernels
     enginecheck — cross-check the fault-simulation engines bit-for-bit
     scale    — the xl tier: per-stage wall time and peak RSS on
                10k-100k-fault circuits, written to BENCH_scale.json

   Environment:
     RESEED_BENCH_FULL=1   run the full circuit suite (slow) instead of the
                           quick suite.
     RESEED_BENCH_SCALE=N  divisor applied to the biggest circuits' specs
                           (default 4; set 1 for the unscaled suite).
     RESEED_BENCH_CSV=DIR  also dump table1.csv / table2.csv / figure2.csv
                           into DIR for plotting.
     RESEED_BENCH_JSON=F   machine-readable run summary path (default
                           BENCH_reseed.json in the working directory).
     RESEED_COLLAPSE=0     disable structural fault collapsing (on by
                           default here: one simulated representative per
                           equivalence/dominance class).
     RESEED_ENGINE=E       fault-simulation engine: event | cpt | hybrid
                           (default hybrid).
     RESEED_JOBS=N         worker-domain count for the parallel phases
                           (default: the machine's recommended count).
     RESEED_CACHE=DIR      artifact store: completed pipeline stages
                           (ATPG, matrix, reduce, solve, truncate, sweep,
                           gatsby) persist under DIR and reload on the
                           next run; a warm table1 rerun touches neither
                           ATPG nor the matrix builder.
     RESEED_SCALE_CIRCUITS=a,b
                           xl-tier members for the [scale] bench (default:
                           the smallest xl circuit; "all" = the whole
                           suite).
     RESEED_SCALE_JSON=F   scale-bench summary path (default
                           BENCH_scale.json in the working directory).
     RESEED_SCALE_RSS_BUDGET_KB=N
                           peak-RSS budget recorded in the scale summary
                           (default: 1.5x the measured peak, rounded up
                           to a 64 MB boundary) — the value CI gates
                           fresh runs against. *)

open Reseed_core
open Reseed_gatsby
open Reseed_netlist
open Reseed_setcover
open Reseed_tpg
open Reseed_util

let full_run = Sys.getenv_opt "RESEED_BENCH_FULL" = Some "1"

let scale_factor =
  match Sys.getenv_opt "RESEED_BENCH_SCALE" with
  | Some s -> ( try max 1 (int_of_string s) with _ -> 4)
  | None -> 4

let log fmt = Printf.printf (fmt ^^ "\n%!")

let csv_dir = Sys.getenv_opt "RESEED_BENCH_CSV"

let collapse_on =
  match Sys.getenv_opt "RESEED_COLLAPSE" with Some "0" -> false | _ -> true

let sim_engine =
  match Sys.getenv_opt "RESEED_ENGINE" with
  | None -> Reseed_fault.Fault_sim.Hybrid
  | Some s -> (
      match Reseed_fault.Fault_sim.engine_of_string s with
      | Some e -> e
      | None ->
          Printf.eprintf "RESEED_ENGINE=%S: expected event|cpt|hybrid\n" s;
          exit 2)

let bench_json_path =
  match Sys.getenv_opt "RESEED_BENCH_JSON" with
  | Some p -> p
  | None -> "BENCH_reseed.json"

let store = Artifact.from_env ()

(* Per-circuit wall-clock / work accounting feeding BENCH_reseed.json. *)
type circuit_stats = {
  mutable prep_s : float;
  mutable table1_s : float;
  mutable fault_sims : int;
  mutable event_props : int;
      (* cumulative event propagations on the circuit's simulator *)
  mutable universe_faults : int;
  mutable rep_faults : int;
}

let stats : (string, circuit_stats) Hashtbl.t = Hashtbl.create 16
let stats_order : string list ref = ref []

let stats_for name =
  match Hashtbl.find_opt stats name with
  | Some s -> s
  | None ->
      let s =
        {
          prep_s = 0.0;
          table1_s = 0.0;
          fault_sims = 0;
          event_props = 0;
          universe_faults = 0;
          rep_faults = 0;
        }
      in
      Hashtbl.add stats name s;
      stats_order := name :: !stats_order;
      s

(* Transition-delay dimension: the same Table 1 flow re-run under the
   launch/capture model on a small subset.  Collapsing stays off (stuck-at
   equivalences do not lift to launch/capture semantics) and GATSBY is
   skipped — the point is the covering flow under another fault model, not
   the GA baseline.  Feeds the "transition" array of BENCH_reseed.json. *)
let transition_suite = [ "c432"; "s820" ]

let transition_rows :
    (string * int * int * float * Suite.table1_row) list ref =
  ref []

let write_bench_json ~total_s () =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "{\n";
  pr "  \"suite\": \"%s\",\n" (if full_run then "full" else "quick");
  pr "  \"jobs\": %d,\n" (Pool.default_jobs ());
  pr "  \"collapse\": %b,\n" collapse_on;
  pr "  \"engine\": \"%s\",\n" (Reseed_fault.Fault_sim.engine_name sim_engine);
  pr "  \"scale_factor\": %d,\n" scale_factor;
  pr "  \"circuits\": [";
  List.iteri
    (fun i name ->
      let s = Hashtbl.find stats name in
      pr "%s\n    { \"name\": \"%s\", \"prep_s\": %.3f, \"table1_s\": %.3f, \"fault_sims\": %d, \"event_props\": %d, \"universe_faults\": %d, \"simulated_faults\": %d }"
        (if i = 0 then "" else ",")
        name s.prep_s s.table1_s s.fault_sims s.event_props s.universe_faults
        s.rep_faults)
    (List.rev !stats_order);
  pr "\n  ],\n";
  pr "  \"transition\": [";
  List.iteri
    (fun i (name, faults, patterns, wall_s, row) ->
      pr "%s\n    { \"name\": \"%s\", \"faults\": %d, \"patterns\": %d, \"wall_s\": %.3f, \"tpgs\": [%s] }"
        (if i = 0 then "" else ",")
        name faults patterns wall_s
        (String.concat ", "
           (List.map
              (fun e ->
                Printf.sprintf
                  "{ \"tpg\": \"%s\", \"triplets\": %d, \"test_length\": %d, \"fault_sims\": %d }"
                  e.Suite.tpg e.Suite.sc_triplets e.Suite.sc_test_length
                  e.Suite.sc_fault_sims)
              row.Suite.entries)))
    (List.rev !transition_rows);
  pr "\n  ],\n";
  let cv name = match Metrics.get name with Some (Metrics.Counter_v v) -> v | _ -> 0 in
  pr "  \"cache\": { \"enabled\": %b, \"hits\": %d, \"misses\": %d, \"corrupt\": %d },\n"
    (store <> None) (cv "artifact_hits") (cv "artifact_misses") (cv "artifact_corrupt");
  pr "  \"metrics\": %s,\n" (Metrics.to_json ());
  pr "  \"total_s\": %.3f\n}\n" total_s;
  let oc = open_out bench_json_path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
      output_string oc (Buffer.contents buf));
  log "  [json] wrote %s" bench_json_path

let dump_csv name contents =
  match csv_dir with
  | None -> ()
  | Some dir ->
      let path = Filename.concat dir name in
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
          output_string oc contents);
      log "  [csv] wrote %s" path

(* GATSBY is simulation-bound; the paper itself has no GATSBY numbers for
   the largest circuits ("too large to be dealt with by GATSBY"). *)
let gatsby_gate_limit = 1600

let suite_names () = if full_run then Suite.full_suite else Suite.quick_suite

let scale_for name =
  let spec = Library.spec_of name in
  if spec.Generator.n_gates > 2000 then scale_factor else 1

let prepared = Hashtbl.create 16

let prepare name =
  match Hashtbl.find_opt prepared name with
  | Some p -> p
  | None ->
      let t0 = Unix.gettimeofday () in
      let p =
        Suite.prepare ~scale_factor:(scale_for name) ~sim_engine
          ~collapse:collapse_on ?store name
      in
      let elapsed = Unix.gettimeofday () -. t0 in
      let s = stats_for name in
      s.prep_s <- elapsed;
      (match p.Suite.collapse with
      | Some c ->
          s.universe_faults <- Reseed_fault.Collapse.universe_count c;
          s.rep_faults <- Reseed_fault.Collapse.rep_count c
      | None ->
          s.universe_faults <- Array.length (Reseed_fault.Fault.universe p.Suite.circuit);
          s.rep_faults <- Reseed_fault.Fault_sim.fault_count p.Suite.sim);
      log "  [prep] %s: %d PIs, %d gates, %d ATPG patterns, %d target faults%s (%.1fs)"
        name
        (Circuit.input_count p.Suite.circuit)
        (Circuit.gate_count p.Suite.circuit)
        (Array.length p.Suite.tests)
        (Bitvec.count p.Suite.targets)
        (match p.Suite.collapse with
        | Some c ->
            Printf.sprintf " (%d classes, -%.0f%%)" (Reseed_fault.Collapse.rep_count c)
              (Reseed_fault.Collapse.reduction_pct c)
        | None -> "")
        elapsed;
      Hashtbl.add prepared name p;
      p

let run_transition_table1 () =
  log "== Table 1 (transition-delay faults, subset) ==";
  let rows =
    List.map
      (fun name ->
        let t0 = Unix.gettimeofday () in
        let p =
          Suite.prepare ~scale_factor:(scale_for name) ~sim_engine
            ~fault_model:Reseed_fault.Fault_model.Transition_delay
            ~collapse:false ?store name
        in
        let row = Suite.table1_row ~with_gatsby:false p in
        let wall_s = Unix.gettimeofday () -. t0 in
        let faults = Reseed_fault.Fault_sim.fault_count p.Suite.sim in
        let patterns = Array.length p.Suite.tests in
        log "  [t1-transition] %s done (%.1fs, %d faults, %d patterns)" name
          wall_s faults patterns;
        transition_rows :=
          (name, faults, patterns, wall_s, row) :: !transition_rows;
        row)
      transition_suite
  in
  print_string (Suite.render_table1 rows);
  log "Launch/capture semantics: each fault needs a pattern pair, so the";
  log "detection matrix is sparser — the covering flow itself is unchanged."

let run_table1 () =
  log "== Table 1: reseeding solutions (set covering vs GATSBY) ==";
  let rows =
    List.map
      (fun name ->
        let p = prepare name in
        let with_gatsby = Circuit.gate_count p.Suite.circuit <= gatsby_gate_limit in
        let t0 = Unix.gettimeofday () in
        let row = Suite.table1_row ~with_gatsby p in
        let elapsed = Unix.gettimeofday () -. t0 in
        let s = stats_for name in
        s.table1_s <- elapsed;
        s.fault_sims <-
          List.fold_left
            (fun acc e ->
              acc + e.Suite.sc_fault_sims + Option.value ~default:0 e.Suite.gatsby_fault_sims)
            0 row.Suite.entries;
        s.event_props <- Reseed_fault.Fault_sim.event_propagations p.Suite.sim;
        log "  [t1] %s done (%.1fs, %d event propagations)" name elapsed s.event_props;
        row)
      (suite_names ())
  in
  print_string (Suite.render_table1 rows);
  dump_csv "table1.csv" (Suite.csv_table1 rows);
  log "Paper shape: set covering needs as few or fewer triplets than GATSBY";
  log "(improvements of -2..-25 triplets on the paper's circuits), at a";
  log "fraction of the fault simulations; GATSBY column empty where skipped.";
  print_newline ();
  run_transition_table1 ()

let run_table2 () =
  log "== Table 2: set covering algorithm (reduction impact) ==";
  let rows = List.map (fun name -> Suite.table2_row (prepare name)) (suite_names ()) in
  print_string (Suite.render_table2 rows);
  dump_csv "table2.csv" (Suite.csv_table2 rows);
  log "Paper shape: reduction prunes the matrix by orders of magnitude; on";
  log "several circuits the residual is empty (necessary triplets only)."

let run_figure2 () =
  log "== Figure 2: trade-off reseedings vs test length (s1238, adder) ==";
  let p = prepare "s1238" in
  let tpg = Accumulator.adder (Circuit.input_count p.Suite.circuit) in
  let grid = [ 8; 16; 32; 64; 128; 256; 512; 1024 ] in
  let points = Suite.figure2 ~grid p tpg in
  print_string (Tradeoff.render points);
  let t =
    Table.create ~title:"Figure 2 series"
      [
        ("T (cycles)", Table.Right);
        ("#Triplets", Table.Right);
        ("Test Length", Table.Right);
      ]
  in
  List.iter
    (fun pt ->
      Table.add_row t
        [
          Table.cell_int pt.Tradeoff.cycles;
          Table.cell_int pt.Tradeoff.triplets;
          Table.cell_int pt.Tradeoff.test_length;
        ])
    points;
  Table.print t;
  dump_csv "figure2.csv" (Suite.csv_figure2 points);
  log "Paper shape: s1238 goes from 11 triplets / 5,427 patterns to 2";
  log "triplets / 15,551 patterns as T grows — monotone fewer triplets,";
  log "monotone longer test."

let run_ablation () =
  log "== Ablations (DESIGN.md section 5) ==";
  let p = prepare "s1238" in
  let tpg = Accumulator.adder (Circuit.input_count p.Suite.circuit) in
  let base_builder = Builder.default_config in
  let flow_with ?(method_ = Solution.Exact) ?(reduce = Reduce.default_config)
      ?(builder = base_builder) ?(objective = Flow.Min_triplets) () =
    Flow.run
      ~config:{ Flow.builder; method_; reduce; objective }
      p.Suite.sim tpg ~tests:p.Suite.tests ~targets:p.Suite.targets
  in
  let t =
    Table.create ~title:"Ablation: solver & reduction variants (s1238, adder)"
      [
        ("Variant", Table.Left);
        ("#Triplets", Table.Right);
        ("Test Length", Table.Right);
        ("Residual", Table.Right);
        ("Solver nodes", Table.Right);
        ("Time (s)", Table.Right);
      ]
  in
  let add name r =
    let s = r.Flow.solution.Solution.stats in
    Table.add_row t
      [
        name;
        Table.cell_int (Flow.reseedings r);
        Table.cell_int r.Flow.test_length;
        Printf.sprintf "%dx%d" s.Solution.reduced_rows s.Solution.reduced_cols;
        Table.cell_int s.Solution.solver_nodes;
        Table.cell_float ~decimals:2 r.Flow.elapsed_s;
      ]
  in
  add "full (essential+rowdom+coldom, exact)" (flow_with ());
  add "no column dominance"
    (flow_with ~reduce:{ Reduce.default_config with Reduce.col_dominance = false } ());
  add "essentials only"
    (flow_with
       ~reduce:
         {
           Reduce.default_config with
           Reduce.essentials = true;
           row_dominance = false;
           col_dominance = false;
         }
       ());
  add "greedy end-game" (flow_with ~method_:Solution.Greedy_only ());
  add "exact, no reduction" (flow_with ~method_:Solution.No_reduction_exact ());
  add "portfolio end-game" (flow_with ~method_:Solution.Portfolio_race ());
  add "shared operand σ=1"
    (flow_with
       ~builder:
         {
           base_builder with
           Builder.operand_mode =
             Builder.Shared_operand (Word.one (Circuit.input_count p.Suite.circuit));
         }
       ());
  add "objective: min test length" (flow_with ~objective:Flow.Min_test_length ());
  Table.print t;
  (* GATSBY budget sensitivity: a modern GA budget narrows the gap — the
     published GATSBY numbers come from a far more constrained tool. *)
  let t2 =
    Table.create ~title:"Ablation: GATSBY GA budget (s1238, adder)"
      [
        ("Budget (pop x gens)", Table.Left);
        ("#Triplets", Table.Right);
        ("Coverage %", Table.Right);
        ("Fault sims", Table.Right);
      ]
  in
  List.iter
    (fun (pop, gens) ->
      let config =
        {
          Gatsby.default_config with
          Gatsby.ga = { Ga.default_config with Ga.population = pop; generations = gens };
        }
      in
      let rng = Rng.create 1234 in
      let g = Gatsby.run ~config p.Suite.sim tpg ~rng ~targets:p.Suite.targets in
      Table.add_row t2
        [
          Printf.sprintf "%dx%d" pop gens;
          Table.cell_int (List.length g.Gatsby.triplets);
          Table.cell_float ~decimals:1
            (100.0
            *. float_of_int (Bitvec.count g.Gatsby.detected)
            /. float_of_int (max 1 (Bitvec.count p.Suite.targets)));
          Table.cell_int g.Gatsby.fault_sims;
        ])
    [ (6, 3); (10, 5); (12, 6); (16, 8); (24, 16) ];
  Table.print t2

(* CI gate: every engine must grade every fault of every pattern
   identically; exits non-zero on the first divergence.  Also prints the
   propagation-count ratio the CPT engines buy. *)
let run_enginecheck () =
  log "== Engine cross-check (event vs cpt vs hybrid) ==";
  let module FS = Reseed_fault.Fault_sim in
  let mismatches = ref 0 in
  List.iter
    (fun name ->
      let c = Library.load name in
      let faults = Reseed_fault.Fault.all c in
      let rng = Rng.create 97 in
      let n = Circuit.input_count c in
      let patterns = Array.init 150 (fun _ -> Array.init n (fun _ -> Rng.bool rng)) in
      let grade engine =
        let sim = FS.create ~engine c faults in
        let map = FS.detection_map sim patterns in
        let detections = Array.fold_left (fun acc row -> acc + Bitvec.count row) 0 map in
        (map, detections, FS.event_propagations sim)
      in
      let ev_map, ev_det, ev_props = grade FS.Event in
      List.iter
        (fun engine ->
          let map, det, props = grade engine in
          let identical =
            Array.length map = Array.length ev_map
            && Array.for_all2 Bitvec.equal map ev_map
          in
          if not identical then incr mismatches;
          log "  [%s] %-6s: %d detections (event %d), %d props (event %d, %.1fx)%s"
            name (FS.engine_name engine) det ev_det props ev_props
            (float_of_int ev_props /. float_of_int (max 1 props))
            (if identical then "" else "  ** MISMATCH **"))
        [ FS.Cpt; FS.Hybrid ])
    (* s820_x4 (depth 33) is the deep member: a queue that popped out of
       level order would corrupt its long reconvergent cones. *)
    [ "c17"; "c432"; "s420"; "s820_x4" ];
  if !mismatches > 0 then begin
    log "enginecheck FAILED: %d engine(s) diverged from the event oracle" !mismatches;
    exit 1
  end;
  log "enginecheck OK: detection matrices bit-identical across engines"

let run_micro () =
  log "== Micro-benchmarks (bechamel) ==";
  let open Bechamel in
  let c = Library.load "c432" in
  let faults = Reseed_fault.Fault.all c in
  let sim = Reseed_fault.Fault_sim.create c faults in
  let rng = Rng.create 3 in
  let n = Circuit.input_count c in
  let patterns = Array.init 62 (fun _ -> Array.init n (fun _ -> Rng.bool rng)) in
  let active = Bitvec.create (Array.length faults) in
  Bitvec.fill_all active;
  let p = prepare "c432" in
  let tpg = Accumulator.adder n in
  let initial =
    Builder.build p.Suite.sim tpg ~tests:p.Suite.tests ~targets:p.Suite.targets
      ~config:Builder.default_config
  in
  let w1 = Word.random rng 64 and w2 = Word.random rng 64 in
  let tests =
    [
      Test.make ~name:"fault_sim_block_c432"
        (Staged.stage (fun () ->
             ignore (Reseed_fault.Fault_sim.detected_set sim patterns ~active)));
      Test.make ~name:"matrix_reduction_c432"
        (Staged.stage (fun () -> ignore (Reduce.run initial.Builder.matrix)));
      Test.make ~name:"exact_cover_c432"
        (Staged.stage (fun () -> ignore (Solution.solve initial.Builder.matrix)));
      Test.make ~name:"word_mul_64b" (Staged.stage (fun () -> ignore (Word.mul w1 w2)));
      Test.make ~name:"tpg_burst_adder_62"
        (Staged.stage (fun () ->
             ignore
               (Tpg.run_bits tpg ~seed:(Word.random rng n) ~operand:(Word.random rng n)
                  ~cycles:62)));
    ]
  in
  let benchmark test =
    let instances = [ Toolkit.Instance.monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.8) ~kde:(Some 100) () in
    Benchmark.all cfg instances test
  in
  let analyze results =
    let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
    Analyze.all ols Toolkit.Instance.monotonic_clock results
  in
  List.iter
    (fun test ->
      let results = analyze (benchmark test) in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> log "  %-26s %12.1f ns/run" name est
          | _ -> log "  %-26s (no estimate)" name)
        results)
    tests

(* The scale tier.  Unlike the table benches this measures the pipeline's
   resource envelope, not the paper's numbers: per-stage wall clock and
   peak RSS over xl circuits (10k-100k universe faults) land in
   BENCH_scale.json, and CI gates a fresh run's peak against the
   committed [rss_budget_kb].  Peak RSS is monotone over the process, so
   each stage's sample is the high-water mark reached by the end of that
   stage. *)

let scale_json_path =
  Option.value (Sys.getenv_opt "RESEED_SCALE_JSON") ~default:"BENCH_scale.json"

let scale_circuits () =
  match Sys.getenv_opt "RESEED_SCALE_CIRCUITS" with
  | Some "all" -> Suite.xl_suite
  | Some s ->
      List.filter
        (fun s -> s <> "")
        (List.map String.trim (String.split_on_char ',' s))
  | None -> [ List.hd Suite.xl_suite ]

type scale_stage = { stage : string; wall_s : float; stage_rss_kb : int }

type scale_row = {
  sc_name : string;
  sc_gates : int;
  sc_universe : int;
  sc_rows : int;
  sc_cols : int;
  sc_ones : int;
  sc_repr : (string * int) list;  (** rowset representation mix *)
  sc_solution : int;
  sc_sims : int;
  sc_stages : scale_stage list;
}

let run_scale () =
  log "== Scale tier: per-stage wall / peak RSS (xl suite) ==";
  let rss () = Option.value (Rss.peak_kb ()) ~default:0 in
  let rows =
    List.map
      (fun name ->
        let stages = ref [] in
        let staged stage f =
          let t0 = Unix.gettimeofday () in
          let r = f () in
          let wall_s = Unix.gettimeofday () -. t0 in
          stages := { stage; wall_s; stage_rss_kb = rss () } :: !stages;
          log "  [%s] %-7s %7.1fs  rss %d MB" name stage wall_s (rss () / 1024);
          r
        in
        (* Full xl gate count: scale_for would divide it back down. *)
        let p =
          staged "prepare" (fun () ->
              Suite.prepare ~scale_factor:1 ~sim_engine ~collapse:collapse_on
                ?store name)
        in
        let tpg = Accumulator.adder (Circuit.input_count p.Suite.circuit) in
        let built =
          staged "matrix" (fun () ->
              Builder.build ?store p.Suite.sim tpg ~tests:p.Suite.tests
                ~targets:p.Suite.targets ~config:Builder.default_config)
        in
        let m = built.Builder.matrix in
        ignore (staged "reduce" (fun () -> Reduce.run m));
        (* [solve] re-runs its own reduction; the residual it solves is
           tiny, so the stage is dominated by the end-game itself. *)
        let sol = staged "solve" (fun () -> Solution.solve m) in
        if not (Solution.verify m sol) then begin
          log "scale FAILED: %s solution does not cover the matrix" name;
          exit 1
        end;
        let dense = ref 0 and sparse = ref 0 in
        for i = 0 to Matrix.rows m - 1 do
          match Rowset.repr (Matrix.rowset m i) with
          | Rowset.Dense -> incr dense
          | Rowset.Sparse -> incr sparse
        done;
        let universe =
          match p.Suite.collapse with
          | Some c -> Reseed_fault.Collapse.universe_count c
          | None -> Array.length (Reseed_fault.Fault.universe p.Suite.circuit)
        in
        log "  [%s] matrix %dx%d (%d ones), %d universe faults, %d triplets"
          name (Matrix.rows m) (Matrix.cols m) (Matrix.ones m) universe
          (Solution.cardinality sol);
        {
          sc_name = name;
          sc_gates = Circuit.gate_count p.Suite.circuit;
          sc_universe = universe;
          sc_rows = Matrix.rows m;
          sc_cols = Matrix.cols m;
          sc_ones = Matrix.ones m;
          sc_repr = [ ("dense", !dense); ("sparse", !sparse) ];
          sc_solution = Solution.cardinality sol;
          sc_sims = built.Builder.fault_sims;
          sc_stages = List.rev !stages;
        })
      (scale_circuits ())
  in
  let peak = rss () in
  let budget =
    match Sys.getenv_opt "RESEED_SCALE_RSS_BUDGET_KB" with
    | Some s -> ( try int_of_string s with _ -> 0)
    | None ->
        (* 1.5x the measured peak, up to the next 64 MB boundary: slack
           for allocator noise without letting a dense-matrix regression
           slip through. *)
        let raw = peak + (peak / 2) in
        (raw + 65535) / 65536 * 65536
  in
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "{\n";
  pr "  \"jobs\": %d,\n" (Pool.default_jobs ());
  pr "  \"engine\": \"%s\",\n" (Reseed_fault.Fault_sim.engine_name sim_engine);
  pr "  \"collapse\": %b,\n" collapse_on;
  pr "  \"circuits\": [";
  List.iteri
    (fun i r ->
      pr "%s\n    { \"name\": \"%s\", \"gates\": %d, \"universe_faults\": %d,\n"
        (if i = 0 then "" else ",")
        r.sc_name r.sc_gates r.sc_universe;
      pr "      \"matrix\": { \"rows\": %d, \"cols\": %d, \"ones\": %d, \"density\": %.6f,\n"
        r.sc_rows r.sc_cols r.sc_ones
        (float_of_int r.sc_ones /. float_of_int (max 1 (r.sc_rows * r.sc_cols)));
      pr "        \"repr\": { %s } },\n"
        (String.concat ", "
           (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %d" k v) r.sc_repr));
      pr "      \"solution_triplets\": %d, \"fault_sims\": %d,\n" r.sc_solution
        r.sc_sims;
      pr "      \"stages\": [%s] }"
        (String.concat ", "
           (List.map
              (fun s ->
                Printf.sprintf
                  "{ \"stage\": \"%s\", \"wall_s\": %.3f, \"rss_kb\": %d }"
                  s.stage s.wall_s s.stage_rss_kb)
              r.sc_stages)))
    rows;
  pr "\n  ],\n";
  pr "  \"peak_rss_kb\": %d,\n" peak;
  pr "  \"rss_budget_kb\": %d\n" budget;
  pr "}\n";
  let oc = open_out scale_json_path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
      output_string oc (Buffer.contents buf));
  log "  [json] wrote %s (peak rss %d MB, budget %d MB)" scale_json_path
    (peak / 1024) (budget / 1024)

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  (* Observability mirrors the CLI's --trace/--metrics: at_exit writers
     so even an aborted bench dumps what it recorded. *)
  (match Sys.getenv_opt "RESEED_TRACE" with
  | Some path when path <> "" ->
      Trace.enable ();
      at_exit (fun () -> try Trace.write_file path with Sys_error _ -> ())
  | _ -> ());
  (match Sys.getenv_opt "RESEED_METRICS" with
  | Some path when path <> "" ->
      at_exit (fun () -> try Metrics.write_file path with Sys_error _ -> ())
  | _ -> ());
  let t0 = Unix.gettimeofday () in
  (match mode with
  | "table1" -> run_table1 ()
  | "table2" -> run_table2 ()
  | "figure2" -> run_figure2 ()
  | "ablation" -> run_ablation ()
  | "micro" -> run_micro ()
  | "enginecheck" -> run_enginecheck ()
  | "scale" -> run_scale ()
  | "all" ->
      run_table1 ();
      print_newline ();
      run_table2 ();
      print_newline ();
      run_figure2 ();
      print_newline ();
      run_ablation ();
      print_newline ();
      run_micro ()
  | other ->
      Printf.eprintf
        "unknown bench %S (table1|table2|figure2|ablation|micro|enginecheck|scale|all)\n"
        other;
      exit 2);
  let total_s = Unix.gettimeofday () -. t0 in
  (* enginecheck is a pass/fail gate with no table stats, and scale
     writes its own summary; either would clobber a real run's JSON. *)
  if mode <> "enginecheck" && mode <> "scale" then write_bench_json ~total_s ();
  log "\nTotal bench time: %.1fs (jobs=%d, engine=%s, collapse=%b)" total_s
    (Pool.default_jobs ())
    (Reseed_fault.Fault_sim.engine_name sim_engine)
    collapse_on

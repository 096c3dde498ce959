(* Regenerates the paper's tables and figure for EXPERIMENTS.md.

   Usage: main.exe [--full] [table1|table2|figure2|ablation|all]

     table1   — Table 1: reseeding solution, set covering vs GATSBY, plus
                the covering flow under transition-delay faults (c432, s820)
     table2   — Table 2: detection-matrix reduction statistics
     figure2  — Figure 2: reseedings vs test length trade-off (s1238/adder)
     ablation — design-choice ablations called out in DESIGN.md
     all      — the four above, in order (the default)

   The tables are built here from one Flow.run per (prepared workload,
   TPG), which Tables 1 and 2 share, and, for Table 1, one uncached
   Gatsby.run per TPG on circuits of at most 1,600 gates.

   [--full] runs the full circuit suite (slow) instead of the quick one.
   Circuits above 2000 gates are generated at a quarter of their catalog
   size.  Timing and the resource envelope are measured by perfbench, not
   here.  test/golden/bench_<mode>.txt holds each mode's quick-suite
   output at RESEED_JOBS=2, timings masked, and a tier-1 test diffs
   against it.

   Environment: RESEED_JOBS (worker domains) and RESEED_CACHE (artifact
   store: a warm rerun touches neither ATPG nor the matrix builder; the
   GATSBY baseline is never stored and always reruns). *)

open Reseed_core
open Reseed_gatsby
open Reseed_netlist
open Reseed_setcover
open Reseed_tpg
open Reseed_util

let log fmt = Printf.printf (fmt ^^ "\n%!")

let store = Artifact.from_env ()

(* GATSBY is simulation-bound; the paper itself has no GATSBY numbers for
   the largest circuits ("too large to be dealt with by GATSBY"). *)
let gatsby_gate_limit = 1600

(* Table 1 order.  [--full] runs every circuit of the paper's suite. *)
let quick_suite = [ "c17"; "c432"; "c499"; "c880"; "s420"; "s641"; "s820"; "s1238" ]

let scale_for name =
  let spec = Library.spec_of name in
  if spec.Generator.n_gates > 2000 then 4 else 1

let prepared = Hashtbl.create 16

let prepare name =
  match Hashtbl.find_opt prepared name with
  | Some p -> p
  | None ->
      let t0 = Unix.gettimeofday () in
      let p = Suite.prepare ~scale_factor:(scale_for name) ?store name in
      log "  [prep] %s: %d PIs, %d gates, %d ATPG patterns, %d target faults (%.1fs)"
        name
        (Circuit.input_count p.Suite.circuit)
        (Circuit.gate_count p.Suite.circuit)
        (Array.length p.Suite.tests)
        (Bitvec.count p.Suite.targets)
        (Unix.gettimeofday () -. t0);
      Hashtbl.add prepared name p;
      p

let paper_tpgs p = Accumulator.paper_tpgs (Circuit.input_count p.Suite.circuit)

(* One Flow.run per (prepared workload, TPG) feeds both tables, so [all]
   runs each flow once.  The key is the workload's fingerprint, not its
   name: the transition subset prepares c432 and s820 a second time,
   under another fault model. *)
let flows = Hashtbl.create 64

let flow p tpg =
  let key = (p.Suite.fingerprint, tpg.Tpg.name) in
  match Hashtbl.find_opt flows key with
  | Some r -> r
  | None ->
      let r =
        Flow.run ?store:p.Suite.store ~fingerprint:p.Suite.fingerprint p.Suite.sim tpg
          ~tests:p.Suite.tests ~targets:p.Suite.targets
      in
      Hashtbl.add flows key r;
      r

(* A Table 1 row per TPG: the flow and, unless skipped, GATSBY, uncached,
   at the flow's evolution length and a fixed seed. *)
let table1_rows ~with_gatsby p =
  let config =
    { Gatsby.default_config with Gatsby.cycles = Builder.default_config.Builder.cycles }
  in
  List.map
    (fun tpg ->
      let r = flow p tpg in
      let g =
        if with_gatsby then
          Some
            (Gatsby.run ~config p.Suite.sim tpg ~rng:(Rng.create 1234)
               ~targets:p.Suite.targets)
        else None
      in
      (tpg, r, g))
    (paper_tpgs p)

let print_table1 rows =
  let t =
    Table.create ~title:"Table 1: Reseeding solution (set covering vs GATSBY)"
      [
        ("Circuit", Table.Left);
        ("TPG", Table.Left);
        ("#Triplets", Table.Right);
        ("Test Length", Table.Right);
        ("ROM bits", Table.Right);
        ("GATSBY #Triplets", Table.Right);
        ("GATSBY Test Length", Table.Right);
        ("Δ#Triplets", Table.Right);
      ]
  in
  List.iter
    (fun (p, entries) ->
      List.iter
        (fun (tpg, r, g) ->
          let g_triplets = Option.map (fun g -> List.length g.Gatsby.triplets) g in
          Table.add_row t
            [
              Circuit.name p.Suite.circuit;
              tpg.Tpg.name;
              Table.cell_int (Flow.reseedings r);
              Table.cell_int r.Flow.test_length;
              Table.cell_int
                (List.fold_left
                   (fun acc t -> acc + Triplet.storage_bits t)
                   0 r.Flow.final_triplets);
              Table.cell_opt Table.cell_int g_triplets;
              Table.cell_opt Table.cell_int (Option.map (fun g -> g.Gatsby.test_length) g);
              Table.cell_opt (fun n -> Table.cell_int (Flow.reseedings r - n)) g_triplets;
            ])
        entries;
      Table.add_separator t)
    rows;
  Table.print t

(* Transition-delay dimension: the same Table 1 flow re-run under the
   launch/capture model on a small subset.  GATSBY is skipped — the point
   is the covering flow under another fault model, not the GA baseline. *)
let run_transition_table1 () =
  log "== Table 1 (transition-delay faults, subset) ==";
  let rows =
    List.map
      (fun name ->
        let t0 = Unix.gettimeofday () in
        let p =
          Suite.prepare ~scale_factor:(scale_for name)
            ~fault_model:Reseed_fault.Fault_model.Transition_delay ?store name
        in
        let entries = table1_rows ~with_gatsby:false p in
        log "  [t1-transition] %s done (%.1fs, %d faults, %d patterns)" name
          (Unix.gettimeofday () -. t0)
          (Reseed_fault.Fault_sim.fault_count p.Suite.sim)
          (Array.length p.Suite.tests);
        (p, entries))
      [ "c432"; "s820" ]
  in
  print_table1 rows;
  log "Launch/capture semantics: each fault needs a pattern pair, so the";
  log "detection matrix is sparser — the covering flow itself is unchanged."

let run_table1 names =
  log "== Table 1: reseeding solutions (set covering vs GATSBY) ==";
  let rows =
    List.map
      (fun name ->
        let p = prepare name in
        let with_gatsby = Circuit.gate_count p.Suite.circuit <= gatsby_gate_limit in
        let t0 = Unix.gettimeofday () in
        let entries = table1_rows ~with_gatsby p in
        log "  [t1] %s done (%.1fs, %d event propagations)" name
          (Unix.gettimeofday () -. t0)
          (Reseed_fault.Fault_sim.event_propagations p.Suite.sim);
        (p, entries))
      names
  in
  print_table1 rows;
  log "Paper shape: set covering needs as few or fewer triplets than GATSBY";
  log "(improvements of -2..-25 triplets on the paper's circuits), at a";
  log "fraction of the fault simulations; GATSBY column empty where skipped.";
  print_newline ();
  run_transition_table1 ()

let run_table2 names =
  log "== Table 2: set covering algorithm (reduction impact) ==";
  let t =
    Table.create ~title:"Table 2: Set Covering algorithm (matrix reduction impact)"
      [
        ("Circuit", Table.Left);
        ("Initial matrix", Table.Right);
        ("TPG", Table.Left);
        ("Necessary", Table.Right);
        ("Reduced matrix", Table.Right);
        ("From solver", Table.Right);
        ("Iter", Table.Right);
      ]
  in
  List.iter
    (fun name ->
      let p = prepare name in
      List.iter
        (fun tpg ->
          let s = (flow p tpg).Flow.solution.Solution.stats in
          Table.add_row t
            [
              Circuit.name p.Suite.circuit;
              Printf.sprintf "%dx%d" (Array.length p.Suite.tests)
                (Bitvec.count p.Suite.targets);
              tpg.Tpg.name;
              Table.cell_int (List.length s.Solution.necessary);
              Printf.sprintf "%dx%d" s.Solution.reduced_rows s.Solution.reduced_cols;
              Table.cell_int (List.length s.Solution.from_solver);
              Table.cell_int s.Solution.reduction_iterations;
            ])
        (paper_tpgs p);
      Table.add_separator t)
    names;
  Table.print t;
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
          Gatsby.ga = { Ga.population = pop; generations = gens };
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


let usage () =
  prerr_endline "usage: main.exe [--full] [table1|table2|figure2|ablation|all]";
  exit 2

let () =
  let full, modes =
    List.partition (String.equal "--full") (List.tl (Array.to_list Sys.argv))
  in
  let names = if full <> [] then Library.names else quick_suite in
  let t0 = Unix.gettimeofday () in
  (match modes with
  | [ "table1" ] -> run_table1 names
  | [ "table2" ] -> run_table2 names
  | [ "figure2" ] -> run_figure2 ()
  | [ "ablation" ] -> run_ablation ()
  | [] | [ "all" ] ->
      run_table1 names;
      print_newline ();
      run_table2 names;
      print_newline ();
      run_figure2 ();
      print_newline ();
      run_ablation ()
  | _ -> usage ());
  log "\nTotal bench time: %.1fs (jobs=%d)" (Unix.gettimeofday () -. t0)
    (Pool.default_jobs ())

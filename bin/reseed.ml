(* reseed — command-line front-end to the Functional BIST reseeding
   toolkit.

   Subcommands:
     info      list the built-in benchmark catalog
     atpg      run the deterministic ATPG on a circuit
     solve     compute a minimal reseeding solution (the paper's flow)
     gatsby    run the GATSBY-style genetic baseline
     tradeoff  sweep evolution length T (Figure 2 style)
     batch     run a manifest-driven multi-circuit campaign
     compress  code-based test-data compression over the covering core
     fullscan  extract the combinational core of a sequential circuit
     gen       emit a synthetic ISCAS-like circuit as a .bench file
     chaos     crash-consistency harness: sweep fault injections over
               child solve runs and check the solution never changes

   Circuits are named by catalog entry ("c432", "s1238", …), by a
   scaled-up xl-tier name ("s1238_x32": any catalog base with an _x2 to
   _x64 suffix), or by a path to an ISCAS .bench file.

   Exit codes (see Reseed_util.Error): 0 success (including
   deadline-degraded runs), 2 usage, 3 input, 4 infeasible, 5 worker
   task failure, 66 chaos abort crashpoint, 70 internal, 130
   interrupted. *)

open Cmdliner
open Reseed_core
open Reseed_gatsby
open Reseed_netlist
open Reseed_tpg
open Reseed_util

let load_circuit name ~scale =
  if Filename.check_suffix name ".bench" then Bench_io.parse_file name
  else Library.load ~scale_factor:scale name

(* Uniform error containment: structured errors print as
   [file:line:col: message] and map to their documented exit code;
   environment failures (filesystem, OS) are input errors; anything
   else is a bug and exits 70 — no exception ever reaches OCaml's
   default handler, whose exit code (2) would collide with Usage. *)
let guard f =
  try
    (* A malformed RESEED_JOBS is a usage error before any work starts,
       like a malformed RESEED_CHAOS. *)
    ignore (Pool.default_jobs ());
    f ()
  with
  | Error.Reseed_error e ->
      Printf.eprintf "reseed: %s\n%!" (Error.to_string e);
      exit (Error.exit_code e.Error.code)
  | Pool.Task_error _ as e ->
      Printf.eprintf "reseed: %s\n%!" (Printexc.to_string e);
      exit (Error.exit_code Error.Task_failed)
  | Sys_error m ->
      Printf.eprintf "reseed: %s\n%!" m;
      exit (Error.exit_code Error.Input_error)
  | Unix.Unix_error (err, fn, arg) ->
      Printf.eprintf "reseed: %s%s: %s\n%!" fn
        (if arg = "" then "" else " " ^ arg)
        (Unix.error_message err);
      exit (Error.exit_code Error.Input_error)
  | e ->
      Printf.eprintf "reseed: internal error: %s\n%!" (Printexc.to_string e);
      exit (Error.exit_code Error.Internal)

(* What a long-running command runs with. *)
type session = {
  budget : Budget.t;
  pool : Pool.t option;  (** [None]: the default pool *)
  store : Artifact.store option;
}

(* [session ?chaos ~obs ?deadline ?jobs ?cache f] sets up, in order:
   error containment, the chaos schedule, the trace/metrics writers, the
   budget, the worker pool and the artifact store; then runs [f].

   - The writers run from [at_exit], so interrupted (exit 130) and
     failed runs still dump whatever was recorded; a write failure never
     masks the run's own exit code.
   - [deadline] is passed by the commands that have --deadline, even
     when its value is [None].  Their budget is shared with SIGINT, so
     the deadline and ^C wind the run down through the same graceful
     paths; a second ^C exits at once.  Other commands keep the
     default ^C.
   - [cache] is passed by the commands that have --cache: the store
     resolves from it or from RESEED_CACHE, and a [cache:] line follows
     [f]'s output.
   - A run that ended because of ^C exits 130 once [f] has printed its
     partial result (finished stages and matrix shards are already in
     the store). *)
let session ?chaos ~obs ?deadline ?jobs ?cache f =
  guard @@ fun () ->
  Option.iter Faultpoint.configure_string chaos;
  let trace, metrics = obs in
  Option.iter
    (fun path ->
      Trace.enable ();
      at_exit (fun () -> try Trace.write_file path with Sys_error _ -> ()))
    trace;
  Option.iter
    (fun path ->
      at_exit (fun () -> try Metrics.write_file path with Sys_error _ -> ()))
    metrics;
  let budget = Budget.create ?deadline_s:(Option.join deadline) () in
  if deadline <> None then begin
    let again = ref false in
    Sys.set_signal Sys.sigint
      (Sys.Signal_handle
         (fun _ ->
           if !again then exit (Error.exit_code Error.Interrupted);
           again := true;
           Budget.cancel budget))
  end;
  let with_pool k =
    match jobs with
    | None -> k None
    | Some j -> Pool.with_pool ~jobs:j (fun p -> k (Some p))
  in
  with_pool @@ fun pool ->
  let store = Option.bind cache (fun dir -> Artifact.resolve ?dir ()) in
  f { budget; pool; store };
  if store <> None then begin
    let v name = Metrics.value (Metrics.counter name) in
    Printf.printf "cache: %d hits, %d misses, %d corrupt\n" (v "artifact_hits")
      (v "artifact_misses") (v "artifact_corrupt")
  end;
  if Budget.stop_reason budget = Some Budget.Cancelled then
    exit (Error.exit_code Error.Interrupted)

(* The "degraded:" line: why the budget stopped the run, or [fallback]
   when something other than the budget (a solver limit) cut it short. *)
let print_degraded ?(detail = "") ~fallback s =
  Printf.printf "degraded: true (%s%s)\n"
    (match Budget.stop_reason s.budget with
    | Some r -> Budget.stop_reason_name r
    | None -> fallback)
    detail

(* Common arguments *)

(* Each option value is spelled once, by the library module that owns
   its type; the CLI enumerates [all] through [name]. *)
let named all name = Arg.enum (List.map (fun v -> (name v, v)) all)

(* [bold_alts ["a"; "b"; "c"]] is "$(b,a), $(b,b) or $(b,c)". *)
let bold_alts names =
  match List.rev_map (Printf.sprintf "$(b,%s)") names with
  | last :: (_ :: _ as rest) -> String.concat ", " (List.rev rest) ^ " or " ^ last
  | l -> String.concat "" l

(* An integer flag with a lower bound: a smaller value is a usage error
   naming the flag, raised before any work starts. *)
let int_from lo =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n < lo ->
        Error (`Msg (Printf.sprintf "invalid value '%s', expected an integer >= %d" s lo))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

let circuit_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"CIRCUIT" ~doc:"Catalog name or .bench file.")

let scale_arg =
  Arg.(value & opt (int_from 1) 1 & info [ "scale" ] ~docv:"N" ~doc:"Divide synthetic circuit size by $(docv).")

let tpg_arg =
  Arg.(value & opt (named Batch.tpg_names Fun.id) "adder" & info [ "tpg" ] ~docv:"TPG" ~doc:("TPG model: " ^ bold_alts Batch.tpg_names ^ "."))

let cycles_arg =
  Arg.(value & opt (int_from 1) 150 & info [ "cycles"; "T" ] ~docv:"T" ~doc:"Evolution length per triplet.")

let fault_model_arg =
  Arg.(value & opt (named Reseed_fault.Fault_model.all Reseed_fault.Fault_model.name) Reseed_fault.Fault_model.Stuck_at & info [ "fault-model" ] ~docv:"M" ~doc:"Fault model: $(b,stuck) (single stuck-at, the paper's model, default) or $(b,transition) (transition-delay faults detected by launch/capture pairs of consecutive patterns).")

let method_arg =
  let open Reseed_setcover.Solution in
  Arg.(value & opt (named methods method_name) Exact & info [ "method" ] ~docv:"M" ~doc:("Covering method: " ^ bold_alts (List.map method_name methods) ^ "."))

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")

let deadline_arg =
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SEC" ~doc:"Wall-clock budget in seconds.  On expiry the flow degrades gracefully: every phase returns its best partial result and the run still exits 0.")

let jobs_arg =
  Arg.(value & opt (some (int_from 1)) None & info [ "jobs"; "j" ] ~docv:"N" ~doc:"Worker domains for the parallel phases (default: available cores).")

let obs_arg =
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc:"Record phase spans and write a Chrome trace_event JSON to $(docv) (open in Perfetto or chrome://tracing).")
  in
  let metrics =
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc:"Write the work-counter registry to $(docv) as JSON, or NDJSON if $(docv) ends in .ndjson.")
  in
  Term.(const (fun t m -> (t, m)) $ trace $ metrics)

let cache_info ?(extra = "") names =
  Arg.info names ~docv:"DIR" ~doc:("Content-addressed artifact store: completed pipeline stages (ATPG, matrix, cover: the reduced, solved and truncated reseeding) are persisted under $(docv) and reloaded on reruns.  Defaults to $(b,RESEED_CACHE) when set." ^ extra)

let cache_arg = Arg.(value & opt (some string) None & cache_info [ "cache" ])

let chaos_arg =
  Arg.(value & opt (some string) None & info [ "chaos" ] ~docv:"SPEC" ~doc:"Deterministic fault injection schedule $(i,SEED:POINT=KIND[:ARG][@SEL][,...]) — a development/testing tool (see the manual).  Overrides $(b,RESEED_CHAOS).")

(* info *)

let info_cmd =
  let run () =
    let t =
      Table.create ~title:"Built-in benchmark catalog"
        [
          ("Name", Table.Left);
          ("PIs", Table.Right);
          ("POs", Table.Right);
          ("Gates", Table.Right);
          ("Source", Table.Left);
        ]
    in
    List.iter
      (fun (name, spec) ->
        Table.add_row t
          [
            name;
            Table.cell_int spec.Generator.n_inputs;
            Table.cell_int spec.Generator.n_outputs;
            Table.cell_int spec.Generator.n_gates;
            (if name = "c17" then "embedded ISCAS netlist" else "synthetic ISCAS-like");
          ])
      Library.paper_suite;
    Table.print t;
    let xl =
      Table.create ~title:"Scale tier (synthetic, 10k-100k universe faults)"
        [
          ("Name", Table.Left);
          ("PIs", Table.Right);
          ("POs", Table.Right);
          ("Gates", Table.Right);
        ]
    in
    List.iter
      (fun name ->
        let spec = Library.spec_of name in
        Table.add_row xl
          [
            name;
            Table.cell_int spec.Generator.n_inputs;
            Table.cell_int spec.Generator.n_outputs;
            Table.cell_int spec.Generator.n_gates;
          ])
      Library.xl_names;
    Table.print xl;
    print_string
      "Any catalog name takes an _x2.._x64 suffix (e.g. c880_x64) to scale it up.\n"
  in
  Cmd.v (Cmd.info "info" ~doc:"List the built-in benchmark catalog and the xl scale tier.")
    Term.(const run $ const ())

(* atpg *)

let atpg_cmd =
  let open Reseed_atpg in
  let engine_arg =
    Arg.(value & opt (named Atpg.engines Atpg.engine_name) Atpg.Podem_engine & info [ "engine" ] ~docv:"E" ~doc:("Deterministic engine: " ^ bold_alts (List.map Atpg.engine_name Atpg.engines) ^ "."))
  in
  let run name scale engine fault_model deadline chaos obs =
    session ?chaos ~obs ~deadline @@ fun s ->
    let c = load_circuit name ~scale in
    Printf.printf "%s\n" (Circuit.stats_line c);
    let sim, r = Atpg.run_circuit ~engine ~fault_model ~budget:s.budget c in
    (match fault_model with
    | Reseed_fault.Fault_model.Stuck_at ->
        Printf.printf "faults (collapsed): %d\n"
          (Reseed_fault.Fault_sim.fault_count sim)
    | Reseed_fault.Fault_model.Transition_delay ->
        Printf.printf "fault model: transition\n";
        Printf.printf "faults (uncollapsed): %d\n"
          (Reseed_fault.Fault_sim.fault_count sim));
    Printf.printf "test set: %d patterns\n" (Array.length r.Atpg.tests);
    Printf.printf "coverage of detectable faults: %.2f%%\n" (Atpg.fault_coverage sim r);
    Printf.printf "untestable: %d, aborted: %d\n" (List.length r.Atpg.untestable)
      (List.length r.Atpg.aborted);
    if engine = Atpg.Podem_engine then
      Printf.printf "podem: %d decisions, %d backtracks\n"
        r.Atpg.podem_stats.Podem.decisions r.Atpg.podem_stats.Podem.backtracks;
    if r.Atpg.stopped_early then
      print_degraded s ~fallback:"budget" ~detail:"; partial test set"
  in
  Cmd.v (Cmd.info "atpg" ~doc:"Run the deterministic ATPG on a circuit.")
    Term.(
      const run $ circuit_arg $ scale_arg $ engine_arg $ fault_model_arg
      $ deadline_arg $ chaos_arg $ obs_arg)

(* solve *)

let solve_cmd =
  let open Reseed_setcover in
  let open Reseed_atpg in
  let verify_arg =
    Arg.(value & flag & info [ "verify" ] ~doc:"Re-simulate the final solution from scratch.")
  in
  let objective_arg =
    Arg.(value & opt (named Flow.objectives Flow.objective_name) Flow.Min_triplets & info [ "objective" ] ~docv:"O" ~doc:"$(b,triplets) (paper) or $(b,length) (weighted extension).")
  in
  let store_arg =
    Arg.(
      value
      & opt (some string) None
      & cache_info [ "cache"; "checkpoint" ]
          ~extra:"  $(b,--checkpoint) is another name for it: detection-matrix rows are published in 16-row shards as they finish, so an interrupted solve resumes from them.")
  in
  let run name scale tpg_name cycles fault_model method_ verify objective deadline
      jobs cache chaos obs =
    session ?chaos ~obs ~deadline ?jobs ~cache @@ fun s ->
    let c = load_circuit name ~scale in
    let p = Suite.prepare_circuit ~fault_model ~budget:s.budget ?store:s.store c in
    let tpg = Batch.tpg_of_name tpg_name (Circuit.input_count c) in
    let config =
      {
        Flow.default_config with
        Flow.builder = { Builder.default_config with Builder.cycles };
        method_;
        objective;
      }
    in
    let r =
      Flow.run ~config ?pool:s.pool ~budget:s.budget ?store:p.Suite.store
        ~fingerprint:p.Suite.fingerprint p.Suite.sim tpg ~tests:p.Suite.tests
        ~targets:p.Suite.targets
    in
    let stats = r.Flow.solution.Solution.stats in
    Printf.printf "%s + %s TPG (T=%d)\n" (Circuit.name c) tpg.Tpg.name cycles;
    if fault_model <> Reseed_fault.Fault_model.Stuck_at then
      Printf.printf "fault model: %s\n" (Reseed_fault.Fault_model.name fault_model);
    Printf.printf "initial matrix: %dx%d\n" stats.Solution.initial_rows
      stats.Solution.initial_cols;
    Printf.printf "necessary triplets: %d\n" (List.length stats.Solution.necessary);
    Printf.printf "reduced matrix: %dx%d\n" stats.Solution.reduced_rows
      stats.Solution.reduced_cols;
    Printf.printf "from exact solver: %d\n" (List.length stats.Solution.from_solver);
    (* Faults outside F have empty columns by construction: report them
       by their ATPG class.  Only a target no triplet detects is lost. *)
    let atpg = p.Suite.atpg in
    let untestable = List.length atpg.Atpg.untestable
    and aborted = List.length atpg.Atpg.aborted in
    if untestable + aborted > 0 then
      Printf.printf "faults outside F: %d (%d untestable, %d aborted)\n"
        (untestable + aborted) untestable aborted;
    let targets = r.Flow.initial.Builder.targets in
    (match List.filter (Bitvec.get targets) stats.Solution.uncovered with
    | [] -> ()
    | u ->
        Printf.printf "warning: %d target faults detected by no triplet (skipped)\n"
          (List.length u));
    if r.Flow.initial.Builder.rows_restored > 0 then
      Printf.printf "checkpoint: %d rows restored, %d rows skipped\n"
        r.Flow.initial.Builder.rows_restored r.Flow.initial.Builder.rows_skipped;
    Printf.printf "solution: %d triplets, test length %d, coverage %.2f%%\n"
      (Flow.reseedings r) r.Flow.test_length r.Flow.coverage_pct;
    if r.Flow.dropped_triplets > 0 then
      Printf.printf "warning: %d selected triplets added no coverage and were dropped\n"
        r.Flow.dropped_triplets;
    let degraded = r.Flow.degraded || atpg.Atpg.stopped_early in
    if degraded then print_degraded s ~fallback:"solver budget";
    List.iteri (fun i t -> Format.printf "  %2d: %a@." i Triplet.pp t) r.Flow.final_triplets;
    if verify then begin
      (* A degraded run may print less than 100%: the re-grade must then
         reproduce the printed figure rather than full coverage. *)
      let detected = Flow.regrade p.Suite.sim tpg r in
      let ok =
        Stats.pct (Bitvec.count detected) (max 1 (Bitvec.count targets))
        = r.Flow.coverage_pct
        && (degraded || Bitvec.subset targets detected)
      in
      Printf.printf "verification: %s\n" (if ok then "PASSED" else "FAILED");
      if not ok then exit 1
    end
  in
  Cmd.v (Cmd.info "solve" ~doc:"Compute a minimal reseeding solution (set covering flow).")
    Term.(
      const run $ circuit_arg $ scale_arg $ tpg_arg $ cycles_arg $ fault_model_arg
      $ method_arg $ verify_arg
      $ objective_arg $ deadline_arg $ jobs_arg $ store_arg $ chaos_arg $ obs_arg)

(* gatsby *)

let gatsby_cmd =
  let pop_arg = Arg.(value & opt (int_from (Ga.elite + 1)) 12 & info [ "population" ] ~docv:"P") in
  let gens_arg = Arg.(value & opt (int_from 0) 6 & info [ "generations" ] ~docv:"G") in
  let run name scale tpg_name cycles seed pop gens deadline jobs obs =
    session ~obs ~deadline ?jobs @@ fun s ->
    let c = load_circuit name ~scale in
    let p = Suite.prepare_circuit ~budget:s.budget c in
    let tpg = Batch.tpg_of_name tpg_name (Circuit.input_count c) in
    let config =
      {
        Gatsby.default_config with
        Gatsby.cycles;
        ga = { Ga.population = pop; generations = gens };
      }
    in
    let rng = Rng.create seed in
    let g =
      Gatsby.run ~config ?pool:s.pool ~budget:s.budget p.Suite.sim tpg ~rng
        ~targets:p.Suite.targets
    in
    Printf.printf "%s + %s TPG (T=%d, GA %dx%d)\n" (Circuit.name c) tpg.Tpg.name cycles pop gens;
    Printf.printf "triplets: %d, test length: %d\n"
      (List.length g.Gatsby.triplets) g.Gatsby.test_length;
    Printf.printf "coverage: %.2f%% of targets\n"
      (Stats.pct (Bitvec.count g.Gatsby.detected) (max 1 (Bitvec.count p.Suite.targets)));
    Printf.printf "fault simulations: %d, GA evaluations: %d\n" g.Gatsby.fault_sims
      g.Gatsby.ga_evaluations;
    if g.Gatsby.stopped_early || p.Suite.atpg.Reseed_atpg.Atpg.stopped_early then
      print_degraded s ~fallback:"budget"
  in
  Cmd.v (Cmd.info "gatsby" ~doc:"Run the GATSBY-style genetic baseline.")
    Term.(
      const run $ circuit_arg $ scale_arg $ tpg_arg $ cycles_arg $ seed_arg $ pop_arg
      $ gens_arg $ deadline_arg $ jobs_arg $ obs_arg)

(* tradeoff *)

let tradeoff_cmd =
  let grid_arg =
    Arg.(value & opt (list int) [ 16; 64; 256; 1024 ] & info [ "grid" ] ~docv:"T1,T2,.." ~doc:"Evolution lengths to sweep (comma-separated integers).")
  in
  let run name scale tpg_name grid jobs obs =
    session ~obs ?jobs @@ fun s ->
    if grid = [] then Error.fail Error.Usage "--grid needs at least one evolution length";
    List.iter
      (fun t -> if t < 1 then Error.fail Error.Usage "--grid: evolution length %d < 1" t)
      grid;
    let c = load_circuit name ~scale in
    let p = Suite.prepare_circuit c in
    let tpg = Batch.tpg_of_name tpg_name (Circuit.input_count c) in
    print_string (Tradeoff.render (Suite.figure2 ~grid ?pool:s.pool p tpg))
  in
  Cmd.v (Cmd.info "tradeoff" ~doc:"Sweep evolution length T: reseedings vs test length.")
    Term.(const run $ circuit_arg $ scale_arg $ tpg_arg $ grid_arg $ jobs_arg $ obs_arg)

(* batch *)

let batch_cmd =
  let manifest_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"MANIFEST" ~doc:"Campaign manifest file (circuits × TPGs × evolution lengths; see the manual).")
  in
  let report_arg =
    Arg.(value & opt string "batch_report.json" & info [ "report" ] ~docv:"FILE" ~doc:"Write the aggregated campaign report to $(docv).")
  in
  let run manifest_path report deadline jobs cache chaos obs =
    session ?chaos ~obs ~deadline ?jobs ~cache @@ fun s ->
    let m = Batch.parse_file manifest_path in
    let total = List.length m.Batch.jobs in
    Printf.printf "campaign: %d jobs%s\n%!" total
      (match s.store with
      | Some st -> Printf.sprintf " (cache: %s)" (Artifact.root st)
      | None -> "");
    (* on_done fires from worker domains; serialise progress output. *)
    let mu = Mutex.create () in
    let on_done _i (r : Batch.job_result) =
      Mutex.lock mu;
      let circuit = r.Batch.job.Batch.circuit in
      let task = Batch.task_to_string r.Batch.job.Batch.task in
      (match (r.Batch.status, r.Batch.metrics) with
      | Batch.Ok, Batch.Reseed_metrics { triplets; test_length; coverage_pct; _ } ->
          Printf.printf "  %-10s %-20s %4d triplets, length %5d, %.2f%%%s\n%!"
            circuit task triplets test_length coverage_pct
            (if r.Batch.degraded then "  [degraded]" else "")
      | ( Batch.Ok,
          Batch.Compress_metrics { entries; dictionary_bits; index_bits; raw_bits } )
        ->
          Printf.printf
            "  %-10s %-20s %4d entries, dict %5d + index %5d bits (raw %d)%s\n%!"
            circuit task entries dictionary_bits index_bits raw_bits
            (if r.Batch.degraded then "  [degraded]" else "")
      | Batch.Skipped, _ ->
          Printf.printf "  %-10s %-20s skipped (budget expired)\n%!" circuit task);
      Mutex.unlock mu
    in
    let results = Batch.run ?pool:s.pool ?store:s.store ~budget:s.budget ~on_done m in
    Artifact.write_atomic report (Batch.report_json m results);
    let ok = List.length (List.filter (fun r -> r.Batch.status = Batch.Ok) results) in
    Printf.printf "done: %d/%d jobs, report %s\n" ok total report
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Run a manifest-driven campaign: circuits × TPGs × evolution lengths in parallel, with per-job deadlines and an aggregated JSON report.  With $(b,--cache), an interrupted campaign resumes from its completed stages and reproduces the report byte-for-byte.")
    Term.(
      const run $ manifest_arg $ report_arg $ deadline_arg $ jobs_arg $ cache_arg
      $ chaos_arg $ obs_arg)

(* compress *)

let compress_cmd =
  let open Reseed_setcover in
  let source_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SOURCE" ~doc:"Corpus source: a catalog circuit or .bench file (the corpus is its deterministic ATPG test set), or any other existing file read as raw corpus text — one $(b,[01X]) test vector per line, $(b,#) comments allowed.")
  in
  let width_arg =
    Arg.(value & opt int 8 & info [ "block-width"; "w" ] ~docv:"W" ~doc:"Test-data block width in bits (1-62).  Vectors are chopped into $(docv)-bit blocks, the tail block padded with don't-cares.")
  in
  let run source scale width method_ deadline jobs cache chaos obs =
    session ?chaos ~obs ~deadline ?jobs ~cache @@ fun s ->
    if width < 1 || width > 62 then
      Error.fail Error.Usage "--block-width %d out of range (1-62)" width;
    let corpus, origin =
      if Sys.file_exists source && not (Filename.check_suffix source ".bench") then
        match Artifact.read_opt source with
        | Some text ->
            (Workload.corpus_of_text ~file:source ~width text, "raw corpus " ^ source)
        | None -> Error.fail Error.Input_error "cannot read corpus %s" source
      else begin
        let c = load_circuit source ~scale in
        let p = Suite.prepare_circuit ~budget:s.budget ?store:s.store c in
        ( Workload.corpus_of_patterns ~width p.Suite.tests,
          Printf.sprintf "ATPG test set of %s (%d patterns)" (Circuit.name c)
            (Array.length p.Suite.tests) )
      end
    in
    let r = Workload.solve ~method_ ~budget:s.budget ?store:s.store corpus in
    let stats = r.Workload.solution.Solution.stats in
    Printf.printf "corpus: %s\n" origin;
    Printf.printf "blocks: %d (%d distinct), width %d\n" r.Workload.corpus_blocks
      r.Workload.distinct_blocks corpus.Workload.width;
    Printf.printf "covering matrix: %dx%d, reduced %dx%d, necessary %d\n"
      stats.Solution.initial_rows stats.Solution.initial_cols
      stats.Solution.reduced_rows stats.Solution.reduced_cols
      (List.length stats.Solution.necessary);
    Printf.printf "dictionary: %d entries, %d bits\n"
      (List.length r.Workload.entries)
      r.Workload.dictionary_bits;
    let total = r.Workload.dictionary_bits + r.Workload.index_bits in
    Printf.printf "encoded: %d index bits, total %d bits (raw %d, ratio %.2f)\n"
      r.Workload.index_bits total r.Workload.raw_bits
      (if total = 0 then 1.0 else float_of_int r.Workload.raw_bits /. float_of_int total);
    List.iteri
      (fun i e ->
        Printf.printf "  %3d: %s\n" i
          (Workload.entry_to_string ~width:corpus.Workload.width e))
      r.Workload.entries;
    if stats.Solution.degraded then print_degraded s ~fallback:"solver budget"
  in
  Cmd.v
    (Cmd.info "compress"
       ~doc:"Code-based test-data compression: select a minimum dictionary of fully-specified words covering every ternary test-data block of the corpus, via the same covering pipeline (matrix, reduce, exact end-game) the reseeding flow uses; with $(b,--cache) its solution is one cover artifact.")
    Term.(
      const run $ source_arg $ scale_arg $ width_arg $ method_arg $ deadline_arg
      $ jobs_arg $ cache_arg $ chaos_arg $ obs_arg)

(* fullscan *)

let fullscan_cmd =
  let in_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Sequential .bench file.")
  in
  let out_arg =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output combinational-core .bench path.")
  in
  let run input out =
    guard @@ fun () ->
    let core, dffs = Bench_io.parse_file_full_scan input in
    Bench_io.write_file out core;
    Printf.printf "converted %d flip-flops; wrote %s (%s)\n" dffs out
      (Circuit.stats_line core)
  in
  Cmd.v
    (Cmd.info "fullscan"
       ~doc:"Extract the full-scan combinational core of a sequential .bench circuit.")
    Term.(const run $ in_arg $ out_arg)

(* gen *)

let gen_cmd =
  let out_arg =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output .bench path.")
  in
  let run name scale out =
    guard @@ fun () ->
    let c = load_circuit name ~scale in
    Bench_io.write_file out c;
    Printf.printf "wrote %s (%s)\n" out (Circuit.stats_line c)
  in
  Cmd.v (Cmd.info "gen" ~doc:"Emit a catalog circuit as an ISCAS .bench file.")
    Term.(const run $ circuit_arg $ scale_arg $ out_arg)

(* chaos — crash-consistency harness.

   Sweeps every registered faultpoint × a set of fault kinds, each leg a
   child [reseed solve] process with a one-shot injection ([@1]) into a
   fresh artifact store — for [artifact.read], a store a clean run has
   filled, so that the injection has a blob to strike.  A leg passes
   when the run either
   - exits 0 with output byte-identical to a clean reference run
     (the fault healed or cost a cache miss) — a leg whose child
     injected nothing (its [chaos_injected] metric reads 0) is [not
     reached] and counted apart — or
   - exits with a documented failure code (the fault surfaced as a
     diagnostic, never a wrong answer; 70, a bug, is not one), or
   - aborts at the crashpoint (exit 66) and a chaos-free rerun against
     the same store then reproduces the reference exactly (crash
     consistency: finished stages and matrix shards are resumable). *)

let chaos_cmd =
  let circuit_arg =
    Arg.(value & pos 0 string "c432" & info [] ~docv:"CIRCUIT" ~doc:"Circuit the harness sweeps (catalog name or .bench file).")
  in
  let kinds_arg =
    Arg.(value & opt (list (named Faultpoint.all_kinds Faultpoint.kind_name)) Faultpoint.[ Eio; Enospc; Torn; Flip; Fail; Abort ] & info [ "kinds" ] ~docv:"K1,K2,.." ~doc:"Fault kinds to sweep (default: all but latency).")
  in
  let rec rm_rf path =
    match Unix.lstat path with
    | exception Unix.Unix_error _ -> ()
    | { Unix.st_kind = Unix.S_DIR; _ } ->
        Array.iter
          (fun n -> rm_rf (Filename.concat path n))
          (try Sys.readdir path with Sys_error _ -> [||]);
        (try Unix.rmdir path with Unix.Unix_error _ -> ())
    | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  in
  (* The child must not inherit the harness's own schedule: injection
     reaches it only through an explicit --chaos. *)
  let child_env () =
    Array.of_list
      (List.filter
         (fun s -> not (String.starts_with ~prefix:"RESEED_CHAOS=" s))
         (Array.to_list (Unix.environment ())))
  in
  let run_child args ~out_file =
    let fd = Unix.openfile out_file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    let pid =
      Unix.create_process_env Sys.executable_name
        (Array.of_list (Sys.executable_name :: args))
        (child_env ()) Unix.stdin fd Unix.stderr
    in
    Unix.close fd;
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> 128 + s
  in
  (* Cache and shard-restore statistics legitimately differ between cold,
     faulted and resumed runs; everything else must be byte-identical. *)
  let filtered_output file =
    In_channel.with_open_bin file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l ->
           not
             (String.starts_with ~prefix:"cache:" l
             || String.starts_with ~prefix:"checkpoint:" l))
    |> String.concat "\n"
  in
  let run circuit seed kinds jobs =
    guard @@ fun () ->
    Faultpoint.disable ();
    let jobs = Option.value jobs ~default:2 in
    let root =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "reseed-chaos-%d" (Unix.getpid ()))
    in
    rm_rf root;
    Artifact.mkdir_p root;
    (* At exit, not in a [finally]: a failed sweep leaves through [exit 1]. *)
    at_exit (fun () -> rm_rf root);
    let n = ref 0 in
    let fresh_leg () =
      incr n;
      let dir = Filename.concat root (Printf.sprintf "leg-%03d" !n) in
      Artifact.mkdir_p dir;
      (Filename.concat dir "store", Filename.concat dir "out")
    in
    let solve_args ~store chaos =
      [ "solve"; circuit; "--jobs"; string_of_int jobs; "--cache"; store ]
      @ (match chaos with Some s -> [ "--chaos"; s ] | None -> [])
    in
    (* Whether the child injected: its --metrics file holds a nonzero
       [chaos_injected] counter. *)
    let injected metrics =
      let prefix = "\"chaos_injected\": " in
      match In_channel.with_open_bin metrics In_channel.input_lines with
      | exception Sys_error _ -> false
      | lines ->
          List.exists
            (fun l ->
              let l = String.trim l in
              String.starts_with ~prefix l
              && not (String.starts_with ~prefix:(prefix ^ "0") l))
            lines
    in
    let reference =
      let store, out = fresh_leg () in
      let code = run_child (solve_args ~store None) ~out_file:out in
      if code <> 0 then
        Error.fail Error.Internal "chaos: clean reference run exited %d" code;
      filtered_output out
    in
    let documented =
      List.map Error.exit_code
        Error.[ Usage; Input_error; Infeasible; Task_failed; Interrupted ]
    in
    let passed = ref 0 and failures = ref 0 and unreached = ref 0 in
    let leg point kind =
      let spec =
        Printf.sprintf "%d:%s=%s@1" seed point (Faultpoint.kind_name kind)
      in
      let store, out = fresh_leg () in
      if point = "artifact.read" then
        ignore (run_child (solve_args ~store None) ~out_file:out);
      let metrics = Filename.concat (Filename.dirname out) "metrics.json" in
      let code =
        run_child (solve_args ~store (Some spec) @ [ "--metrics"; metrics ]) ~out_file:out
      in
      let verdict, detail =
        if code = 0 then
          if filtered_output out <> reference then (`Fail, "exit 0 but output diverged")
          else if injected metrics then (`Ok, "healed, output identical")
          else (`Unreached, "not reached")
        else if code = Faultpoint.abort_exit_code then begin
          let _, out2 = fresh_leg () in
          let rcode = run_child (solve_args ~store None) ~out_file:out2 in
          if rcode = 0 && filtered_output out2 = reference then
            (`Ok, "aborted, resume identical")
          else (`Fail, Printf.sprintf "aborted, resume exit %d/diverged" rcode)
        end
        else if List.mem code documented then
          (`Ok, Printf.sprintf "documented failure (exit %d)" code)
        else (`Fail, Printf.sprintf "undocumented exit %d" code)
      in
      (match verdict with
      | `Ok -> incr passed
      | `Fail -> incr failures
      | `Unreached -> incr unreached);
      Printf.printf "  %-20s %-8s %-4s %s\n%!" point (Faultpoint.kind_name kind)
        (match verdict with `Ok -> "ok" | `Fail -> "FAIL" | `Unreached -> "--")
        detail
    in
    let points = Faultpoint.all () in
    Printf.printf "chaos: %s, seed %d, %d jobs, %d points x %d kinds\n%!" circuit
      seed jobs (List.length points) (List.length kinds);
    List.iter (fun p -> List.iter (leg p) kinds) points;
    if !failures > 0 then begin
      Printf.printf "chaos: %d leg(s) FAILED\n" !failures;
      exit 1
    end
    else
      Printf.printf "chaos: all %d reached legs passed, %d not reached\n" !passed
        !unreached
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Crash-consistency harness: inject one fault per registered faultpoint into child solve runs and check the solution is byte-identical, a documented failure, or resumable after an abort.")
    Term.(const run $ circuit_arg $ seed_arg $ kinds_arg $ jobs_arg)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info_ = Cmd.info "reseed" ~version:"1.0.0" ~doc:"Set-covering reseeding for Functional BIST (DATE 2001 reproduction)." in
  let code =
    Cmd.eval
      (Cmd.group ~default info_
         [
           info_cmd;
           atpg_cmd;
           solve_cmd;
           gatsby_cmd;
           tradeoff_cmd;
           batch_cmd;
           compress_cmd;
           fullscan_cmd;
           gen_cmd;
           chaos_cmd;
         ])
  in
  (* Cmdliner reports CLI parse errors as 124; the documented usage code
     is 2 (see Reseed_util.Error). *)
  exit (if code = 124 then Error.exit_code Error.Usage else code)

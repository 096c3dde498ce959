open Reseed_fault
open Reseed_netlist
open Reseed_setcover
open Reseed_tpg
open Reseed_util

type task =
  | Reseed of { tpg : string; cycles : int; fault_model : Fault_model.t }
  | Compress of { width : int }

type job = { circuit : string; task : task }

type manifest = {
  method_ : Solution.method_;
  objective : Flow.objective;
  scale : int;
  job_deadline : float option;
  fault_model : Fault_model.t;
  jobs : job list;
}

let job_model j =
  match j.task with
  | Reseed r -> r.fault_model
  (* The compression corpus is the stuck-at ATPG test set. *)
  | Compress _ -> Fault_model.Stuck_at

let task_to_string = function
  | Reseed { tpg; cycles; fault_model } ->
      let tag =
        match fault_model with
        | Fault_model.Stuck_at -> ""
        | m -> Printf.sprintf " [%s]" (Fault_model.name m)
      in
      Printf.sprintf "%s T=%d%s" tpg cycles tag
  | Compress { width } -> Printf.sprintf "compress w=%d" width

let tpg_makers =
  [
    ("adder", Accumulator.adder);
    ("subtracter", Accumulator.subtracter);
    ("multiplier", Accumulator.multiplier);
    ("mp-lfsr", Lfsr.multi_polynomial);
  ]

let tpg_names = List.map fst tpg_makers

let tpg_of_name name width =
  match List.assoc_opt name tpg_makers with
  | Some make -> make width
  | None -> Error.fail Error.Input_error "unknown TPG %S" name

(* --- manifest parsing ------------------------------------------------ *)

let trim = String.trim

let split_list s =
  String.split_on_char ',' s |> List.map trim |> List.filter (fun x -> x <> "")

let parse_string ?(path = "<manifest>") text =
  let fail_line line fmt = Error.fail ~file:path ~line Error.Input_error fmt in
  let circuits = ref [] and tpgs = ref [] and cycles = ref [] in
  let method_ = ref Solution.Exact and objective = ref Flow.Min_triplets in
  let scale = ref 1 and job_deadline = ref None in
  let fault_model = ref Fault_model.Stuck_at in
  let explicit = ref [] in
  let check_tpg line name =
    if not (List.mem name tpg_names) then
      fail_line line "unknown TPG %S (expected %s)" name (String.concat ", " tpg_names)
  in
  (* [Library.spec_of] accepts catalog and [_xN] names alike, so an
     unknown circuit fails here, with its line, not at run time. *)
  let check_circuit line name =
    match Library.spec_of name with
    | _ -> ()
    | exception Error.Reseed_error e -> fail_line line "%s" e.Error.message
  in
  let parse_cycles line s =
    match int_of_string_opt s with
    | Some c when c >= 1 -> c
    | _ -> fail_line line "bad evolution length %S (positive integer expected)" s
  in
  let alts all name = String.concat "|" (List.map name all) in
  let parse_model line s =
    match Fault_model.of_string s with
    | Some m -> m
    | None ->
        fail_line line "unknown fault model %S (%s)" s
          (alts Fault_model.all Fault_model.name)
  in
  let parse_enum what all name line s =
    match List.find_opt (fun v -> name v = s) all with
    | Some v -> v
    | None -> fail_line line "unknown %s %S (%s)" what s (alts all name)
  in
  List.iteri
    (fun i raw ->
      let line = i + 1 in
      let s =
        match String.index_opt raw '#' with
        | Some k -> trim (String.sub raw 0 k)
        | None -> trim raw
      in
      if s <> "" then
        match String.index_opt s '=' with
        | Some k ->
            let key = trim (String.sub s 0 k) in
            let v = trim (String.sub s (k + 1) (String.length s - k - 1)) in
            if v = "" then fail_line line "empty value for %S" key;
            (match key with
            | "circuits" ->
                let l = split_list v in
                List.iter (check_circuit line) l;
                circuits := l
            | "tpgs" ->
                let l = split_list v in
                List.iter (check_tpg line) l;
                tpgs := l
            | "cycles" -> cycles := List.map (parse_cycles line) (split_list v)
            | "method" ->
                method_ := parse_enum "method" Solution.methods Solution.method_name line v
            | "objective" ->
                objective := parse_enum "objective" Flow.objectives Flow.objective_name line v
            | "scale" -> (
                match int_of_string_opt v with
                | Some n when n >= 1 -> scale := n
                | _ -> fail_line line "bad scale %S (positive integer expected)" v)
            | "job_deadline" -> (
                match float_of_string_opt v with
                | Some d when d > 0. -> job_deadline := Some d
                | _ -> fail_line line "bad job_deadline %S (positive seconds expected)" v)
            | "fault_model" -> fault_model := parse_model line v
            | _ -> fail_line line "unknown manifest key %S" key)
        | None -> (
            match String.split_on_char ' ' s |> List.filter (fun x -> x <> "") with
            | [ "job"; circuit; tpg; cy ] ->
                check_circuit line circuit;
                check_tpg line tpg;
                explicit :=
                  {
                    circuit;
                    task =
                      Reseed
                        {
                          tpg;
                          cycles = parse_cycles line cy;
                          fault_model = !fault_model;
                        };
                  }
                  :: !explicit
            | [ "job"; circuit; tpg; cy; model ] ->
                check_circuit line circuit;
                check_tpg line tpg;
                explicit :=
                  {
                    circuit;
                    task =
                      Reseed
                        {
                          tpg;
                          cycles = parse_cycles line cy;
                          fault_model = parse_model line model;
                        };
                  }
                  :: !explicit
            | "job" :: _ ->
                fail_line line "job line wants: job CIRCUIT TPG CYCLES [FAULT_MODEL]"
            | [ "compress"; circuit; w ] -> (
                match int_of_string_opt w with
                | Some width when width >= 1 && width <= 62 ->
                    check_circuit line circuit;
                    explicit := { circuit; task = Compress { width } } :: !explicit
                | _ -> fail_line line "bad block width %S (integer 1-62 expected)" w)
            | "compress" :: _ -> fail_line line "compress line wants: compress CIRCUIT WIDTH"
            | w :: _ :: _ ->
                fail_line line
                  "unknown workload %S (job or compress line expected)" w
            | _ -> fail_line line "cannot parse %S (KEY = VALUE or job line expected)" s))
    (String.split_on_char '\n' text);
  let product =
    List.concat_map
      (fun circuit ->
        List.concat_map
          (fun tpg ->
            List.map
              (fun cycles ->
                { circuit; task = Reseed { tpg; cycles; fault_model = !fault_model } })
              !cycles)
          !tpgs)
      !circuits
  in
  let jobs = product @ List.rev !explicit in
  if jobs = [] then
    Error.fail ~file:path Error.Input_error
      "manifest defines no jobs (need circuits+tpgs+cycles, or job lines)";
  {
    method_ = !method_;
    objective = !objective;
    scale = !scale;
    job_deadline = !job_deadline;
    fault_model = !fault_model;
    jobs;
  }

let parse_file path =
  match Artifact.read_opt path with
  | Some text -> parse_string ~path text
  | None -> Error.fail Error.Input_error "cannot read manifest %s" path

(* --- campaign execution --------------------------------------------- *)

type status = Ok | Skipped

type metrics =
  | Reseed_metrics of {
      triplets : int;
      test_length : int;
      rom_bits : int;
      coverage_pct : float;
    }
  | Compress_metrics of {
      entries : int;
      dictionary_bits : int;
      index_bits : int;
      raw_bits : int;
    }

type job_result = { job : job; status : status; metrics : metrics; degraded : bool }

let m_completed =
  Metrics.counter ~help:"batch jobs completed" "batch_jobs_completed"

let m_skipped =
  Metrics.counter ~help:"batch jobs skipped (campaign budget expired)"
    "batch_jobs_skipped"

(* Chaos schedules can fail or stall whole campaign jobs here; the pool
   then re-runs the job once, exercising idempotent job
   re-execution against the shared prepared workloads. *)
let fp_job = Faultpoint.register "batch.job"

let skipped_result job =
  let metrics =
    match job.task with
    | Reseed _ ->
        Reseed_metrics
          { triplets = 0; test_length = 0; rom_bits = 0; coverage_pct = 0. }
    | Compress _ ->
        Compress_metrics
          { entries = 0; dictionary_bits = 0; index_bits = 0; raw_bits = 0 }
  in
  { job; status = Skipped; metrics; degraded = true }

let run ?pool ?store ?budget ?on_done manifest =
  Trace.with_span "batch.run"
    ~args:[ ("jobs", string_of_int (List.length manifest.jobs)) ]
  @@ fun () ->
  let jobs = Array.of_list manifest.jobs in
  (* Distinct (circuit, fault model) pairs prepare once, sequentially:
     the ATPG front-end is itself parallel inside, and each prepared
     workload is then shared read-only by every job on it.  A stuck-at
     and a transition job on the same circuit are different workloads —
     different fault list, different test set. *)
  let prepared : (string * string, Suite.prepared) Hashtbl.t = Hashtbl.create 8 in
  let prep_key j = (j.circuit, Fault_model.name (job_model j)) in
  Array.iter
    (fun j ->
      let key = prep_key j in
      if not (Hashtbl.mem prepared key) then
        Hashtbl.replace prepared key
          (Suite.prepare ~scale_factor:manifest.scale ~fault_model:(job_model j)
             ?budget ?store j.circuit))
    jobs;
  let results = Array.map skipped_result jobs in
  let pool = match pool with Some p -> p | None -> Pool.default () in
  Pool.parallel_for ~pool ~label:"batch jobs" ~total:(Array.length jobs)
    (fun ~worker:_ i ->
      let job = jobs.(i) in
      Faultpoint.hit fp_job;
      if Budget.check budget then Metrics.incr m_skipped
      else begin
        let job_budget =
          match (budget, manifest.job_deadline) with
          | Some g, Some d -> Some (Budget.sub ~deadline_s:d g)
          | Some g, None -> Some g
          | None, Some d -> Some (Budget.create ~deadline_s:d ())
          | None, None -> None
        in
        let p = Hashtbl.find prepared (prep_key job) in
        (match job.task with
        | Reseed { tpg = tpg_name; cycles; fault_model = _ } ->
            (* Concurrent jobs on one circuit must not share the
               prepared simulator's scratch state. *)
            let sim = Fault_sim.copy p.Suite.sim in
            let tpg = tpg_of_name tpg_name (Circuit.input_count p.Suite.circuit) in
            let config =
              {
                Flow.default_config with
                Flow.builder = { Builder.default_config with Builder.cycles };
                method_ = manifest.method_;
                objective = manifest.objective;
              }
            in
            let r =
              Flow.run ~config ?budget:job_budget ?store:p.Suite.store
                ~fingerprint:p.Suite.fingerprint sim tpg ~tests:p.Suite.tests
                ~targets:p.Suite.targets
            in
            results.(i) <-
              {
                job;
                status = Ok;
                metrics =
                  Reseed_metrics
                    {
                      triplets = Flow.reseedings r;
                      test_length = r.Flow.test_length;
                      rom_bits =
                        List.fold_left
                          (fun acc t -> acc + Triplet.storage_bits t)
                          0 r.Flow.final_triplets;
                      coverage_pct = r.Flow.coverage_pct;
                    };
                degraded =
                  r.Flow.degraded || p.Suite.atpg.Reseed_atpg.Atpg.stopped_early;
              }
        | Compress { width } ->
            let corpus = Workload.corpus_of_patterns ~width p.Suite.tests in
            let c =
              Workload.solve ~method_:manifest.method_ ?budget:job_budget
                ?store:p.Suite.store corpus
            in
            results.(i) <-
              {
                job;
                status = Ok;
                metrics =
                  Compress_metrics
                    {
                      entries = List.length c.Workload.entries;
                      dictionary_bits = c.Workload.dictionary_bits;
                      index_bits = c.Workload.index_bits;
                      raw_bits = c.Workload.raw_bits;
                    };
                degraded =
                  c.Workload.solution.Solution.stats.Solution.degraded
                  || p.Suite.atpg.Reseed_atpg.Atpg.stopped_early;
              });
        Metrics.incr m_completed
      end;
      Option.iter (fun f -> f i results.(i)) on_done);
  Array.to_list results

(* --- report ---------------------------------------------------------- *)

let status_name = function Ok -> "ok" | Skipped -> "skipped"

(* No timings, host names or cache statistics in the report: a warm
   resume must reproduce the cold report byte for byte. *)
let report_json manifest results =
  let b = Buffer.create 1024 in
  let count f = List.length (List.filter f results) in
  Buffer.add_string b "{\n  \"method\": ";
  Buffer.add_string b (Printf.sprintf "%S" (Solution.method_name manifest.method_));
  Buffer.add_string b
    (Printf.sprintf ",\n  \"objective\": %S" (Flow.objective_name manifest.objective));
  Buffer.add_string b (Printf.sprintf ",\n  \"scale\": %d" manifest.scale);
  Buffer.add_string b ",\n  \"jobs\": [";
  List.iteri
    (fun i r ->
      Buffer.add_string b (if i = 0 then "\n" else ",\n");
      (* Stuck-at reseeding jobs keep the historical line format exactly;
         the fault_model field appears only for other models, so a
         stuck-at-only report is byte-identical to older releases. *)
      match (r.job.task, r.metrics) with
      | Reseed { tpg; cycles; fault_model }, Reseed_metrics m ->
          let model_field =
            match fault_model with
            | Fault_model.Stuck_at -> ""
            | fm -> Printf.sprintf "\"fault_model\": %S, " (Fault_model.name fm)
          in
          Buffer.add_string b
            (Printf.sprintf
               "    { \"circuit\": %S, \"tpg\": %S, \"cycles\": %d, %s\"status\": \
                %S, \"triplets\": %d, \"test_length\": %d, \"rom_bits\": %d, \
                \"coverage_pct\": %.4f, \"degraded\": %b }"
               r.job.circuit tpg cycles model_field (status_name r.status)
               m.triplets m.test_length m.rom_bits m.coverage_pct r.degraded)
      | Compress { width }, Compress_metrics m ->
          Buffer.add_string b
            (Printf.sprintf
               "    { \"circuit\": %S, \"task\": \"compress\", \"width\": %d, \
                \"status\": %S, \"entries\": %d, \"dictionary_bits\": %d, \
                \"index_bits\": %d, \"raw_bits\": %d, \"degraded\": %b }"
               r.job.circuit width (status_name r.status) m.entries
               m.dictionary_bits m.index_bits m.raw_bits r.degraded)
      | _ -> assert false)
    results;
  Buffer.add_string b "\n  ],\n";
  Buffer.add_string b
    (Printf.sprintf
       "  \"summary\": { \"total\": %d, \"ok\": %d, \"skipped\": %d, \"degraded\": \
        %d }\n"
       (List.length results)
       (count (fun r -> r.status = Ok))
       (count (fun r -> r.status = Skipped))
       (count (fun r -> r.degraded)));
  Buffer.add_string b "}\n";
  Buffer.contents b

(* End-to-end metric definitions, the result-file schema, and the
   [compare] rule between two result files. *)

type better = Lower | Higher

type spec = {
  name : string;
  unit_ : string;
  better : better;
  bound : float;
      (** largest relative worsening of the median that still passes *)
  exact : bool;  (** any change at all fails [compare] *)
}

(* The end-to-end metrics.  BENCHMARK.json lists the ones that are never
   0 and whose spread over workload seeds fits a bound: [triplets] and
   [test_length] move by several percent from seed to seed, and
   [fault_sims] and [fail_ratio] read 0 on some workloads.  Result files
   and [compare] keep all of them; [compare] runs one seed, where these
   counts repeat exactly. *)
let end_to_end =
  let m ?(exact = false) name unit_ better bound = { name; unit_; better; bound; exact } in
  [
    m "setup_s" "s" Lower 0.25;
    m "wall_s" "s" Lower 0.25;
    m "peak_rss_mb" "MB" Lower 0.20;
    m ~exact:true "triplets" "count" Lower 0.;
    m "test_length" "cycles" Lower 0.05;
    m "fault_sims" "count" Lower 0.01;
    m ~exact:true "coverage_pct" "%" Higher 0.;
    m ~exact:true "fail_ratio" "ratio" Lower 0.;
  ]

let in_benchmark_json s =
  not (List.mem s.name [ "triplets"; "test_length"; "fault_sims"; "fail_ratio" ])

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)]
   (the default "exclusive" method) computes them. *)
let quartiles xs =
  let d = Array.of_list (List.sort Float.compare xs) in
  let ld = Array.length d in
  if ld = 0 then invalid_arg "Summary.quartiles: no samples";
  if ld = 1 then (d.(0), d.(0), d.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

type stat = { median : float; p25 : float; p75 : float; n : int; samples : float list }

let stat samples =
  let p25, median, p75 = quartiles samples in
  { median; p25; p75; n = List.length samples; samples }

let spread s = if s.median = 0. then 0. else (s.p75 -. s.p25) /. Float.abs s.median

(* Every end-to-end metric of one workload run, as sample lists: times
   per setup / repetition, the rest once per repetition. *)
let samples (r : Harness.result) =
  let per_rep v = List.map (fun _ -> v) r.Harness.walls in
  let t = r.Harness.totals in
  [
    ("setup_s", r.Harness.setup_s);
    ("wall_s", r.Harness.walls);
    ("peak_rss_mb", [ r.Harness.peak_rss_mb ]);
    ("triplets", per_rep (float_of_int t.Harness.triplets));
    ("test_length", per_rep (float_of_int t.Harness.test_length));
    ("fault_sims", per_rep (float_of_int t.Harness.fault_sims));
    ("coverage_pct", per_rep t.Harness.coverage_pct);
    ( "fail_ratio",
      [ float_of_int r.Harness.failed /. float_of_int (max 1 r.Harness.attempted) ] );
  ]

let stats r = List.map (fun (k, xs) -> (k, stat xs)) (samples r)

let unit_of name =
  match List.find_opt (fun s -> s.name = name) end_to_end with
  | Some s -> s.unit_
  | None -> ""

open Json

let num f = Num f

let to_json (r : Harness.result) =
  Obj
    [
      ("workload", Str r.Harness.workload);
      ("seed", num (float_of_int r.Harness.seed));
      ("jobs", num (float_of_int r.Harness.jobs));
      ("correct", Bool (r.Harness.failed = 0));
      ("attempted", num (float_of_int r.Harness.attempted));
      ("failed", num (float_of_int r.Harness.failed));
      ("failures", Arr (List.map (fun s -> Str s) r.Harness.failures));
      ( "end_to_end",
        Obj
          (List.map
             (fun (k, s) ->
               ( k,
                 Obj
                   [
                     ("unit", Str (unit_of k));
                     ("median", num s.median);
                     ("p25", num s.p25);
                     ("p75", num s.p75);
                     ("n", num (float_of_int s.n));
                     ("samples", Arr (List.map num s.samples));
                   ] ))
             (stats r)) );
      ( "per_layer",
        Obj
          (List.map
             (fun (k, u, v) -> (k, Obj [ ("unit", Str u); ("value", num v) ]))
             r.Harness.per_layer) );
      ( "spans",
        Obj
          (List.map
             (fun (k, (n, total, self)) ->
               ( k,
                 Obj
                   [
                     ("count", num (float_of_int n));
                     ("total_s", num total);
                     ("self_s", num self);
                   ] ))
             r.Harness.spans) );
    ]

(* ------------------------------------------------------------------ *)
(* compare *)

type status = Improved | Unchanged | Unresolved | Regressed | Changed

let status_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"
  | Regressed -> "REGRESSED"
  | Changed -> "CHANGED"

let failing = function Regressed | Changed -> true | _ -> false

type row = {
  workload : string;
  metric : spec;
  old_s : stat;
  new_s : stat;
  status : status;
}

(* The rule.  Exact metrics fail on any change.  Otherwise a median worse
   by more than the bound is a regression.  A spread (either side's
   interquartile range over its median) wider than the bound leaves the
   metric unresolved, unless every new sample beats every old one.  An
   improvement must exceed the old side's own spread, which takes at
   least three samples a side to estimate. *)
let judge spec old_s new_s =
  let rel d =
    if old_s.median <> 0. then d /. Float.abs old_s.median
    else if d = 0. then 0.
    else Float.infinity
  in
  let worse =
    match spec.better with
    | Lower -> rel (new_s.median -. old_s.median)
    | Higher -> rel (old_s.median -. new_s.median)
  in
  let all_better () =
    let beats a b = match spec.better with Lower -> a < b | Higher -> a > b in
    List.for_all (fun n -> List.for_all (fun o -> beats n o) old_s.samples) new_s.samples
  in
  if spec.exact then if new_s.median = old_s.median then Unchanged else Changed
  else if worse > spec.bound then Regressed
  else if Float.max (spread old_s) (spread new_s) > spec.bound then
    if all_better () then Improved else Unresolved
  else if worse < 0. && -.worse > spread old_s && old_s.n >= 3 && new_s.n >= 3 then Improved
  else Unchanged

let parse_stat j =
  let f k = Option.value (Option.bind (member k j) to_num) ~default:Float.nan in
  {
    median = f "median";
    p25 = f "p25";
    p75 = f "p75";
    n = int_of_float (f "n");
    samples = List.filter_map to_num (to_list (Option.value (member "samples" j) ~default:Null));
  }

let workloads_of file =
  List.filter_map
    (fun w ->
      Option.map (fun name -> (name, w)) (Option.bind (member "workload" w) to_str))
    (to_list (Option.value (member "workloads" file) ~default:Null))

(* Rows for every workload × metric present on both sides; a workload or
   metric missing from one side is reported separately. *)
let compare_files old_file new_file =
  let olds = workloads_of old_file and news = workloads_of new_file in
  let missing = ref [] in
  let rows =
    List.concat_map
      (fun (name, ow) ->
        match List.assoc_opt name news with
        | None ->
            missing := (name ^ ": missing from NEW") :: !missing;
            []
        | Some nw ->
            List.filter_map
              (fun spec ->
                let get w =
                  Option.bind (member "end_to_end" w) (fun e -> member spec.name e)
                in
                match (get ow, get nw) with
                | Some o, Some n ->
                    let old_s = parse_stat o and new_s = parse_stat n in
                    let status = judge spec old_s new_s in
                    Some { workload = name; metric = spec; old_s; new_s; status }
                | _ ->
                    missing := (name ^ "." ^ spec.name ^ ": missing") :: !missing;
                    None)
              end_to_end)
      olds
  in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name olds) then missing := (name ^ ": missing from OLD") :: !missing)
    news;
  (rows, List.rev !missing)

let render rows =
  let t =
    Reseed_util.Table.create ~title:"bench compare (OLD -> NEW; median [p25, p75])"
      Reseed_util.Table.
        [
          ("workload", Left);
          ("metric", Left);
          ("unit", Left);
          ("OLD", Right);
          ("NEW", Right);
          ("median change", Right);
          ("bound", Right);
          ("status", Left);
        ]
  in
  let fmt v =
    if Float.is_integer v && Float.abs v < 1e12 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.4g" v
  in
  let cell s = Printf.sprintf "%s [%s, %s] n=%d" (fmt s.median) (fmt s.p25) (fmt s.p75) s.n in
  List.iter
    (fun r ->
      Reseed_util.Table.add_row t
        [
          r.workload;
          r.metric.name;
          r.metric.unit_;
          cell r.old_s;
          cell r.new_s;
          (let o = r.old_s.median and n = r.new_s.median in
           if o = n then "0"
           else if o = 0. then "n/a"
           else Printf.sprintf "%+.2f%%" (100. *. (n -. o) /. Float.abs o));
          (if r.metric.exact then "exact" else Printf.sprintf "%.0f%%" (100. *. r.metric.bound));
          status_name r.status;
        ])
    rows;
  Reseed_util.Table.render t

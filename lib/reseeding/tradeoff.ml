open Reseed_fault
open Reseed_util

type point = { cycles : int; triplets : int; test_length : int }

(* A T-cycle burst is a prefix of the 2T-cycle burst from the same
   triplet (the TPG just clocks on), and matrix rows are simulated
   independently with the full target mask active.  So one sweep at
   T_max = max(grid) yields, per row, the first-detection index of every
   fault — and the detection matrix for any shorter T is exactly the
   thresholding "first < T" of those indices.  The whole grid costs at
   most one matrix build instead of |grid|. *)
let sweep ?pool ?store ?fingerprint sim tpg ~tests ~targets ~grid =
  let grid = Array.of_list (List.sort compare grid) in
  Array.iter
    (fun cycles ->
      if cycles < 1 then invalid_arg "Tradeoff.sweep: cycles must be >= 1")
    grid;
  if Array.length grid = 0 then []
  else begin
    Trace.with_span "tradeoff.sweep"
      ~args:[ ("points", string_of_int (Array.length grid)) ]
    @@ fun () ->
    if Bitvec.length targets <> Fault_sim.fault_count sim then
      invalid_arg "Tradeoff.sweep: target mask size";
    let builder = Flow.default_config.Flow.builder in
    let config_at cycles =
      { Flow.default_config with Flow.builder = { builder with Builder.cycles } }
    in
    let pool = match pool with Some p -> p | None -> Pool.default () in
    let shard = Fault_sim.shard sim (Pool.jobs pool) in
    (* Forced by the first point the store misses, on this domain. *)
    let firsts =
      lazy
        (let t_max = grid.(Array.length grid - 1) in
         let triplets =
           Builder.make_triplets ~config:{ builder with Builder.cycles = t_max } tpg tests
         in
         let n = Array.length triplets in
         Trace.with_span "tradeoff.firsts" ~args:[ ("rows", string_of_int n) ]
         @@ fun () ->
         let nf = Fault_sim.fault_count sim in
         let firsts = Array.init n (fun _ -> Array.make nf max_int) in
         Builder.simulate_rows ~pool shard tpg triplets ~targets ~lo:0 ~hi:n
           ~found:(fun i fi p -> firsts.(i).(fi) <- p)
           ignore;
         firsts)
    in
    (* Each point's matrix is the plain matrix stage at its own T, so it
       and its reduce/solve/truncate artifacts are shared with standalone
       runs at the same evolution length.  All are resolved here, before
       the covering halves run in parallel. *)
    let prebuilt =
      Array.map
        (fun cycles ->
          let config = config_at cycles in
          let fingerprint =
            Builder.fingerprint ?salt:fingerprint ~fault_model:(Fault_sim.model sim)
              ~tests ~targets tpg ~config:config.Flow.builder
          in
          ( config,
            fingerprint,
            Builder.threshold ?store ~fingerprint ~config:config.Flow.builder ~tests
              ~targets tpg firsts ))
        grid
    in
    let points = Array.make (Array.length grid) None in
    Pool.parallel_for ~pool ~total:(Array.length grid) (fun ~worker gi ->
        let cycles = grid.(gi) in
        Trace.with_span "tradeoff.point" ~args:[ ("cycles", string_of_int cycles) ]
        @@ fun () ->
        let config, fingerprint, initial = prebuilt.(gi) in
        let r =
          Flow.run_prebuilt ~config ?store ~fingerprint shard.(worker) tpg ~initial
            ~targets
        in
        points.(gi) <-
          Some
            { cycles; triplets = Flow.reseedings r; test_length = r.Flow.test_length });
    Fault_sim.merge_sims ~into:sim shard;
    Array.to_list (Array.map (function Some p -> p | None -> assert false) points)
  end

let default_grid ~max_cycles =
  if max_cycles < 1 then invalid_arg "Tradeoff.default_grid: max_cycles must be >= 1"
  else if max_cycles < 8 then [ max_cycles ]
  else
    let rec go c acc = if c > max_cycles then List.rev acc else go (c * 2) (c :: acc) in
    go 8 []

let render points =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "Trade-off: reseedings vs test length\n";
  let max_triplets = List.fold_left (fun m p -> max m p.triplets) 0 points in
  List.iter
    (fun p ->
      (* Degenerate series — all-zero or negative counts — draw an empty
         bar rather than tripping String.make. *)
      let bar =
        if p.triplets <= 0 || max_triplets <= 0 then ""
        else String.make (max 1 (p.triplets * 40 / max_triplets)) '#'
      in
      Buffer.add_string buf
        (Printf.sprintf "T=%5d | %-40s %3d triplets, test length %6d\n" p.cycles bar
           p.triplets p.test_length))
    points;
  Buffer.contents buf

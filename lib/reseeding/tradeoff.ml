open Reseed_fault
open Reseed_setcover
open Reseed_tpg
open Reseed_util

type point = { cycles : int; triplets : int; test_length : int }

(* A T-cycle burst is a prefix of the 2T-cycle burst from the same
   triplet (the TPG just clocks on), and matrix rows are simulated
   independently with the full target mask active.  So one sweep at
   T_max = max(grid) yields, per row, the first-detection index of every
   fault — and the detection matrix for any shorter T is exactly the
   thresholding "first < T" of those indices.  The whole grid costs one
   matrix build instead of |grid|. *)

let sweep_fingerprint ?salt ?(fault_model = Fault_model.Stuck_at) ~tests ~targets
    ~builder ~t_max tpg =
  let open Fingerprint in
  let h = salted "sweep" in
  let h = option int64 h salt in
  let h = string h ("workload:faults:" ^ Fault_model.name fault_model) in
  let h = int h t_max in
  let h = int h builder.Builder.seed in
  let h = string h (Builder.operand_tag builder.Builder.operand_mode) in
  let h = string h tpg.Tpg.name in
  let h = int h tpg.Tpg.width in
  let h = bitvec h targets in
  patterns h tests

(* firsts.(i).(f) is the first burst index at which row i's T_max burst
   detects fault f, if any; stored as first+1, or 0 for none, so the
   codec stays non-negative. *)
let encode_firsts firsts =
  let n = Array.length firsts in
  let nf = if n = 0 then 0 else Array.length firsts.(0) in
  let b = Buffer.create (8 + (n * nf * 4)) in
  Artifact.Codec.u32 b n;
  Artifact.Codec.u32 b nf;
  Array.iter
    (fun row ->
      Array.iter
        (fun first ->
          Artifact.Codec.u32 b (match first with Some p -> p + 1 | None -> 0))
        row)
    firsts;
  Some (Buffer.contents b)

let decode_firsts ~rows ~faults r =
  let n = Artifact.Codec.get_u32 r in
  let nf = Artifact.Codec.get_u32 r in
  if n <> rows || nf <> faults then raise Artifact.Codec.Malformed;
  Array.init n (fun _ ->
      Array.init nf (fun _ ->
          match Artifact.Codec.get_u32 r with 0 -> None | k -> Some (k - 1)))

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
    let t_max = grid.(Array.length grid - 1) in
    let builder = Flow.default_config.Flow.builder in
    let config_at cycles =
      { Flow.default_config with Flow.builder = { builder with Builder.cycles } }
    in
    let triplets_max =
      Builder.make_triplets ~config:{ builder with Builder.cycles = t_max } tpg tests
    in
    let n = Array.length triplets_max in
    let nf = Fault_sim.fault_count sim in
    if Bitvec.length targets <> nf then invalid_arg "Tradeoff.sweep: target mask size";
    let pool = match pool with Some p -> p | None -> Pool.default () in
    let shard = Fault_sim.shard sim (Pool.jobs pool) in
    let firsts =
      Artifact.cached store ~stage:"sweep"
        ~fp:
          (sweep_fingerprint ?salt:fingerprint
             ~fault_model:(Fault_sim.model sim) ~tests ~targets ~builder ~t_max
             tpg)
        ~encode:encode_firsts
        ~decode:(decode_firsts ~rows:n ~faults:nf)
      @@ fun () ->
      let firsts = Array.make n [||] in
      (* One task per row on per-worker shards, exactly as Builder.build
         sequences it: bit-identical at every job count. *)
      Trace.with_span "tradeoff.firsts" ~args:[ ("rows", string_of_int n) ]
      @@ fun () ->
      Pool.parallel_for ~pool ~label:"trade-off burst sweeps" ~total:n
        (fun ~worker i ->
          let burst = Triplet.patterns tpg triplets_max.(i) in
          firsts.(i) <- Fault_sim.first_detections shard.(worker) ~active:targets burst);
      firsts
    in
    (* Each grid point thresholds the shared firsts into the detection
       matrix it would have built at its own T, then runs the covering
       half of the flow.  The per-point fingerprint is the plain
       matrix-stage key at that T, so reduce/solve/truncate artifacts are
       shared with standalone runs at the same evolution length. *)
    let points = Array.make (Array.length grid) None in
    Pool.parallel_for ~pool ~total:(Array.length grid) (fun ~worker gi ->
        let cycles = grid.(gi) in
        Trace.with_span "tradeoff.point" ~args:[ ("cycles", string_of_int cycles) ]
        @@ fun () ->
        let config = config_at cycles in
        let triplets = Builder.make_triplets ~config:config.Flow.builder tpg tests in
        let rows = Array.init n (fun _ -> Bitvec.create nf) in
        let useful_cycles =
          Array.init n (fun i -> Builder.fill_row ~cycles ~targets rows.(i) firsts.(i))
        in
        let initial =
          {
            Builder.triplets;
            matrix = Matrix.of_rows ~cols:nf rows;
            targets;
            useful_cycles;
            fault_sims = 0;
            rows_skipped = 0;
            rows_restored = 0;
          }
        in
        let fpm =
          Builder.fingerprint ?salt:fingerprint
            ~fault_model:(Fault_sim.model sim) ~tests ~targets tpg
            ~config:config.Flow.builder
        in
        let r =
          Flow.run_prebuilt ~config ?store ~fingerprint:fpm shard.(worker) tpg
            ~initial ~targets
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

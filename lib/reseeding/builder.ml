open Reseed_fault
open Reseed_setcover
open Reseed_tpg
open Reseed_util

type operand_mode = Random_operand | Shared_operand of Word.t

type config = { cycles : int; operand_mode : operand_mode; seed : int }

let default_config = { cycles = 150; operand_mode = Random_operand; seed = 17 }

type t = {
  triplets : Triplet.t array;
  matrix : Matrix.t;
  targets : Bitvec.t;
  useful_cycles : int array;
  fault_sims : int;
  rows_skipped : int;
  rows_restored : int;
}

let operand_tag = function
  | Random_operand -> "random"
  | Shared_operand w -> "shared:" ^ Word.to_hex w

let m_rows_computed =
  Metrics.counter ~help:"detection-matrix rows fault-simulated" "builder_rows_computed"

let m_ck_hits =
  Metrics.counter ~help:"rows restored from matrix shards" "builder_checkpoint_hits"

let m_rows_skipped =
  Metrics.counter ~help:"rows abandoned to an expired budget" "builder_rows_skipped"

(* Triplet construction stays sequential: the operand RNG stream is a
   fixed function of the seed, independent of the job count. *)
let make_triplets ~config tpg tests =
  let width = tpg.Tpg.width in
  let rng = Rng.create config.seed in
  let operand_for _i =
    let raw =
      match config.operand_mode with
      | Random_operand -> Word.random rng width
      | Shared_operand w ->
          if Word.width w <> width then invalid_arg "Builder.build: shared operand width";
          w
    in
    tpg.Tpg.fix_operand raw
  in
  Array.mapi
    (fun i pattern ->
      if Array.length pattern <> width then
        invalid_arg "Builder.build: ATPG pattern width differs from TPG width";
      Triplet.make ~seed:(Word.of_bits pattern) ~operand:(operand_for i)
        ~cycles:config.cycles)
    tests

let fingerprint ?salt ?(fault_model = Fault_model.Stuck_at) ~tests ~targets tpg
    ~config =
  let open Fingerprint in
  let h = salted "matrix" in
  let h = option int64 h salt in
  let h = string h ("workload:faults:" ^ Fault_model.name fault_model) in
  let h = int h config.cycles in
  let h = int h config.seed in
  let h = string h (operand_tag config.operand_mode) in
  let h = string h tpg.Tpg.name in
  let h = int h tpg.Tpg.width in
  let h = bitvec h targets in
  patterns h tests

(* Row [i]'s burst first detects target fault [fi] at pattern [p]: set
   the row's bit and raise its useful cycles (1 + the largest such [p],
   from 1 for an empty row) to cover [p]. *)
let detect rows useful_cycles i fi p =
  Bitvec.set rows.(i) fi;
  if p >= useful_cycles.(i) then useful_cycles.(i) <- p + 1

(* Both matrix payloads carry what fault simulation produced: per row,
   its useful-cycle count (u32) then its row set. *)
let put_entries buf useful_cycles row =
  Array.iteri
    (fun i useful ->
      Artifact.Codec.u32 buf useful;
      Artifact.Codec.row buf (row i))
    useful_cycles

let get_entries ~nf n r =
  let useful_cycles = Array.make n 1 in
  let rows =
    Array.init n (fun i ->
        useful_cycles.(i) <- Artifact.Codec.get_u32 r;
        let row = Artifact.Codec.get_row r in
        if Bitvec.length row <> nf then raise Artifact.Codec.Malformed;
        row)
  in
  (useful_cycles, rows)

(* The matrix artifact is the row count, the column count and the
   entries.  Triplets are re-derived from the same seed (cheap and
   deterministic), so a warm hit costs zero injections. *)
let encode_built b =
  if b.rows_skipped > 0 then None
  else begin
    let n = Array.length b.useful_cycles in
    let buf = Buffer.create (8 + (n * 16)) in
    Artifact.Codec.u32 buf n;
    Artifact.Codec.u32 buf (Bitvec.length b.targets);
    put_entries buf b.useful_cycles (Matrix.row b.matrix);
    Some (Buffer.contents buf)
  end

(* The one way a [t] is put together: every row a packed vector over
   the whole fault list, adopted by the matrix without a copy. *)
let of_rows ?(fault_sims = 0) ?(rows_skipped = 0) ?(rows_restored = 0) ~triplets
    ~targets useful_cycles rows =
  {
    triplets;
    matrix = Matrix.of_rows ~cols:(Bitvec.length targets) rows;
    targets;
    useful_cycles;
    fault_sims;
    rows_skipped;
    rows_restored;
  }

let decode_built ~config ~tests ~targets tpg r =
  let nf = Bitvec.length targets in
  let n = Artifact.Codec.get_u32 r in
  let cols = Artifact.Codec.get_u32 r in
  if n <> Array.length tests || cols <> nf then raise Artifact.Codec.Malformed;
  let useful_cycles, rows = get_entries ~nf n r in
  of_rows ~triplets:(make_triplets ~config tpg tests) ~targets useful_cycles rows

let cached store ~fp ~config ~tests ~targets tpg =
  Artifact.cached store ~stage:"matrix" ~fp ~encode:encode_built
    ~decode:(decode_built ~config ~tests ~targets tpg)

(* One task per row of [lo, hi); each worker fault-simulates on its own
   simulator shard, [found i] receives row [i]'s first detections as its
   sweep makes them, and [commit i] follows a sweep the budget did not
   cut short.  Both write only row [i]'s slots, so the result is
   bit-identical at every job count. *)
let simulate_rows ?budget ~pool shards tpg triplets ~targets ~lo ~hi ~found commit =
  Pool.parallel_for ~pool ~label:"detection-matrix rows" ~total:(hi - lo)
    (fun ~worker j ->
      let i = lo + j in
      if not (Budget.check budget) then begin
        Fault_sim.first_detections ?budget shards.(worker) ~active:targets
          (Triplet.patterns tpg triplets.(i))
          (found i);
        if not (Budget.check budget) then commit i
      end)

let threshold ?store ~fingerprint:fp ~config ~tests ~targets tpg firsts =
  cached store ~fp ~config ~tests ~targets tpg @@ fun () ->
  let firsts = Lazy.force firsts in
  let n = Array.length firsts in
  let rows = Array.init n (fun _ -> Bitvec.create (Bitvec.length targets)) in
  let useful_cycles = Array.make n 1 in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun fi p -> if p < config.cycles then detect rows useful_cycles i fi p)
        row)
    firsts;
  of_rows ~triplets:(make_triplets ~config tpg tests) ~targets useful_cycles rows

(* One shard = one [shard_rows]-sized row range, published to the store
   as soon as its rows are complete and keyed by the matrix fingerprint
   plus the range.  A run that dies (or runs out of budget) after
   finishing some shards leaves them behind; the rerun restores them
   row-for-row and simulates only the rest — and at no point does any
   encoder need more than one shard of dense scratch in memory. *)
let shard_rows = 16

let encode_shard group =
  match group with
  | None -> None
  | Some (useful_cycles, rows) ->
      let n = Array.length rows in
      let buf = Buffer.create (n * 16) in
      Artifact.Codec.u32 buf n;
      put_entries buf useful_cycles (Array.get rows);
      Some (Buffer.contents buf)

let decode_shard ~nf ~expect r =
  let n = Artifact.Codec.get_u32 r in
  if n <> expect then raise Artifact.Codec.Malformed;
  Some (get_entries ~nf n r)

let build ?pool ?budget ?store ?fingerprint:fp sim tpg ~tests ~targets
    ~config =
  let nf = Fault_sim.fault_count sim in
  if Bitvec.length targets <> nf then invalid_arg "Builder.build: target mask size";
  let fp =
    match (store, fp) with
    | _, Some fp -> fp
    | Some _, None ->
        fingerprint ~fault_model:(Fault_sim.model sim) ~tests ~targets tpg ~config
    | None, None -> Fingerprint.empty
  in
  cached store ~fp ~config ~tests ~targets tpg @@ fun () ->
  Trace.with_span "builder.build"
    ~args:
      [ ("rows", string_of_int (Array.length tests)); ("faults", string_of_int nf) ]
  @@ fun () ->
  let sims_before = Fault_sim.sims_performed sim in
  let triplets = make_triplets ~config tpg tests in
  let n = Array.length triplets in
  let useful_cycles = Array.make n 1 in
  (* Every row starts as its own empty vector and is filled in place,
     detection by detection, as its burst is simulated. *)
  let rows = Array.init n (fun _ -> Bitvec.create nf) in
  let completed = Array.make n false in
  let restored = ref 0 in
  (* With an artifact store the rows are processed in [shard_rows]-sized
     groups so each finished group can be persisted and restored
     independently before the next starts; a budget-abandoned row stays
     empty and [completed] false, and is never persisted. *)
  let pool = match pool with Some p -> p | None -> Pool.default () in
  let sim_shard = Fault_sim.shard sim (Pool.jobs pool) in
  let group = if Option.is_none store then max 1 n else shard_rows in
  let glo = ref 0 in
  while !glo < n do
    let lo = !glo and hi = min n (!glo + group) in
    glo := hi;
    if not (Budget.check budget) then begin
      let computed = ref false in
      let compute () =
        Trace.with_span "builder.chunk"
          ~args:[ ("lo", string_of_int lo); ("hi", string_of_int hi) ]
        @@ fun () ->
        computed := true;
        simulate_rows ?budget ~pool sim_shard tpg triplets ~targets ~lo ~hi
          ~found:(detect rows useful_cycles)
          (fun i -> completed.(i) <- true);
        (* A row whose sweep the budget cut short holds a partial fill:
           it goes back to empty. *)
        let all = ref true in
        for i = lo to hi - 1 do
          if not completed.(i) then begin
            all := false;
            Bitvec.zero_all rows.(i);
            useful_cycles.(i) <- 1
          end
        done;
        if !all then
          Some (Array.sub useful_cycles lo (hi - lo), Array.sub rows lo (hi - lo))
        else None
      in
      let shard_result =
        Artifact.cached store ~stage:"matrixshard"
          ~fp:Fingerprint.(int (int fp lo) hi)
          ~encode:encode_shard
          ~decode:(decode_shard ~nf ~expect:(hi - lo))
          compute
      in
      match shard_result with
      | Some (group_useful, group_rows) when not !computed ->
          (* Shard cache hit: adopt the stored rows. *)
          Array.iteri
            (fun j row ->
              let i = lo + j in
              completed.(i) <- true;
              incr restored;
              rows.(i) <- row;
              useful_cycles.(i) <- group_useful.(j))
            group_rows
      | _ -> ()
    end
  done;
  Fault_sim.merge_sims ~into:sim sim_shard;
  let skipped = ref 0 in
  Array.iter (fun d -> if not d then incr skipped) completed;
  Metrics.add m_rows_computed (n - !restored - !skipped);
  Metrics.add m_ck_hits !restored;
  Metrics.add m_rows_skipped !skipped;
  of_rows ~triplets ~targets
    ~fault_sims:(Fault_sim.sims_performed sim - sims_before)
    ~rows_skipped:!skipped ~rows_restored:!restored useful_cycles rows

open Reseed_util

let magic = "RSAF"
let version = 1

(* magic(4) + version u32 + kind digest u64 + fingerprint u64 +
   payload length u32 + payload checksum u64 *)
let header_bytes = 4 + 4 + 8 + 8 + 4 + 8

let fp_read = Faultpoint.register "artifact.read"
let fp_write = Faultpoint.register "artifact.write"
let fp_publish = Faultpoint.register "artifact.publish"

(* Reads are always recoverable — a missing or unreadable blob is a
   cache miss, never an error — so transient read failures (including
   injected ones) are retried and anything that survives degrades to
   [None].  The payload passes the [artifact.read] data point, so chaos
   schedules can corrupt it in flight and exercise the checksum path. *)
let read_opt path =
  match
    Retry.run ~label:"artifact.read" (fun ~attempt:_ ->
        try Some (Faultpoint.mangle fp_read (In_channel.with_open_bin path In_channel.input_all))
        with Sys_error _ -> None)
  with
  | Ok r -> r
  | Error _ -> None

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755 with
    | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    | Unix.Unix_error (e, _, _) ->
        Error.fail Error.Input_error "cannot create directory %s: %s" dir
          (Unix.error_message e)
  end
  else if not (Sys.is_directory dir) then
    Error.fail Error.Input_error "artifact path %s is not a directory" dir

(* Directory fsync makes the rename itself durable.  Some filesystems
   refuse to open or fsync a directory; that only weakens durability, so
   it stays best-effort rather than failing the write. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

let write_fd fd data =
  let n = String.length data in
  let pos = ref 0 in
  while !pos < n do
    pos := !pos + Unix.write_substring fd data !pos (n - !pos)
  done

(* Crash-safe, durable write: the payload is written to a [.tmp] sibling
   and fsynced, renamed into place, and the parent directory fsynced —
   so the file appears under its final name only complete, and a crash
   immediately after publish cannot roll it back to a zero-length or
   missing blob.  Transient failures are retried with backoff; each
   attempt passes the [artifact.write] data point (payload mangling, IO
   errors) and the [artifact.publish] control point (crashpoints between
   write and rename). *)
let write_atomic path data =
  mkdir_p (Filename.dirname path);
  let tmp = path ^ ".tmp" in
  try
    Retry.with_retries ~label:"artifact.write" (fun ~attempt:_ ->
        let payload = Faultpoint.mangle fp_write data in
        let fd =
          Unix.openfile tmp
            [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
            0o644
        in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            write_fd fd payload;
            Unix.fsync fd);
        Faultpoint.hit fp_publish;
        Sys.rename tmp path;
        fsync_dir (Filename.dirname path))
  with
  | Sys_error m -> Error.fail Error.Input_error "artifact write failed: %s" m
  | Unix.Unix_error (e, _, _) ->
      Error.fail Error.Input_error "artifact write failed: %s: %s" path
        (Unix.error_message e)

module Codec = struct
  let u32 b v = Buffer.add_int32_le b (Int32.of_int v)
  let u64 b v = Buffer.add_int64_le b v
  let vint b v = u64 b (Int64.of_int v)
  let float b v = u64 b (Int64.bits_of_float v)

  let str b s =
    u32 b (String.length s);
    Buffer.add_string b s

  let int_list b l =
    u32 b (List.length l);
    List.iter (fun v -> vint b v) l

  let bitvec b v =
    u32 b (Bitvec.length v);
    Buffer.add_bytes b (Bitvec.to_bytes v)

  (* A detection-matrix row: a tag byte, then the row.  Rows are always
     written as packed bits (tag 0); tag 1, an index list, is what stores
     filled by earlier versions hold for their sparse rows, and is still
     read. *)
  let row b v =
    Buffer.add_char b '\000';
    bitvec b v

  (* LSB-first, eight bits per byte, each byte gathered in an int. *)
  let add_packed b bits =
    let n = Array.length bits in
    let acc = ref 0 in
    for i = 0 to n - 1 do
      if Array.unsafe_get bits i then acc := !acc lor (1 lsl (i land 7));
      if i land 7 = 7 || i = n - 1 then begin
        Buffer.add_char b (Char.unsafe_chr !acc);
        acc := 0
      end
    done

  let pattern b p =
    u32 b (Array.length p);
    add_packed b p

  let patterns b ps =
    u32 b (Array.length ps);
    Array.iter (pattern b) ps

  let word b w =
    let bits = Word.to_bits w in
    u32 b (Array.length bits);
    add_packed b bits

  (* A reader walks [s] from [pos] up to [stop]: a payload is read in
     place inside the blob that holds it. *)
  type reader = { s : string; mutable pos : int; stop : int }

  exception Malformed

  let reader s = { s; pos = 0; stop = String.length s }

  let take r n =
    if n < 0 || n > r.stop - r.pos then raise Malformed;
    let off = r.pos in
    r.pos <- off + n;
    off

  let get_u32 r = Int32.to_int (String.get_int32_le r.s (take r 4)) land 0xffff_ffff
  let get_u64 r = String.get_int64_le r.s (take r 8)

  let get_vint r =
    let v = get_u64 r in
    if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0 then
      raise Malformed;
    Int64.to_int v

  let get_float r = Int64.float_of_bits (get_u64 r)

  let get_str r =
    let n = get_u32 r in
    let off = take r n in
    String.sub r.s off n

  let get_int_list r =
    let n = get_u32 r in
    List.init n (fun _ -> get_vint r)

  let get_bitvec r =
    let n = get_u32 r in
    let off = take r ((n + 7) / 8) in
    try Bitvec.of_substring n r.s off with Invalid_argument _ -> raise Malformed

  let get_row r =
    let tag = String.get r.s (take r 1) in
    match tag with
    | '\000' -> get_bitvec r
    | '\001' ->
        let len = get_u32 r in
        let cnt = get_u32 r in
        (* A truncated index list is caught before the row is allocated. *)
        if cnt > len || 4 * cnt > r.stop - r.pos then raise Malformed;
        let v = Bitvec.create len in
        let prev = ref (-1) in
        for _ = 1 to cnt do
          let i = get_u32 r in
          if i <= !prev || i >= len then raise Malformed;
          Bitvec.set v i;
          prev := i
        done;
        v
    | _ -> raise Malformed

  let get_packed r n =
    let off = take r ((n + 7) / 8) in
    Array.init n (fun i ->
        Char.code (String.unsafe_get r.s (off + (i lsr 3))) land (1 lsl (i land 7)) <> 0)

  let get_pattern r = get_packed r (get_u32 r)

  let get_patterns r =
    let n = get_u32 r in
    Array.init n (fun _ -> get_pattern r)

  let get_word r =
    let n = get_u32 r in
    if n < 1 || n > 4096 then raise Malformed;
    Word.of_bits (get_packed r n)

  let at_end r = r.pos = r.stop
end

(* The FNV-1a of the [len] payload bytes at [pos] of [s]. *)
let checksum s pos len = Fingerprint.raw_substring Fingerprint.empty s pos len
let kind_digest kind = Fingerprint.string (Fingerprint.salted "artifact-kind") kind

let encode ~kind ~fingerprint payload =
  let b = Buffer.create (header_bytes + String.length payload) in
  Buffer.add_string b magic;
  Codec.u32 b version;
  Codec.u64 b (kind_digest kind);
  Codec.u64 b fingerprint;
  Codec.u32 b (String.length payload);
  Codec.u64 b (checksum payload 0 (String.length payload));
  Buffer.add_string b payload;
  Buffer.contents b

(* The payload's reader, or [None] for a defective blob.  The checksum
   is computed over the payload where it lies, and the reader decodes it
   there: nothing is copied. *)
let decode ~kind ~fingerprint s =
  if String.length s < header_bytes then None
  else
    let r = Codec.reader s in
    try
      let m = String.sub s (Codec.take r 4) 4 in
      if m <> magic then None
      else if Codec.get_u32 r <> version then None
      else if not (Fingerprint.equal (Codec.get_u64 r) (kind_digest kind)) then None
      else if not (Fingerprint.equal (Codec.get_u64 r) fingerprint) then None
      else begin
        let len = Codec.get_u32 r in
        let cks = Codec.get_u64 r in
        if String.length s <> header_bytes + len then None
        else if Fingerprint.equal (checksum s header_bytes len) cks then Some r
        else None
      end
    with Codec.Malformed -> None

type store = { dir : string }

let open_store dir =
  mkdir_p dir;
  { dir }

let from_env () =
  match Sys.getenv_opt "RESEED_CACHE" with
  | Some dir when dir <> "" -> Some (open_store dir)
  | _ -> None

let resolve ?dir () =
  match dir with Some d -> Some (open_store d) | None -> from_env ()

let root t = t.dir

let path t ~stage fp =
  Filename.concat (Filename.concat t.dir stage) (Fingerprint.to_hex fp ^ ".art")

let m_hits = Metrics.counter ~help:"artifact-store cache hits" "artifact_hits"
let m_misses = Metrics.counter ~help:"artifact-store cache misses" "artifact_misses"
let m_writes = Metrics.counter ~help:"artifacts persisted" "artifact_writes"

let m_corrupt =
  Metrics.counter ~help:"artifacts rejected as corrupt (recomputed)" "artifact_corrupt"

let m_rewrites =
  Metrics.counter
    ~help:"corrupt artifacts overwritten by a recomputed payload"
    "artifact_rewrites"

let m_save_failures =
  Metrics.counter
    ~help:"artifact saves that failed (result kept, cache not updated)"
    "artifact_write_failures"

let load t ~stage fp =
  match read_opt (path t ~stage fp) with
  | None -> None
  | Some s -> (
      match decode ~kind:stage ~fingerprint:fp s with
      | Some r -> Some r
      | None ->
          Metrics.incr m_corrupt;
          None)

let save t ~stage fp payload =
  Metrics.incr m_writes;
  write_atomic (path t ~stage fp) (encode ~kind:stage ~fingerprint:fp payload)

(* Per-stage hit/miss counters, registered on first use (idempotent). *)
let stage_counter stage which =
  Metrics.counter
    ~help:(Printf.sprintf "%s-stage cache %s" stage which)
    (Printf.sprintf "stage_%s_cache_%s" stage which)

let cached store ~stage ~fp ~encode:enc ~decode:dec compute =
  match store with
  | None -> compute ()
  | Some t -> (
      let decoded =
        match load t ~stage fp with
        | None -> None
        | Some r -> (
            (* Any decoder failure — truncated stream, out-of-range field,
               trailing bytes — is corruption: recompute and overwrite. *)
            try
              let v = dec r in
              if Codec.at_end r then Some v
              else begin
                Metrics.incr m_corrupt;
                None
              end
            with _ ->
              Metrics.incr m_corrupt;
              None)
      in
      match decoded with
      | Some v ->
          Metrics.incr m_hits;
          Metrics.incr (stage_counter stage "hits");
          Trace.instant "artifact.hit"
            ~args:[ ("stage", stage); ("fp", Fingerprint.to_hex fp) ];
          v
      | None ->
          Metrics.incr m_misses;
          Metrics.incr (stage_counter stage "misses");
          (* A blob that exists but failed to load is corrupt: saving the
             recomputed payload over it is a rewrite worth counting. *)
          let corrupt_on_disk = Sys.file_exists (path t ~stage fp) in
          let v = compute () in
          (match enc v with
          | None -> ()
          | Some payload -> (
              (* The cache is an accelerator: a result we already hold is
                 never lost to a failed save.  The failure is counted and
                 traced, and the store simply misses again next run. *)
              match save t ~stage fp payload with
              | () -> if corrupt_on_disk then Metrics.incr m_rewrites
              | exception Error.Reseed_error _ ->
                  Metrics.incr m_save_failures;
                  Trace.instant "artifact.save_failed"
                    ~args:[ ("stage", stage); ("fp", Fingerprint.to_hex fp) ]));
          v)

(* The artifact layer's converters against [Codec_reference], the per-bit
   and per-byte code they replaced: the same bytes out, the same vectors
   and exceptions back, the same FNV-1a values.  And a pin on the store
   format itself: a c432 flow must write exactly the files it always
   has, so a codec or hash change that would cold every store fails
   here first. *)

open Reseed_util
open Reseed_core
module Ref = Codec_reference

let check = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* A vector of [len] bits, each set with probability [density]%. *)
let random_vec (len, density, seed) =
  let rng = Rng.create seed in
  let v = Bitvec.create len in
  for i = 0 to len - 1 do
    if Rng.int rng 100 < density then Bitvec.set v i
  done;
  v

let gen_vec = QCheck.(triple (int_bound 300) (int_bound 100) (int_bound 9999))

let random_string rng n = String.init n (fun _ -> Char.chr (Rng.int rng 256))

(* [Ok] the result or [Error] the [Invalid_argument] message. *)
let outcome f = match f () with v -> Ok v | exception Invalid_argument m -> Error m

let same_vec a b =
  match (a, b) with
  | Ok a, Ok b -> Bitvec.equal a b
  | Error a, Error b -> a = b
  | _ -> false

let prop_to_bytes =
  QCheck.Test.make ~name:"to_bytes = per-bit reference" ~count:500 gen_vec (fun p ->
      let v = random_vec p in
      Bytes.equal (Bitvec.to_bytes v) (Ref.to_bytes v))

(* Random bytes with the padding cleared decode as the reference does,
   and so does the same run of bytes read in place inside a longer
   string. *)
let prop_of_bytes =
  QCheck.Test.make ~name:"of_bytes/of_substring = per-bit reference" ~count:500
    QCheck.(triple (int_bound 300) (pair (int_bound 20) (int_bound 20)) (int_bound 9999))
    (fun (n, (pre, post), seed) ->
      let rng = Rng.create seed in
      let b = Bytes.of_string (random_string rng ((n + 7) / 8)) in
      if n mod 8 <> 0 then begin
        let last = Bytes.length b - 1 in
        Bytes.set_uint8 b last (Bytes.get_uint8 b last land ((1 lsl (n mod 8)) - 1))
      end;
      let expected = Ref.of_bytes n b in
      let s = random_string rng pre ^ Bytes.to_string b ^ random_string rng post in
      Bitvec.equal (Bitvec.of_bytes n b) expected
      && Bitvec.equal (Bitvec.of_substring n s pre) expected
      && Bytes.equal (Bitvec.to_bytes expected) b)

(* Every length up to 300 (past the 62-bit word and the 248-bit
   four-word/31-byte boundary), with every bit set, alternating bits,
   and only the bits at word ends and byte starts: both converters
   round-trip and match the reference. *)
let test_every_length () =
  for n = 0 to 300 do
    List.iter
      (fun keep ->
        let v = Bitvec.create n in
        for i = 0 to n - 1 do
          if keep i then Bitvec.set v i
        done;
        let b = Bitvec.to_bytes v in
        check (Printf.sprintf "to_bytes %d" n) true (Bytes.equal b (Ref.to_bytes v));
        check (Printf.sprintf "of_bytes %d" n) true (Bitvec.equal (Bitvec.of_bytes n b) v))
      [ (fun _ -> true); (fun i -> i land 1 = 0); (fun i -> i mod 62 = 61 || i mod 8 = 0) ]
  done

(* Each padding bit above [n], a short or long buffer and a negative
   length raise exactly what the reference raises. *)
let test_rejections () =
  for n = 1 to 300 do
    let nb = (n + 7) / 8 in
    for bit = n mod 8 to if n mod 8 = 0 then -1 else 7 do
      let b = Bytes.make nb '\000' in
      Bytes.set_uint8 b (nb - 1) (1 lsl bit);
      let got = outcome (fun () -> Bitvec.of_bytes n b) in
      check (Printf.sprintf "padding bit %d of %d" bit n) true
        (same_vec got (outcome (fun () -> Ref.of_bytes n b)));
      check "padding rejected" true (got = Error "Bitvec.of_bytes: nonzero padding");
      check "in place too" true
        (same_vec
           (outcome (fun () -> Bitvec.of_substring n ("xy" ^ Bytes.to_string b) 2))
           (Error "Bitvec.of_substring: nonzero padding"))
    done;
    List.iter
      (fun len ->
        let b = Bytes.make len '\000' in
        let got = outcome (fun () -> Bitvec.of_bytes n b) in
        check (Printf.sprintf "%d bytes for %d bits" len n) true
          (same_vec got (outcome (fun () -> Ref.of_bytes n b)));
        check "size rejected" true (got = Error "Bitvec.of_bytes: size mismatch"))
      [ nb - 1; nb + 1 ]
  done;
  check "negative length" true
    (same_vec
       (outcome (fun () -> Bitvec.of_bytes (-1) Bytes.empty))
       (outcome (fun () -> Ref.of_bytes (-1) Bytes.empty)));
  let s = String.make 4 '\000' in
  List.iter
    (fun (n, pos) ->
      check (Printf.sprintf "%d bits at %d of 4 bytes" n pos) true
        (same_vec
           (outcome (fun () -> Bitvec.of_substring n s pos))
           (Error "Bitvec.of_substring: out of bounds")))
    [ (8, -1); (8, 4); (33, 0); (25, 1); (1, 5) ];
  check "empty vector at the end" true
    (same_vec (outcome (fun () -> Bitvec.of_substring 0 s 4)) (Ok (Bitvec.create 0)))

(* The published FNV-1a 64-bit test vectors. *)
let test_fnv_vectors () =
  List.iter
    (fun (s, hex) ->
      check_string (Printf.sprintf "fnv1a64 %S" s) hex
        (Fingerprint.to_hex (Fingerprint.raw_string Fingerprint.empty s));
      check_string "reference agrees" hex (Fingerprint.to_hex (Ref.Fnv.raw_string Ref.Fnv.empty s)))
    [ ("", "cbf29ce484222325"); ("a", "af63dc4c8601ec8c"); ("foobar", "85944171f73967e8") ];
  check_string "in place" "85944171f73967e8"
    (Fingerprint.to_hex (Fingerprint.raw_substring Fingerprint.empty "xfoobarx" 1 6));
  List.iter
    (fun (pos, len) ->
      Alcotest.check_raises (Printf.sprintf "%d bytes at %d of 3" len pos)
        (Invalid_argument "Fingerprint.raw_substring: out of bounds") (fun () ->
          ignore (Fingerprint.raw_substring Fingerprint.empty "abc" pos len)))
    [ (-1, 1); (2, 2); (0, -1); (4, 0) ]

let prop_fingerprint =
  QCheck.Test.make ~name:"fingerprint folds = per-byte reference" ~count:500
    QCheck.(triple (int_bound 300) (pair int int) (int_bound 9999))
    (fun (n, (i, j), seed) ->
      let rng = Rng.create seed in
      let s = random_string rng n in
      let h = Ref.Fnv.int Ref.Fnv.empty seed in
      let pos = if n = 0 then 0 else Rng.int rng (n + 1) in
      let len = Rng.int rng (n - pos + 1) in
      let p = Array.init n (fun _ -> Rng.bool rng) in
      let i64 = Int64.logxor (Int64.of_int i) (Int64.shift_left (Int64.of_int j) 40) in
      Fingerprint.raw_string h s = Ref.Fnv.raw_string h s
      && Fingerprint.raw_substring h s pos len = Ref.Fnv.raw_string h (String.sub s pos len)
      && Fingerprint.string h s = Ref.Fnv.string h s
      && Fingerprint.int h i = Ref.Fnv.int h i
      && Fingerprint.int h (-i) = Ref.Fnv.int h (-i)
      && Fingerprint.int64 h i64 = Ref.Fnv.int64 h i64
      && Fingerprint.pattern h p = Ref.Fnv.pattern h p)

(* The payload checksum hashes a matrix blob per artifact load: it must
   not allocate per byte. *)
let test_hash_allocates_nothing_per_byte () =
  let s = String.make 65536 'x' in
  ignore (Fingerprint.raw_string Fingerprint.empty s);
  let before = Gc.minor_words () in
  let h = Fingerprint.raw_substring Fingerprint.empty s 0 (String.length s) in
  let words = Gc.minor_words () -. before in
  check (Printf.sprintf "%.0f minor words for 64 KiB" words) true (words < 64.);
  check "same hash" true (Fingerprint.equal h (Ref.Fnv.raw_string Fingerprint.empty s))

(* Patterns and words pack LSB-first, eight bits per byte, after a u32
   length: byte-for-byte the reference's encoding, and decoded back. *)
let prop_pattern_codec =
  QCheck.Test.make ~name:"pattern/word codec = per-bit reference" ~count:300
    QCheck.(pair (int_bound 300) (int_bound 9999))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let p = Array.init n (fun _ -> Rng.bool rng) in
      let encoded f x =
        let b = Buffer.create 64 in
        f b x;
        Buffer.contents b
      in
      let s = encoded Artifact.Codec.pattern p in
      let r = Artifact.Codec.reader s in
      let decoded = Artifact.Codec.get_pattern r in
      String.sub s 4 (String.length s - 4) = Ref.pack_bits p
      && decoded = p
      && Ref.unpack_bits s 4 n = p
      && Artifact.Codec.at_end r
      &&
      let bits = Array.append p [| true |] in
      let w = Word.of_bits bits in
      let s = encoded Artifact.Codec.word w in
      let r = Artifact.Codec.reader s in
      String.sub s 4 (String.length s - 4) = Ref.pack_bits bits
      && Word.equal (Artifact.Codec.get_word r) w
      && Artifact.Codec.at_end r)

(* Every file [reseed solve c432 --cache DIR] writes, by name and MD5
   of its bytes, as the format has always produced them. *)
let c432_store =
  [
    ("atpg/ffb4cd334df41587.art", "289cdbde3a4f8797e454469b0961e3f4");
    ("matrix/7d1c8118332d81ce.art", "c114032e6dffff3957286bfb5cd4cf83");
    ("matrixshard/024fc6ced4ef6e25.art", "fc144e1194ce120b56eb58187918df6a");
    ("matrixshard/08635ecfe193e75e.art", "710606ea68b0339ec9518f0c810881e3");
    ("matrixshard/e7f12be1c1da0d7e.art", "581e490764b81c855649019c29d14cf2");
    ("reduce/344552390db0399b.art", "104087774ea3839169a81cca46efb19a");
    ("solve/59b46b31de07d95f.art", "2bfc7752888b16cd6544c24d48df06d7");
    ("truncate/27a0ffeb66971c64.art", "e2463f4f61252aa34513252a1030e000");
  ]

let test_store_format_pin () =
  Test_chaos.with_temp_dir @@ fun dir ->
  let store = Filename.concat dir "store" in
  let code, _, err = Test_cli.run [ "solve"; "c432"; "--cache"; store; "--jobs"; "1" ] in
  Alcotest.(check int) ("solve exits 0: " ^ err) 0 code;
  let files =
    List.concat_map
      (fun stage ->
        List.map
          (fun f ->
            let rel = stage ^ "/" ^ f in
            (rel, Digest.to_hex (Digest.file (Filename.concat store rel))))
          (List.sort compare (Array.to_list (Sys.readdir (Filename.concat store stage)))))
      (List.sort compare (Array.to_list (Sys.readdir store)))
  in
  Alcotest.(check (list (pair string string))) "c432 store names and digests" c432_store files

let suite =
  [
    ( "codec-oracle",
      [
        QCheck_alcotest.to_alcotest prop_to_bytes;
        QCheck_alcotest.to_alcotest prop_of_bytes;
        Alcotest.test_case "every length 0-300" `Quick test_every_length;
        Alcotest.test_case "size and padding rejections" `Quick test_rejections;
        Alcotest.test_case "FNV-1a 64 vectors" `Quick test_fnv_vectors;
        QCheck_alcotest.to_alcotest prop_fingerprint;
        Alcotest.test_case "hash allocates nothing per byte" `Quick
          test_hash_allocates_nothing_per_byte;
        QCheck_alcotest.to_alcotest prop_pattern_codec;
      ] );
    ("store-format", [ Alcotest.test_case "c432 store pinned" `Quick test_store_format_pin ]);
  ]

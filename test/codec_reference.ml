(* The artifact layer's bit and byte converters as they stood before they
   moved a byte or a word per step, kept verbatim as a test oracle (as
   [podem_reference.ml] keeps the old PODEM loop): [to_bytes]/[of_bytes]
   visit one bit per step, the FNV-1a folds box one [Int64] per byte
   through a closure, and the pattern codec builds its bytes with
   [Bytes.get]/[Char.chr].  The one edit: [to_bytes] reads each bit with
   [Bitvec.get], since the word array is private to [Bitvec]. *)

open Reseed_util

let to_bytes v =
  let len = Bitvec.length v in
  let nb = (len + 7) / 8 in
  let b = Bytes.make nb '\000' in
  for i = 0 to len - 1 do
    if Bitvec.get v i then
      Bytes.set_uint8 b (i / 8) (Bytes.get_uint8 b (i / 8) lor (1 lsl (i mod 8)))
  done;
  b

let of_bytes n b =
  if n < 0 then invalid_arg "Bitvec.of_bytes: negative length";
  if Bytes.length b <> (n + 7) / 8 then invalid_arg "Bitvec.of_bytes: size mismatch";
  let v = Bitvec.create n in
  for i = 0 to n - 1 do
    if Bytes.get_uint8 b (i / 8) lsr (i mod 8) land 1 = 1 then Bitvec.set v i
  done;
  (* Padding bits beyond [n] must be zero: catches truncation/corruption
     that a length check alone would miss. *)
  if n mod 8 <> 0 then begin
    let last = Bytes.get_uint8 b (Bytes.length b - 1) in
    if last lsr (n mod 8) <> 0 then invalid_arg "Bitvec.of_bytes: nonzero padding"
  end;
  v

module Fnv = struct
  (* FNV-1a, 64-bit. *)
  let empty = 0xcbf29ce484222325L
  let fnv_prime = 0x100000001b3L

  let byte h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

  let raw_string h s =
    let h = ref h in
    String.iter (fun c -> h := byte !h (Char.code c)) s;
    !h

  let int h v =
    (* 63-bit OCaml int, little-endian, 8 bytes. *)
    let h = ref h in
    for k = 0 to 7 do
      h := byte !h ((v lsr (8 * k)) land 0xff)
    done;
    !h

  let int64 h v =
    let h = ref h in
    for k = 0 to 7 do
      h := byte !h (Int64.to_int (Int64.shift_right_logical v (8 * k)) land 0xff)
    done;
    !h

  let string h s = raw_string (int h (String.length s)) s

  let pattern h p =
    Array.fold_left (fun h b -> byte h (if b then 1 else 0)) (int h (Array.length p)) p
end

(* [Artifact.Codec.pattern]'s bytes after the length prefix. *)
let pack_bits p =
  let nb = (Array.length p + 7) / 8 in
  let by = Bytes.make nb '\000' in
  Array.iteri
    (fun i bit ->
      if bit then
        Bytes.set by (i / 8)
          (Char.chr (Char.code (Bytes.get by (i / 8)) lor (1 lsl (i mod 8)))))
    p;
  Bytes.to_string by

(* [Artifact.Codec.get_pattern]'s decoding of [n] bits at [off]. *)
let unpack_bits s off n =
  Array.init n (fun i -> Char.code s.[off + (i / 8)] land (1 lsl (i mod 8)) <> 0)

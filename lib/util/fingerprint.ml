type t = int64

let code_version = "reseed-pipeline-v1"

(* FNV-1a, 64-bit. *)
let empty = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let byte h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

(* The folds below are plain loops over a local accumulator, which the
   compiler keeps unboxed: no [Int64] box or closure per byte hashed. *)
let raw_substring h s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Fingerprint.raw_substring: out of bounds";
  let h = ref h in
  for i = pos to pos + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        fnv_prime
  done;
  !h

let raw_string h s = raw_substring h s 0 (String.length s)

let int h v =
  (* 63-bit OCaml int, little-endian, 8 bytes. *)
  let h = ref h in
  for k = 0 to 7 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int ((v lsr (8 * k)) land 0xff))) fnv_prime
  done;
  !h

let int64 h v =
  let h = ref h in
  for k = 0 to 7 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.logand (Int64.shift_right_logical v (8 * k)) 0xffL))
        fnv_prime
  done;
  !h

let bool h b = byte h (if b then 1 else 0)
let float h v = int64 h (Int64.bits_of_float v)
let string h s = raw_string (int h (String.length s)) s
let bytes h b = string h (Bytes.unsafe_to_string b)
let salted tag = string (string empty code_version) tag

let option f h = function None -> byte h 0 | Some v -> f (byte h 1) v
let list f h l = List.fold_left f (int h (List.length l)) l
let array f h a = Array.fold_left f (int h (Array.length a)) a

let pattern h p =
  let h = ref (int h (Array.length p)) in
  for i = 0 to Array.length p - 1 do
    h := Int64.mul (Int64.logxor !h (if Array.unsafe_get p i then 1L else 0L)) fnv_prime
  done;
  !h

let patterns h ps = array pattern h ps
let bitvec h v = bytes (int h (Bitvec.length v)) (Bitvec.to_bytes v)
let equal = Int64.equal
let to_hex fp = Printf.sprintf "%016Lx" fp

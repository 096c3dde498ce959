open Reseed_util

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let w_of n x = Word.of_int n x
let to_int w = Option.get (Word.to_int w)

let test_of_to_int () =
  check_int "roundtrip 0" 0 (to_int (w_of 8 0));
  check_int "roundtrip 255" 255 (to_int (w_of 8 255));
  check_int "mod 2^8" 1 (to_int (w_of 8 257));
  check_int "width 1" 1 (to_int (w_of 1 3));
  check_int "wide roundtrip" 123456789 (to_int (w_of 40 123456789))

let test_add_sub () =
  check_int "add" 30 (to_int (Word.add (w_of 16 10) (w_of 16 20)));
  check_int "add wraps" 4 (to_int (Word.add (w_of 8 250) (w_of 8 10)));
  check_int "sub" 5 (to_int (Word.sub (w_of 8 10) (w_of 8 5)));
  check_int "sub wraps" 251 (to_int (Word.sub (w_of 8 5) (w_of 8 10)));
  check_int "neg" 246 (to_int (Word.neg (w_of 8 10)));
  check_int "neg zero" 0 (to_int (Word.neg (w_of 8 0)))

let test_mul () =
  check_int "mul small" 56 (to_int (Word.mul (w_of 8 7) (w_of 8 8)));
  check_int "mul wraps" ((123 * 231) mod 256) (to_int (Word.mul (w_of 8 123) (w_of 8 231)));
  (* cross-limb multiplication, width 45 *)
  let a = 123456789 and b = 987654 in
  let expect = a * b mod (1 lsl 45) in
  check_int "mul cross-limb" expect (to_int (Word.mul (w_of 45 a) (w_of 45 b)))

let test_logical () =
  check_int "xor" 0b0110 (to_int (Word.logxor (w_of 4 0b1010) (w_of 4 0b1100)));
  check_int "and" 0b1000 (to_int (Word.logand (w_of 4 0b1010) (w_of 4 0b1100)));
  check_int "or" 0b1110 (to_int (Word.logor (w_of 4 0b1010) (w_of 4 0b1100)));
  check_int "not" 0b0101 (to_int (Word.lognot (w_of 4 0b1010)))

let test_shift () =
  check_int "shl" 0b1010 (to_int (Word.shift_left (w_of 4 0b0101) 1));
  check_int "shl drop" 0b0100 (to_int (Word.shift_left (w_of 3 0b110) 1));
  check_int "shr" 0b0011 (to_int (Word.shift_right (w_of 4 0b0110) 1));
  check_int "shl by width" 0 (to_int (Word.shift_left (w_of 4 0b1111) 4));
  (* shifting across limb boundary *)
  let v = Word.shift_left (Word.one 40) 35 in
  check "bit 35" true (Word.get_bit v 35);
  check_int "popcount" 1 (Word.popcount v)

let test_bits () =
  let w = Word.of_bits [| true; false; true; true |] in
  check_int "of_bits" 0b1101 (to_int w);
  check "to_bits roundtrip" true (Word.to_bits w = [| true; false; true; true |]);
  let w2 = Word.set_bit w 1 true in
  check_int "set_bit" 0b1111 (to_int w2);
  check_int "immutable" 0b1101 (to_int w)

let test_ones_zero () =
  check_int "ones 5" 31 (to_int (Word.ones 5));
  check "is_zero" true (Word.is_zero (Word.zero 100));
  check "not zero" false (Word.is_zero (Word.one 100));
  check_int "popcount ones 70" 70 (Word.popcount (Word.ones 70))

let test_to_int_overflow () =
  let big = Word.ones 100 in
  check "to_int of 100-bit ones is None" true (Word.to_int big = None)

let test_hex () =
  Alcotest.(check string) "hex" "0x1af" (Word.to_hex (w_of 9 0x1af));
  Alcotest.(check string) "hex pads" "0x0f" (Word.to_hex (w_of 8 15))

let test_compare () =
  check "equal" true (Word.equal (w_of 64 42) (w_of 64 42));
  check "lt" true (Word.compare (w_of 64 41) (w_of 64 42) < 0);
  (* cross-limb comparison: high limb dominates *)
  let hi = Word.shift_left (Word.one 64) 40 in
  check "hi > low" true (Word.compare hi (w_of 64 0xFFFF) > 0)

let test_invalid () =
  Alcotest.check_raises "zero width" (Invalid_argument "Word.zero: width must be >= 1")
    (fun () -> ignore (Word.zero 0));
  Alcotest.check_raises "width mismatch" (Invalid_argument "Word: width mismatch")
    (fun () -> ignore (Word.add (Word.one 4) (Word.one 5)))

(* Properties: Word arithmetic agrees with native ints mod 2^n. *)

let gen_pair = QCheck.(triple (int_range 1 60) (int_bound 1_000_000_000) (int_bound 1_000_000_000))

let modn n x = x land ((1 lsl n) - 1)

let prop_add =
  QCheck.Test.make ~name:"word add = int add mod 2^n" ~count:500 gen_pair
    (fun (n, a, b) ->
      to_int (Word.add (w_of n a) (w_of n b)) = modn n (modn n a + modn n b))

let prop_mul =
  QCheck.Test.make ~name:"word mul = int mul mod 2^n" ~count:500
    QCheck.(triple (int_range 1 30) (int_bound 30000) (int_bound 30000))
    (fun (n, a, b) -> to_int (Word.mul (w_of n a) (w_of n b)) = modn n (modn n a * modn n b))

let prop_sub_add_inverse =
  QCheck.Test.make ~name:"(a+b)-b = a" ~count:500 gen_pair (fun (n, a, b) ->
      let a' = w_of n a and b' = w_of n b in
      Word.equal (Word.sub (Word.add a' b') b') a')

(* [sub] borrows limb by limb in one pass; [add a (neg b)] is the
   two's-complement definition it must agree with, across limb
   boundaries and at the extremes (zero, one, all ones). *)
let prop_sub_is_add_neg =
  QCheck.Test.make ~name:"sub a b = add a (neg b), widths 1-130" ~count:1000
    QCheck.(quad (int_range 1 130) small_int (int_bound 3) (int_bound 3))
    (fun (n, seed, ka, kb) ->
      let rng = Rng.create seed in
      let pick = function
        | 0 -> Word.zero n
        | 1 -> Word.one n
        | 2 -> Word.ones n
        | _ -> Word.random rng n
      in
      let a = pick ka and b = pick kb in
      Word.equal (Word.sub a b) (Word.add a (Word.neg b)))

let prop_random_width =
  QCheck.Test.make ~name:"random word has requested width" ~count:100
    QCheck.(pair (int_range 1 300) small_int)
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let w = Word.random rng n in
      Word.width w = n && Word.popcount w <= n)

let prop_bits_roundtrip =
  QCheck.Test.make ~name:"of_bits/to_bits roundtrip" ~count:200
    QCheck.(array_of_size (Gen.int_range 1 120) bool)
    (fun bits -> Word.to_bits (Word.of_bits bits) = bits)

let suite =
  [
    ( "word",
      [
        Alcotest.test_case "of_int/to_int" `Quick test_of_to_int;
        Alcotest.test_case "add/sub/neg" `Quick test_add_sub;
        Alcotest.test_case "mul" `Quick test_mul;
        Alcotest.test_case "logical ops" `Quick test_logical;
        Alcotest.test_case "shifts" `Quick test_shift;
        Alcotest.test_case "bit conversion" `Quick test_bits;
        Alcotest.test_case "ones/zero/popcount" `Quick test_ones_zero;
        Alcotest.test_case "to_int overflow" `Quick test_to_int_overflow;
        Alcotest.test_case "hex rendering" `Quick test_hex;
        Alcotest.test_case "equal/compare" `Quick test_compare;
        Alcotest.test_case "invalid arguments" `Quick test_invalid;
        QCheck_alcotest.to_alcotest prop_add;
        QCheck_alcotest.to_alcotest prop_mul;
        QCheck_alcotest.to_alcotest prop_sub_add_inverse;
        QCheck_alcotest.to_alcotest prop_sub_is_add_neg;
        QCheck_alcotest.to_alcotest prop_random_width;
        QCheck_alcotest.to_alcotest prop_bits_roundtrip;
      ] );
  ]

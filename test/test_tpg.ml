open Reseed_tpg
open Reseed_util

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let w8 = Word.of_int 8

let test_adder_progression () =
  let tpg = Accumulator.adder 8 in
  let out = Tpg.run tpg ~seed:(w8 10) ~operand:(w8 3) ~cycles:5 in
  let expect = [ 10; 13; 16; 19; 22 ] in
  List.iteri
    (fun i e -> check_int "adder step" e (Option.get (Word.to_int out.(i))))
    expect

let test_adder_wraps () =
  let tpg = Accumulator.adder 8 in
  let out = Tpg.run tpg ~seed:(w8 250) ~operand:(w8 10) ~cycles:3 in
  check_int "wrap" 4 (Option.get (Word.to_int out.(1)));
  check_int "after wrap" 14 (Option.get (Word.to_int out.(2)))

let test_subtracter () =
  let tpg = Accumulator.subtracter 8 in
  let out = Tpg.run tpg ~seed:(w8 10) ~operand:(w8 3) ~cycles:4 in
  check_int "sub" 1 (Option.get (Word.to_int out.(3)));
  let out2 = Tpg.run tpg ~seed:(w8 1) ~operand:(w8 3) ~cycles:2 in
  check_int "sub wraps" 254 (Option.get (Word.to_int out2.(1)))

let test_multiplier () =
  let tpg = Accumulator.multiplier 8 in
  let out = Tpg.run tpg ~seed:(w8 3) ~operand:(w8 7) ~cycles:3 in
  check_int "mul1" 21 (Option.get (Word.to_int out.(1)));
  check_int "mul2" (21 * 7 mod 256) (Option.get (Word.to_int out.(2)))

let test_seed_is_first_pattern () =
  (* Crucial invariant for the covering flow: triplet i's burst starts at
     δ_i = the ATPG pattern itself. *)
  List.iter
    (fun tpg ->
      let seed = w8 0xAB in
      let out = Tpg.run tpg ~seed ~operand:(w8 0x31) ~cycles:3 in
      check "first = seed" true (Word.equal out.(0) seed))
    (Accumulator.paper_tpgs 8)

(* A burst's patterns are the state words themselves: bit [i] of the
   word drives primary input [i]. *)
let test_burst_words_shape () =
  let tpg = Accumulator.adder 8 in
  let t = Triplet.make ~seed:(w8 5) ~operand:(w8 1) ~cycles:4 in
  let words = Triplet.patterns tpg t in
  check_int "4 patterns" 4 (Array.length words);
  check_int "8 bits each" 8 (Word.width words.(0));
  check "lsb-first" true (Word.get_bit words.(0) 0);
  check "bit2 of 5" true (Word.get_bit words.(0) 2);
  check "the state words" true
    (Array.for_all2 Word.equal words (Tpg.run tpg ~seed:(w8 5) ~operand:(w8 1) ~cycles:4))

let test_width_checks () =
  let tpg = Accumulator.adder 8 in
  Alcotest.check_raises "seed width" (Invalid_argument "Tpg: seed/operand width mismatch")
    (fun () -> ignore (Tpg.run tpg ~seed:(Word.of_int 9 0) ~operand:(w8 1) ~cycles:2));
  Alcotest.check_raises "cycles < 1" (Invalid_argument "Tpg.run: cycles must be >= 1")
    (fun () -> ignore (Tpg.run tpg ~seed:(w8 1) ~operand:(w8 1) ~cycles:0))

let test_period_adder () =
  let tpg = Accumulator.adder 4 in
  (* operand 1 on a 4-bit adder: full period 16 *)
  check "period 16" true
    (Tpg.period tpg ~seed:(Word.of_int 4 0) ~operand:(Word.of_int 4 1) ~limit:100 = Some 16);
  (* operand 0: fixed point, period 1 *)
  check "period 1" true
    (Tpg.period tpg ~seed:(Word.of_int 4 5) ~operand:(Word.of_int 4 0) ~limit:100 = Some 1);
  check "limit respected" true
    (Tpg.period tpg ~seed:(Word.of_int 4 0) ~operand:(Word.of_int 4 1) ~limit:3 = None)

let test_lfsr_fibonacci () =
  (* 3-bit maximal LFSR with taps [2;1]: period 7 over nonzero states *)
  let tpg = Lfsr.fibonacci 3 [ 2; 1 ] in
  let seed = Word.of_int 3 1 in
  let p = Tpg.period tpg ~seed ~operand:(Word.of_int 3 0) ~limit:20 in
  check "lfsr period 7" true (p = Some 7);
  (* zero state is a fixed point *)
  check "zero fixed" true
    (Tpg.period tpg ~seed:(Word.of_int 3 0) ~operand:(Word.of_int 3 0) ~limit:20 = Some 1)

let test_lfsr_taps_validated () =
  Alcotest.check_raises "empty taps" (Invalid_argument "Lfsr.fibonacci: empty tap list")
    (fun () -> ignore (Lfsr.fibonacci 4 []));
  Alcotest.check_raises "tap range" (Invalid_argument "Lfsr.fibonacci: tap out of range")
    (fun () -> ignore (Lfsr.fibonacci 4 [ 4 ]))

let test_multi_polynomial () =
  let tpg = Lfsr.multi_polynomial 3 in
  (* operand acts as the tap mask: with mask for taps {2,1} behaviour
     matches the fixed-tap LFSR *)
  let fixed = Lfsr.fibonacci 3 [ 2; 1 ] in
  let mask = Word.of_bits [| false; true; true |] in
  let seed = Word.of_int 3 5 in
  let a = Tpg.run tpg ~seed ~operand:mask ~cycles:8 in
  let b = Tpg.run fixed ~seed ~operand:(Word.zero 3) ~cycles:8 in
  Array.iteri (fun i w -> check "mp matches fixed" true (Word.equal w b.(i))) a

let test_default_taps () =
  List.iter
    (fun w ->
      let taps = Lfsr.default_taps w in
      check "nonempty" true (taps <> []);
      List.iter (fun t -> check "in range" true (t >= 0 && t < w)) taps)
    [ 2; 3; 4; 5; 8; 16; 24; 32; 100 ]

let test_triplet () =
  let t = Triplet.make ~seed:(w8 1) ~operand:(w8 2) ~cycles:10 in
  check_int "cycles" 10 t.Triplet.cycles;
  let t2 = Triplet.truncate t 4 in
  check_int "truncated" 4 t2.Triplet.cycles;
  Alcotest.check_raises "truncate too long" (Invalid_argument "Triplet.truncate: bad cycle count")
    (fun () -> ignore (Triplet.truncate t 11));
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Triplet.make: seed/operand width mismatch") (fun () ->
      ignore (Triplet.make ~seed:(w8 1) ~operand:(Word.of_int 9 2) ~cycles:1));
  (* storage: 8 + 8 + ceil(log2(11)) = 20 *)
  check_int "storage bits" 20 (Triplet.storage_bits t);
  check "equal" true (Triplet.equal t (Triplet.make ~seed:(w8 1) ~operand:(w8 2) ~cycles:10));
  let patterns = Triplet.patterns (Accumulator.adder 8) t in
  check_int "burst length" 10 (Array.length patterns)

(* Property: adder TPG step k = seed + k*operand mod 2^n. *)
let prop_adder_closed_form =
  QCheck.Test.make ~name:"adder burst closed form" ~count:200
    QCheck.(triple (int_bound 255) (int_bound 255) (int_range 1 20))
    (fun (seed, operand, cycles) ->
      let tpg = Accumulator.adder 8 in
      let out = Tpg.run tpg ~seed:(w8 seed) ~operand:(w8 operand) ~cycles in
      let ok = ref true in
      Array.iteri
        (fun k w ->
          if Option.get (Word.to_int w) <> (seed + (k * operand)) mod 256 then ok := false)
        out;
      !ok)

let suite =
  [
    ( "tpg",
      [
        Alcotest.test_case "adder progression" `Quick test_adder_progression;
        Alcotest.test_case "adder wraps" `Quick test_adder_wraps;
        Alcotest.test_case "subtracter" `Quick test_subtracter;
        Alcotest.test_case "multiplier" `Quick test_multiplier;
        Alcotest.test_case "seed is first pattern" `Quick test_seed_is_first_pattern;
        Alcotest.test_case "burst words shape" `Quick test_burst_words_shape;
        Alcotest.test_case "width checks" `Quick test_width_checks;
        Alcotest.test_case "period (adder)" `Quick test_period_adder;
        Alcotest.test_case "fibonacci lfsr" `Quick test_lfsr_fibonacci;
        Alcotest.test_case "lfsr tap validation" `Quick test_lfsr_taps_validated;
        Alcotest.test_case "multi-polynomial lfsr" `Quick test_multi_polynomial;
        Alcotest.test_case "default taps" `Quick test_default_taps;
        Alcotest.test_case "triplets" `Quick test_triplet;
        QCheck_alcotest.to_alcotest prop_adder_closed_form;
      ] );
  ]

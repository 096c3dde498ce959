open Reseed_netlist
open Reseed_sim
open Reseed_util

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_block_width () = check_int "62 patterns per block" 62 Logic_sim.block_width

let test_valid_mask () =
  check_int "mask 1" 1 (Logic_sim.valid_mask 1);
  check_int "mask 3" 0b111 (Logic_sim.valid_mask 3);
  check_int "mask 62" max_int (Logic_sim.valid_mask 62);
  Alcotest.check_raises "mask 0" (Invalid_argument "Logic_sim.valid_mask") (fun () ->
      ignore (Logic_sim.valid_mask 0));
  Alcotest.check_raises "mask 63" (Invalid_argument "Logic_sim.valid_mask") (fun () ->
      ignore (Logic_sim.valid_mask 63))

(* The bit-parallel simulator must agree with the single-pattern oracle on
   every node, for random circuits and random pattern blocks. *)
let test_parallel_agrees_with_bool () =
  let rng = Rng.create 77 in
  List.iter
    (fun (inputs, gates) ->
      let spec =
        {
          (Generator.default_spec "sim" ~inputs ~outputs:3 ~gates) with
          Generator.seed = Rng.int rng 10000;
        }
      in
      let c = Generator.generate spec in
      let patterns =
        Array.init 62 (fun _ -> Array.init inputs (fun _ -> Rng.bool rng))
      in
      let block = Logic_sim.pack c (Array.map Word.of_bits patterns) in
      let words = Logic_sim.simulate c block in
      Array.iteri
        (fun k pattern ->
          let bools = Logic_sim.simulate_bool c pattern in
          Array.iteri
            (fun node w ->
              let parallel_bit = w lsr k land 1 = 1 in
              if parallel_bit <> bools.(node) then
                Alcotest.failf "node %d pattern %d disagrees" node k)
            words)
        patterns)
    [ (8, 40); (15, 120) ]

let test_pack_rejects () =
  let c = Library.c17 () in
  Alcotest.check_raises "too many patterns"
    (Invalid_argument "Logic_sim.pack: block must hold 1..62 patterns") (fun () ->
      ignore (Logic_sim.pack c (Array.make 63 (Word.zero 5))));
  Alcotest.check_raises "no pattern"
    (Invalid_argument "Logic_sim.pack: block must hold 1..62 patterns") (fun () ->
      ignore (Logic_sim.pack c ~pos:3 (Array.make 3 (Word.zero 5))));
  Alcotest.check_raises "range past the end"
    (Invalid_argument "Logic_sim.pack: range outside the pattern array") (fun () ->
      ignore (Logic_sim.pack c ~pos:2 ~len:2 (Array.make 3 (Word.zero 5))));
  Alcotest.check_raises "wrong width"
    (Invalid_argument "Logic_sim.pack: pattern width mismatch") (fun () ->
      ignore (Logic_sim.pack c [| Word.zero 4 |]))

(* A 130-pattern array packs as windows of 62, 62 and 6 patterns, each
   holding its own patterns' lanes. *)
let test_pack_windows () =
  let c = Library.c17 () in
  let words = Array.init 130 (fun k -> Word.of_int 5 (k land 31)) in
  List.iter
    (fun (pos, len) ->
      let b = Logic_sim.pack c ~pos ~len words in
      check_int "window width" len b.Logic_sim.width;
      for k = 0 to len - 1 do
        for i = 0 to 4 do
          if b.Logic_sim.per_input.(i) lsr k land 1 = 1 <> Word.get_bit words.(pos + k) i
          then Alcotest.failf "window at %d: pattern %d input %d" pos k i
        done
      done)
    [ (0, 62); (62, 62); (124, 6) ]

(* Per-bit packing of bool-array patterns, the loop [Logic_sim.pack] ran
   before it read accumulator words: input [i]'s word has bit [k] set iff
   pattern [k] sets input [i]. *)
let per_bit_pack n patterns =
  let per_input = Array.make n 0 in
  Array.iteri
    (fun k pattern ->
      for i = 0 to n - 1 do
        if pattern.(i) then per_input.(i) <- per_input.(i) lor (1 lsl k)
      done)
    patterns;
  per_input

(* A circuit of [n] primary inputs, each its own output. *)
let inputs_only n =
  let b = Circuit.Builder.create "inputs" in
  for i = 0 to n - 1 do
    Circuit.Builder.mark_output b (Circuit.Builder.add_input b (Printf.sprintf "i%d" i))
  done;
  Circuit.Builder.finalize b

(* The transposing packer equals the per-bit loop: widths 1-130 (one to
   five limbs, most not a multiple of 30), blocks of 1-62 patterns (one
   half-block or two, full or partial), random words or all ones, taken
   at an offset into a longer array.  No lane above the block and no
   input above the width is set. *)
let prop_pack_matches_per_bit =
  QCheck.Test.make ~name:"word packing = per-bit packing" ~count:300
    QCheck.(quad (int_range 1 130) (int_range 1 62) (int_bound 10_000) bool)
    (fun (width, len, seed, all_ones) ->
      let c = inputs_only width in
      let rng = Rng.create seed in
      let pos = Rng.int rng 5 in
      let words =
        Array.init (pos + len + Rng.int rng 3) (fun _ ->
            if all_ones then Word.ones width else Word.random rng width)
      in
      let b = Logic_sim.pack c ~pos ~len words in
      let want = per_bit_pack width (Array.map Word.to_bits (Array.sub words pos len)) in
      b.Logic_sim.width = len
      && Array.length b.Logic_sim.per_input = width
      && Array.for_all (fun w -> w land lnot (Logic_sim.valid_mask len) = 0) b.Logic_sim.per_input
      && (b.Logic_sim.per_input = want
         || QCheck.Test.fail_reportf "width %d, %d patterns at %d differ" width len pos))

let test_outputs_extraction () =
  let c = Library.c17 () in
  let pattern = [| true; true; false; true; false |] in
  let block = Logic_sim.pack c [| Word.of_bits pattern |] in
  let values = Logic_sim.simulate c block in
  let outs = Logic_sim.outputs c values in
  let expect = Logic_sim.output_response c pattern in
  Array.iteri
    (fun i w -> check "output bit" (w land 1 = 1) expect.(i))
    outs

let test_known_c17_response () =
  let c = Library.c17 () in
  (* All-zero input: NAND trees force both outputs to known values. *)
  let out = Logic_sim.output_response c (Array.make 5 false) in
  (* 10 = NAND(0,0)=1, 11 = NAND(0,0)=1, 16 = NAND(0,1)=1, 19 = NAND(1,0)=1,
     22 = NAND(1,1)=0, 23 = NAND(1,1)=0 *)
  check "out 22" false out.(0);
  check "out 23" false out.(1)

let suite =
  [
    ( "logic_sim",
      [
        Alcotest.test_case "block width" `Quick test_block_width;
        Alcotest.test_case "valid_mask" `Quick test_valid_mask;
        Alcotest.test_case "bit-parallel = oracle" `Quick test_parallel_agrees_with_bool;
        Alcotest.test_case "pack validation" `Quick test_pack_rejects;
        Alcotest.test_case "pack windows" `Quick test_pack_windows;
        QCheck_alcotest.to_alcotest prop_pack_matches_per_bit;
        Alcotest.test_case "output extraction" `Quick test_outputs_extraction;
        Alcotest.test_case "known c17 response" `Quick test_known_c17_response;
      ] );
  ]

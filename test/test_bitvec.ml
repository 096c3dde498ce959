open Reseed_util

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_create_empty () =
  let v = Bitvec.create 0 in
  check_int "length" 0 (Bitvec.length v);
  check "empty" true (Bitvec.is_empty v);
  check_int "count" 0 (Bitvec.count v)

let test_set_get () =
  let v = Bitvec.create 130 in
  Bitvec.set v 0;
  Bitvec.set v 61;
  Bitvec.set v 62;
  Bitvec.set v 129;
  check "bit 0" true (Bitvec.get v 0);
  check "bit 61" true (Bitvec.get v 61);
  check "bit 62" true (Bitvec.get v 62);
  check "bit 129" true (Bitvec.get v 129);
  check "bit 1" false (Bitvec.get v 1);
  check_int "count" 4 (Bitvec.count v)

let test_clear_assign () =
  let v = Bitvec.create 10 in
  Bitvec.assign v 3 true;
  check "set via assign" true (Bitvec.get v 3);
  Bitvec.clear v 3;
  check "cleared" false (Bitvec.get v 3);
  Bitvec.assign v 3 false;
  check "assign false" false (Bitvec.get v 3)

let test_bounds () =
  let v = Bitvec.create 5 in
  Alcotest.check_raises "get -1" (Invalid_argument "Bitvec: index out of range")
    (fun () -> ignore (Bitvec.get v (-1)));
  Alcotest.check_raises "get 5" (Invalid_argument "Bitvec: index out of range")
    (fun () -> ignore (Bitvec.get v 5));
  Alcotest.check_raises "negative length"
    (Invalid_argument "Bitvec.create: negative length") (fun () ->
      ignore (Bitvec.create (-1)))

let test_fill_zero () =
  let v = Bitvec.create 100 in
  Bitvec.fill_all v;
  check_int "all ones" 100 (Bitvec.count v);
  check "bit 99" true (Bitvec.get v 99);
  Bitvec.zero_all v;
  check_int "all zero" 0 (Bitvec.count v)

let test_fill_exact_boundary () =
  (* length = exact multiple of the word size *)
  let v = Bitvec.create 124 in
  Bitvec.fill_all v;
  check_int "count at boundary" 124 (Bitvec.count v)

let test_set_ops () =
  let a = Bitvec.of_list 200 [ 1; 5; 100; 150 ] in
  let b = Bitvec.of_list 200 [ 5; 100; 199 ] in
  check_int "union" 5 (Bitvec.count (Bitvec.union a b));
  check_int "inter" 2 (Bitvec.count (Bitvec.inter a b));
  check_int "diff" 2 (Bitvec.count (Bitvec.diff a b));
  check_int "count_inter" 2 (Bitvec.count_inter a b);
  check_int "count_diff" 2 (Bitvec.count_diff a b);
  check "intersects" true (Bitvec.intersects a b);
  check "subset no" false (Bitvec.subset a b);
  check "subset yes" true (Bitvec.subset (Bitvec.inter a b) a)

let test_subset_masked () =
  let a = Bitvec.of_list 100 [ 1; 50 ] in
  let b = Bitvec.of_list 100 [ 1 ] in
  let mask = Bitvec.of_list 100 [ 1 ] in
  check "masked subset" true (Bitvec.subset_masked a b ~mask);
  let mask2 = Bitvec.of_list 100 [ 1; 50 ] in
  check "masked not subset" false (Bitvec.subset_masked a b ~mask:mask2)

let test_length_mismatch () =
  let a = Bitvec.create 10 and b = Bitvec.create 11 in
  Alcotest.check_raises "union mismatch" (Invalid_argument "Bitvec: length mismatch")
    (fun () -> ignore (Bitvec.union a b))

let test_iter_fold () =
  let v = Bitvec.of_list 300 [ 0; 62; 124; 299 ] in
  check "to_list roundtrip" true (Bitvec.to_list v = [ 0; 62; 124; 299 ]);
  let sum = Bitvec.fold_ones ( + ) 0 v in
  check_int "fold sum" (0 + 62 + 124 + 299) sum;
  check "first_one" true (Bitvec.first_one v = Some 0);
  check "first_one empty" true (Bitvec.first_one (Bitvec.create 10) = None)

let test_copy_independent () =
  let a = Bitvec.of_list 64 [ 3 ] in
  let b = Bitvec.copy a in
  Bitvec.set b 4;
  check "original unchanged" false (Bitvec.get a 4);
  check "copy changed" true (Bitvec.get b 4)

let test_equal_compare () =
  let a = Bitvec.of_list 64 [ 1; 2 ] and b = Bitvec.of_list 64 [ 1; 2 ] in
  check "equal" true (Bitvec.equal a b);
  check_int "compare eq" 0 (Bitvec.compare a b);
  Bitvec.set b 3;
  check "not equal" false (Bitvec.equal a b)

let test_popcount_int () =
  check_int "popcount 0" 0 (Bitvec.popcount_int 0);
  check_int "popcount 1" 1 (Bitvec.popcount_int 1);
  check_int "popcount max_int" 62 (Bitvec.popcount_int max_int);
  check_int "popcount 0b1011" 3 (Bitvec.popcount_int 0b1011)

(* Properties *)

let gen_ops =
  QCheck.(pair (int_bound 400) (small_list (int_bound 400)))

let prop_count_matches_list =
  QCheck.Test.make ~name:"count = |to_list|" ~count:200 gen_ops (fun (n, l) ->
      let n = n + 1 in
      let l = List.filter (fun i -> i < n) l in
      let v = Bitvec.of_list n l in
      Bitvec.count v = List.length (List.sort_uniq compare l))

let prop_union_commutes =
  QCheck.Test.make ~name:"union commutes" ~count:200
    QCheck.(triple (int_bound 200) (small_list (int_bound 200)) (small_list (int_bound 200)))
    (fun (n, la, lb) ->
      let n = n + 1 in
      let f l = List.filter (fun i -> i < n) l in
      let a = Bitvec.of_list n (f la) and b = Bitvec.of_list n (f lb) in
      Bitvec.equal (Bitvec.union a b) (Bitvec.union b a))

let prop_demorgan =
  QCheck.Test.make ~name:"diff = inter with complement" ~count:200
    QCheck.(triple (int_bound 150) (small_list (int_bound 150)) (small_list (int_bound 150)))
    (fun (n, la, lb) ->
      let n = n + 1 in
      let f l = List.filter (fun i -> i < n) l in
      let a = Bitvec.of_list n (f la) and b = Bitvec.of_list n (f lb) in
      let nb = Bitvec.copy b in
      (* complement of b *)
      let comp = Bitvec.create n in
      Bitvec.fill_all comp;
      Bitvec.diff_into ~into:comp nb;
      Bitvec.equal (Bitvec.diff a b) (Bitvec.inter a comp))

let prop_subset_consistent =
  QCheck.Test.make ~name:"subset a (a∪b)" ~count:200
    QCheck.(triple (int_bound 150) (small_list (int_bound 150)) (small_list (int_bound 150)))
    (fun (n, la, lb) ->
      let n = n + 1 in
      let f l = List.filter (fun i -> i < n) l in
      let a = Bitvec.of_list n (f la) and b = Bitvec.of_list n (f lb) in
      Bitvec.subset a (Bitvec.union a b))

(* A random vector of length 0..300 at density 0..100%, with bit 61 of
   every word (the top payload bit) and the last bit (in the tail word)
   forced on, so the table lookup is exercised at both word edges. *)
let gen_vec =
  QCheck.(triple (int_bound 300) (int_bound 100) (int_bound 9999))

let random_vec (len, density, seed) =
  let rng = Rng.create seed in
  let v = Bitvec.create len in
  for i = 0 to len - 1 do
    if
      Rng.int rng 100 < density
      || i mod Bitvec.bits_per_word = Bitvec.bits_per_word - 1
      || i = len - 1
    then Bitvec.set v i
  done;
  v

let scan_ones v = List.filter (Bitvec.get v) (List.init (Bitvec.length v) Fun.id)

let prop_iteration_matches_scan =
  QCheck.Test.make ~name:"iteration = per-bit get scan" ~count:300 gen_vec
    (fun p ->
      let v = random_vec p in
      let expected = scan_ones v in
      let iterated = ref [] in
      Bitvec.iter_ones (fun i -> iterated := i :: !iterated) v;
      List.rev !iterated = expected
      && List.rev (Bitvec.fold_ones (fun acc i -> i :: acc) [] v) = expected
      && Bitvec.to_list v = expected
      && Bitvec.first_one v
         = (match expected with [] -> None | i :: _ -> Some i)
      &&
      let stepped = ref [] and j = ref (Bitvec.next_one v 0) in
      while !j >= 0 do
        stepped := !j :: !stepped;
        j := Bitvec.next_one v (!j + 1)
      done;
      List.rev !stepped = expected
      &&
      (* [sum_at] adds in ascending order, so equality is exact. *)
      let a = Array.init (Bitvec.length v) (fun i -> 0.37 *. float_of_int (i + 1)) in
      let sum = List.fold_left (fun acc i -> acc +. a.(i)) 0. expected in
      let copy = Bitvec.create (Bitvec.length v) in
      Bitvec.blit ~src:v ~dst:copy;
      let dst = [| nan; nan |] in
      Bitvec.sum_at_into v a dst 1;
      Bitvec.sum_at v a = sum
      && dst.(1) = sum
      && Float.is_nan dst.(0)
      && Bitvec.equal copy v)

(* Bits outside the mask never reach the hash: [a] and [b] agree inside
   [mask] and differ arbitrarily outside it. *)
let prop_hash_masked =
  QCheck.Test.make ~name:"hash_masked ignores unmasked bits" ~count:200
    QCheck.(pair gen_vec (pair (int_bound 9999) (int_bound 9999)))
    (fun (((len, density, _) as p), (s1, s2)) ->
      let a = random_vec p and mask = random_vec (len, 50, s2) in
      let b = Bitvec.diff (random_vec (len, density, s1)) mask in
      Bitvec.union_into ~into:b (Bitvec.inter a mask);
      Bitvec.hash_masked a ~mask = Bitvec.hash_masked b ~mask)

let suite =
  [
    ( "bitvec",
      [
        Alcotest.test_case "create empty" `Quick test_create_empty;
        Alcotest.test_case "set/get across words" `Quick test_set_get;
        Alcotest.test_case "clear/assign" `Quick test_clear_assign;
        Alcotest.test_case "bounds checking" `Quick test_bounds;
        Alcotest.test_case "fill/zero" `Quick test_fill_zero;
        Alcotest.test_case "fill at word boundary" `Quick test_fill_exact_boundary;
        Alcotest.test_case "set operations" `Quick test_set_ops;
        Alcotest.test_case "subset_masked" `Quick test_subset_masked;
        Alcotest.test_case "length mismatch raises" `Quick test_length_mismatch;
        Alcotest.test_case "iter/fold/first" `Quick test_iter_fold;
        Alcotest.test_case "copy independence" `Quick test_copy_independent;
        Alcotest.test_case "equal/compare" `Quick test_equal_compare;
        Alcotest.test_case "popcount_int" `Quick test_popcount_int;
        QCheck_alcotest.to_alcotest prop_count_matches_list;
        QCheck_alcotest.to_alcotest prop_union_commutes;
        QCheck_alcotest.to_alcotest prop_demorgan;
        QCheck_alcotest.to_alcotest prop_subset_consistent;
        QCheck_alcotest.to_alcotest prop_iteration_matches_scan;
        QCheck_alcotest.to_alcotest prop_hash_masked;
      ] );
  ]

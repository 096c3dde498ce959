(* The exact end-game's GRASP incumbent: a GRASP cover is a valid,
   trimmed, reproducible cover, and [Ilp.solve] on an instance its first
   node quantum does not close ends no worse than the GRASP best or the
   same search run without it. *)

open Reseed_setcover
open Reseed_util

let check = Alcotest.(check bool)

let random_matrix rng ~rows ~cols ~per_mille =
  let m = Matrix.create ~rows ~cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      if Rng.int rng 1000 < per_mille then Matrix.set m ~row:i ~col:j
    done
  done;
  m

let union m rows =
  let u = Bitvec.create (Matrix.cols m) in
  List.iter (fun i -> Bitvec.union_into ~into:u (Matrix.row m i)) rows;
  u

let prop_grasp_cover =
  QCheck.Test.make ~name:"grasp cover: covers, no redundant row, seeded" ~count:60
    QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 5000) in
      let m =
        random_matrix rng ~rows:(1 + Rng.int rng 40) ~cols:(1 + Rng.int rng 60)
          ~per_mille:(20 + Rng.int rng 300)
      in
      let weights =
        if Rng.bool rng then None
        else Some (Array.init (Matrix.rows m) (fun _ -> 1. +. float_of_int (Rng.int rng 9)))
      in
      let alpha = 0.5 +. (0.1 *. float_of_int (Rng.int rng 6)) in
      let cover () = Greedy.grasp_cover ?weights ~rng:(Rng.create seed) ~alpha m in
      let rows = cover () in
      let universe = Matrix.universe m in
      Bitvec.subset universe (union m rows)
      && List.for_all
           (fun i ->
             not (Bitvec.subset universe (union m (List.filter (( <> ) i) rows))))
           rows
      && rows = List.sort_uniq compare rows
      && cover () = rows)

(* 300 rows x 120 columns at 3% density: the plain search is still open
   after 500,000 nodes, and the GRASP best (28 rows) beats what it holds
   after 600,000 (31). *)
let open_instance () =
  random_matrix (Rng.create 0) ~rows:300 ~cols:120 ~per_mille:30

let grasp_best m =
  List.fold_left
    (fun acc r ->
      Float.min acc
        (Greedy.cost (Greedy.grasp_cover ~rng:(Rng.create r) ~alpha:0.8 m)))
    infinity (List.init 64 Fun.id)

let test_grasp_incumbent () =
  let m = open_instance () and node_limit = 600_000 in
  let plain = Ilp.start ~node_limit (Ilp.root m) in
  Ilp.advance ~quantum:500_000 plain;
  check "open after the first quantum" false (Ilp.exhausted plain);
  Ilp.advance plain;
  let plain_cost = snd (Ilp.best plain) and grasp = grasp_best m in
  let r = Ilp.solve ~node_limit m in
  check "valid cover" true (Matrix.covers m ~rows_subset:r.Ilp.selected);
  check "cost is the cover's" true
    (Greedy.cost r.Ilp.selected = r.Ilp.cost);
  check "stopped at the node limit" true (r.Ilp.stop_reason = Ilp.Node_limit);
  check "no worse than the GRASP best" true (r.Ilp.cost <= grasp);
  check "no worse than the plain search" true (r.Ilp.cost <= plain_cost);
  check "GRASP improves on the plain search here" true (grasp < plain_cost);
  check "deterministic" true ((Ilp.solve ~node_limit m).Ilp.selected = r.Ilp.selected)

let suite =
  [
    ( "endgame",
      [
        QCheck_alcotest.to_alcotest prop_grasp_cover;
        Alcotest.test_case "grasp incumbent in Ilp.solve" `Quick test_grasp_incumbent;
      ] );
  ]

(* The allocation-free branch-and-bound against [Ilp_reference], the
   search as it stood before, kept verbatim.  Both must explore the same
   nodes in the same order, so every observable agrees: the answer, the
   stop reason and the node, prune and incumbent counts — for [solve]
   with and without a node limit, and for the resumable API driven in
   random quanta with random injected incumbents. *)

open Reseed_core
open Reseed_setcover
open Reseed_util
module Ref = Ilp_reference

(* A random small instance shaped to make ties: few distinct weights,
   duplicated rows, and columns no row covers.  Widths up to 150 span
   several row words. *)
let random_instance seed =
  let rng = Rng.create (seed + 7000) in
  let rows = 1 + Rng.int rng 30 in
  let cols = 1 + (if Rng.bool rng then Rng.int rng 20 else Rng.int rng 150) in
  let density = 5 + Rng.int rng 50 in
  let dead = Array.init cols (fun _ -> Rng.int rng 100 < 10) in
  let row () =
    List.filter
      (fun j -> (not dead.(j)) && Rng.int rng 100 < density)
      (List.init cols Fun.id)
  in
  let acc = ref [] in
  for _ = 1 to rows do
    match !acc with
    | r :: _ when Rng.int rng 100 < 20 -> acc := r :: !acc
    | _ -> acc := row () :: !acc
  done;
  let m =
    Matrix.of_rows ~cols
      (Array.of_list (List.rev_map (Bitvec.of_list cols) !acc))
  in
  let weights =
    match Rng.int rng 3 with
    | 0 -> None
    | 1 -> Some (Array.init rows (fun _ -> float_of_int (1 + Rng.int rng 3)))
    | _ -> Some (Array.init rows (fun _ -> 0.1 *. float_of_int (1 + Rng.int rng 30)))
  in
  (rng, m, weights)

let show_rows l = String.concat "," (List.map string_of_int l)

let diff_result (a : Ilp.result) (b : Ilp.result) =
  let f name x y = if x = y then [] else [ Printf.sprintf "%s: %s vs %s" name x y ] in
  List.concat
    [
      f "selected" (show_rows a.selected) (show_rows b.selected);
      f "cost" (Printf.sprintf "%h" a.cost) (Printf.sprintf "%h" b.cost);
      f "optimal" (string_of_bool a.optimal) (string_of_bool b.optimal);
      f "nodes" (string_of_int a.nodes_explored) (string_of_int b.nodes_explored);
      f "stop" (Ilp.stop_reason_name a.stop_reason) (Ilp.stop_reason_name b.stop_reason);
      f "uncovered" (show_rows a.uncovered) (show_rows b.uncovered);
    ]

let prop_solve =
  QCheck.Test.make ~name:"solve = reference, with and without a node limit"
    ~count:300 QCheck.(int_bound 100_000)
    (fun seed ->
      let rng, m, weights = random_instance seed in
      let node_limit = if Rng.bool rng then None else Some (1 + Rng.int rng 40) in
      let ilp = Ilp.solve ?weights ?node_limit m
      and reference = Ref.solve ?weights ?node_limit m in
      match diff_result ilp reference with
      | [] -> true
      | d -> QCheck.Test.fail_reportf "seed %d: %s" seed (String.concat "; " d))

(* Drive both searches a random quantum at a time, injecting the same
   random incumbent into both now and then (a valid cover or an
   arbitrary one: [inject] must treat them alike), and require equal
   observables after every quantum.  A quarter of the runs first inject
   a cost one epsilon above the root's Lagrangian bound, so the root's
   prune test meets its threshold exactly: [>=] and [>] part there. *)
let prop_resumable =
  QCheck.Test.make ~name:"resumable search = reference after every quantum"
    ~count:300 QCheck.(int_bound 100_000)
    (fun seed ->
      let rng, m, weights = random_instance seed in
      let node_limit = if Rng.bool rng then 2_000_000 else 1 + Rng.int rng 60 in
      let s = Ilp.start ~node_limit (Ilp.root ?weights m)
      and r = Ref.start ?weights ~node_limit m in
      let observe best nodes incs prunes stop exhausted =
        let rows, cost = best in
        Printf.sprintf "best %s @ %h, nodes %d, incumbents %d, prunes %d, stop %s%s"
          (show_rows rows) cost nodes incs prunes
          (match stop with None -> "-" | Some x -> Ilp.stop_reason_name x)
          (if exhausted then ", exhausted" else "")
      in
      let obs_s () =
        observe (Ilp.best s) (Ilp.nodes_explored s) (Ilp.incumbent_updates s)
          (Ilp.prunes s) (Ilp.search_stop s) (Ilp.exhausted s)
      and obs_r () =
        observe (Ref.best r) (Ref.nodes_explored r) (Ref.incumbent_updates r)
          (Ref.prunes r) (Ref.search_stop r) (Ref.exhausted r)
      in
      if Rng.int rng 100 < 25 then begin
        let rows, ub = Ilp.best s in
        let w = match weights with Some w -> w | None -> Array.make (Matrix.rows m) 1. in
        let cost = (Lagrangian.optimize ~ub ~weights:w m).Lagrangian.lb +. 1e-9 in
        Ilp.inject s ~rows ~cost;
        Ref.inject r ~rows ~cost
      end;
      let rec go k =
        let a = obs_s () and b = obs_r () in
        if a <> b then
          QCheck.Test.fail_reportf "seed %d, quantum %d:\n  ilp %s\n  ref %s" seed k a b
        else if Ilp.exhausted s || Ilp.search_stop s <> None || k > 10_000 then true
        else begin
          if Rng.int rng 100 < 30 then begin
            let rows =
              List.filter (fun _ -> Rng.bool rng) (List.init (Matrix.rows m) Fun.id)
            in
            let cost = snd (Ilp.best s) -. float_of_int (Rng.int rng 3) in
            Ilp.inject s ~rows ~cost;
            Ref.inject r ~rows ~cost
          end;
          let quantum = 1 + Rng.int rng 12 in
          Ilp.advance ~quantum s;
          Ref.advance ~quantum r;
          go (k + 1)
        end
      in
      go 0)

(* A cancelled budget stops both searches at the same node. *)
let test_budget () =
  for seed = 0 to 40 do
    let _, m, weights = random_instance seed in
    let b = Budget.create () in
    Budget.cancel b;
    match diff_result (Ilp.solve ?weights ~budget:b m) (Ref.solve ?weights ~budget:b m) with
    | [] -> ()
    | d -> Alcotest.failf "seed %d: %s" seed (String.concat "; " d)
  done

(* The exact end-game of the paper's Table 1 flows (7 circuits x 3 TPGs,
   minimum triplets and minimum test length): both solvers on every
   residual, and the summed node count pinned at the value the search
   has always explored, so any change to the node sequence shows. *)
let table1_nodes = 217_156

let test_table1_endgame () =
  let total = ref 0 in
  List.iter
    (fun name ->
      let p = Suite.prepare name in
      List.iter
        (fun tpg ->
          let b =
            Builder.build p.Suite.sim tpg ~tests:p.Suite.tests ~targets:p.Suite.targets
              ~config:Builder.default_config
          in
          let m = b.Builder.matrix in
          List.iter
            (fun row_weights ->
              let red = Reduce.run ?row_weights m in
              let residual, row_map, _ = Reduce.residual m red in
              let weights =
                Option.map (fun w -> Array.map (fun i -> w.(i)) row_map) row_weights
              in
              if Matrix.rows residual > 0 && Matrix.cols residual > 0 then begin
                let ilp = Ilp.solve ?weights residual in
                (match diff_result ilp (Ref.solve ?weights residual) with
                | [] -> ()
                | d -> Alcotest.failf "%s/%s: %s" name tpg.Reseed_tpg.Tpg.name (String.concat "; " d));
                total := !total + ilp.Ilp.nodes_explored
              end)
            [ None; Some (Array.map float_of_int b.Builder.useful_cycles) ])
        (Reseed_tpg.Accumulator.paper_tpgs
           (Reseed_netlist.Circuit.input_count p.Suite.circuit)))
    [ "c432"; "c499"; "c880"; "s420"; "s641"; "s820"; "s1238" ];
  Alcotest.(check int) "table1 end-game nodes" table1_nodes !total

let suite =
  [
    ( "ilp-oracle",
      [
        QCheck_alcotest.to_alcotest prop_solve;
        QCheck_alcotest.to_alcotest prop_resumable;
        Alcotest.test_case "cancelled budget" `Quick test_budget;
        Alcotest.test_case "table1 end-game" `Slow test_table1_endgame;
      ] );
  ]

open Reseed_core
open Reseed_netlist
open Reseed_setcover
open Reseed_tpg
open Reseed_util

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let prepared_c17 = lazy (Suite.prepare "c17")
let prepared_addr = lazy (Suite.prepare_circuit (Library.ripple_adder 6))

(* --- Builder --- *)

let test_builder_one_triplet_per_pattern () =
  let p = Lazy.force prepared_c17 in
  let tpg = Accumulator.adder 5 in
  let b =
    Builder.build p.Suite.sim tpg ~tests:p.Suite.tests ~targets:p.Suite.targets
      ~config:Builder.default_config
  in
  check_int "rows = patterns" (Array.length p.Suite.tests) (Array.length b.Builder.triplets);
  check_int "matrix rows" (Array.length p.Suite.tests) (Matrix.rows b.Builder.matrix)

let test_builder_seeds_are_patterns () =
  let p = Lazy.force prepared_c17 in
  let tpg = Accumulator.adder 5 in
  let b =
    Builder.build p.Suite.sim tpg ~tests:p.Suite.tests ~targets:p.Suite.targets
      ~config:Builder.default_config
  in
  Array.iteri
    (fun i t ->
      check "seed = ATPG pattern" true
        (Word.to_bits t.Triplet.seed = p.Suite.tests.(i)))
    b.Builder.triplets

let test_builder_covers_targets_by_construction () =
  (* Union of all rows ⊇ targets: the seed is the burst's first pattern. *)
  let p = Lazy.force prepared_c17 in
  List.iter
    (fun tpg ->
      let b =
        Builder.build p.Suite.sim tpg ~tests:p.Suite.tests ~targets:p.Suite.targets
          ~config:Builder.default_config
      in
      let u = Bitvec.create (Matrix.cols b.Builder.matrix) in
      Array.iteri
        (fun i _ -> Bitvec.union_into ~into:u (Matrix.row b.Builder.matrix i))
        b.Builder.triplets;
      check (tpg.Tpg.name ^ " covers") true (Bitvec.subset p.Suite.targets u))
    (Accumulator.paper_tpgs 5)

let test_builder_nontarget_columns_empty () =
  let p = Lazy.force prepared_c17 in
  let tpg = Accumulator.adder 5 in
  let targets = Bitvec.copy p.Suite.targets in
  (* exclude a couple of faults *)
  Bitvec.clear targets 0;
  Bitvec.clear targets 5;
  let b =
    Builder.build p.Suite.sim tpg ~tests:p.Suite.tests ~targets
      ~config:Builder.default_config
  in
  check "excluded col 0 empty" true (Bitvec.is_empty (Matrix.col b.Builder.matrix 0));
  check "excluded col 5 empty" true (Bitvec.is_empty (Matrix.col b.Builder.matrix 5))

let test_builder_shared_operand () =
  let p = Lazy.force prepared_c17 in
  let tpg = Accumulator.adder 5 in
  let sigma = Word.of_int 5 7 in
  let config =
    { Builder.default_config with Builder.operand_mode = Builder.Shared_operand sigma }
  in
  let b = Builder.build p.Suite.sim tpg ~tests:p.Suite.tests ~targets:p.Suite.targets ~config in
  Array.iter
    (fun t -> check "operand shared" true (Word.equal t.Triplet.operand sigma))
    b.Builder.triplets

let test_builder_cycle_config () =
  let p = Lazy.force prepared_c17 in
  let tpg = Accumulator.adder 5 in
  let config = { Builder.default_config with Builder.cycles = 3 } in
  let b = Builder.build p.Suite.sim tpg ~tests:p.Suite.tests ~targets:p.Suite.targets ~config in
  Array.iter (fun t -> check_int "cycles" 3 t.Triplet.cycles) b.Builder.triplets

(* --- Flow --- *)

let flow_on p tpg = Flow.run p.Suite.sim tpg ~tests:p.Suite.tests ~targets:p.Suite.targets

let test_flow_full_coverage () =
  let p = Lazy.force prepared_c17 in
  List.iter
    (fun tpg ->
      let r = flow_on p tpg in
      check "coverage 100" true (r.Flow.coverage_pct >= 100.0);
      check "verifies" true (Flow.verify p.Suite.sim tpg r))
    (Accumulator.paper_tpgs 5)

let test_flow_minimality () =
  (* No triplet of the final solution is removable (the paper's definition
     of a minimal solution). *)
  let p = Lazy.force prepared_addr in
  let tpg = Accumulator.adder (Circuit.input_count p.Suite.circuit) in
  let r = flow_on p tpg in
  let rows = r.Flow.solution.Solution.rows in
  let m = r.Flow.initial.Builder.matrix in
  List.iter
    (fun dropped ->
      let subset = List.filter (fun x -> x <> dropped) rows in
      if Matrix.covers m ~rows_subset:subset then
        Alcotest.failf "triplet %d is removable" dropped)
    rows

let test_flow_test_length_bounds () =
  let p = Lazy.force prepared_addr in
  let tpg = Accumulator.adder (Circuit.input_count p.Suite.circuit) in
  let r = flow_on p tpg in
  check "positive" true (r.Flow.test_length > 0);
  check "each triplet within T" true
    (List.for_all
       (fun t -> t.Triplet.cycles <= Builder.default_config.Builder.cycles)
       r.Flow.final_triplets);
  check "uniform >= truncated" true (r.Flow.uniform_test_length >= r.Flow.test_length)

let test_flow_truncation_sound () =
  (* Truncated triplets must still achieve full target coverage — verify
     does exactly that, but check the count here explicitly. *)
  let p = Lazy.force prepared_addr in
  let tpg = Accumulator.subtracter (Circuit.input_count p.Suite.circuit) in
  let r = flow_on p tpg in
  let all = Array.concat (List.map (fun t -> Triplet.patterns tpg t) r.Flow.final_triplets) in
  let det = Reseed_fault.Fault_sim.detected_set p.Suite.sim all ~active:p.Suite.targets in
  check "truncated bursts still cover" true (Bitvec.subset p.Suite.targets det)

let test_flow_solution_cardinality_vs_greedy () =
  let p = Lazy.force prepared_addr in
  let tpg = Accumulator.adder (Circuit.input_count p.Suite.circuit) in
  let exact = flow_on p tpg in
  let greedy =
    Flow.run
      ~config:{ Flow.default_config with Flow.method_ = Solution.Greedy_only }
      p.Suite.sim tpg ~tests:p.Suite.tests ~targets:p.Suite.targets
  in
  check "exact <= greedy" true (Flow.reseedings exact <= Flow.reseedings greedy)

let test_flow_fault_sims_counted () =
  let p = Lazy.force prepared_c17 in
  let tpg = Accumulator.adder 5 in
  let r = flow_on p tpg in
  check "fault sims > 0" true (r.Flow.fault_sims > 0)

(* --- Tradeoff --- *)

let test_tradeoff_monotone_triplets () =
  let p = Lazy.force prepared_addr in
  let tpg = Accumulator.adder (Circuit.input_count p.Suite.circuit) in
  let points =
    Tradeoff.sweep p.Suite.sim tpg ~tests:p.Suite.tests ~targets:p.Suite.targets
      ~grid:[ 4; 32; 256 ]
  in
  check_int "three points" 3 (List.length points);
  let triplet_counts = List.map (fun pt -> pt.Tradeoff.triplets) points in
  (* longer bursts never need more triplets *)
  let rec non_increasing = function
    | a :: b :: rest -> a >= b && non_increasing (b :: rest)
    | _ -> true
  in
  check "non-increasing" true (non_increasing triplet_counts)

let test_tradeoff_grid_sorted_and_rendered () =
  let p = Lazy.force prepared_c17 in
  let tpg = Accumulator.adder 5 in
  let points =
    Tradeoff.sweep p.Suite.sim tpg ~tests:p.Suite.tests ~targets:p.Suite.targets
      ~grid:[ 64; 4 ]
  in
  check "sorted by cycles" true
    (List.map (fun pt -> pt.Tradeoff.cycles) points = [ 4; 64 ]);
  let s = Tradeoff.render points in
  check "render nonempty" true (String.length s > 0)

let test_default_grid () =
  let g = Tradeoff.default_grid ~max_cycles:64 in
  check "grid" true (g = [ 8; 16; 32; 64 ])

(* --- Suite drivers --- *)

let test_table_rows () =
  let p = Lazy.force prepared_c17 in
  let row = Suite.table1_row ~with_gatsby:true p in
  check_int "three TPG entries" 3 (List.length row.Suite.entries);
  List.iter
    (fun e ->
      check "sc triplets positive" true (e.Suite.sc_triplets >= 1);
      check "gatsby present" true (e.Suite.gatsby_triplets <> None))
    row.Suite.entries;
  let row2 = Suite.table2_row p in
  check_int "t2 entries" 3 (List.length row2.Suite.t2_entries);
  check_int "initial triplets = |ATPGTS|" (Array.length p.Suite.tests) row2.Suite.initial_triplets;
  let s1 = Suite.render_table1 [ row ] in
  let s2 = Suite.render_table2 [ row2 ] in
  check "renders" true (String.length s1 > 0 && String.length s2 > 0)

(* Two preparations of one circuit that differ only in the fault model
   are different workloads: each Table 2 row must match a direct flow run on
   its own preparation, never one computed for the other. *)
let test_table_rows_keyed_by_workload () =
  let row_of p =
    List.map
      (fun tpg ->
        let r = Flow.run p.Suite.sim tpg ~tests:p.Suite.tests ~targets:p.Suite.targets in
        let s = r.Flow.solution.Solution.stats in
        ( tpg.Tpg.name,
          List.length s.Solution.necessary,
          s.Solution.reduced_rows,
          s.Solution.reduced_cols ))
      (Suite.paper_tpgs p)
  in
  let memo_row p =
    List.map
      (fun e -> Suite.(e.t2_tpg, e.necessary, e.reduced_rows, e.reduced_cols))
      (Suite.table2_row p).Suite.t2_entries
  in
  let stuck = Suite.prepare "c432" in
  let transition =
    Suite.prepare ~fault_model:Reseed_fault.Fault_model.Transition_delay "c432"
  in
  check "the models prepare different workloads" true
    (stuck.Suite.fingerprint <> transition.Suite.fingerprint);
  check "stuck-at row" true (memo_row stuck = row_of stuck);
  check "transition row is its own" true (memo_row transition = row_of transition)

(* The detection matrix against per-fault injection: every row and
   [useful_cycles] entry [Builder.build] computes on a prepared workload
   must equal the one the reference's [Event] engine derives from the
   same triplet's burst, and the reference must grade the ATPG test set
   to the same targets. *)
let test_flow_engines_agree () =
  let module R = Fault_sim_reference in
  List.iter
    (fun name ->
      let p = Suite.prepare name in
      let c = p.Suite.circuit and targets = p.Suite.targets in
      let ev = R.create ~engine:R.Event c (Reseed_fault.Fault_sim.faults p.Suite.sim) in
      let all = Bitvec.create (Bitvec.length targets) in
      Bitvec.fill_all all;
      check (name ^ ": ATPG targets") true
        (Bitvec.equal targets (R.detected_set ev p.Suite.tests ~active:all));
      let tpg = Accumulator.adder (Circuit.input_count c) in
      let b =
        Builder.build p.Suite.sim tpg ~tests:p.Suite.tests ~targets
          ~config:Builder.default_config
      in
      Array.iteri
        (fun i triplet ->
          let row = Bitvec.create (Bitvec.length targets) and useful = ref 1 in
          Array.iteri
            (fun fi first ->
              match first with
              | Some k ->
                  Bitvec.set row fi;
                  useful := max !useful (k + 1)
              | None -> ())
            (R.first_detections ev ~active:targets
               (Array.map Word.to_bits (Triplet.patterns tpg triplet)));
          if not (Bitvec.equal row (Matrix.row b.Builder.matrix i)) then
            Alcotest.failf "%s: row %d differs from event" name i;
          check_int
            (Printf.sprintf "%s: useful cycles of row %d" name i)
            !useful b.Builder.useful_cycles.(i))
        b.Builder.triplets)
    [ "c432"; "s420"; "s1238" ]

let suite =
  [
    ( "builder+flow",
      [
        Alcotest.test_case "one triplet per pattern" `Quick test_builder_one_triplet_per_pattern;
        Alcotest.test_case "seeds are ATPG patterns" `Quick test_builder_seeds_are_patterns;
        Alcotest.test_case "initial reseeding covers F" `Quick test_builder_covers_targets_by_construction;
        Alcotest.test_case "non-target columns empty" `Quick test_builder_nontarget_columns_empty;
        Alcotest.test_case "shared operand mode" `Quick test_builder_shared_operand;
        Alcotest.test_case "cycle configuration" `Quick test_builder_cycle_config;
        Alcotest.test_case "flow reaches 100% on targets" `Quick test_flow_full_coverage;
        Alcotest.test_case "solution is minimal" `Quick test_flow_minimality;
        Alcotest.test_case "test length accounting" `Quick test_flow_test_length_bounds;
        Alcotest.test_case "truncation is sound" `Quick test_flow_truncation_sound;
        Alcotest.test_case "exact <= greedy" `Quick test_flow_solution_cardinality_vs_greedy;
        Alcotest.test_case "fault sims counted" `Quick test_flow_fault_sims_counted;
        Alcotest.test_case "tradeoff monotone" `Slow test_tradeoff_monotone_triplets;
        Alcotest.test_case "tradeoff sorting/render" `Quick test_tradeoff_grid_sorted_and_rendered;
        Alcotest.test_case "default grid" `Quick test_default_grid;
        Alcotest.test_case "suite table rows" `Slow test_table_rows;
        Alcotest.test_case "table rows keyed by workload" `Quick
          test_table_rows_keyed_by_workload;
        Alcotest.test_case "event = cpt end to end" `Slow test_flow_engines_agree;
      ] );
  ]

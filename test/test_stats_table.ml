open Reseed_util

let check_float = Alcotest.(check (float 1e-9))
let check_str = Alcotest.(check string)

let test_mean_stddev () =
  check_float "mean" 2.0 (Stats.mean [ 1.; 2.; 3. ]);
  check_float "stddev const" 0.0 (Stats.stddev [ 5.; 5.; 5. ]);
  check_float "stddev" 1.0 (Stats.stddev [ 1.; 3.; 1.; 3.; 1.; 3.; 1.; 3. ])

let test_median_percentile () =
  check_float "median odd" 2.0 (Stats.median [ 3.; 1.; 2. ]);
  check_float "median even" 2.5 (Stats.median [ 1.; 2.; 3.; 4. ]);
  check_float "p100" 9.0 (Stats.percentile 100. [ 1.; 9.; 5. ]);
  check_float "p0 is min-ish" 1.0 (Stats.percentile 0. [ 1.; 9.; 5. ]);
  check_float "min" 1.0 (Stats.minimum [ 3.; 1.; 2. ]);
  check_float "max" 3.0 (Stats.maximum [ 3.; 1.; 2. ])

let test_empty_raises () =
  Alcotest.check_raises "mean empty" (Invalid_argument "Stats.mean: empty list")
    (fun () -> ignore (Stats.mean []))

let test_ratio_pct () =
  check_float "ratio" 0.5 (Stats.ratio 1. 2.);
  Alcotest.(check bool) "ratio by zero is nan" true (Float.is_nan (Stats.ratio 1. 0.));
  check_float "pct" 50.0 (Stats.pct 1 2);
  check_float "pct zero whole" 0.0 (Stats.pct 1 0)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_table_render () =
  let t = Table.create ~title:"T" [ ("a", Table.Left); ("b", Table.Right) ] in
  Table.add_row t [ "x"; "1" ];
  Table.add_separator t;
  Table.add_row t [ "yy"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && String.sub s 0 1 = "T");
  Alcotest.(check bool) "mentions yy" true (contains ~needle:"yy" s);
  Alcotest.(check bool) "right-aligns 22" true (contains ~needle:" 22 |" s)

let test_table_mismatch () =
  let t = Table.create ~title:"" [ ("a", Table.Left) ] in
  Alcotest.check_raises "cell count" (Invalid_argument "Table.add_row: cell count mismatch")
    (fun () -> Table.add_row t [ "x"; "y" ])

let test_cells () =
  check_str "int" "42" (Table.cell_int 42);
  check_str "float" "1.50" (Table.cell_float 1.5);
  check_str "float decimals" "1.5000" (Table.cell_float ~decimals:4 1.5);
  check_str "pct" "97.31%" (Table.cell_pct 97.31);
  check_str "opt none" "-" (Table.cell_opt Table.cell_int None);
  check_str "opt some" "7" (Table.cell_opt Table.cell_int (Some 7))

let suite =
  [
    ( "stats+table",
      [
        Alcotest.test_case "mean/stddev" `Quick test_mean_stddev;
        Alcotest.test_case "median/percentile" `Quick test_median_percentile;
        Alcotest.test_case "empty raises" `Quick test_empty_raises;
        Alcotest.test_case "ratio/pct" `Quick test_ratio_pct;
        Alcotest.test_case "table render" `Quick test_table_render;
        Alcotest.test_case "table mismatch" `Quick test_table_mismatch;
        Alcotest.test_case "cell helpers" `Quick test_cells;
      ] );
  ]

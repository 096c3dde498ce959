(* The reseed executable, spawned as a child process: option values
   outside their range are usage errors (exit 2) naming the flag,
   tradeoff runs on the pool its --jobs asks for, solve --verify checks
   degraded runs too, and solve reports the faults outside F by their
   ATPG class.  The table bench is spawned the same way: each of its
   modes must print its golden file, timings masked. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let reseed = "../bin/reseed.exe"

(* Runs [exe args] ([exe] defaults to the reseed executable) with [env]
   added to the environment minus every RESEED_* variable; returns the
   exit code and the captured stdout and stderr. *)
let run ?(exe = reseed) ?(env = []) args =
  let inherited =
    List.filter
      (fun s -> not (String.starts_with ~prefix:"RESEED_" s))
      (Array.to_list (Unix.environment ()))
  in
  let out_file = Filename.temp_file "reseed-cli" ".out" in
  let err_file = Filename.temp_file "reseed-cli" ".err" in
  Fun.protect ~finally:(fun () -> Sys.remove out_file; Sys.remove err_file)
  @@ fun () ->
  let open_w f = Unix.openfile f [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  let out = open_w out_file and err = open_w err_file in
  let pid =
    Unix.create_process_env exe
      (Array.of_list (exe :: args))
      (Array.of_list (env @ inherited))
      Unix.stdin out err
  in
  Unix.close out;
  Unix.close err;
  let code =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> 128 + s
  in
  let read f = In_channel.with_open_bin f In_channel.input_all in
  (code, read out_file, read err_file)

(* The offset just past each occurrence of [sub] in [s]. *)
let occurrences ~sub s =
  let n = String.length sub in
  let rec go i acc =
    if i + n > String.length s then List.rev acc
    else go (i + 1) (if String.sub s i n = sub then (i + n) :: acc else acc)
  in
  go 0 []

let contains ~sub s = occurrences ~sub s <> []

let test_out_of_range_is_usage () =
  List.iter
    (fun (flag, args) ->
      let code, _, err = run args in
      check_int (flag ^ " exits 2") 2 code;
      check (flag ^ " named in the message") true
        (contains ~sub:(Printf.sprintf "option '%s'" flag) err))
    [
      ("--jobs", [ "solve"; "c17"; "--jobs"; "0" ]);
      ("--cycles", [ "solve"; "c17"; "--cycles"; "0" ]);
      ("--scale", [ "solve"; "c432"; "--scale"; "0" ]);
      ("--population", [ "gatsby"; "c17"; "--population"; "1" ]);
      ("--population", [ "gatsby"; "c17"; "--population"; "2" ]);
      ("--generations", [ "gatsby"; "c17"; "--generations=-1" ]);
    ]

(* A 1-job pool runs every span on the calling domain: the trace must
   show no worker tid, even though RESEED_JOBS asks for four. *)
let test_tradeoff_honours_jobs () =
  let trace = Filename.temp_file "reseed-cli" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove trace) @@ fun () ->
  let code, _, _ =
    run ~env:[ "RESEED_JOBS=4" ]
      [ "tradeoff"; "c432"; "--jobs"; "1"; "--grid=8,32"; "--trace"; trace ]
  in
  check_int "exit 0" 0 code;
  let text = In_channel.with_open_bin trace In_channel.input_all in
  let digits_at i =
    let j = ref i in
    while !j < String.length text && text.[!j] >= '0' && text.[!j] <= '9' do
      incr j
    done;
    int_of_string (String.sub text i (!j - i))
  in
  let tids = List.map digits_at (occurrences ~sub:"\"tid\":" text) in
  check "trace has events" true (tids <> []);
  check "every tid is 0" true (List.for_all (( = ) 0) tids)

(* 50 ms of injected latency on every pool task stretches s1238's
   83-row matrix build past 2 s on two workers, whatever the machine's
   speed, while ATPG takes a few milliseconds: a 0.5 s deadline always
   expires inside the build.  --verify must still re-grade the final
   triplets, of which there must be some, reproduce the printed coverage
   (which may be below 100%) and say so. *)
let test_verify_degraded () =
  let code, out, _ =
    run
      [
        "solve"; "s1238"; "--jobs"; "2"; "--chaos"; "1:pool.task=latency:0.05";
        "--deadline"; "0.5"; "--verify";
      ]
  in
  check_int "exit 0" 0 code;
  check "run is degraded" true (contains ~sub:"degraded: true" out);
  check "verification: PASSED" true (contains ~sub:"verification: PASSED" out);
  let triplets =
    match occurrences ~sub:"\nsolution: " out with
    | i :: _ -> Scanf.sscanf (String.sub out i (String.length out - i)) "%d" Fun.id
    | [] -> 0
  in
  check "at least one triplet" true (triplets >= 1)

(* c432's 18 empty matrix columns are its 7 untestable and 11 aborted
   faults, none of them in F: a full-coverage run prints their split and
   no warning. *)
let test_faults_outside_f () =
  let code, out, _ = run [ "solve"; "c432" ] in
  check_int "exit 0" 0 code;
  check "split line" true
    (contains ~sub:"\nfaults outside F: 18 (7 untestable, 11 aborted)\n" out);
  check "no warning" false (contains ~sub:"warning:" out);
  check "full coverage" true (contains ~sub:"coverage 100.00%" out)

(* The masks for bench output: every time [N.Ms] reads [N.Ns]; with
   [~unsuffixed_time], so does a float that closes a table row (the
   ablation table's seconds column), as [T]. *)
let mask_line ~unsuffixed_time line =
  let line = Str.global_replace (Str.regexp "[0-9]+\\.[0-9]+s") "N.Ns" line in
  if unsuffixed_time then
    Str.global_replace (Str.regexp "| *[0-9]+\\.[0-9]+ |$") "| T |" line
  else line

(* [bench/main.exe mode] at 2 worker domains, no store, masked, must
   equal [golden/bench_<mode>.txt] line for line. *)
let test_bench_golden mode () =
  let code, out, _ =
    run ~exe:"../bench/main.exe" ~env:[ "RESEED_JOBS=2" ] [ mode ]
  in
  check_int "exit 0" 0 code;
  let lines s = String.split_on_char '\n' s in
  let got =
    List.map (mask_line ~unsuffixed_time:(mode = "ablation")) (lines out)
  in
  let want =
    lines
      (In_channel.with_open_bin
         (Printf.sprintf "golden/bench_%s.txt" mode)
         In_channel.input_all)
  in
  let rec first_diff k = function
    | g :: gs, w :: ws -> if g = w then first_diff (k + 1) (gs, ws) else Some (k, g, w)
    | [], [] -> None
    | g :: _, [] -> Some (k, g, "<end of golden file>")
    | [], w :: _ -> Some (k, "<end of output>", w)
  in
  match first_diff 1 (got, want) with
  | None -> ()
  | Some (k, g, w) ->
      Alcotest.failf "bench %s, line %d:\n  got    %S\n  golden %S" mode k g w

let suite =
  [
    ( "cli",
      [
        Alcotest.test_case "out-of-range integers are usage errors" `Quick
          test_out_of_range_is_usage;
        Alcotest.test_case "tradeoff honours --jobs" `Quick test_tradeoff_honours_jobs;
        Alcotest.test_case "solve --verify checks degraded runs" `Quick
          test_verify_degraded;
        Alcotest.test_case "solve splits the faults outside F" `Quick
          test_faults_outside_f;
      ] );
    ( "bench-golden",
      List.map
        (fun mode -> Alcotest.test_case mode `Quick (test_bench_golden mode))
        [ "table1"; "table2"; "figure2"; "ablation" ] );
  ]

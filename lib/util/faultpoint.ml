(* Deterministic fault injection behind named points.

   Production code registers a point once at module toplevel and calls
   [hit] (control points) or [mangle] (data points) wherever a failure
   could strike in the field: an IO syscall, a worker task, a publish
   step.  With no schedule configured — the default — both cost a single
   atomic load, exactly like a disabled [Trace] span, so the points stay
   in the hot paths permanently.

   A schedule is an env var / CLI spec ([RESEED_CHAOS] / [--chaos]):

     <seed>:<point>=<kind>[:<arg>][@<sel>][,<rule>...]

   and is deterministic: nth-hit selectors count a per-point atomic hit
   counter, probabilistic selectors draw from a per-point splitmix64
   stream seeded by (seed, point name).  Reconfiguring resets every
   counter and stream, so equal seeds replay equal schedules. *)

type kind = Eio | Enospc | Torn | Flip | Fail | Latency | Abort

let kind_name = function
  | Eio -> "eio"
  | Enospc -> "enospc"
  | Torn -> "torn"
  | Flip -> "flip"
  | Fail -> "fail"
  | Latency -> "latency"
  | Abort -> "abort"

let kind_of_name = function
  | "eio" -> Some Eio
  | "enospc" -> Some Enospc
  | "torn" -> Some Torn
  | "flip" -> Some Flip
  | "fail" -> Some Fail
  | "latency" -> Some Latency
  | "abort" -> Some Abort
  | _ -> None

let all_kinds = [ Eio; Enospc; Torn; Flip; Fail; Latency; Abort ]
let abort_exit_code = 66

exception Injected of { point : string; fault : string }

let () =
  Printexc.register_printer (function
    | Injected { point; fault } ->
        Some (Printf.sprintf "Faultpoint.Injected(%s at %s)" fault point)
    | _ -> None)

type selector = Every | Nth of int | Prob of float

type rule = { pattern : string; kind : kind; arg : float option; sel : selector }

type config = { seed : int; rules : rule list }

type t = {
  pname : string;
  hits : int Atomic.t;
  mutable active : rule list;  (* rules whose pattern matches [pname] *)
  mutable rng : Rng.t;  (* per-point stream for [Prob] selectors *)
  rng_m : Mutex.t;
}

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let current : config option ref = ref None
let registry : t list ref = ref []
let registry_m = Mutex.create ()

(* "*" matches everything; a trailing "*" matches by prefix. *)
let matches pattern name =
  pattern = name
  ||
  let np = String.length pattern in
  np > 0
  && pattern.[np - 1] = '*'
  && String.length name >= np - 1
  && String.sub name 0 (np - 1) = String.sub pattern 0 (np - 1)

let point_seed seed name =
  Int64.to_int
    (Fingerprint.string (Fingerprint.int (Fingerprint.salted "chaos") seed) name)
  land max_int

(* Call with [registry_m] held. *)
let apply_config t =
  (match !current with
  | None -> t.active <- []
  | Some c ->
      t.active <- List.filter (fun r -> matches r.pattern t.pname) c.rules;
      t.rng <- Rng.create (point_seed c.seed t.pname));
  Atomic.set t.hits 0

let register name =
  Mutex.lock registry_m;
  let t =
    match List.find_opt (fun t -> t.pname = name) !registry with
    | Some t -> t
    | None ->
        let t =
          {
            pname = name;
            hits = Atomic.make 0;
            active = [];
            rng = Rng.create 0;
            rng_m = Mutex.create ();
          }
        in
        apply_config t;
        registry := t :: !registry;
        t
  in
  Mutex.unlock registry_m;
  t

let name t = t.pname
let hit_count t = Atomic.get t.hits

let all () =
  Mutex.lock registry_m;
  let names = List.map (fun t -> t.pname) !registry in
  Mutex.unlock registry_m;
  List.sort compare names

(* --- spec parsing ----------------------------------------------------- *)

let parse_rule s =
  let bad fmt = Error.fail Error.Usage fmt in
  match String.index_opt s '=' with
  | None -> bad "chaos rule %S: expected POINT=KIND[:ARG][@SEL]" s
  | Some eq ->
      let pattern = String.trim (String.sub s 0 eq) in
      if pattern = "" then bad "chaos rule %S: empty point name" s;
      let rest = String.trim (String.sub s (eq + 1) (String.length s - eq - 1)) in
      let rest, sel =
        match String.index_opt rest '@' with
        | None -> (rest, Every)
        | Some at ->
            let sv = String.sub rest (at + 1) (String.length rest - at - 1) in
            let sel =
              if String.length sv > 0 && sv.[0] = 'p' then
                match float_of_string_opt (String.sub sv 1 (String.length sv - 1)) with
                | Some p when 0. <= p && p <= 1. -> Prob p
                | _ -> bad "chaos rule %S: bad probability %S (want @p0.0-1.0)" s sv
              else
                match int_of_string_opt sv with
                | Some n when n >= 1 -> Nth n
                | _ -> bad "chaos rule %S: bad hit selector %S (want @N or @pP)" s sv
            in
            (String.sub rest 0 at, sel)
      in
      let kname, arg =
        match String.index_opt rest ':' with
        | None -> (rest, None)
        | Some c -> (
            let av = String.sub rest (c + 1) (String.length rest - c - 1) in
            match float_of_string_opt av with
            | Some f when f >= 0. -> (String.sub rest 0 c, Some f)
            | _ -> bad "chaos rule %S: bad argument %S (non-negative number)" s av)
      in
      let kind =
        match kind_of_name (String.trim kname) with
        | Some k -> k
        | None ->
            bad "chaos rule %S: unknown fault %S (want %s)" s kname
              (String.concat "|" (List.map kind_name all_kinds))
      in
      { pattern; kind; arg; sel }

let parse_spec spec =
  String.split_on_char ',' spec
  |> List.map String.trim
  |> List.filter (fun s -> s <> "")
  |> List.map parse_rule

let reapply () =
  Mutex.lock registry_m;
  List.iter apply_config !registry;
  Mutex.unlock registry_m

let configure ~seed ~spec =
  let rules = parse_spec spec in
  if rules = [] then
    Error.fail Error.Usage "chaos spec %S defines no rules" spec;
  current := Some { seed; rules };
  reapply ();
  Atomic.set enabled_flag true

let configure_string s =
  match String.index_opt s ':' with
  | None ->
      Error.fail Error.Usage "chaos spec %S: expected <seed>:<point>=<kind>,..." s
  | Some c -> (
      match int_of_string_opt (String.trim (String.sub s 0 c)) with
      | Some seed ->
          configure ~seed ~spec:(String.sub s (c + 1) (String.length s - c - 1))
      | None ->
          Error.fail Error.Usage "chaos spec %S: bad seed %S (integer expected)" s
            (String.sub s 0 c))

let disable () =
  Atomic.set enabled_flag false;
  current := None;
  reapply ()

(* --- injection --------------------------------------------------------- *)

let m_injected = Metrics.counter ~help:"chaos faults injected" "chaos_injected"

let selected t rule hit =
  match rule.sel with
  | Every -> true
  | Nth n -> hit = n
  | Prob p ->
      Mutex.lock t.rng_m;
      let x = Rng.float t.rng in
      Mutex.unlock t.rng_m;
      x < p

let flip_bit data hit =
  if data = "" then data
  else begin
    let b = Bytes.of_string data in
    let bit = hit * 7919 mod (8 * Bytes.length b) in
    let i = bit / 8 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
    Bytes.to_string b
  end

(* A data fault acts only on a payload: at a control point ([hit], no
   data) a [torn] or [flip] rule changes nothing and is not an
   injection. *)
let acts rule data =
  match (rule.kind, data) with (Torn | Flip), None -> false | _ -> true

(* One hit of point [t]: every matching rule fires in spec order.
   Control faults raise or abort; data faults transform [data]. *)
let fire t data =
  let hit = 1 + Atomic.fetch_and_add t.hits 1 in
  let data = ref data in
  List.iter
    (fun r ->
      (* [selected] first: a [Prob] rule draws on every hit either way,
         so the point's stream stays the schedule's. *)
      if selected t r hit && acts r !data then begin
        Metrics.incr m_injected;
        Trace.instant "faultpoint.hit"
          ~args:
            [
              ("point", t.pname);
              ("fault", kind_name r.kind);
              ("hit", string_of_int hit);
            ];
        match r.kind with
        | Latency -> Unix.sleepf (Option.value r.arg ~default:0.01)
        | Eio -> raise (Unix.Unix_error (Unix.EIO, "chaos", t.pname))
        | Enospc -> raise (Unix.Unix_error (Unix.ENOSPC, "chaos", t.pname))
        | Fail -> raise (Injected { point = t.pname; fault = "fail" })
        | Abort ->
            Printf.eprintf "reseed: chaos: abort injected at %s (hit %d)\n%!"
              t.pname hit;
            Unix._exit abort_exit_code
        | Torn -> (
            match !data with
            | None -> ()
            | Some d ->
                let frac = Option.value r.arg ~default:0.5 in
                let keep =
                  max 0 (min (String.length d)
                           (int_of_float (frac *. float_of_int (String.length d))))
                in
                data := Some (String.sub d 0 keep))
        | Flip -> (
            match !data with
            | None -> ()
            | Some d -> data := Some (flip_bit d hit))
      end)
    t.active;
  !data

let hit t = if Atomic.get enabled_flag then ignore (fire t None)

let mangle t data =
  if not (Atomic.get enabled_flag) then data
  else match fire t (Some data) with Some d -> d | None -> data

(* A malformed RESEED_CHAOS must not silently run without chaos: report
   and exit with the documented usage code before any work starts. *)
let () =
  match Sys.getenv_opt "RESEED_CHAOS" with
  | Some s when String.trim s <> "" -> (
      try configure_string s
      with Error.Reseed_error e ->
        Printf.eprintf "reseed: RESEED_CHAOS: %s\n%!" (Error.to_string e);
        exit (Error.exit_code e.Error.code))
  | _ -> ()

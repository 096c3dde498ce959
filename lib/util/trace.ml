(* Span tracer with per-domain buffers.

   Every domain (the caller and each Pool worker) appends completed spans
   to its own buffer, created lazily through domain-local storage and
   registered once under a mutex — recording never contends, whatever the
   job count.  Buffers are merged only at export time, after the parallel
   work has joined.  Timestamps come from the monotonic clock
   (CLOCK_MONOTONIC via bechamel's no-alloc stub), so spans are immune to
   wall-clock jumps.  When the tracer is disabled — the default — a span
   costs one atomic load and nothing else: no clock read, no allocation. *)

type event = {
  name : string;
  ph : char;  (* 'X' complete span, 'i' instant *)
  ts_ns : int64;  (* start, ns since [enable] *)
  dur_ns : int64;  (* span duration, 0 for instants *)
  tid : int;  (* recording domain id *)
  args : (string * string) list;
}

let dummy = { name = ""; ph = 'X'; ts_ns = 0L; dur_ns = 0L; tid = 0; args = [] }

type buffer = { mutable events : event array; mutable len : int }

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag

(* Trace epoch: subtracted from every timestamp so exported traces start
   near zero.  Written by [enable]/[reset] only (single-domain phases). *)
let epoch = ref 0L

let now_ns () = Monotonic_clock.now ()

let registry : buffer list ref = ref []
let registry_m = Mutex.create ()

let buffer_key : buffer Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let b = { events = Array.make 256 dummy; len = 0 } in
      Mutex.lock registry_m;
      registry := b :: !registry;
      Mutex.unlock registry_m;
      b)

let push e =
  let b = Domain.DLS.get buffer_key in
  if b.len = Array.length b.events then begin
    let bigger = Array.make (2 * b.len) dummy in
    Array.blit b.events 0 bigger 0 b.len;
    b.events <- bigger
  end;
  b.events.(b.len) <- e;
  b.len <- b.len + 1

let record_span ~name ~args ~start ~stop =
  push
    {
      name;
      ph = 'X';
      ts_ns = Int64.sub start !epoch;
      dur_ns = Int64.sub stop start;
      tid = (Domain.self () :> int);
      args;
    }

let with_span ?(args = []) ?result_args name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let start = now_ns () in
    match f () with
    | v ->
        let stop = now_ns () in
        let args = match result_args with Some r -> args @ r v | None -> args in
        record_span ~name ~args ~start ~stop;
        v
    | exception e ->
        record_span ~name ~args ~start ~stop:(now_ns ());
        raise e
  end

let instant ?(args = []) name =
  if Atomic.get enabled_flag then
    push
      {
        name;
        ph = 'i';
        ts_ns = Int64.sub (now_ns ()) !epoch;
        dur_ns = 0L;
        tid = (Domain.self () :> int);
        args;
      }

let reset () =
  Mutex.lock registry_m;
  List.iter (fun b -> b.len <- 0) !registry;
  Mutex.unlock registry_m;
  epoch := now_ns ()

let enable () =
  if not (Atomic.get enabled_flag) then begin
    if !epoch = 0L then epoch := now_ns ();
    Atomic.set enabled_flag true
  end

let disable () = Atomic.set enabled_flag false

(* Merged view of every domain's buffer.  Only sound once the recording
   work has joined (Pool regions complete); sorted by start time with
   longer spans first so a parent always precedes the children it
   encloses. *)
let events () =
  Mutex.lock registry_m;
  let bufs = !registry in
  Mutex.unlock registry_m;
  let all =
    List.concat_map (fun b -> Array.to_list (Array.sub b.events 0 b.len)) bufs
  in
  List.sort
    (fun a b ->
      let c = Int64.compare a.ts_ns b.ts_ns in
      if c <> 0 then c
      else
        let c = Int64.compare b.dur_ns a.dur_ns in
        if c <> 0 then c else compare (a.tid, a.name) (b.tid, b.name))
    all

let span_names () = List.map (fun e -> e.name) (events ())

(* --- Chrome trace_event JSON export ----------------------------------- *)

let add_json_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Chrome's "ts"/"dur" are microseconds; emit ns precision as µs.nnn. *)
let add_us buf ns =
  Buffer.add_string buf
    (Printf.sprintf "%Ld.%03Ld" (Int64.div ns 1000L)
       (Int64.rem (Int64.abs ns) 1000L))

let to_json () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "\n{\"name\":";
      add_json_string buf e.name;
      Buffer.add_string buf (Printf.sprintf ",\"ph\":\"%c\",\"ts\":" e.ph);
      add_us buf e.ts_ns;
      if e.ph = 'X' then begin
        Buffer.add_string buf ",\"dur\":";
        add_us buf e.dur_ns
      end
      else Buffer.add_string buf ",\"s\":\"t\"";
      Buffer.add_string buf (Printf.sprintf ",\"pid\":1,\"tid\":%d" e.tid);
      if e.args <> [] then begin
        Buffer.add_string buf ",\"args\":{";
        List.iteri
          (fun j (k, v) ->
            if j > 0 then Buffer.add_char buf ',';
            add_json_string buf k;
            Buffer.add_char buf ':';
            add_json_string buf v)
          e.args;
        Buffer.add_char buf '}'
      end;
      Buffer.add_char buf '}')
    (events ());
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf

let write_file path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_json ()))

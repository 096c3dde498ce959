(* Typed counter/gauge registry.

   Counters are atomic ints advanced from any domain; the pipeline's hot
   loops keep their private per-shard tallies and publish deltas here at
   phase boundaries (sweep end, solver exit, merge), so the registry adds
   no contention to the inner loops while still absorbing every scattered
   counter behind one exportable API. *)

type counter = { c_name : string; c_help : string; c_cell : int Atomic.t }
type gauge = { g_name : string; g_help : string; g_cell : float Atomic.t }

type metric = C of counter | G of gauge

type value = Counter_v of int | Gauge_v of float

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_m = Mutex.create ()

let with_registry f =
  Mutex.lock registry_m;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_m) f

(* Registration is idempotent by name so modules can declare their
   metrics at toplevel and tests can re-reference them. *)
let counter ?(help = "") name =
  with_registry (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (C c) -> c
      | Some (G _) -> invalid_arg ("Metrics.counter: " ^ name ^ " is a gauge")
      | None ->
          let c = { c_name = name; c_help = help; c_cell = Atomic.make 0 } in
          Hashtbl.add registry name (C c);
          c)

let gauge ?(help = "") name =
  with_registry (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (G g) -> g
      | Some (C _) -> invalid_arg ("Metrics.gauge: " ^ name ^ " is a counter")
      | None ->
          let g = { g_name = name; g_help = help; g_cell = Atomic.make 0.0 } in
          Hashtbl.add registry name (G g);
          g)

let incr c = Atomic.incr c.c_cell

let add c n = if n <> 0 then ignore (Atomic.fetch_and_add c.c_cell n)

let value c = Atomic.get c.c_cell

let set g v = Atomic.set g.g_cell v

let gauge_value g = Atomic.get g.g_cell

let snapshot () =
  let entries =
    with_registry (fun () ->
        Hashtbl.fold
          (fun name m acc ->
            let v =
              match m with
              | C c -> Counter_v (Atomic.get c.c_cell)
              | G g -> Gauge_v (Atomic.get g.g_cell)
            in
            (name, v) :: acc)
          registry [])
  in
  List.sort (fun (a, _) (b, _) -> compare a b) entries

let get name =
  with_registry (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (C c) -> Some (Counter_v (Atomic.get c.c_cell))
      | Some (G g) -> Some (Gauge_v (Atomic.get g.g_cell))
      | None -> None)

let help name =
  with_registry (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (C c) -> Some c.c_help
      | Some (G g) -> Some g.g_help
      | None -> None)

let reset () =
  with_registry (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | C c -> Atomic.set c.c_cell 0
          | G g -> Atomic.set g.g_cell 0.0)
        registry)

(* --- Export ------------------------------------------------------------ *)

let add_json_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_value buf = function
  | Counter_v n -> Buffer.add_string buf (string_of_int n)
  | Gauge_v x -> Buffer.add_string buf (Printf.sprintf "%.6g" x)

(* Flat JSON object, one key per metric — the shape embedded into
   BENCH_reseed.json and written by [--metrics FILE.json]. *)
let to_json () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "\n  ";
      add_json_string buf name;
      Buffer.add_string buf ": ";
      add_value buf v)
    (snapshot ());
  Buffer.add_string buf "\n}";
  Buffer.contents buf

(* One self-describing JSON object per line — the [.ndjson] flavour. *)
let to_ndjson () =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, v) ->
      Buffer.add_string buf "{\"name\":";
      add_json_string buf name;
      Buffer.add_string buf ",\"type\":";
      (match v with
      | Counter_v _ -> Buffer.add_string buf "\"counter\""
      | Gauge_v _ -> Buffer.add_string buf "\"gauge\"");
      Buffer.add_string buf ",\"value\":";
      add_value buf v;
      (match help name with
      | Some h when h <> "" ->
          Buffer.add_string buf ",\"help\":";
          add_json_string buf h
      | _ -> ());
      Buffer.add_string buf "}\n")
    (snapshot ());
  Buffer.contents buf

let write_file path =
  let contents =
    if Filename.check_suffix path ".ndjson" then to_ndjson ()
    else to_json () ^ "\n"
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

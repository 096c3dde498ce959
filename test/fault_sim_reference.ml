(* The fault simulator's propagation as it stood before the flat,
   index-ordered kernel, kept verbatim as a test oracle (as
   [Podem_reference] keeps the PODEM loop): a level-bucketed event queue,
   per-propagation [stamp]/[fval] overlays and the record-walking,
   stamp-checked [eval_faulty], under both engines and both fault models.
   [Fault_sim] is this file's [Cpt] engine and must return the same
   detections and the same [sims_performed] and [event_propagations] on
   every entry point.  The [Event] engine, one injection and cone
   propagation per excited fault, lives only here: it must return the
   same detections and [sims_performed] as [Fault_sim].  Only
   the metrics/trace wrapper of each sweep is dropped, so running the
   oracle leaves the flow-wide counters alone. *)

open Reseed_netlist
open Reseed_fault
open Reseed_sim
open Reseed_util

type engine = Event | Cpt

let engine_name = function Event -> "event" | Cpt -> "cpt"

type t = {
  circuit : Circuit.t;
  faults : Fault.t array;
  engine : engine;
  model : Fault_model.t;
  site_sig : int array;
      (* transition model only: per-fault launch-signal node (the stem
         whose good value at the launch pattern gates activation) *)
  good : int array; (* good-machine values of the current block *)
  launch_prev : Bytes.t;
      (* transition model only: every node's good value at the last lane
         of the previous block — the launch value of the next block's
         lane 0 *)
  mutable launch_valid : bool;
      (* false on a sweep's first block: lane 0 has no launch pattern *)
  ffr : Ffr.t;
  po_position : int array; (* node -> PO index, or -1 *)
  (* Event-propagation scratch reused across injections; [stamp]/[queued]
     hold the id of the propagation that last wrote them, so no clearing
     is ever needed. *)
  stamp : int array;
  fval : int array;
  (* Level-bucketed event queue: level [l]'s pending nodes form a stack in
     [queue] at [queue_off.(l)], [queue_count.(l)] deep.  [queue_off] is
     computed once by [create] and shared by every [copy]; a level's slot
     range holds every node of that level, and [queued] admits a node at
     most once per propagation, so no stack can overflow. *)
  queue_off : int array;
  queue : int array;
  queue_count : int array;
  mutable queue_len : int;
  mutable queue_low : int; (* no level below it is non-empty *)
  queued : int array;
  mutable cur : int;
  (* Per-block CPT scratch, invalidated by bumping [block]. *)
  mutable block : int;
  sens : int array;
      (* node -> word of patterns where flipping it is detected; at a stem
         this is the stem's observability, so it is computed at most once
         per stem per block *)
  sens_stamp : int array;
  mutable sims : int;
  mutable props : int;
}

let scratch c =
  let n = Circuit.node_count c in
  ( Array.make n 0,
    Array.make n (-1),
    Array.make n 0,
    Array.make n 0,
    Array.make (Circuit.max_level c + 1) 0,
    Array.make n (-1),
    Array.make n 0,
    Array.make n (-1) )

(* Start of each level's slot range in the event queue: the number of
   nodes on lower levels. *)
let queue_offsets c =
  let off = Array.make (Circuit.max_level c + 1) 0 in
  Array.iter (fun l -> off.(l) <- off.(l) + 1) c.Circuit.level;
  let base = ref 0 in
  Array.iteri
    (fun l size ->
      off.(l) <- !base;
      base := !base + size)
    off;
  off

let create ?(engine = Cpt) ?(model = Fault_model.Stuck_at) circuit faults =
  let n = Circuit.node_count circuit in
  let po_position = Array.make n (-1) in
  Array.iteri (fun pos node -> po_position.(node) <- pos) circuit.Circuit.outputs;
  let good, stamp, fval, queue, queue_count, queued, sens, sens_stamp =
    scratch circuit
  in
  let site_sig =
    match model with
    | Fault_model.Stuck_at -> [||]
    | Fault_model.Transition_delay ->
        Array.map (Fault_model.site_signal circuit) faults
  in
  {
    circuit;
    faults;
    engine;
    model;
    site_sig;
    good;
    launch_prev = Bytes.make n '\000';
    launch_valid = false;
    ffr = Ffr.compute circuit;
    po_position;
    stamp;
    fval;
    queue_off = queue_offsets circuit;
    queue;
    queue_count;
    queue_len = 0;
    queue_low = 0;
    queued;
    cur = -1;
    block = 0;
    sens;
    sens_stamp;
    sims = 0;
    props = 0;
  }

(* Fresh scratch over the same immutable circuit/fault/FFR/PO-map/queue
   offset arrays: the copy can run [process] concurrently with the
   original from another domain.  Its work counters start at zero so
   per-worker tallies can be summed back with [merge_sims]. *)
let copy t =
  let n = Circuit.node_count t.circuit in
  let good, stamp, fval, queue, queue_count, queued, sens, sens_stamp =
    scratch t.circuit
  in
  {
    t with
    good;
    launch_prev = Bytes.make n '\000';
    launch_valid = false;
    stamp;
    fval;
    queue;
    queue_count;
    queue_len = 0;
    queue_low = 0;
    queued;
    cur = -1;
    block = 0;
    sens;
    sens_stamp;
    sims = 0;
    props = 0;
  }

let shard t n =
  if n < 1 then invalid_arg "Fault_sim.shard: need at least one shard";
  Array.init n (fun i -> if i = 0 then t else copy t)

let merge_sims ~into shards =
  Array.iter
    (fun s ->
      if s != into then begin
        into.sims <- into.sims + s.sims;
        into.props <- into.props + s.props;
        s.sims <- 0;
        s.props <- 0
      end)
    shards

let circuit t = t.circuit
let faults t = t.faults
let model t = t.model
let fault_count t = Array.length t.faults
let sims_performed t = t.sims
let event_propagations t = t.props
let engine t = t.engine

(* Event queue.  Pops come out in non-decreasing level order: every push
   during a propagation is a fanout of the node just popped, hence on a
   higher level, so every fanin of a popped node is final before it is
   evaluated.  Within one level the order is irrelevant — no node reads
   another of its own level.  Both operations are O(1) apart from the
   [queue_low] cursor, which only moves up between resets and so scans
   each level at most once per propagation. *)

(* Start a propagation.  Every propagation drains the queue, so the
   counts are normally all zero already; clear them only if one was cut
   short. *)
let queue_reset t =
  if t.queue_len <> 0 then begin
    Array.fill t.queue_count 0 (Array.length t.queue_count) 0;
    t.queue_len <- 0
  end;
  t.queue_low <- Array.length t.queue_count - 1

let push t i =
  if Array.unsafe_get t.queued i <> t.cur then begin
    Array.unsafe_set t.queued i t.cur;
    let l = Array.unsafe_get t.circuit.Circuit.level i in
    let c = Array.unsafe_get t.queue_count l in
    Array.unsafe_set t.queue (Array.unsafe_get t.queue_off l + c) i;
    Array.unsafe_set t.queue_count l (c + 1);
    t.queue_len <- t.queue_len + 1;
    if l < t.queue_low then t.queue_low <- l
  end

(* Requires [queue_len > 0]. *)
let pop t =
  let l = ref t.queue_low in
  while Array.unsafe_get t.queue_count !l = 0 do incr l done;
  t.queue_low <- !l;
  let c = Array.unsafe_get t.queue_count !l - 1 in
  Array.unsafe_set t.queue_count !l c;
  t.queue_len <- t.queue_len - 1;
  Array.unsafe_get t.queue (Array.unsafe_get t.queue_off !l + c)

let push_fanouts t i =
  let fanouts = t.circuit.Circuit.fanouts.(i) in
  for k = 0 to Array.length fanouts - 1 do
    push t (Array.unsafe_get fanouts k)
  done

let full = max_int

(* Value of node [f] as seen by the faulty machine of the current fault. *)
let value t (good : int array) f =
  if t.stamp.(f) = t.cur then t.fval.(f) else good.(f)

(* Faulty-machine value of fanin [j] of a gate, with fanin [force_pin]
   pinned to [force_word]. *)
let[@inline] fanin_value t good fanins j force_pin force_word =
  if j = force_pin then force_word
  else
    let f = Array.unsafe_get fanins j in
    if Array.unsafe_get t.stamp f = t.cur then Array.unsafe_get t.fval f
    else Array.unsafe_get good f

(* Re-evaluate node [i] in the faulty machine.  For a [Pin] fault at this
   node, [force_pin >= 0] pins that fanin to [force_word].  Each gate kind
   folds its fanins in its own loop: no closure is allocated per call. *)
let eval_faulty t good i ~force_pin ~force_word =
  let node = t.circuit.Circuit.nodes.(i) in
  let fanins = node.Circuit.fanins in
  let last = Array.length fanins - 1 in
  match node.Circuit.kind with
  | Gate.Input -> value t good i
  | Gate.Buf -> fanin_value t good fanins 0 force_pin force_word
  | Gate.Not -> lnot (fanin_value t good fanins 0 force_pin force_word) land full
  | (Gate.And | Gate.Nand) as kind ->
      let acc = ref full in
      for j = 0 to last do
        acc := !acc land fanin_value t good fanins j force_pin force_word
      done;
      if kind = Gate.And then !acc else lnot !acc land full
  | (Gate.Or | Gate.Nor) as kind ->
      let acc = ref 0 in
      for j = 0 to last do
        acc := !acc lor fanin_value t good fanins j force_pin force_word
      done;
      if kind = Gate.Or then !acc else lnot !acc land full
  | (Gate.Xor | Gate.Xnor) as kind ->
      let acc = ref 0 in
      for j = 0 to last do
        acc := !acc lxor fanin_value t good fanins j force_pin force_word
      done;
      if kind = Gate.Xor then !acc else lnot !acc land full
  | Gate.Const0 -> 0
  | Gate.Const1 -> full

(* --- Event engine: single-fault event-driven propagation -------------- *)

(* Inject one fault against the good-machine block values and return the
   word of patterns that detect it at some primary output. *)
let process t (good : int array) mask (fault : Fault.t) =
  t.cur <- t.cur + 1;
  t.sims <- t.sims + 1;
  let stuck_word = if fault.Fault.stuck then full else 0 in
  let site, site_value =
    match fault.Fault.site with
    | Fault.Out g -> (g, stuck_word)
    | Fault.Pin { gate; pin } ->
        (gate, eval_faulty t good gate ~force_pin:pin ~force_word:stuck_word)
  in
  let diff0 = (site_value lxor good.(site)) land mask in
  if diff0 = 0 then 0
  else begin
    t.props <- t.props + 1;
    t.stamp.(site) <- t.cur;
    t.fval.(site) <- site_value;
    let detect = ref (if t.po_position.(site) >= 0 then diff0 else 0) in
    queue_reset t;
    push_fanouts t site;
    while t.queue_len > 0 do
      let i = pop t in
      let v = eval_faulty t good i ~force_pin:(-1) ~force_word:0 in
      let diff = (v lxor good.(i)) land mask in
      if diff <> 0 then begin
        t.stamp.(i) <- t.cur;
        t.fval.(i) <- v;
        if t.po_position.(i) >= 0 then detect := !detect lor diff;
        push_fanouts t i
      end
    done;
    !detect
  end

(* --- CPT engine: critical-path tracing over fanout-free regions ------- *)

(* Word of patterns where flipping fanin [pin] of gate [i] flips the
   gate's output, all other fanins held at their good values.  Gate-level
   inversions (NAND/NOR/NOT/XNOR) don't affect whether a flip passes. *)
let deriv t (good : int array) i ~pin =
  let node = t.circuit.Circuit.nodes.(i) in
  let fanins = node.Circuit.fanins in
  match node.Circuit.kind with
  | Gate.Buf | Gate.Not | Gate.Xor | Gate.Xnor -> full
  | Gate.And | Gate.Nand ->
      let acc = ref full in
      for j = 0 to Array.length fanins - 1 do
        if j <> pin then acc := !acc land good.(fanins.(j))
      done;
      !acc
  | Gate.Or | Gate.Nor ->
      let acc = ref 0 in
      for j = 0 to Array.length fanins - 1 do
        if j <> pin then acc := !acc lor good.(fanins.(j))
      done;
      lnot !acc land full
  | Gate.Input | Gate.Const0 | Gate.Const1 ->
      (* gates with fanins only *)
      assert false

let pin_of t g p =
  let fanins = t.circuit.Circuit.nodes.(g).Circuit.fanins in
  let rec go j = if fanins.(j) = p then j else go (j + 1) in
  go 0

(* Observability word of stem [s]: patterns where complementing [s]
   changes some primary output.  Exact for single faults funnelled through
   [s] because the faulty machine downstream of [s] coincides, lane by
   lane, with the flip simulation.  Computed by one event-driven
   propagation of the flip. *)
let obs t (good : int array) mask s =
  if not (Ffr.reaches_po t.ffr s) then 0
  else if t.po_position.(s) >= 0 then mask (* flips are their own witness *)
  else begin
    t.cur <- t.cur + 1;
    t.props <- t.props + 1;
    t.stamp.(s) <- t.cur;
    t.fval.(s) <- lnot good.(s) land full;
    let detect = ref 0 in
    queue_reset t;
    push_fanouts t s;
    while t.queue_len > 0 do
      let i = pop t in
      let v = eval_faulty t good i ~force_pin:(-1) ~force_word:0 in
      let diff = (v lxor good.(i)) land mask in
      if diff <> 0 then begin
        t.stamp.(i) <- t.cur;
        t.fval.(i) <- v;
        if t.po_position.(i) >= 0 then detect := !detect lor diff;
        push_fanouts t i
      end
    done;
    !detect
  end

(* Detectability of a flip appearing at node [n]: the chain of single-path
   gate derivatives down to [n]'s FFR stem, ANDed with the stem's
   observability.  Memoised per block along the walked path. *)
let sens t good mask n =
  if t.sens_stamp.(n) = t.block then t.sens.(n)
  else begin
    (* Ascend the unique fanout path to the first memoised node or stem;
       [path] ends up ordered stem-side first. *)
    let path = ref [] in
    let top = ref n in
    while t.sens_stamp.(!top) <> t.block && not (Ffr.is_stem t.ffr !top) do
      path := !top :: !path;
      top := t.circuit.Circuit.fanouts.(!top).(0)
    done;
    let acc = ref 0 in
    if t.sens_stamp.(!top) = t.block then acc := t.sens.(!top)
    else begin
      acc := obs t good mask !top;
      t.sens.(!top) <- !acc;
      t.sens_stamp.(!top) <- t.block
    end;
    List.iter
      (fun p ->
        (if !acc <> 0 then
           let g = t.circuit.Circuit.fanouts.(p).(0) in
           acc := !acc land deriv t good g ~pin:(pin_of t g p));
        t.sens.(p) <- !acc;
        t.sens_stamp.(p) <- t.block)
      !path;
    !acc
  end

let process_cpt t (good : int array) mask (fault : Fault.t) =
  t.sims <- t.sims + 1;
  let stuck_word = if fault.Fault.stuck then full else 0 in
  match fault.Fault.site with
  | Fault.Out g ->
      let excite = (stuck_word lxor good.(g)) land mask in
      if excite = 0 then 0 else excite land sens t good mask g
  | Fault.Pin { gate; pin } ->
      (* Bump [cur] so [eval_faulty] sees pristine good values (stamps from
         earlier observability propagations go stale). *)
      t.cur <- t.cur + 1;
      let v = eval_faulty t good gate ~force_pin:pin ~force_word:stuck_word in
      let diff = (v lxor good.(gate)) land mask in
      if diff = 0 then 0 else diff land sens t good mask gate

(* --- Per-fault dispatch ----------------------------------------------- *)

(* The selected engine's detection word with the fault model applied.
   Under [Stuck_at] this is the engine's word verbatim.  Under
   [Transition_delay] the capture-cycle detection word the stuck-at
   engines computed is masked down to the lanes whose {e preceding}
   pattern put the launch signal at the fault's slow initial value (= the
   capture stuck value): lane [k]'s launch value is lane [k-1] of [good]
   at the site signal, lane 0 takes the last lane of the previous block
   from [launch_prev], and lane 0 of a sweep's first block has no launch
   pattern at all and is masked out.  The [sims]/[props] accounting is
   the capture grade's, so the cost metrics stay comparable across
   models. *)
let process_fault t good mask fi fault =
  let d =
    match t.engine with
    | Event -> process t good mask fault
    | Cpt -> process_cpt t good mask fault
  in
  match t.model with
  | Fault_model.Stuck_at -> d
  | Fault_model.Transition_delay ->
      if d = 0 then 0
      else begin
        let s = Array.unsafe_get t.site_sig fi in
        let carry = Char.code (Bytes.unsafe_get t.launch_prev s) in
        let launch = ((good.(s) lsl 1) lor carry) land mask in
        let ok =
          if fault.Fault.stuck then launch else lnot launch land mask
        in
        let valid = if t.launch_valid then mask else mask land lnot 1 in
        d land ok land valid
      end

(* Blocks are packed and good-simulated one at a time so that [stop] — the
   fault-dropping early exit or an expired wall-clock budget — skips the
   good-machine work of every block past the last one needed.  One block
   (62 patterns) is the cooperative-cancellation granularity of every
   sweep: a tripped budget is honoured before the next block starts.
   Every sweep treats its pattern array as a {e sequence}: under the
   transition model the launch value of each block's lane 0 carries over
   from the previous block's last lane.  The good values of each block
   overwrite [t.good]: [f] must not keep them past its return. *)
let iter_blocks ?budget ?(stop = fun () -> false) t patterns f =
  let stop () = stop () || Budget.check budget in
  let total = Array.length patterns in
  t.launch_valid <- false;
  let base = ref 0 in
  while !base < total && not (stop ()) do
    let len = min Logic_sim.block_width (total - !base) in
    let block = Logic_sim.pack t.circuit (Array.sub patterns !base len) in
    let good = t.good in
    Logic_sim.simulate_into t.circuit block good;
    t.block <- t.block + 1; (* new good values: memoised [sens] go stale *)
    let mask = Logic_sim.valid_mask block.Logic_sim.width in
    f ~base:!base ~good ~mask;
    if t.model = Fault_model.Transition_delay then begin
      let last = len - 1 in
      for i = 0 to Array.length good - 1 do
        Bytes.unsafe_set t.launch_prev i
          (Char.unsafe_chr ((good.(i) lsr last) land 1))
      done;
      t.launch_valid <- true
    end;
    base := !base + len
  done

let with_sweep _name _t _patterns f = f ()

let detection_map ?budget t patterns =
  with_sweep "fault_sim.detection_map" t patterns @@ fun () ->
  let total = Array.length patterns in
  let result = Array.init (fault_count t) (fun _ -> Bitvec.create total) in
  iter_blocks ?budget t patterns (fun ~base ~good ~mask ->
      Array.iteri
        (fun fi fault ->
          let d = process_fault t good mask fi fault in
          if d <> 0 then
            (* [d land mask] keeps every set lane below the block length,
               so [base + k] is always in range. *)
            for k = 0 to Logic_sim.block_width - 1 do
              if d lsr k land 1 = 1 then Bitvec.unsafe_set result.(fi) (base + k)
            done)
        t.faults);
  result

let detected_set ?budget t patterns ~active =
  if Bitvec.length active <> fault_count t then
    invalid_arg "Fault_sim.detected_set: active mask size mismatch";
  with_sweep "fault_sim.detected_set" t patterns @@ fun () ->
  let detected = Bitvec.create (fault_count t) in
  let remaining = ref (Bitvec.count active) in
  iter_blocks ?budget ~stop:(fun () -> !remaining = 0) t patterns
    (fun ~base:_ ~good ~mask ->
      (* [fi] ranges over the fault array, whose length both vectors were
         checked (or built) to match — the per-fault test is the hottest
         line of the sweep, so skip the bounds checks. *)
      Array.iteri
        (fun fi fault ->
          if Bitvec.unsafe_get active fi && not (Bitvec.unsafe_get detected fi)
          then
            if process_fault t good mask fi fault <> 0 then begin
              Bitvec.unsafe_set detected fi;
              decr remaining
            end)
        t.faults);
  detected

let first_detections ?budget t ?active patterns =
  (match active with
  | Some a when Bitvec.length a <> fault_count t ->
      invalid_arg "Fault_sim.first_detections: active mask size mismatch"
  | _ -> ());
  with_sweep "fault_sim.first_detections" t patterns @@ fun () ->
  let result = Array.make (fault_count t) None in
  (* One shared [Some p] per pattern index: a detection stores a pointer,
     not a fresh box that the result array (on the major heap for any
     sizable fault list) would drag out of the minor heap. *)
  let firsts = Array.init (Array.length patterns) Option.some in
  let live fi =
    match active with None -> true | Some a -> Bitvec.unsafe_get a fi
  in
  let remaining =
    ref
      (match active with
      | None -> fault_count t
      | Some a -> Bitvec.count a)
  in
  iter_blocks ?budget ~stop:(fun () -> !remaining = 0) t patterns
    (fun ~base ~good ~mask ->
      Array.iteri
        (fun fi fault ->
          if live fi && result.(fi) = None then begin
            let d = process_fault t good mask fi fault in
            if d <> 0 then begin
              let k = ref 0 in
              while d lsr !k land 1 = 0 do incr k done;
              result.(fi) <- firsts.(base + !k);
              decr remaining
            end
          end)
        t.faults);
  result

let coverage_pct t detected = Stats.pct (Bitvec.count detected) (fault_count t)

open Reseed_netlist
open Reseed_sim
open Reseed_util

type t = {
  circuit : Circuit.t;
  faults : Fault.t array;
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
  (* Flat layout of the circuit for the propagation kernel, computed once
     by [create] and shared by every [copy]: node [i] folds its fanins
     [fin.(fin_start.(i) .. fin_start.(i+1) - 1)] with [op.(i)] (0 AND,
     1 OR, 2 XOR, 3 an [Input], which reads its own mirror entry) and XORs
     the result with [inv.(i)] (0 or [full]); its fanouts, ascending, are
     [fout.(fout_start.(i) .. fout_start.(i+1) - 1)]. *)
  op : int array;
  inv : int array;
  fin_start : int array;
  fin : int array;
  fout_start : int array;
  fout : int array;
  cone_hi : int array; (* largest node index in [i]'s fanout cone *)
  next_po : int array; (* smallest PO index [>= i], or the node count *)
  fo_pin : int array; (* a node with one fanout edge: its pin on it *)
  (* Propagation scratch.  [fv] mirrors [good] between propagations (it
     is refreshed once per block); a propagation writes faulty values into
     an index interval of it and copies that interval back from [good]
     before it returns. *)
  fv : int array;
  (* Per-block CPT scratch, invalidated by bumping [block]. *)
  mutable block : int;
  sens : int array;
      (* node -> word of patterns where flipping it is detected; at a stem
         this is the stem's observability, so it is computed at most once
         per stem per block *)
  sens_stamp : int array;
  path : int array; (* [sens]'s stack of the FFR path it walks *)
  mutable sims : int;
  mutable props : int;
}

let full = max_int

(* Fresh scratch over the same immutable circuit/fault/FFR/layout
   arrays: the copy can run [process] concurrently with the original from
   another domain.  Its work counters start at zero so per-worker tallies
   can be summed back with [merge_sims]. *)
let copy t =
  let n = Circuit.node_count t.circuit in
  {
    t with
    good = Array.make n 0;
    launch_prev = Bytes.make n '\000';
    launch_valid = false;
    fv = Array.make n 0;
    block = 0;
    sens = Array.make n 0;
    sens_stamp = Array.make n (-1);
    path = Array.make n 0;
    sims = 0;
    props = 0;
  }

(* Compressed-row form of an array of index lists. *)
let csr rows =
  let start = Array.make (Array.length rows + 1) 0 in
  Array.iteri (fun i r -> start.(i + 1) <- start.(i) + Array.length r) rows;
  (start, Array.concat (Array.to_list rows))

let create ?(model = Fault_model.Stuck_at) circuit faults =
  let nodes = circuit.Circuit.nodes in
  let code (node : Circuit.node) =
    match node.Circuit.kind with
    | Gate.Input -> (3, 0)
    | Gate.Buf | Gate.And | Gate.Const1 -> (0, 0)
    | Gate.Not | Gate.Nand -> (0, full)
    | Gate.Or | Gate.Const0 -> (1, 0)
    | Gate.Nor -> (1, full)
    | Gate.Xor -> (2, 0)
    | Gate.Xnor -> (2, full)
  in
  let fin_start, fin = csr (Array.map (fun n -> n.Circuit.fanins) nodes) in
  let fout_start, fout = csr circuit.Circuit.fanouts in
  (* One reverse pass: every fanout of [i] has a larger index, so its
     cone bound is final when [i] is reached. *)
  let n = Array.length nodes in
  let cone_hi = Array.init n Fun.id in
  let next_po = Array.make (n + 1) n in
  Array.iter (fun o -> next_po.(o) <- o) circuit.Circuit.outputs;
  let fo_pin = Array.make n 0 in
  for i = n - 1 downto 0 do
    for k = fout_start.(i) to fout_start.(i + 1) - 1 do
      cone_hi.(i) <- max cone_hi.(i) cone_hi.(fout.(k))
    done;
    if next_po.(i) > i then next_po.(i) <- next_po.(i + 1);
    for k = fin_start.(i) to fin_start.(i + 1) - 1 do
      let p = fin.(k) in
      if fout_start.(p + 1) - fout_start.(p) = 1 then fo_pin.(p) <- k - fin_start.(i)
    done
  done;
  let site_sig =
    match model with
    | Fault_model.Stuck_at -> [||]
    | Fault_model.Transition_delay ->
        Array.map (Fault_model.site_signal circuit) faults
  in
  (* [copy] allocates the scratch the placeholders below stand for. *)
  copy
    {
      circuit;
      faults;
      model;
      site_sig;
      good = [||];
      launch_prev = Bytes.empty;
      launch_valid = false;
      ffr = Ffr.compute circuit;
      op = Array.map (fun n -> fst (code n)) nodes;
      inv = Array.map (fun n -> snd (code n)) nodes;
      fin_start;
      fin;
      fout_start;
      fout;
      cone_hi;
      next_po;
      fo_pin;
      fv = [||];
      block = 0;
      sens = [||];
      sens_stamp = [||];
      path = [||];
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
let cone_hi t i = t.cone_hi.(i)

(* --- Propagation kernel ----------------------------------------------- *)

(* Word of patterns where flipping fanin position [pin] of gate [i]
   flips the gate's output, all other fanins held at their good values.
   Inversions don't affect whether a flip passes, and an XOR or a
   one-input AND (Buf, Not) passes every flip. *)
let deriv t (good : int array) i ~pin =
  let lo = t.fin_start.(i) and op = t.op.(i) in
  if op = 2 then full
  else begin
    let acc = ref (if op = 0 then full else 0) in
    for k = lo to t.fin_start.(i + 1) - 1 do
      if k - lo <> pin then
        let x = good.(t.fin.(k)) in
        acc := if op = 0 then !acc land x else !acc lor x
    done;
    if op = 0 then !acc else lnot !acc land full
  end

(* Faulty-minus-good difference at [gate]'s output for its fanin [pin]
   stuck at [stuck_word]: the pin's excitation, passed by the gate. *)
let pin_diff t (good : int array) ~gate ~pin stuck_word =
  (stuck_word lxor good.(t.fin.(t.fin_start.(gate) + pin)))
  land deriv t good gate ~pin

(* Value of node [i] over the faulty-value mirror: the hot path. *)
let[@inline] eval t i =
  let fv = t.fv and fin = t.fin in
  let lo = Array.unsafe_get t.fin_start i in
  let hi = Array.unsafe_get t.fin_start (i + 1) - 1 in
  let v =
    match Array.unsafe_get t.op i with
    | 0 ->
        let acc = ref full in
        for k = lo to hi do
          acc := !acc land Array.unsafe_get fv (Array.unsafe_get fin k)
        done;
        !acc
    | 1 ->
        let acc = ref 0 in
        for k = lo to hi do
          acc := !acc lor Array.unsafe_get fv (Array.unsafe_get fin k)
        done;
        !acc
    | 2 ->
        let acc = ref 0 in
        for k = lo to hi do
          acc := !acc lxor Array.unsafe_get fv (Array.unsafe_get fin k)
        done;
        !acc
    | _ -> Array.unsafe_get fv i
  in
  v lxor Array.unsafe_get t.inv i

(* Write the faulty value [v] at [site] and propagate it through the
   site's fanout cone; the result is the word of [mask]ed patterns where
   some primary output strictly downstream of [site] differs from the
   good machine.  Every node from the site's smallest fanout up to the
   largest index in its cone is re-evaluated in increasing index order,
   which [Circuit] guarantees is topological, so every fanin is final
   when a node is read.  A node of the interval outside the cone has only
   good fanins and recomputes its good value; an [Input] reads its own,
   good, mirror entry.  Lanes are independent, so lanes outside [mask]
   are computed too and masked off at the end. *)
let propagate t (good : int array) mask site v =
  t.props <- t.props + 1;
  let fv = t.fv in
  fv.(site) <- v;
  let first = t.fout_start.(site) in
  let lo = if first < t.fout_start.(site + 1) then t.fout.(first) else site + 1 in
  let hi = t.cone_hi.(site) in
  for n = lo to hi do
    Array.unsafe_set fv n (eval t n)
  done;
  let detect = ref 0 and p = ref t.next_po.(lo) in
  while !p <= hi do
    detect := !detect lor (Array.unsafe_get fv !p lxor Array.unsafe_get good !p);
    p := Array.unsafe_get t.next_po (!p + 1)
  done;
  for n = site to hi do
    Array.unsafe_set fv n (Array.unsafe_get good n)
  done;
  !detect land mask

(* --- Critical-path tracing over fanout-free regions -------------------- *)

(* Observability word of stem [s]: patterns where complementing [s]
   changes some primary output.  Exact for single faults funnelled through
   [s] because the faulty machine downstream of [s] coincides, lane by
   lane, with the flip simulation.  Computed by one propagation of the
   flip. *)
let obs t (good : int array) mask s =
  if not (Ffr.reaches_po t.ffr s) then 0
  else if t.next_po.(s) = s then mask (* flips are their own witness *)
  else propagate t good mask s (lnot good.(s) land full)

(* Detectability of a flip appearing at node [n]: the chain of single-path
   gate derivatives down to [n]'s FFR stem, ANDed with the stem's
   observability.  Memoised per block along the walked path. *)
let sens t good mask n =
  if t.sens_stamp.(n) = t.block then t.sens.(n)
  else begin
    (* Ascend the unique fanout path to the first memoised node or stem,
       stacking the nodes passed; they are then unstacked stem-side
       first. *)
    let path = t.path in
    let depth = ref 0 and top = ref n in
    while t.sens_stamp.(!top) <> t.block && not (Ffr.is_stem t.ffr !top) do
      path.(!depth) <- !top;
      incr depth;
      top := t.fout.(t.fout_start.(!top))
    done;
    let acc = ref 0 in
    if t.sens_stamp.(!top) = t.block then acc := t.sens.(!top)
    else begin
      acc := obs t good mask !top;
      t.sens.(!top) <- !acc;
      t.sens_stamp.(!top) <- t.block
    end;
    for k = !depth - 1 downto 0 do
      let p = path.(k) in
      if !acc <> 0 then
        acc := !acc land deriv t good t.fout.(t.fout_start.(p)) ~pin:t.fo_pin.(p);
      t.sens.(p) <- !acc;
      t.sens_stamp.(p) <- t.block
    done;
    !acc
  end

(* The stuck-at detection word of one fault: its excitation at the site,
   ANDed with the site's sensitivity. *)
let process t (good : int array) mask (fault : Fault.t) =
  t.sims <- t.sims + 1;
  let stuck_word = if fault.Fault.stuck then full else 0 in
  match fault.Fault.site with
  | Fault.Out g ->
      let excite = (stuck_word lxor good.(g)) land mask in
      if excite = 0 then 0 else excite land sens t good mask g
  | Fault.Pin { gate; pin } ->
      let diff = pin_diff t good ~gate ~pin stuck_word land mask in
      if diff = 0 then 0 else diff land sens t good mask gate

(* --- Fault model -------------------------------------------------------- *)

(* A fault's detection word with the fault model applied.  Under
   [Stuck_at] this is [process]'s word verbatim.  Under
   [Transition_delay] the capture-cycle detection word [process]
   computed is masked down to the lanes whose {e preceding}
   pattern put the launch signal at the fault's slow initial value (= the
   capture stuck value): lane [k]'s launch value is lane [k-1] of [good]
   at the site signal, lane 0 takes the last lane of the previous block
   from [launch_prev], and lane 0 of a sweep's first block has no launch
   pattern at all and is masked out.  The [sims]/[props] accounting is
   the capture grade's, so the cost metrics stay comparable across
   models. *)
let process_fault t good mask fi fault =
  let d = process t good mask fault in
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
    Array.blit good 0 t.fv 0 (Array.length good);
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

(* Engine-level metrics.  Hot loops keep bumping the private per-shard
   [sims]/[props] fields (zero contention, bit-identical behaviour); each
   public sweep publishes its delta to the shared registry on the way
   out, exceptions included, so interrupted runs still report work done. *)
let m_sims =
  Metrics.counter ~help:"single-fault simulations performed" "fault_sims"

let m_props =
  Metrics.counter ~help:"fanout-cone propagations (one kernel sweep each)"
    "event_propagations"

let with_sweep name t patterns f =
  Trace.with_span name
    ~args:[ ("patterns", string_of_int (Array.length patterns)) ]
  @@ fun () ->
  let sims0 = t.sims and props0 = t.props in
  Fun.protect
    ~finally:(fun () ->
      Metrics.add m_sims (t.sims - sims0);
      Metrics.add m_props (t.props - props0))
    f

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

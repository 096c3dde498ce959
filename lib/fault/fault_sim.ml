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
  good : int array;
      (* good-machine values of the current block, then the two constant
         slots [ones] and [zero] *)
  launch_prev : Bytes.t;
      (* transition model only: every node's good value at the last lane
         of the previous block — the launch value of the next block's
         lane 0 *)
  mutable launch_valid : bool;
      (* false on a sweep's first block: lane 0 has no launch pattern *)
  ffr : Ffr.t;
  (* Flat layout of the circuit, computed once by [create] and shared by
     every [copy].  Node [i]'s gate record is
     [gate.(stride*i .. stride*i + 5)]: three fanin slots, then the [pre],
     [post] and [xor] masks (each 0 or [full]) of [apply].  A gate with
     fewer than three fanins is padded with the constant slots, one with
     more carries [wide] in its first slot and is folded over
     [fin.(fin_start.(i) .. fin_start.(i+1) - 1)], the CSR fanins the
     derivative chain reads too.  Its fanouts, ascending, are
     [fout.(fout_start.(i) .. fout_start.(i+1) - 1)]. *)
  gate : int array;
  input_nodes : int array; (* the [Input] nodes, in node order *)
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
  live : int array; (* fault-dropping sweeps: the faults still undetected *)
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
let stride = 6

(* The two constant slots past the last node of [good] and [fv]. *)
let ones n = n
let zero n = n + 1
let wide = -1

(* A value array of [n] nodes followed by the constant slots. *)
let values n =
  let v = Array.make (n + 2) 0 in
  v.(ones n) <- full;
  v

(* Fresh scratch over the same immutable circuit/fault/FFR/layout
   arrays: the copy can run [process] concurrently with the original from
   another domain.  Its work counters start at zero so per-worker tallies
   can be summed back with [merge_sims]. *)
let copy t =
  let n = Circuit.node_count t.circuit in
  {
    t with
    good = values n;
    launch_prev = Bytes.make n '\000';
    launch_valid = false;
    fv = values n;
    live = Array.make (Array.length t.faults) 0;
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

(* Node [i]'s gate record.  AND-like kinds fold with [pre = 0] and pad
   with [ones]; OR-like ones fold the complements ([pre = full]) and pad
   with [zero]; XOR-like ones take the parity ([xor = full]) and pad with
   [zero]; [post] inverts.  A constant folds three constant slots, and an
   [Input] is an AND of its own entry, which holds its good value
   whenever a sweep reads it. *)
let gate_record n i (node : Circuit.node) =
  let pad, pre, post, xor =
    match node.Circuit.kind with
    | Gate.Input | Gate.Buf | Gate.And | Gate.Const1 -> (ones n, 0, 0, 0)
    | Gate.Not | Gate.Nand -> (ones n, 0, full, 0)
    | Gate.Const0 -> (zero n, 0, 0, 0)
    | Gate.Or -> (zero n, full, full, 0)
    | Gate.Nor -> (zero n, full, 0, 0)
    | Gate.Xor -> (zero n, 0, 0, full)
    | Gate.Xnor -> (zero n, 0, full, full)
  in
  let fanins =
    if node.Circuit.kind = Gate.Input then [| i |] else node.Circuit.fanins
  in
  let slot k =
    if Array.length fanins > 3 then wide
    else if k < Array.length fanins then fanins.(k)
    else pad
  in
  [| slot 0; slot 1; slot 2; pre; post; xor |]

let create ?(model = Fault_model.Stuck_at) circuit faults =
  let nodes = circuit.Circuit.nodes in
  let n = Array.length nodes in
  let fin_start, fin = csr (Array.map (fun n -> n.Circuit.fanins) nodes) in
  let fout_start, fout = csr circuit.Circuit.fanouts in
  (* One reverse pass: every fanout of [i] has a larger index, so its
     cone bound is final when [i] is reached. *)
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
  let gate = Array.make (stride * n) 0 in
  Array.iteri
    (fun i node -> Array.blit (gate_record n i node) 0 gate (stride * i) stride)
    nodes;
  let input_nodes =
    Array.of_seq
      (Seq.filter (fun i -> nodes.(i).Circuit.kind = Gate.Input) (Seq.init n Fun.id))
  in
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
      gate;
      input_nodes;
      fin_start;
      fin;
      fout_start;
      fout;
      cone_hi;
      next_po;
      fo_pin;
      fv = [||];
      live = [||];
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

(* --- The gate kernel ---------------------------------------------------- *)

(* The gate of [i] over inputs [a], [b], [c] (words) with its masks:
   [y] is the AND of the fanins XOR [pre] (an AND, or with [pre = full]
   a NOR), the [xor] mask swaps it for the parity, and [post] inverts. *)
let[@inline] apply a b c ~pre ~post ~xor =
  let y = (a lxor pre) land (b lxor pre) land (c lxor pre) in
  y lxor ((a lxor b lxor c lxor y) land xor) lxor post

(* A gate of more than three fanins: the same fold, over its CSR
   fanins. *)
let eval_wide t (v : int array) i =
  let o = stride * i in
  let pre = t.gate.(o + 3) in
  let y = ref full and s = ref 0 in
  for k = t.fin_start.(i) to t.fin_start.(i + 1) - 1 do
    let x = v.(t.fin.(k)) in
    y := !y land (x lxor pre);
    s := !s lxor x
  done;
  !y lxor ((!s lxor !y) land t.gate.(o + 5)) lxor t.gate.(o + 4)

(* Evaluate nodes [lo ..] of value array [v] in place, in index order,
   up to [hi] or the first wide gate, whichever comes first; the result
   is the next node to evaluate.  The loop makes no call, so its
   variables stay in registers. *)
let sweep_run (g : int array) (v : int array) lo hi =
  let i = ref lo in
  while !i <= hi && Array.unsafe_get g (stride * !i) <> wide do
    let o = stride * !i in
    Array.unsafe_set v !i
      (apply
         (Array.unsafe_get v (Array.unsafe_get g o))
         (Array.unsafe_get v (Array.unsafe_get g (o + 1)))
         (Array.unsafe_get v (Array.unsafe_get g (o + 2)))
         ~pre:(Array.unsafe_get g (o + 3))
         ~post:(Array.unsafe_get g (o + 4))
         ~xor:(Array.unsafe_get g (o + 5)));
    incr i
  done;
  !i

(* Evaluate nodes [lo .. hi] of [v] in place, in index order: the good
   machine of a whole block and every stem flip are this one loop. *)
let sweep t (v : int array) lo hi =
  let i = ref (sweep_run t.gate v lo hi) in
  while !i <= hi do
    v.(!i) <- eval_wide t v !i;
    i := sweep_run t.gate v (!i + 1) hi
  done

(* Load [block] into [t.good] and the faulty-value mirror: the inputs
   take their words, every other node is swept. *)
let simulate_block t (block : Logic_sim.block) =
  let good = t.good and fv = t.fv in
  let n = Circuit.node_count t.circuit in
  Array.iteri
    (fun k i -> Array.unsafe_set good i block.Logic_sim.per_input.(k))
    t.input_nodes;
  sweep t good 0 (n - 1);
  (* A plain loop: [Array.blit] onto the major-heap mirror goes through
     the write barrier once per element. *)
  for i = 0 to n - 1 do
    Array.unsafe_set fv i (Array.unsafe_get good i)
  done

let good_values t block =
  simulate_block t block;
  Array.sub t.good 0 (Circuit.node_count t.circuit)

(* --- Propagation kernel ----------------------------------------------- *)

(* Word of patterns where flipping fanin position [pin] of gate [i]
   flips the gate's output, all other fanins held at their good values:
   the AND of the other fanins XOR [pre].  Inversions don't affect
   whether a flip passes, and an XOR or a one-input AND (Buf, Not) passes
   every flip. *)
let deriv t (good : int array) i ~pin =
  let o = stride * i in
  if t.gate.(o + 5) <> 0 then full
  else begin
    let lo = t.fin_start.(i) and pre = t.gate.(o + 3) in
    let acc = ref full in
    for k = lo to t.fin_start.(i + 1) - 1 do
      if k - lo <> pin then acc := !acc land (good.(t.fin.(k)) lxor pre)
    done;
    !acc
  end

(* Faulty-minus-good difference at [gate]'s output for its fanin [pin]
   stuck at [stuck_word]: the pin's excitation, passed by the gate. *)
let pin_diff t (good : int array) ~gate ~pin stuck_word =
  (stuck_word lxor good.(t.fin.(t.fin_start.(gate) + pin)))
  land deriv t good gate ~pin

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
  sweep t fv lo hi;
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
  let n = Circuit.node_count t.circuit in
  t.launch_valid <- false;
  let base = ref 0 in
  while !base < total && not (stop ()) do
    let len = min Logic_sim.block_width (total - !base) in
    let block = Logic_sim.pack t.circuit (Array.sub patterns !base len) in
    simulate_block t block;
    t.block <- t.block + 1; (* new good values: memoised [sens] go stale *)
    let good = t.good in
    let mask = Logic_sim.valid_mask block.Logic_sim.width in
    f ~base:!base ~good ~mask;
    if t.model = Fault_model.Transition_delay then begin
      let last = len - 1 in
      (* [good] ends in the two constant slots: stop at the last node. *)
      for i = 0 to n - 1 do
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

(* The fault-dropping sweep behind [detected_set] and
   [first_detections]: [t.live] starts as the faults of [active] (every
   fault when absent), ascending.  Each block grades the live faults,
   hands each detection to [found fi ~base d] and compacts the survivors
   to the front of [t.live]; the sweep stops once none is left. *)
let drop_sweep ?budget t ?active patterns found =
  let live = t.live in
  let nlive = ref 0 in
  (* The callers checked [active]'s length against the fault count. *)
  for fi = 0 to fault_count t - 1 do
    let on = match active with None -> true | Some a -> Bitvec.unsafe_get a fi in
    if on then begin
      Array.unsafe_set live !nlive fi;
      incr nlive
    end
  done;
  iter_blocks ?budget ~stop:(fun () -> !nlive = 0) t patterns
    (fun ~base ~good ~mask ->
      let kept = ref 0 in
      for j = 0 to !nlive - 1 do
        let fi = Array.unsafe_get live j in
        let d = process_fault t good mask fi (Array.unsafe_get t.faults fi) in
        if d <> 0 then found fi ~base d
        else begin
          Array.unsafe_set live !kept fi;
          incr kept
        end
      done;
      nlive := !kept)

let detected_set ?budget t patterns ~active =
  if Bitvec.length active <> fault_count t then
    invalid_arg "Fault_sim.detected_set: active mask size mismatch";
  with_sweep "fault_sim.detected_set" t patterns @@ fun () ->
  let detected = Bitvec.create (fault_count t) in
  drop_sweep ?budget t ~active patterns (fun fi ~base:_ _ ->
      Bitvec.unsafe_set detected fi);
  detected

(* The index of the first pattern lane set in a nonzero detection word. *)
let lowest_lane d =
  let k = ref 0 in
  while d lsr !k land 1 = 0 do incr k done;
  !k

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
  drop_sweep ?budget t ?active patterns (fun fi ~base d ->
      result.(fi) <- firsts.(base + lowest_lane d));
  result

(* [drop_sweep] reads [live] once, before the first block, so the
   detections can clear it as they come. *)
let useful_length t ~live patterns =
  if Bitvec.length live <> fault_count t then
    invalid_arg "Fault_sim.useful_length: live mask size mismatch";
  with_sweep "fault_sim.useful_length" t patterns @@ fun () ->
  let len = ref 0 in
  drop_sweep t ~active:live patterns (fun fi ~base d ->
      Bitvec.clear live fi;
      len := max !len (base + lowest_lane d + 1));
  !len

let coverage_pct t detected = Stats.pct (Bitvec.count detected) (fault_count t)

open Reseed_atpg
open Reseed_fault
open Reseed_netlist
open Reseed_util

type prepared = {
  circuit : Circuit.t;
  sim : Fault_sim.t;
  tests : bool array array;
  targets : Bitvec.t;
  atpg : Atpg.result;
  fault_model : Fault_model.t;
  fingerprint : Fingerprint.t;
  store : Artifact.store option;
}

(* The netlist itself is hashed node by node, so editing a circuit file —
   not just renaming it — invalidates every downstream artifact. *)
let circuit_fingerprint c =
  let open Fingerprint in
  let h = salted "circuit" in
  let h = string h (Circuit.name c) in
  let h =
    Array.fold_left
      (fun h (n : Circuit.node) ->
        let h = string h (Gate.kind_to_string n.Circuit.kind) in
        let h = array int h n.Circuit.fanins in
        string h n.Circuit.label)
      h c.Circuit.nodes
  in
  let h = array int h c.Circuit.inputs in
  array int h c.Circuit.outputs

(* The ATPG-stage key digests everything the prepared workload depends
   on: the netlist, the ATPG settings and the fault model.  It doubles
   as the lineage salt for every later stage of this circuit's pipeline,
   so the workload tag below propagates into every downstream stage key —
   a warm stuck-at store is a guaranteed miss for a transition-delay
   request. *)
let atpg_fingerprint ~fault_model circuit =
  let open Fingerprint in
  let h = salted "atpg" in
  let h = string h ("workload:faults:" ^ Fault_model.name fault_model) in
  let h = int64 h (circuit_fingerprint circuit) in
  let h = Atpg.fingerprint h Atpg.Podem_engine in
  (* The fault simulator's name from when there were two engines, and
     the collapse flag from when there were two stuck-at fault lists,
     kept constant so existing stores stay warm. *)
  let h = string h "cpt" in
  bool h false

let encode_atpg (r : Atpg.result) =
  if r.Atpg.stopped_early then None
  else begin
    let b = Buffer.create 4096 in
    Artifact.Codec.patterns b r.Atpg.tests;
    Artifact.Codec.bitvec b r.Atpg.detected;
    Artifact.Codec.int_list b r.Atpg.untestable;
    Artifact.Codec.int_list b r.Atpg.aborted;
    Artifact.Codec.vint b r.Atpg.random_patterns_tried;
    Artifact.Codec.vint b r.Atpg.podem_stats.Podem.backtracks;
    Artifact.Codec.vint b r.Atpg.podem_stats.Podem.decisions;
    Artifact.Codec.vint b r.Atpg.dropped_by_compaction;
    Some (Buffer.contents b)
  end

let decode_atpg ~width ~fault_count r =
  let tests = Artifact.Codec.get_patterns r in
  Array.iter
    (fun p -> if Array.length p <> width then raise Artifact.Codec.Malformed)
    tests;
  let detected = Artifact.Codec.get_bitvec r in
  if Bitvec.length detected <> fault_count then raise Artifact.Codec.Malformed;
  let untestable = Artifact.Codec.get_int_list r in
  let aborted = Artifact.Codec.get_int_list r in
  let random_patterns_tried = Artifact.Codec.get_vint r in
  let podem_stats = Podem.new_stats () in
  podem_stats.Podem.backtracks <- Artifact.Codec.get_vint r;
  podem_stats.Podem.decisions <- Artifact.Codec.get_vint r;
  let dropped_by_compaction = Artifact.Codec.get_vint r in
  {
    Atpg.tests;
    detected;
    untestable;
    aborted;
    random_patterns_tried;
    podem_stats;
    dropped_by_compaction;
    stopped_early = false;
  }

let prepare_circuit ?(fault_model = Fault_model.Stuck_at) ?budget ?store circuit =
  Trace.with_span "suite.prepare" ~args:[ ("circuit", Circuit.name circuit) ]
  @@ fun () ->
  let fingerprint = atpg_fingerprint ~fault_model circuit in
  let faults = Fault_model.faults fault_model circuit in
  let sim = Fault_sim.create ~model:fault_model circuit faults in
  let atpg =
    Artifact.cached store ~stage:"atpg" ~fp:fingerprint ~encode:encode_atpg
      ~decode:
        (decode_atpg
           ~width:(Circuit.input_count circuit)
           ~fault_count:(Array.length faults))
    @@ fun () -> Atpg.run ?budget sim
  in
  {
    circuit;
    sim;
    tests = atpg.Atpg.tests;
    targets = atpg.Atpg.detected;
    atpg;
    fault_model;
    fingerprint;
    store;
  }

let prepare ?scale_factor ?fault_model ?budget ?store name =
  prepare_circuit ?fault_model ?budget ?store
    (Library.load ?scale_factor name)

let figure2 ~grid ?pool p tpg =
  Tradeoff.sweep ?pool ?store:p.store ~fingerprint:p.fingerprint p.sim tpg ~tests:p.tests
    ~targets:p.targets ~grid

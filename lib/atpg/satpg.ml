open Reseed_netlist
open Reseed_fault
open Reseed_sat
open Reseed_util

type outcome = Test of bool array | Untestable | Aborted

(* Clause emission for one gate [y = kind(args)] in standard Tseitin
   form.  [fresh] mints auxiliary variables for XOR chains. *)
let emit_gate solver ~fresh y kind args =
  let add = Sat.add_clause solver in
  let all = Array.to_list args in
  match kind with
  | Gate.Input -> ()
  | Gate.Const0 -> add [ -y ]
  | Gate.Const1 -> add [ y ]
  | Gate.Buf ->
      add [ -y; args.(0) ];
      add [ y; -args.(0) ]
  | Gate.Not ->
      add [ -y; -args.(0) ];
      add [ y; args.(0) ]
  | Gate.And ->
      List.iter (fun a -> add [ -y; a ]) all;
      add (y :: List.map (fun a -> -a) all)
  | Gate.Nand ->
      List.iter (fun a -> add [ y; a ]) all;
      add (-y :: List.map (fun a -> -a) all)
  | Gate.Or ->
      List.iter (fun a -> add [ y; -a ]) all;
      add (-y :: all)
  | Gate.Nor ->
      List.iter (fun a -> add [ -y; -a ]) all;
      add (y :: all)
  | Gate.Xor | Gate.Xnor ->
      (* Chain binary XORs through fresh temporaries. *)
      let xor2 out a b =
        add [ -out; a; b ];
        add [ -out; -a; -b ];
        add [ out; -a; b ];
        add [ out; a; -b ]
      in
      let rec chain acc = function
        | [] -> acc
        | a :: rest ->
            let t = fresh () in
            xor2 t acc a;
            chain t rest
      in
      let final =
        match all with
        | a :: b :: rest ->
            let t = fresh () in
            xor2 t a b;
            chain t rest
        | _ -> invalid_arg "Satpg: xor arity"
      in
      if kind = Gate.Xor then begin
        add [ -y; final ];
        add [ y; -final ]
      end
      else begin
        add [ -y; -final ];
        add [ y; final ]
      end

let generate c fault ?(max_conflicts = 200_000) ?budget () =
  Trace.with_span "satpg.generate" @@ fun () ->
  let n = Circuit.node_count c in
  let site = Fault.site_node fault in
  let cone = Circuit.fanout_cone c site in
  let in_cone = Array.make n false in
  Array.iter (fun i -> in_cone.(i) <- true) cone;
  (* No PO reachable from the fault site: trivially undetectable. *)
  if Circuit.output_mask_of_cone c cone = [] then Untestable
  else begin
    (* Variable budget: good copy + faulty cone copy + XOR temporaries +
       miter bits; grow a counter and size the solver afterwards by
       pre-counting generously. *)
    let xor_temps =
      Array.fold_left
        (fun acc (node : Circuit.node) ->
          match node.Circuit.kind with
          | Gate.Xor | Gate.Xnor -> acc + (2 * Array.length node.Circuit.fanins)
          | _ -> acc)
        0 c.Circuit.nodes
    in
    let capacity = (2 * n) + (2 * xor_temps) + Array.length c.Circuit.outputs + 4 in
    let solver = Sat.create capacity in
    let counter = ref 0 in
    let fresh () =
      incr counter;
      if !counter > capacity then failwith "Satpg: variable budget exceeded";
      !counter
    in
    let gvar = Array.init n (fun _ -> 0) in
    for i = 0 to n - 1 do
      gvar.(i) <- fresh ()
    done;
    let fvar = Array.init n (fun i -> if in_cone.(i) then 0 else gvar.(i)) in
    Array.iter (fun i -> fvar.(i) <- fresh ()) cone;
    (* Good machine. *)
    Array.iteri
      (fun i (node : Circuit.node) ->
        emit_gate solver ~fresh gvar.(i) node.Circuit.kind
          (Array.map (fun f -> gvar.(f)) node.Circuit.fanins))
      c.Circuit.nodes;
    (* Faulty machine: only the cone needs fresh logic. *)
    let stuck_lit target = if fault.Fault.stuck then target else -target in
    Array.iter
      (fun i ->
        let node = c.Circuit.nodes.(i) in
        if i = site then
          match fault.Fault.site with
          | Fault.Out _ -> Sat.add_clause solver [ stuck_lit fvar.(i) ]
          | Fault.Pin { pin; _ } ->
              (* Inject a pinned auxiliary input on the faulted pin. *)
              let pinned = fresh () in
              Sat.add_clause solver [ stuck_lit pinned ];
              let args =
                Array.mapi
                  (fun pidx f -> if pidx = pin then pinned else fvar.(f))
                  node.Circuit.fanins
              in
              emit_gate solver ~fresh fvar.(i) node.Circuit.kind args
        else
          emit_gate solver ~fresh fvar.(i) node.Circuit.kind
            (Array.map (fun f -> fvar.(f)) node.Circuit.fanins))
      cone;
    (* Miter: some primary output must differ. *)
    let diff_lits = ref [] in
    Array.iter
      (fun o ->
        if in_cone.(o) then begin
          let d = fresh () in
          Sat.add_clause solver [ -d; gvar.(o); fvar.(o) ];
          Sat.add_clause solver [ -d; -gvar.(o); -fvar.(o) ];
          diff_lits := d :: !diff_lits
        end)
      c.Circuit.outputs;
    Sat.add_clause solver !diff_lits;
    match Sat.solve ~max_conflicts ?budget solver with
    | Sat.Unsat -> Untestable
    | Sat.Unknown -> Aborted
    | Sat.Sat model ->
        Test (Array.map (fun i -> model.(gvar.(i))) c.Circuit.inputs)
  end

let generate_checked c fault ~rng () =
  ignore rng;
  match generate c fault () with
  | Test pattern ->
      let sim = Fault_sim.create c [| fault |] in
      let active = Bitvec.create 1 in
      Bitvec.fill_all active;
      let detected = Fault_sim.detected_set sim [| Word.of_bits pattern |] ~active in
      if not (Bitvec.get detected 0) then
        failwith "Satpg.generate_checked: SAT model is not a valid test";
      Test pattern
  | (Untestable | Aborted) as o -> o

open Reseed_netlist
open Reseed_fault
open Reseed_util

type result = {
  tests : bool array array;
  detected : Bitvec.t;
  patterns_tried : int;
}

let run ?budget sim ~rng ?already ?(max_patterns = 10_000) ?(give_up_after = 5) () =
  let c = Fault_sim.circuit sim in
  let n_pi = Circuit.input_count c in
  let nf = Fault_sim.fault_count sim in
  let detected =
    match already with
    | Some d ->
        if Bitvec.length d <> nf then invalid_arg "Random_gen.run: mask size";
        Bitvec.copy d
    | None -> Bitvec.create nf
  in
  let initially_detected = Bitvec.copy detected in
  let block_size = 62 in
  let kept = ref [] in
  let tried = ref 0 in
  let useless_blocks = ref 0 in
  while !tried < max_patterns && !useless_blocks < give_up_after
        && not (Budget.check budget) do
    let block =
      Array.init block_size (fun _ -> Array.init n_pi (fun _ -> Rng.bool rng))
    in
    tried := !tried + block_size;
    (* Which still-active faults does this block catch, and with which
       pattern first?  Keep only first-detecting patterns.  Each block is
       graded as its own sweep, so under the transition model detections
       only ever use launch/capture pairs from inside the block — and the
       launch pattern [p - 1] must be kept alongside the capture pattern
       [p], or the kept subset would no longer detect what it claims. *)
    let transition = Fault_sim.model sim = Fault_model.Transition_delay in
    let active = Bitvec.create nf in
    Bitvec.fill_all active;
    Bitvec.diff_into ~into:active detected;
    let useful = Array.make block_size false in
    let progress = ref false in
    Fault_sim.first_detections sim ~active (Array.map Word.of_bits block)
      (fun fi p ->
        Bitvec.set detected fi;
        useful.(p) <- true;
        if transition && p > 0 then useful.(p - 1) <- true;
        progress := true);
    if !progress then begin
      useless_blocks := 0;
      Array.iteri (fun p pat -> if useful.(p) then kept := pat :: !kept) block
    end
    else incr useless_blocks
  done;
  let newly = Bitvec.diff detected initially_detected in
  { tests = Array.of_list (List.rev !kept); detected = newly; patterns_tried = !tried }

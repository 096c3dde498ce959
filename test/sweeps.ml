(* [Fault_sim]'s sweeps in the shapes the tests compare, over bool-array
   patterns: the library grades accumulator words and reports first
   detections through a callback, while the oracles
   ([Fault_sim_reference], [Fault_checker]) take one [bool array] per
   pattern and return per-fault arrays.  [detection_map], the
   no-dropping map the library no longer computes, lives here too,
   derived from the library's own fault-dropping sweeps. *)

open Reseed_fault
open Reseed_util

let words patterns = Array.map Word.of_bits patterns

(* [Fault_sim.first_detections] as an array: [Some p] for each fault
   first detected by pattern [p]. *)
let first_detections ?budget sim ?active patterns =
  let firsts = Array.make (Fault_sim.fault_count sim) None in
  Fault_sim.first_detections ?budget sim ?active (words patterns) (fun fi p ->
      firsts.(fi) <- Some p);
  firsts

(* One [Bitvec.t] per fault, indexed over patterns: bit [p] set iff
   pattern [p] detects the fault.  A fault's next detection after
   pattern [q] is the first detection of a sweep over the suffix after
   [q] — under the transition model the suffix starts at [q] itself,
   whose lane-0 position launches nothing and so detects nothing, and
   launches pattern [q + 1].  [pending.(s)] holds the faults whose
   detections from pattern [s] on are still to be found; one sweep per
   nonempty [s], in ascending order, fills the map.  The simulator's
   work counters advance by whatever those sweeps cost. *)
let detection_map sim patterns =
  let n = Array.length patterns and nf = Fault_sim.fault_count sim in
  let map = Array.init nf (fun _ -> Bitvec.create n) in
  let ws = words patterns in
  let pending = Array.init (n + 1) (fun _ -> Bitvec.create nf) in
  Bitvec.fill_all pending.(0);
  let launch = if Fault_sim.model sim = Fault_model.Transition_delay then 1 else 0 in
  for s = 0 to n - 1 do
    if not (Bitvec.is_empty pending.(s)) then begin
      let from = max 0 (s - launch) in
      Fault_sim.first_detections sim ~active:pending.(s)
        (Array.sub ws from (n - from))
        (fun fi p ->
          Bitvec.set map.(fi) (from + p);
          Bitvec.set pending.(from + p + 1) fi)
    end
  done;
  map

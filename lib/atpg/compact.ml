open Reseed_fault
open Reseed_util

(* Pattern [p] is kept iff it is the last pattern of the set to detect
   some fault: fault-simulating the set backwards with dropping, that is
   the fault's first detection.  Faults the set never detects have none,
   so they never hold a pattern hostage. *)
let reverse_order sim tests =
  let n = Array.length tests in
  let keep = Array.make n false in
  let reversed = Array.init n (fun p -> Word.of_bits tests.(n - 1 - p)) in
  Fault_sim.first_detections sim reversed (fun _ q -> keep.(n - 1 - q) <- true);
  let kept = List.filteri (fun p _ -> keep.(p)) (Array.to_list tests) in
  (Array.of_list kept, n - List.length kept)

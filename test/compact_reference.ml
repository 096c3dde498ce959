(* Reverse-order compaction as it stood before it graded the reversed set
   with fault dropping, kept verbatim as a test oracle (as
   [Fault_sim_reference] keeps the level-queue simulator): one
   no-dropping detection map over the whole set, then a backward scan
   that keeps a pattern iff it detects a still-uncovered fault.
   [Compact.reverse_order] must keep exactly the same patterns. *)

open Reseed_fault
open Reseed_util

let reverse_order sim tests =
  let n = Array.length tests in
  if n = 0 then ([||], 0)
  else begin
    let nf = Fault_sim.fault_count sim in
    (* Restrict to faults the set actually detects, so undetectable faults
       never hold patterns hostage. *)
    let detectable = Bitvec.create nf in
    let map = Fault_sim.detection_map sim tests in
    Array.iteri (fun fi v -> if not (Bitvec.is_empty v) then Bitvec.set detectable fi) map;
    let remaining = Bitvec.copy detectable in
    let keep = Array.make n false in
    for p = n - 1 downto 0 do
      if not (Bitvec.is_empty remaining) then begin
        (* Does pattern p detect any still-needed fault? *)
        let contributes = ref false in
        Array.iteri
          (fun fi v ->
            if Bitvec.get remaining fi && Bitvec.get v p then begin
              contributes := true;
              Bitvec.clear remaining fi
            end)
          map;
        keep.(p) <- !contributes
      end
    done;
    let kept =
      Array.of_list
        (List.filteri (fun p _ -> keep.(p)) (Array.to_list tests))
    in
    (kept, n - Array.length kept)
  end

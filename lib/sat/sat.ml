open Reseed_util

type t = {
  mutable nvars : int;
  mutable clauses : int array list; (* reversed insertion order *)
  mutable n_clauses : int;
  mutable trivially_unsat : bool;
}

type outcome = Sat of bool array | Unsat | Unknown

let create nvars =
  if nvars < 0 then invalid_arg "Sat.create: negative variable count";
  { nvars; clauses = []; n_clauses = 0; trivially_unsat = false }

let nvars t = t.nvars
let clause_count t = t.n_clauses

let new_var t =
  t.nvars <- t.nvars + 1;
  t.nvars

let add_clause t lits =
  List.iter
    (fun l ->
      let v = abs l in
      if l = 0 || v > t.nvars then invalid_arg "Sat.add_clause: bad literal")
    lits;
  let lits = List.sort_uniq compare lits in
  let tautology = List.exists (fun l -> List.mem (-l) lits) lits in
  if not tautology then begin
    if lits = [] then t.trivially_unsat <- true
    else begin
      t.clauses <- Array.of_list lits :: t.clauses;
      t.n_clauses <- t.n_clauses + 1
    end
  end

(* One search instance; rebuilt per [solve] call so the solver object can
   accumulate clauses (and variables) between calls. *)
type search = {
  s_nvars : int;
  s_clauses : int array array;
  occ : int list array; (* literal (2v / 2v+1) -> clause indices *)
  assign : int array; (* var -> 0 unassigned / +1 / -1 *)
  trail : int array; (* assigned literals, chronological *)
  mutable trail_len : int;
  mutable queue_head : int; (* propagation frontier within the trail *)
}

let lit_index l = if l > 0 then 2 * l else (2 * -l) + 1

let value s l =
  let v = s.assign.(abs l) in
  if v = 0 then 0 else if (l > 0 && v = 1) || (l < 0 && v = -1) then 1 else -1

let enqueue s l =
  s.assign.(abs l) <- (if l > 0 then 1 else -1);
  s.trail.(s.trail_len) <- l;
  s.trail_len <- s.trail_len + 1

(* Propagate all pending assignments; returns [false] on conflict. *)
let propagate s =
  let ok = ref true in
  while !ok && s.queue_head < s.trail_len do
    let l = s.trail.(s.queue_head) in
    s.queue_head <- s.queue_head + 1;
    let falsified = lit_index (-l) in
    List.iter
      (fun ci ->
        if !ok then begin
          let clause = s.s_clauses.(ci) in
          let satisfied = ref false in
          let unassigned = ref 0 in
          let unit_lit = ref 0 in
          Array.iter
            (fun cl ->
              match value s cl with
              | 1 -> satisfied := true
              | 0 ->
                  incr unassigned;
                  unit_lit := cl
              | _ -> ())
            clause;
          if not !satisfied then
            if !unassigned = 0 then ok := false
            else if !unassigned = 1 then enqueue s !unit_lit
        end)
      s.occ.(falsified)
  done;
  !ok

(* Undo the trail back to length [mark]. *)
let backjump s mark =
  for i = s.trail_len - 1 downto mark do
    s.assign.(abs s.trail.(i)) <- 0
  done;
  s.trail_len <- mark;
  s.queue_head <- mark

type decision = { d_mark : int; d_lit : int; mutable d_flipped : bool }

(* Wall-clock polls are throttled to once per [budget_stride] search
   steps (decisions + conflicts), mirroring the ILP branch-and-bound: a
   step is microseconds, so the deadline is honoured within milliseconds
   without a clock read per step. *)
let budget_stride = 1024

let solve ?(assumptions = []) ?(max_conflicts = 200_000) ?budget t =
  if t.trivially_unsat then Unsat
  else begin
    let clauses = Array.of_list (List.rev t.clauses) in
    let occ = Array.make ((2 * t.nvars) + 2) [] in
    Array.iteri
      (fun ci clause ->
        Array.iter (fun l -> occ.(lit_index l) <- ci :: occ.(lit_index l)) clause)
      clauses;
    let s =
      {
        s_nvars = t.nvars;
        s_clauses = clauses;
        occ;
        assign = Array.make (t.nvars + 1) 0;
        trail = Array.make (max 1 t.nvars) 0;
        trail_len = 0;
        queue_head = 0;
      }
    in
    (* Assumption level. *)
    let contradictory_assumption = ref false in
    List.iter
      (fun l ->
        match value s l with
        | 1 -> ()
        | -1 -> contradictory_assumption := true
        | _ -> enqueue s l)
      assumptions;
    if !contradictory_assumption || not (propagate s) then Unsat
    else begin
      let conflicts = ref 0 in
      let steps = ref 0 in
      let decisions : decision list ref = ref [] in
      let result = ref None in
      let out_of_budget () =
        incr steps;
        match budget with
        | Some b when !steps mod budget_stride = 0 && Budget.expired b -> true
        | _ -> false
      in
      let rec next_unassigned v =
        if v > s.s_nvars then 0 else if s.assign.(v) = 0 then v else next_unassigned (v + 1)
      in
      while !result = None do
        if !conflicts > max_conflicts || out_of_budget () then result := Some Unknown
        else begin
          let v = next_unassigned 1 in
          if v = 0 then begin
            (* Complete assignment: a model (propagation kept it sound). *)
            let model = Array.make (s.s_nvars + 1) false in
            for i = 1 to s.s_nvars do
              model.(i) <- s.assign.(i) = 1
            done;
            result := Some (Sat model)
          end
          else begin
            (* Decide [v = false] first (ATPG instances tend to prefer
               sparse activation), then propagate, handling conflicts by
               chronological backtracking. *)
            decisions := { d_mark = s.trail_len; d_lit = -v; d_flipped = false } :: !decisions;
            enqueue s (-v);
            let stable = ref false in
            while not !stable do
              if propagate s then stable := true
              else begin
                incr conflicts;
                if out_of_budget () then begin
                  result := Some Unknown;
                  stable := true
                end
                else begin
                  (* Find a decision to flip. *)
                  let rec unwind () =
                    match !decisions with
                    | [] ->
                        result := Some Unsat;
                        stable := true
                    | d :: rest ->
                        backjump s d.d_mark;
                        if d.d_flipped then begin
                          decisions := rest;
                          unwind ()
                        end
                        else begin
                          d.d_flipped <- true;
                          enqueue s (-d.d_lit)
                        end
                  in
                  unwind ()
                end
              end
            done
          end
        end
      done;
      Option.get !result
    end
  end

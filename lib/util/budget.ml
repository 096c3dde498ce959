type stop_reason = Deadline | Cancelled

let stop_reason_name = function Deadline -> "deadline" | Cancelled -> "cancelled"

(* [tripped] latches the first observed stop: 0 live, 1 deadline,
   2 cancelled.  Latching keeps the fast path to one atomic load and makes
   the reported reason stable across repeated polls. *)
type t = { deadline : float option; tripped : int Atomic.t; parent : t option }

let create ?deadline_s () =
  let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) deadline_s in
  { deadline; tripped = Atomic.make 0; parent = None }

let sub ?deadline_s parent =
  let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) deadline_s in
  { deadline; tripped = Atomic.make 0; parent = Some parent }

let cancel t = Atomic.set t.tripped 2

let rec refresh t =
  match Atomic.get t.tripped with
  | 0 -> (
      (* A tripped parent trips the child with the same reason; the
         child's latch keeps the inherited reason stable even though the
         parent is polled only while the child is live. *)
      match Option.map refresh t.parent with
      | Some s when s <> 0 ->
          ignore (Atomic.compare_and_set t.tripped 0 s);
          Atomic.get t.tripped
      | _ -> (
          match t.deadline with
          | Some d when Unix.gettimeofday () >= d ->
              (* Never overwrite a concurrent cancel. *)
              ignore (Atomic.compare_and_set t.tripped 0 1);
              Atomic.get t.tripped
          | _ -> 0))
  | s -> s

let expired t = refresh t <> 0

let stop_reason t =
  match refresh t with 0 -> None | 1 -> Some Deadline | _ -> Some Cancelled

let check = function None -> false | Some t -> expired t

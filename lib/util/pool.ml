(* Fixed worker domains fed by a single mutex/condition queue.  One job is
   in flight at a time; participants (the caller, slot 0, plus each worker
   domain) claim one index at a time with an atomic cursor, so the
   schedule is dynamic but every index runs exactly once and lands in its
   own result slot — results are independent of the job count. *)

exception
  Task_error of {
    label : string;
    worker : int;
    index : int;
    attempts : int;
    exn : exn;
  }

let () =
  Printexc.register_printer (function
    | Task_error { label; worker; index; attempts; exn } ->
        Some
          (Printf.sprintf
             "Pool.Task_error(task %S, worker %d, index %d, %d attempts: %s)"
             label worker index attempts (Printexc.to_string exn))
    | _ -> None)

type job = {
  id : int;
  total : int;
  label : string;
  next : int Atomic.t;  (* next unclaimed index *)
  failed : bool Atomic.t;  (* set on first exception: later indices are skipped *)
  body : worker:int -> int -> unit;
  jm : Mutex.t;  (* guards [completed] and [exn] *)
  done_c : Condition.t;
  mutable completed : int;  (* indices claimed and accounted for *)
  mutable exn : exn option;
}

type state = Idle | Work of job | Stop

type t = {
  n_jobs : int;
  m : Mutex.t;  (* guards [state] *)
  ready : Condition.t;
  mutable state : state;
  mutable workers : unit Domain.t list;
  busy : bool Atomic.t;  (* a region is running: nested calls degrade to inline *)
  mutable next_id : int;
  mutable shut : bool;
}

let jobs t = t.n_jobs

let default_jobs () =
  match Option.map String.trim (Sys.getenv_opt "RESEED_JOBS") with
  | None | Some "" -> Domain.recommended_domain_count ()
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n >= 1 -> n
      | _ -> Error.fail Error.Usage "RESEED_JOBS=%S: expected a positive integer" s)

(* An index that raises is re-run once, at once, on the same worker (so
   bodies must be idempotent per index); a second failure is wrapped in
   {!Task_error}.  A structured {!Error.Reseed_error} is never re-run:
   that only duplicates a documented failure's side effects.  A nested
   {!Task_error} passes. *)
let fp_task = Faultpoint.register "pool.task"

let run_index_retrying ~label body ~worker index =
  let fail attempts exn = raise (Task_error { label; worker; index; attempts; exn }) in
  let rec go attempts =
    match
      Faultpoint.hit fp_task;
      body ~worker index
    with
    | () -> ()
    | exception (Task_error _ as e) -> raise e
    | exception (Error.Reseed_error _ as e) -> fail attempts e
    | exception _ when attempts = 1 -> go 2
    | exception e -> fail attempts e
  in
  go 1

(* Every claimed index is accounted exactly once, run or skipped, so
   [completed = total] is the completion condition even after a failure. *)
let run_indices j ~worker =
  let continue = ref true in
  while !continue do
    let i = Atomic.fetch_and_add j.next 1 in
    if i >= j.total then continue := false
    else begin
      (if not (Atomic.get j.failed) then
         try run_index_retrying ~label:j.label j.body ~worker i
         with e ->
           Atomic.set j.failed true;
           Mutex.lock j.jm;
           if j.exn = None then j.exn <- Some e;
           Mutex.unlock j.jm);
      Mutex.lock j.jm;
      j.completed <- j.completed + 1;
      if j.completed = j.total then Condition.broadcast j.done_c;
      Mutex.unlock j.jm
    end
  done

let rec worker_loop t ~slot ~last_id =
  Mutex.lock t.m;
  let rec wait () =
    match t.state with
    | Stop ->
        Mutex.unlock t.m;
        None
    | Work j when j.id <> last_id ->
        Mutex.unlock t.m;
        Some j
    | Idle | Work _ ->
        Condition.wait t.ready t.m;
        wait ()
  in
  match wait () with
  | None -> ()
  | Some j ->
      run_indices j ~worker:slot;
      worker_loop t ~slot ~last_id:j.id

let create ~jobs () =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      n_jobs = jobs;
      m = Mutex.create ();
      ready = Condition.create ();
      state = Idle;
      workers = [];
      busy = Atomic.make false;
      next_id = 0;
      shut = false;
    }
  in
  t.workers <-
    List.init (jobs - 1) (fun i ->
        Domain.spawn (fun () -> worker_loop t ~slot:(i + 1) ~last_id:(-1)));
  t

let shutdown t =
  let ws =
    Mutex.lock t.m;
    if t.shut then begin
      Mutex.unlock t.m;
      []
    end
    else begin
      t.shut <- true;
      t.state <- Stop;
      Condition.broadcast t.ready;
      Mutex.unlock t.m;
      t.workers
    end
  in
  List.iter Domain.join ws

let with_pool ~jobs f =
  let t = create ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let default_pool = ref None
let default_m = Mutex.create ()

let default () =
  Mutex.protect default_m @@ fun () ->
  match !default_pool with
  | Some t -> t
  | None ->
      let t = create ~jobs:(default_jobs ()) () in
      default_pool := Some t;
      at_exit (fun () -> shutdown t);
      t

let resolve = function Some t -> t | None -> default ()

let parallel_for ?pool ?(label = "parallel region") ~total body =
  if total > 0 then begin
    let t = resolve pool in
    if t.n_jobs = 1 || t.shut || not (Atomic.compare_and_set t.busy false true)
    then
      for i = 0 to total - 1 do
        run_index_retrying ~label body ~worker:0 i
      done
    else
      Fun.protect
        ~finally:(fun () -> Atomic.set t.busy false)
        (fun () ->
          t.next_id <- t.next_id + 1;
          let j =
            {
              id = t.next_id;
              total;
              label;
              next = Atomic.make 0;
              failed = Atomic.make false;
              body;
              jm = Mutex.create ();
              done_c = Condition.create ();
              completed = 0;
              exn = None;
            }
          in
          Mutex.lock t.m;
          t.state <- Work j;
          Condition.broadcast t.ready;
          Mutex.unlock t.m;
          run_indices j ~worker:0;
          Mutex.lock j.jm;
          while j.completed < j.total do
            Condition.wait j.done_c j.jm
          done;
          let e = j.exn in
          Mutex.unlock j.jm;
          Mutex.lock t.m;
          t.state <- Idle;
          Mutex.unlock t.m;
          match e with Some e -> raise e | None -> ())
  end

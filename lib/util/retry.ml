(* Bounded retry with exponential backoff and deterministic jitter.

   One policy for every transient-failure site (worker chunks, artifact
   IO): classify the exception, retry transients up to a
   bounded attempt count with exponentially growing delays, give up on
   permanents immediately.  Jitter is drawn from a splitmix64 stream
   seeded by (label, attempt), so two runs back off identically — the
   determinism-under-restart contract extends to the failure paths. *)

type class_ = Transient | Permanent

type config = { max_attempts : int; base_delay_s : float; max_delay_s : float }

(* RESEED_RETRIES = number of retries after the first attempt; the
   default (1) preserves the pool's historical retry-once behaviour.
   Unparsable values fall back, like RESEED_JOBS. *)
let env_retries () =
  match Sys.getenv_opt "RESEED_RETRIES" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 0 -> n
      | _ -> 1)
  | None -> 1

let default_config () =
  { max_attempts = env_retries () + 1; base_delay_s = 0.005; max_delay_s = 0.25 }

(* Default classification: errors a retry can plausibly heal (resource
   blips, interrupted syscalls, injected chaos) are transient; errors
   that will recur (no space, no file, no permission) and structured
   diagnostics are permanent.  [Sys_error] hides its errno, so it gets
   the benefit of the doubt: one duplicate attempt is cheap. *)
let classify = function
  | Unix.Unix_error
      ((Unix.EIO | Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ENFILE
       | Unix.EMFILE | Unix.EBUSY),
        _, _ ) ->
      Transient
  | Unix.Unix_error (_, _, _) -> Permanent
  | Faultpoint.Injected _ -> Transient
  | Sys_error _ -> Transient
  | Error.Reseed_error _ -> Permanent
  | _ -> Permanent

let class_name = function Transient -> "transient" | Permanent -> "permanent"

type failure = { attempts : int; backoff_s : float; exn : exn }

let m_retries =
  Metrics.counter ~help:"transient failures retried with backoff" "retry_attempts"

(* min(base * 2^(attempt-1), max) scaled by a deterministic jitter factor
   in [1, 1.5) — a pure function of (label, attempt). *)
let delay_for cfg ~label ~attempt =
  let d = cfg.base_delay_s *. (2. ** float_of_int (attempt - 1)) in
  let d = Float.min d cfg.max_delay_s in
  let seed =
    Int64.to_int
      (Fingerprint.int (Fingerprint.string (Fingerprint.salted "retry") label) attempt)
    land max_int
  in
  d *. (1. +. (0.5 *. Rng.float (Rng.create seed)))

let run ?config ?(classify = classify) ?(label = "io") f =
  let rec go attempt backoff_s =
    match f ~attempt with
    | v -> Ok v
    | exception e -> (
        (* The config (and so the env) is only consulted on the failure
           path, keeping the success path allocation- and syscall-free. *)
        let cfg = match config with Some c -> c | None -> default_config () in
        match classify e with
        | Permanent -> Error { attempts = attempt; backoff_s; exn = e }
        | Transient when attempt >= cfg.max_attempts ->
            Error { attempts = attempt; backoff_s; exn = e }
        | Transient ->
            let d = delay_for cfg ~label ~attempt in
            Metrics.incr m_retries;
            Trace.instant "retry.backoff"
              ~args:
                [
                  ("label", label);
                  ("attempt", string_of_int attempt);
                  ("delay_s", Printf.sprintf "%.4f" d);
                ];
            if d > 0. then Unix.sleepf d;
            go (attempt + 1) (backoff_s +. d))
  in
  go 1 0.

let with_retries ?config ?classify ?label f =
  match run ?config ?classify ?label f with
  | Ok v -> v
  | Error { exn; _ } -> raise exn

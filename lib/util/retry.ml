(* Bounded retry with exponential backoff and deterministic jitter.

   One policy for every transient-failure site (worker chunks, artifact
   IO): classify the exception, retry transients up to a
   bounded attempt count with exponentially growing delays, give up on
   permanents immediately.  Jitter is drawn from a splitmix64 stream
   seeded by (label, attempt), so two runs back off identically — the
   determinism-under-restart contract extends to the failure paths. *)

type class_ = Transient | Permanent

type config = { max_attempts : int; base_delay_s : float; max_delay_s : float }

(* Two attempts: the pool's historical retry-once behaviour. *)
let default_config = { max_attempts = 2; base_delay_s = 0.005; max_delay_s = 0.25 }

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
        let cfg = Option.value config ~default:default_config in
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

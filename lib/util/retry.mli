(** Bounded retry with exponential backoff and deterministic jitter.

    The one retry policy shared by every transient-failure site: pool
    worker chunks and artifact-store IO.  An
    exception is {e classified} transient or permanent; transients are
    retried up to a bounded attempt count with exponentially growing,
    deterministically jittered delays; permanents (and exhausted
    transients) surface immediately with their attempt count and total
    backoff attached.

    Determinism: the jitter for attempt [k] of a site labelled [l] is a
    pure function of [(l, k)] (a splitmix64 draw from a
    {!Fingerprint}-derived seed), so reruns back off identically —
    failure paths stay as reproducible as the happy path.

    Work accounting: every retry bumps the [retry_attempts] counter and
    records a [retry.backoff] trace instant. *)

type class_ = Transient | Permanent

type config = {
  max_attempts : int;  (** total attempts, including the first ([>= 1]) *)
  base_delay_s : float;  (** delay before the second attempt *)
  max_delay_s : float;  (** cap on the un-jittered delay *)
}

(** [env_retries ()] is the [RESEED_RETRIES] environment variable — the
    number of {e retries} after the first attempt — and [1] when it is
    unset or blank (the historical retry-once policy).  Raises
    {!Error.Reseed_error} [Usage] when it is not a non-negative
    integer. *)
val env_retries : unit -> int

(** [default_config ()] is [{ max_attempts = env_retries () + 1;
    base_delay_s = 0.005; max_delay_s = 0.25 }], re-reading the
    environment on each call. *)
val default_config : unit -> config

(** [classify e] — the default classification: [EIO]/[EINTR]/[EAGAIN]/
    [EWOULDBLOCK]/[ENFILE]/[EMFILE]/[EBUSY], {!Faultpoint.Injected} and
    [Sys_error] are transient; other [Unix_error]s,
    {!Error.Reseed_error} and everything else are permanent. *)
val classify : exn -> class_

val class_name : class_ -> string

(** The context of a gave-up retry loop. *)
type failure = {
  attempts : int;  (** attempts made, including the first *)
  backoff_s : float;  (** total time slept between attempts *)
  exn : exn;  (** the last attempt's exception *)
}

(** [run ?config ?classify ?label f] calls [f ~attempt:1] and retries
    per the policy.  [config] defaults to {!default_config} (consulted
    only on the failure path, so the success path costs nothing);
    [label] names the site in metrics, traces and the jitter seed.
    Returns [Ok v] on success, [Error failure] when the policy gives
    up — the caller decides whether to raise, wrap or degrade. *)
val run :
  ?config:config ->
  ?classify:(exn -> class_) ->
  ?label:string ->
  (attempt:int -> 'a) ->
  ('a, failure) result

(** [with_retries ?config ?classify ?label f] is {!run} that re-raises
    the final exception on failure. *)
val with_retries :
  ?config:config ->
  ?classify:(exn -> class_) ->
  ?label:string ->
  (attempt:int -> 'a) ->
  'a

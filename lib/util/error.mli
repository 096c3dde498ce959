(** Structured, user-facing errors with documented exit codes.

    Replaces the bare [failwith]/[invalid_arg] previously scattered
    through input parsing ({i Bench_io}), the benchmark catalog
    ({i Library.load}) and the CLI front-end.  Every error carries a
    machine-readable class plus optional source coordinates, so the CLI
    can print [file:line:col: message] and exit with a stable code.

    Exit-code table (also in the README):
    {v
    0    success (including deadline-degraded runs: valid partial result)
    2    usage error (bad command line; produced by Cmdliner)
    3    input error (malformed .bench, unknown circuit, unusable store dir)
    4    infeasible instance (no valid cover exists)
    5    worker task failure (a pool task failed again when re-run)
    66   chaos abort (an injected {!Faultpoint} crashpoint; testing only)
    70   internal error (a bug: unexpected exception)
    130  interrupted (SIGINT; finished stages and matrix shards are kept)
    v} *)

type code =
  | Usage
  | Input_error
  | Infeasible
  | Task_failed
  | Interrupted
  | Internal

type t = {
  code : code;
  message : string;
  file : string option;  (** source file the error points into, if any *)
  line : int option;  (** 1-based line within [file] *)
  column : int option;  (** 1-based column within [line] *)
}

exception Reseed_error of t

(** [exit_code c] is the process exit status for class [c] (table above). *)
val exit_code : code -> int

(** [code_name c] is a stable lowercase tag ("usage", "input", …). *)
val code_name : code -> string

(** [fail ?file ?line ?column code fmt …] raises {!Reseed_error}. *)
val fail :
  ?file:string -> ?line:int -> ?column:int -> code -> ('a, unit, string, 'b) format4 -> 'a

(** [to_string e] renders ["file:line:col: message"] (coordinates only
    when present). *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit

(** Plain-text table rendering for experiment reports.

    Regenerated paper tables (Table 1, Table 2) and the Figure 2 series are
    printed through this module so that every bench target reports in a
    single consistent format, with an optional CSV dump for plotting. *)

type align = Left | Right

type t

(** [create ~title headers] starts a table; each header also fixes the
    column's alignment. *)
val create : title:string -> (string * align) list -> t

(** [add_row t cells] appends a row; the number of cells must match the
    number of headers. *)
val add_row : t -> string list -> unit

(** [add_separator t] inserts a horizontal rule between row groups. *)
val add_separator : t -> unit

(** [render t] lays the table out with box-drawing rules. *)
val render : t -> string

(** [print t] renders to stdout. *)
val print : t -> unit

(** Cell formatting helpers. *)

val cell_int : int -> string
val cell_float : ?decimals:int -> float -> string

(** [cell_pct x] renders ["97.31%"]-style percentages. *)
val cell_pct : float -> string

(** [cell_opt f o] renders [o] through [f], or ["-"] for [None] (used for
    the GATSBY columns the paper leaves empty on large circuits). *)
val cell_opt : ('a -> string) -> 'a option -> string

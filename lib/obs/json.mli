(** Minimal JSON values: a printer for the bench suite's report and a
    parser to validate exported Chrome trace_event files and reports,
    without an external dependency. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val escape_into : Buffer.t -> string -> unit
(** Append [s] as the body of a JSON string literal (without the quotes):
    double quote, backslash, newline and tab get their short escapes,
    every other control character a four-digit unicode escape. *)

val to_string : t -> string
(** Print a document. Non-finite numbers print as [null]; integer-valued
    numbers print without a fraction, others with the fewest digits that
    read back as the same float. Containers holding only scalars print on
    one line, the rest one element per line. *)

val parse : string -> (t, string) result
(** Parse a complete JSON document ([Error] carries position info). *)

val int : int -> t
(** [Num] of an int. *)

val opt : ('a -> t) -> 'a option -> t
(** [Null] for [None]. *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] otherwise. *)

val to_num : t -> float option
val to_str : t -> string option
val to_arr : t -> t list option

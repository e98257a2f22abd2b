(** Minimal JSON construction, serialization, and parsing (no
    external deps).

    What the profiling and benchmark reports need — building a value
    and printing it — plus a small parser and accessors for the
    consumers of those files: the benchmark merger
    ({!Pmdp_bench.Runner}) and the execution service's length-prefixed
    wire protocol ([Pmdp_service.Protocol]).  Non-finite floats
    serialize as [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact, single-line. *)

val to_string_pretty : t -> string
(** 2-space indented, trailing newline — for files meant to be read
    and diffed. *)

val to_file : string -> t -> unit
(** Write the pretty form to a file (truncating).  The channel is
    closed on every path.
    @raise Sys_error when the open, a write, or the final flush fails
    (a full disk included). *)

val of_string : string -> (t, string) result
(** Parse one JSON value (standard syntax; [\u] escapes decode to
    UTF-8).  Numbers without a fraction or exponent parse as {!Int}
    (falling back to {!Float} beyond [int] range), everything else as
    {!Float}.  The error is a human-readable ["line L, column C: ..."]
    message. *)

val of_file : string -> (t, string) result
(** {!of_string} over a whole file; I/O errors are returned, not
    raised. *)

val member : string -> t -> t option
(** Field lookup in an {!Obj}; [None] on a missing field or any other
    constructor. *)

val to_int_opt : t -> int option
val to_float_opt : t -> float option
(** [Int]s widen to float. *)

val to_string_opt : t -> string option
val to_bool_opt : t -> bool option
val to_list_opt : t -> t list option

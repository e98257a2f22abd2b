(** Structured diagnostics shared by the static-checker passes.

    Every finding is attributed to a pass, has a stable kebab-case
    [kind] slug that tests and tooling can match on, a severity, and
    optional stage/group/dimension provenance.  The printed form is a
    stable one-line machine-readable format:

    {v <severity> <pass>/<kind> [group=N] [stage=S] [dim=D]: <detail> v} *)

type pass = Legality | Bounds | Race | Lint | Plan
type severity = Error | Warning

type t = {
  pass : pass;
  severity : severity;
  kind : string;  (** stable kebab-case slug, e.g. ["degenerate-overlap"] *)
  group : int option;  (** index into the schedule's group list *)
  stage : string option;
  dim : int option;  (** group dimension, unless [stage] implies own dims *)
  detail : string;  (** human-readable, single line *)
}

val make :
  pass ->
  severity ->
  kind:string ->
  ?group:int ->
  ?stage:string ->
  ?dim:int ->
  string ->
  t

val pass_name : pass -> string
val errors : t list -> t list
val warnings : t list -> t list

val pp : Format.formatter -> t -> unit
(** The stable one-line format above. *)

val to_string : t -> string

val summary : t list -> string
(** ["N error(s), M warning(s)"]. *)

val to_json : t -> Pmdp_report.Json.t
(** Machine-readable rendering for [pmdp check --json]: an object with
    [severity], [pass], [failure_kind] (the stable [kind] slug), the
    optional provenance fields ([null] when absent), and [detail]. *)

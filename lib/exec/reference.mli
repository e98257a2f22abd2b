(** Unfused reference executor — the correctness oracle.

    Every stage is computed over its full domain in topological
    order, each into its own full buffer; all tiled schedules must
    reproduce these results exactly (the tiled executor evaluates the
    same expressions in the same per-point order, so equality is
    bitwise). *)

val check_inputs : Pmdp_dsl.Pipeline.t -> (string * Buffer.t) list -> unit
(** Validate that every pipeline input is present with the right
    shape. @raise Invalid_argument otherwise. *)

val run :
  Pmdp_dsl.Pipeline.t -> inputs:(string * Buffer.t) list -> (string * Buffer.t) list
(** Returns one buffer per stage, keyed by stage name.
    @raise Invalid_argument if an input buffer is missing or has the
    wrong shape. *)

val outputs_only :
  Pmdp_dsl.Pipeline.t -> (string * Buffer.t) list -> (string * Buffer.t) list
(** Restrict a result set to the pipeline's declared outputs. *)

val max_abs_diff :
  reference:(string * Buffer.t) list -> (string * Buffer.t) list -> float
(** The one correctness check: the worst {!Buffer.max_abs_diff} of
    each result buffer against the [reference] buffer of the same name
    (a {!run} on the same inputs); names the reference lacks are
    skipped.  A result is correct only when this is [0.0]: every
    executor, kernel and schedule must match {!run} bitwise. *)

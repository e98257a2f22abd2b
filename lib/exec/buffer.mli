(** Dense row-major float buffers for stage domains and inputs. *)

type t = private {
  name : string;
  dims : Pmdp_dsl.Stage.dim array;
  stride : int array;  (** row-major strides over extents *)
  data : float array;
}
(** Only {!create} and {!with_data} build one, so [data] always holds
    at least the domain's points: the native kernels index it in
    place without a bounds check. *)

val create : string -> Pmdp_dsl.Stage.dim array -> t
(** Zero-initialized buffer covering the given domain. *)

val with_data : string -> Pmdp_dsl.Stage.dim array -> float array -> t
(** Wrap existing storage (for buffer recycling); the array must be at
    least as large as the domain.
    @raise Pmdp_util.Pmdp_error.Error ([Plan_invalid]) if not. *)

val of_stage : Pmdp_dsl.Stage.t -> t
val size : t -> int

val get_clamped : t -> int array -> float
(** Read with per-dimension clamping into the domain (the boundary
    semantics of the executors). *)

val set : t -> int array -> float -> unit
(** @raise Invalid_argument if out of the domain. *)

val fill : t -> (int array -> float) -> unit
(** Fill every point from a function of its coordinates. *)

val max_abs_diff : t -> t -> float
(** Largest absolute element difference: [nan] when one buffer holds
    a NaN where the other does not (NaN against NaN counts as equal).
    @raise Invalid_argument on shape mismatch. *)

val checksum : t -> float
(** Order-independent sum of elements (for quick regression checks). *)

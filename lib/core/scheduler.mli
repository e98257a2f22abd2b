(** First-class schedulers: the variant every driver — CLI,
    benchmark harness, and tests — names a scheduler by.

    The paper's own schedulers ([Dp], [Dp_inc]) are implemented here
    in [Pmdp_core]; the baselines ([Greedy], [Autotune], [Halide],
    [Manual]) live in [Pmdp_baselines], which depends on this
    library.  [Pmdp_baselines.Schedulers.schedule] is the one dispatch
    over all six variants; {!schedule} here covers only the two DP
    variants. *)

type t =
  | Dp  (** the paper's DP fusion + tile-size model (Alg. 1/2) *)
  | Dp_inc  (** bounded incremental DP (Alg. 3), for large graphs *)
  | Greedy  (** PolyMage's greedy heuristic with fixed parameters *)
  | Autotune  (** PolyMage-A: greedy swept by real execution time *)
  | Halide  (** the Halide auto-scheduler reimplementation *)
  | Manual  (** the expert Halide schedules of the paper's §6.1 *)

val all : t list
(** In the order above. *)

val to_string : t -> string
(** Canonical CLI name: "dp", "dp-inc", "greedy", "autotune",
    "halide", "manual". *)

val of_string : string -> t option
(** Case-insensitive inverse of {!to_string}. *)

val names : unit -> string
(** Comma-separated {!to_string} of {!all}, for usage messages. *)

val for_pipeline : t -> Pmdp_dsl.Pipeline.t -> t
(** [Dp] on pipelines of >= 30 stages becomes [Dp_inc] (the full DP's
    state space is intractable there — paper §5, Table 2); everything
    else is unchanged.  {!schedule} applies it itself; callers use it
    to name the scheduler that actually ran. *)

val schedule : t -> Cost_model.config -> Pmdp_dsl.Pipeline.t -> Schedule_spec.t
(** Run [Dp] or [Dp_inc], after {!for_pipeline}: [Dp] on a large
    pipeline runs [Dp_inc].
    @raise Invalid_argument for a baseline, naming the dispatch that
    runs it ([Pmdp_baselines.Schedulers.schedule]). *)

(** Top-level entry points of the static checker.

    [check_schedule] runs all four passes — {!Legality}, {!Bounds},
    {!Race}, and {!Lint} — over a schedule produced by any scheduler,
    without executing it.  [check_pipeline] runs only the
    schedule-independent lint.  A schedule is considered acceptable
    when it has no [Error]-severity diagnostics ({!is_clean});
    warnings are advisory (performance pathologies and dead code).

    [check_legality] is the legality + race gate that every
    schedule passes before anything lowers or runs it: on each result
    of [Pmdp_baselines.Schedulers.schedule] and on each
    [Pmdp_tune.Search.tune_spec] candidate. *)

val check_pipeline : Pmdp_dsl.Pipeline.t -> Diagnostic.t list
val check_schedule : Pmdp_core.Schedule_spec.t -> Diagnostic.t list

val errors : Diagnostic.t list -> Diagnostic.t list
val is_clean : Diagnostic.t list -> bool

val check_legality : Pmdp_core.Schedule_spec.t -> (unit, Diagnostic.t) result
(** [Error d] with the first error-severity diagnostic of the
    {!Legality} and {!Race} passes: a grouping or tile size the
    overlapped-tiling analysis disagrees with, a tile past its scaled
    extent, or live-out writes that overlap, miss points, or come from
    two groups.  {!Bounds} and {!Lint} are not run. *)

val check_plan :
  ?budget:int -> ?workers:int -> Pmdp_dsl.Pipeline.t -> Pmdp_plan.t -> Diagnostic.t list
(** The whole-plan static analyzer ({!Plan_check.check}) over the
    serializable plan IR: structure/partition fit, tile-coverage and
    bounds soundness, scratch-extent cross-checks against the
    interpreter and the C backend, lowered-level dependence audit, and
    the static memory-budget audit (with [budget], mirroring the
    service's admission formula for [workers] workers). *)

val check_plan_result :
  ?budget:int ->
  ?workers:int ->
  Pmdp_dsl.Pipeline.t ->
  Pmdp_plan.t ->
  (unit, Pmdp_util.Pmdp_error.t) result
(** [check_plan] folded into the execution stack's typed error
    taxonomy: [Ok ()] when no error-severity diagnostics, otherwise a
    [Plan_invalid] carrying the first diagnostic and the error count —
    the same shape {!Pmdp_exec.Resilient} records, so static rejection
    and runtime rejection render identically in reports. *)

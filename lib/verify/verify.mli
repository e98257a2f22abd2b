(** Top-level entry points of the static checker.

    [check_schedule] runs all four passes — {!Legality}, {!Bounds},
    {!Race}, and {!Lint} — over a schedule produced by any scheduler,
    without executing it.  [check_pipeline] runs only the
    schedule-independent lint.  A schedule is considered acceptable
    when it has no [Error]-severity diagnostics ({!is_clean});
    warnings are advisory (performance pathologies and dead code).

    [install] registers the legality + race passes as
    {!Pmdp_core.Schedule_spec}'s legality oracle, after which
    [Schedule_spec.validate] — and therefore
    {!Pmdp_exec.Tiled_exec.plan} and {!Pmdp_plan.of_spec} (the input
    of {!Pmdp_codegen.C_emit.emit_kernels}), which validate on entry —
    refuses illegal or racy schedules. *)

val check_pipeline : Pmdp_dsl.Pipeline.t -> Diagnostic.t list
val check_schedule : Pmdp_core.Schedule_spec.t -> Diagnostic.t list

val errors : Diagnostic.t list -> Diagnostic.t list
val is_clean : Diagnostic.t list -> bool

val check_schedule_result : Pmdp_core.Schedule_spec.t -> (unit, Pmdp_util.Pmdp_error.t) result
(** [check_schedule] folded into the execution stack's typed error
    taxonomy: [Ok ()] when no error-severity diagnostics, otherwise a
    [Plan_invalid] carrying the first diagnostic and the error count —
    the same shape {!Pmdp_exec.Resilient} records, so static rejection
    and runtime rejection render identically in reports. *)

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
(** [check_plan] folded into the typed error taxonomy, like
    {!check_schedule_result}. *)

val install : unit -> unit
(** Register the legality + race error oracle with
    [Schedule_spec.set_legality_oracle]. *)

val uninstall : unit -> unit

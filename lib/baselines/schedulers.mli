(** The one scheduler dispatch: every {!Pmdp_core.Scheduler.t}
    variant to its implementation.  [Dp] and [Dp_inc] run
    {!Pmdp_core.Scheduler.schedule}, which sends [Dp] on a large
    pipeline to [Dp_inc]; the baselines run this library's
    {!Polymage_greedy}, {!Autotune}, {!Halide_auto} and {!Manual}. *)

val schedule :
  Pmdp_core.Scheduler.t ->
  Pmdp_core.Cost_model.config ->
  Pmdp_dsl.Pipeline.t ->
  Pmdp_core.Schedule_spec.t
(** Run the scheduler, then {!Pmdp_verify.Verify.check_legality} on
    what it returns.  [Autotune] executes candidate schedules to time
    them, so it is orders of magnitude slower than the rest.
    @raise Invalid_argument naming the scheduler and the first
    diagnostic when the schedule fails the legality check. *)

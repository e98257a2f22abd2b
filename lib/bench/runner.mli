(** Real-pool benchmark runner behind both `pmdp bench` and the
    `bench/` harness: app x scheduler x worker-count cases, every
    repetition checked bitwise against {!Pmdp_exec.Reference.run}
    ({!Pmdp_exec.Reference.max_abs_diff}), with the last repetition's
    per-group {!Pmdp_exec.Tiled_exec.group_stats} attached, serialized
    to the repository's [BENCH_<machine>.json] trajectory files. *)

type group_cost = {
  gc_group : int;  (** group position in the schedule *)
  gc_features : Pmdp_core.Cost_model.features;  (** regressors of the chosen tile *)
  gc_predicted : float;  (** model cost (calibrated configs predict seconds) *)
  gc_wall : float;
      (** median across reps of the group's summed sequential tile
          durations, seconds *)
}
(** One row of the calibration corpus ({!Pmdp_tune.Calibration}):
    predicted vs measured for one schedule group.  Computed once per
    schedule and attached to every worker case of that schedule. *)

type outcome = {
  app_name : string;
  scheduler : Pmdp_core.Scheduler.t;  (** as requested *)
  resolved : Pmdp_core.Scheduler.t;  (** after {!Pmdp_core.Scheduler.for_pipeline} *)
  workers : int;
  wall_seconds : float list;  (** effective, one per rep, in run order *)
  host_wall_seconds : float list;  (** what the host actually took *)
  simulated : bool;
      (** true when the host has fewer cores than [workers]: the
          effective times are then makespan reconstructions from
          sequentially measured per-tile durations (the DESIGN.md
          multicore substitution), while the real pooled runs still
          execute for validation and profiling; never set for
          native-backed reps, whose in-kernel threads are real *)
  backend : string;
      (** the {!Pmdp_exec.Resilient} step that answered the last
          repetition — ["native"] when a compiled kernel ran,
          ["tiled-parallel"]/["tiled-serial"] for the interpreter,
          ["none"] when every rep failed *)
  median_s : float;  (** median of [wall_seconds] (upper for even reps) *)
  min_s : float;
  max_abs_diff : float;
      (** worst over every rep, the sequential timed ones included,
          vs the reference executor; 0.0 = bitwise valid *)
  n_groups : int;
  n_tiles : int;
  groups : Pmdp_exec.Tiled_exec.group_stats list;
      (** the last rep's {!Pmdp_exec.Resilient.outcome} [groups]; [[]]
          when that rep answered natively or from the reference, or
          died *)
  attempts : (Pmdp_exec.Resilient.step * Pmdp_util.Pmdp_error.t option) list;
      (** the last rep's fallback chain; [[]] when it died *)
  counters : (string * int) list;
      (** the case's delta of {!Pmdp_trace.Trace.counter_totals} when
          tracing, else [[]] *)
  failure : string option;
      (** [Some e] when a repetition returned a typed error (every
          fallback step died, or the working set exceeds the budget):
          the case is recorded as invalid instead of taking the whole
          benchmark sweep down *)
  degraded : bool;
      (** some repetition completed only via a
          {!Pmdp_exec.Resilient} fallback step *)
  group_costs : group_cost list;
      (** predicted-vs-measured per group (empty when the timed run
          died or no group analyzed) *)
}

val group_predictions :
  Pmdp_core.Cost_model.config ->
  Pmdp_core.Schedule_spec.t ->
  (int * Pmdp_core.Cost_model.features * float) list
(** Group index, model features and predicted cost of each group's
    chosen tile, in group order; groups the model cannot analyze are
    left out.  The predictions [pmdp run --profile] and the bench
    JSON print beside each group's measured wall. *)

val valid : outcome -> bool
(** Bitwise equality with the reference executor and no typed
    execution failure. *)

val run_spec :
  ?pool_sched:Pmdp_runtime.Pool.sched ->
  ?log:(string -> unit) ->
  reps:int ->
  machine:Pmdp_machine.Machine.t ->
  workers:int list ->
  scheduler:Pmdp_core.Scheduler.t ->
  inputs:(string * Pmdp_exec.Buffer.t) list ->
  reference:(string * Pmdp_exec.Buffer.t) list ->
  Pmdp_core.Schedule_spec.t ->
  outcome list
(** Benchmark one schedule, however it was built: the plan is lowered
    once, then each worker count runs [reps] repetitions on [inputs]
    on its own persistent pool, each checked against [reference] (a
    {!Pmdp_exec.Reference.run} on [inputs]).  [scheduler] is recorded
    in the outcomes; a hand-built schedule names the one it stands in
    for.  [log] receives one line per finished case.
    @raise Invalid_argument if [reps < 1]. *)

val run_app :
  ?pool_sched:Pmdp_runtime.Pool.sched ->
  ?log:(string -> unit) ->
  reps:int ->
  scale:int ->
  machine:Pmdp_machine.Machine.t ->
  workers:int list ->
  schedulers:Pmdp_core.Scheduler.t list ->
  Pmdp_apps.Registry.app ->
  outcome list
(** Benchmark one app: its seed-1 inputs and their reference are
    built once, then each scheduler's schedule
    ({!Pmdp_baselines.Schedulers.schedule}) goes through {!run_spec}.
    @raise Invalid_argument if [reps < 1]. *)

val run_all :
  ?pool_sched:Pmdp_runtime.Pool.sched ->
  ?log:(string -> unit) ->
  reps:int ->
  scale:int ->
  machine:Pmdp_machine.Machine.t ->
  workers:int list ->
  schedulers:Pmdp_core.Scheduler.t list ->
  Pmdp_apps.Registry.app list ->
  outcome list

val schema_version : int
(** The bench JSON schema this runner writes — and the only one
    {!write_json} will merge into. *)

val to_json :
  machine:Pmdp_machine.Machine.t -> scale:int -> reps:int -> outcome list -> Pmdp_report.Json.t

val write_json :
  path:string ->
  machine:Pmdp_machine.Machine.t ->
  scale:int ->
  reps:int ->
  outcome list ->
  (unit, Pmdp_util.Pmdp_error.t) result
(** Serialize the outcomes to [path].  When the file already exists it
    is merged into: its cases survive except where this run
    re-measured the same (app, scheduler, workers) cell; run metadata
    (machine, scale, reps, host_cores) comes from the new run.  A
    pre-existing file that is not parseable JSON, lacks a
    [schema_version], or carries one other than {!schema_version} is
    refused with a typed [Plan_invalid] naming the path and the
    version found — never an exception. *)

val default_path : Pmdp_machine.Machine.t -> string
(** ["BENCH_<machine>.json"]. *)

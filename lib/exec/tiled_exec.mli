(** Overlapped-tiling executor.

    Executes a {!Pmdp_core.Schedule_spec.t}: groups run in order;
    within a group, the fused tile-space loop runs every member stage
    over its overlap-expanded region (paper Fig. 2/3).  Non-live-out
    members compute into per-tile scratch buffers (the producer-
    consumer locality the fusion model optimizes for); live-outs
    write to full buffers, whose slots {!Storage.slots} assigns.
    Tiles of a group are independent — the overlap recomputation
    breaks inter-tile dependences — so they can run in parallel.
    Every run times each group and each of its tiles.

    Results are bitwise-equal to {!Reference.run} for the live-out
    stages. *)

type plan

val member_scratch_extents :
  Pmdp_analysis.Group_analysis.t -> member:int -> tile:int array -> int array
(** Per own-dimension extents of the reusable arena slot allocated for
    a member's per-tile region (the executor sizes its scratch arena
    by their product).  Delegates to
    {!Pmdp_plan.member_scratch_extents} — the one sizing formula the
    executor, the IR, and the static bounds checker
    ({!Pmdp_verify}) share. *)

val instantiate : Pmdp_dsl.Pipeline.t -> Pmdp_plan.t -> plan
(** The cheap half of lowering: turn a serializable plan IR into an
    executable plan by compiling member bodies and resolving load
    slots.  Executor-safety quantities (tile counts, scratch sizes,
    direct flags) are re-derived from the reconstructed analysis, not
    trusted from the IR.
    @raise Pmdp_util.Pmdp_error.Error ([Plan_invalid]) when the IR does
    not fit the pipeline (wrong pipeline name or stage count, stale
    stage names or extents, inconsistent tables). *)

val instantiate_result :
  Pmdp_dsl.Pipeline.t -> Pmdp_plan.t -> (plan, Pmdp_util.Pmdp_error.t) result

val plan : Pmdp_core.Schedule_spec.t -> plan
(** Lower a schedule end to end: {!Pmdp_plan.of_spec} (analyze each
    group, fit tile sizes) followed by {!instantiate} (compile member
    bodies, resolve load slots).
    @raise Pmdp_util.Pmdp_error.Error ([Plan_invalid] for failed
    validation or group analysis, [Arity_mismatch] for a wrong-length
    tile-size vector).  Schedules from the in-tree schedulers never
    fail. *)

val plan_result : Pmdp_core.Schedule_spec.t -> (plan, Pmdp_util.Pmdp_error.t) result
(** {!plan} as a [result]: every raising boundary — including
    [Schedule_spec.validate]'s [Invalid_argument] — is converted to a
    typed {!Pmdp_util.Pmdp_error.t}. *)

val ir : plan -> Pmdp_plan.t
(** The serializable IR this plan was instantiated from. *)

val scratch_bytes_per_worker : plan -> int
(** Bytes of per-worker scratch arena in the plan's most
    scratch-hungry group (each pool worker allocates this much at
    most, one group at a time). *)

val working_set_bytes : plan -> int
(** Bytes of full (live-out) buffers the plan allocates over a run,
    ignoring recycling — the resident-set input to the pre-flight
    resource guard of {!Resilient}. *)

val pipeline : plan -> Pmdp_dsl.Pipeline.t
(** The pipeline the plan lowers — what the reference fallback of
    {!Resilient.run_plan} executes when the plan itself cannot. *)

type group_stats = {
  index : int;  (** group position in the schedule *)
  stages : string list;  (** member stage names *)
  tiles : int;  (** tiles executed *)
  occupancy : int;  (** workers that executed >= 1 tile (1 when sequential) *)
  scratch_bytes : int;  (** arena bytes allocated, summed over workers *)
  copy_out_bytes : int;
      (** bytes the live-outs computed in scratch copy to their full
          buffers: each such buffer once, since the tiles' copy-out
          boxes partition it (checked by the race pass of
          [Pmdp_verify.Verify.check_legality]) *)
  wall_seconds : float;  (** wall-clock of the group's tile loop *)
  tile_seconds : float array;
      (** wall-clock of each tile, by tile index, on whichever worker
          ran it: run serially, the sequential per-tile durations
          {!Pmdp_runtime.Pool.simulate_makespan} replays *)
}
(** What one run of one group measured: the per-group execution
    profile [pmdp run --profile] prints and the bench JSON carries. *)

val run :
  ?pool:Pmdp_runtime.Pool.t ->
  ?sched:Pmdp_runtime.Pool.sched ->
  ?fault:Pmdp_runtime.Fault.t ->
  ?cancel:Pmdp_runtime.Fault.token ->
  ?reuse_buffers:bool ->
  plan ->
  inputs:(string * Buffer.t) list ->
  (string * Buffer.t) list * group_stats list
(** Execute; returns the live-out buffers by stage name and one
    {!group_stats} per group, in group order.  With [pool], each
    group's tiles are distributed over the pool's persistent workers,
    claimed under [sched] (default chunked dynamic, see
    {!Pmdp_runtime.Pool.parallel_for}).  With tracing on, each group
    records a [group] span whose arguments are its {!group_stats}
    fields but the timings, and adds them to the [tiles],
    [scratch_bytes] and [copy_out_bytes] counters.  With [fault], the
    injection points fire: {!Pmdp_runtime.Fault.tile_tick} at each tile,
    {!Pmdp_runtime.Fault.alloc_tick} at each arena allocation.  With
    [cancel], every tile first checks the token and raises a typed
    [Cancelled] error once it is set (the cooperative-cancellation
    path a watchdog uses).  Each group's live-outs are allocated
    from {!Storage.slots} before it runs; with [reuse_buffers]
    (default false) those slots recycle dead buffers — the paper's
    §6.2 "storage optimizations", whose bytes {!Storage.report}
    sums — and only the pipeline's declared outputs are returned. *)

val total_tiles : plan -> int
val pp : Format.formatter -> plan -> unit

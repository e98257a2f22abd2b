(** Online re-optimization of served plans.

    Shard dispatchers feed per-fingerprint execution wall times into
    {!observe}, which keeps a latency EWMA per fingerprint.  Once a
    fingerprint has been executed [hot_threshold] times it is declared
    {e hot} and queued (at most once per process) for the background
    tuner thread, which:

    + proposes candidate tile sizes for the cached plan's IR — a
      seeded, budgeted {!Pmdp_tune.Search.tune_ir} hill-climb under
      the service's (calibrated) cost model, or the [propose] test
      hook;
    + {!Pmdp_plan.retile}s the IR and passes the result through the
      {b full admission gate} ({!Plan_cache.load}: digest +
      whole-plan analyzer + instantiation) — nothing unverified is
      ever measured, let alone served;
    + runs a guarded A/B: both the incumbent and the candidate plan
      execute [ab_reps] times on the request's own inputs, and the
      candidate wins only when its median wall beats the incumbent's
      by at least [margin];
    + on a win, commits the new entry with {!Plan_cache.swap} on the
      owning shard's cache, which persists it to the disk cache (if
      any).  The swap is atomic and only replaces a Ready slot.

    Lifecycle counters ([service.retune.start] / [.win] / [.lose] /
    [.swap] trace counters, mirrored in {!counters}) make the
    whole loop observable. *)

type config = {
  hot_threshold : int;  (** executions before a fingerprint is hot (>= 1) *)
  margin : float;
      (** fraction of the incumbent's median the candidate must beat
          ([0.05] = at least 5% faster); in [\[0, 1)] *)
  ab_reps : int;  (** A/B executions per side (>= 1) *)
  budget : int;  (** model-search evaluations per attempt (>= 1) *)
  seed : int;  (** search seed — retuning is deterministic per process *)
  propose : (Pmdp_plan.t -> int array array option) option;
      (** test hook: supply candidate tiles directly instead of
          searching; [None] from the hook means "no proposal" (counted
          as a loss) *)
}

val default_config : config
(** [hot_threshold = 8], [margin = 0.05], [ab_reps = 3],
    [budget = 48], fixed seed, no propose hook. *)

type job = {
  fingerprint : string;
  app : Pmdp_apps.Registry.app;
  input_seed : int;  (** the hot request's input seed — A/B runs reuse it *)
  cache : Plan_cache.t;  (** the owning shard's cache (the swap target) *)
  entry : Plan_cache.entry;  (** the incumbent at the moment it went hot *)
}
(** Everything the tuner needs to re-optimize one fingerprint,
    captured by the shard at observe time. *)

type counters = {
  observed : int;  (** successful executions reported by the shards *)
  hot : int;  (** fingerprints that crossed the threshold *)
  started : int;  (** retune attempts the tuner thread began *)
  wins : int;  (** candidates that beat the incumbent by the margin *)
  losses : int;  (** attempts that kept the incumbent *)
  swaps : int;  (** wins {!Plan_cache.swap} actually installed *)
}

type t

val create :
  ?calib:Pmdp_core.Cost_model.calibration ->
  config:config ->
  machine:Pmdp_machine.Machine.t ->
  unit ->
  t
(** Start the background tuner thread.  [calib] selects the calibrated
    cost model for the tile search ({!Pmdp_core.Cost_model.config_of_machine}).
    @raise Invalid_argument on out-of-range config fields. *)

val observe : t -> fingerprint:string -> wall:float -> job:(unit -> job) -> unit
(** Report one successful execution ([wall] seconds).  Cheap unless
    this observation crosses the hot threshold, in which case [job] is
    forced and queued.  Thread-safe; never blocks on tuning work. *)

val counters : t -> counters

val median_wall :
  Pmdp_exec.Tiled_exec.plan ->
  machine:Pmdp_machine.Machine.t ->
  inputs:(string * Pmdp_exec.Buffer.t) list ->
  reps:int ->
  float
(** The tuning timer: median wall seconds of [reps] (>= 1)
    {!Pmdp_exec.Resilient.run_plan} executions, a failed run counting
    as [infinity].  The A/B gate here and [pmdp tune]'s measured
    search both score candidates with it. *)

val shutdown : t -> unit
(** Stop the tuner thread (queued jobs are dropped; an attempt already
    running finishes first) and join it.  Idempotent. *)

(** The pipeline-execution service: a long-running layer over the
    whole existing stack — a fleet of dispatcher shards, each with its
    own {!Plan_cache} in front of the
    DSL→analysis→grouping→compile path, admission control and
    graduated backpressure in front of the memory budget and the
    bounded per-shard queues, same-pipeline request batching in front
    of {!Pmdp_exec.Resilient.run_plan} on each shard's persistent
    {!Pmdp_runtime.Pool}, and optionally a persistent {!Disk_cache} so
    compiled plans survive restarts.

    This is the in-process API; [pmdp serve] exposes it over a
    Unix-domain or TCP socket ({!Server}, {!Transport}, {!Protocol})
    and [pmdp load] drives either form ({!Load}).

    All shards share one mutex, which guards every queue and every
    shard's ledger (its {!counters}); each shard has its own condition
    variable, so waking one dispatcher does not stampede the fleet.
    The circuit breaker's and the retuner's locks are leaves, taken
    before the service lock and never while holding it.

    {2 Lifecycle of a request}

    + {b Routing}: the request's plan fingerprint is hashed onto the
      consistent ring ({!Ring}); everything after admission
      happens on that one shard.  Routing is deterministic across
      processes, so same-plan requests always share a shard — and
      therefore still coalesce into one execution — however many
      shards the service runs.
    + {b Admission} ({!submit_async}, on the caller's thread): the app
      name is resolved against {!Pmdp_apps.Registry}; the plan comes
      from the shard's {!Plan_cache} (compiled at most once per
      fingerprint, or admitted from the disk cache without
      compiling); the plan's memory demand — working set plus
      per-worker scratch — is charged against the service-wide
      budget.  Over-budget requests are rejected with the typed
      [Scratch_over_budget], too many in flight with [Cancelled]; a
      full shard queue refuses with [Overloaded] unless the incoming
      request outranks a queued one, in which case the {e victim} is
      shed with [Overloaded] instead.  All rejections count the
      [service.admission.reject] trace counter; sheds count
      [service.shed].
    + {b Batching} (shard dispatcher thread): queued requests that
      share a batch key (plan fingerprint + input seed) execute as one
      {!Pmdp_exec.Resilient.run_plan} over the shard's pool.
      Requests whose [deadline] passed while queued are dropped with
      [Deadline_exceeded] instead of executed.
    + {b Completion}: every batched request receives the same
      {!response} (shared, read-only result buffers) with its own id
      and queue time; {!await} collects it.

    {b Supervision}: each dispatcher thread runs under a supervisor.
    When it dies (injected [Shard_kill], escaped execution exception),
    the supervisor settles the batch it owned with a typed retryable
    [Worker_crash], backs off with seeded jitter (25 ms doubling to
    1 s), and respawns it; the queue survives across the respawn.

    Threads: callers may submit from any thread or domain.  All
    execution happens on the owning shard's dispatcher thread;
    parallelism comes from each shard's worker domains. *)

module Ring : sig
  (** Consistent-hash ring over shard indices.  Deterministic — every
      hash input is a pure function of the shard/vnode index or the
      routed fingerprint — so the same fingerprint lands on the same
      shard in every process, every run.  That is what keeps
      same-plan requests coalescing into one batch even behind a
      fleet, and what lets a warm disk cache be preloaded into the
      shard that will serve it. *)

  type t

  val create : shards:int -> t
  (** [shards] ≥ 1; each shard contributes 64 virtual nodes. *)

  val route : t -> string -> int
  (** Shard index in [\[0, shards)] for a plan fingerprint. *)
end

type request = {
  app : string;  (** registry name or short code, e.g. "unsharp"/"UM" *)
  scale : int;  (** divides the paper's image extents *)
  scheduler : Pmdp_core.Scheduler.t;
  seed : int;  (** input-synthesis seed ({!Pmdp_apps.Registry.app}) *)
  priority : int;  (** higher outranks lower under backpressure *)
  deadline : float option;  (** drop rather than execute after this many seconds queued *)
}

val request :
  ?scale:int ->
  ?scheduler:Pmdp_core.Scheduler.t ->
  ?seed:int ->
  ?priority:int ->
  ?deadline:float ->
  string ->
  request
(** Request for an app by name; [scale] defaults to 32, [scheduler]
    to [Dp], [seed] to 1, [priority] to 0, [deadline] to none. *)

type response = {
  id : int;
  fingerprint : string;  (** plan-cache key the request hashed to *)
  cache_hit : bool;  (** plan served without compiling (memory or disk) *)
  batch_size : int;  (** requests sharing this execution (>= 1) *)
  degraded : bool;  (** the resilient chain needed a fallback step *)
  wall_seconds : float;  (** execution wall-clock of the shared run *)
  queue_seconds : float;
      (** this request's submit → execution-start wait; includes
          synthesizing the batch's inputs, which happens just before
          execution starts *)
  checksum : float;  (** sum of {!Pmdp_exec.Buffer.checksum} over live-outs *)
  results : (string * Pmdp_exec.Buffer.t) list;
      (** live-out buffers, shared verbatim across the batch — treat
          as read-only *)
  max_abs_diff : float option;
      (** vs {!Pmdp_exec.Reference.run}, when the service was created
          with [~validate:true]; [0.0] = bitwise-equal *)
}

type status = Queued | Running | Done | Failed of Pmdp_util.Pmdp_error.t
(** Admission rejections never get an id — the typed error goes
    straight back to the submitter — so there is no rejected phase. *)

type counters = {
  submitted : int;  (** requests admitted (to this shard) *)
  completed : int;
  failed : int;  (** admitted but every fallback step died *)
  rejected : int;  (** refused at admission *)
  shed : int;  (** evicted from the queue by a higher-priority request *)
  expired : int;  (** dropped: deadline passed while queued *)
  batches : int;  (** executions that served more than one request *)
  batched_requests : int;  (** requests served by those executions *)
  executions : int;  (** Resilient.run_plan calls issued *)
  restarts : int;  (** dispatcher respawns by this shard's supervisor *)
  queue_depth : int;  (** currently queued (not yet executing) *)
  inflight_bytes : int;  (** admission-charged bytes currently in flight *)
  cache : Plan_cache.stats;
}
(** One shard's ledger; also the shape of the cross-shard rollup. *)

type stats = {
  shards : counters array;  (** indexed by shard *)
  total : counters;
      (** field-wise sum over [shards], plus rejections that happened
          before a shard was chosen (unknown app) *)
  disk : Disk_cache.stats option;  (** when created with [?cache_dir] *)
  breaker : Breaker.counters;  (** fleet-wide circuit-breaker ledger *)
  retune : Retune.counters option;  (** when created with [?retune] *)
}

(** One shard's liveness row for the [health] op. *)
type shard_health = {
  shard : int;
  alive : bool;  (** dispatcher thread up (false during a respawn backoff) *)
  queue_depth : int;
  running : int;  (** requests in the batch being executed right now *)
  restarts : int;
}

type health = {
  draining : bool;  (** a graceful drain is in progress (or done) *)
  shards : shard_health array;  (** per-shard liveness/queue/restarts *)
  breaker : Breaker.counters;
  circuits : Breaker.snapshot list;  (** only open/half-open circuits *)
}

type t

val create :
  ?workers:int ->
  ?mem_budget:int ->
  ?max_inflight:int ->
  ?batch_window:float ->
  ?validate:bool ->
  ?shards:int ->
  ?queue_limit:int ->
  ?cache_dir:string ->
  ?fault:Pmdp_runtime.Fault.t ->
  ?breaker_threshold:int ->
  ?breaker_cooldown:float ->
  ?native:bool ->
  ?kernel_cache_dir:string ->
  ?calib:Pmdp_core.Cost_model.calibration ->
  ?retune:Retune.config ->
  machine:Pmdp_machine.Machine.t ->
  unit ->
  t
(** Start a service of [shards] (default 1) dispatcher shards, each
    with its own plan cache, bounded queue, and persistent pool of
    [workers] (default 4) domains.  [mem_budget] (default
    {!Pmdp_machine.Machine.default_mem_budget}) bounds admission
    across the whole fleet and the resilient driver's pre-flight
    guard.  [max_inflight] (default 64) bounds
    admitted-but-unfinished requests fleet-wide; [queue_limit]
    (default 128) bounds each shard's queue — beyond it, graduated
    backpressure sheds by priority.  [batch_window] (default 0,
    seconds) is how long a dispatcher lingers after picking a request
    to let same-key requests join its batch; 0 still batches whatever
    already queued up behind a running execution.  [validate]
    (default false) checks every batch's results against the
    reference executor (memoized per batch key) and fills
    [max_abs_diff].  [cache_dir] enables the persistent disk cache:
    plans already there are warm-loaded (through the admission gate)
    at startup, and every fresh compile is written back; envelopes the
    gate rejects are quarantined to [<fingerprint>.plan.bad].  It may
    name the same directory as [kernel_cache_dir].  [fault]
    threads chaos injection through the whole stack: [Shard_kill]
    fires at dispatcher batch starts, [Torn_write]/[Corrupt_write] at
    disk-cache stores, and the same fault reaches
    [Resilient.run_plan] so worker kills and tile crashes hit service
    executions.  [breaker_threshold] (default 3) consecutive
    compile/execution failures of one fingerprint trip its circuit
    open; [breaker_cooldown] (default 5s) later a half-open probe is
    admitted.  [native] (default false) — or naming a
    [kernel_cache_dir] — creates a {!Pmdp_kernel.Native_exec} backend
    and installs it as the resilient chain's first step, so shard
    executions run the compiled-C kernels when one is admitted for
    the plan and degrade to the interpreter when not; executions then
    count the [service.kernel.native] / [service.kernel.fallback]
    trace counters.  [kernel_cache_dir] persists compiled kernels so
    a restarted service answers its first request without invoking
    the C compiler.  [calib] threads fitted cost-model weights
    ({!Pmdp_tune.Calibration}) into every plan compile and into the
    retuner's tile search; it does not change plan fingerprints.
    [retune] starts the online re-optimizer ({!Retune}): hot
    fingerprints are re-tiled under the (calibrated) model and the
    cached plan is swapped only after the candidate wins a guarded
    A/B — watch it via [stats.retune] and the [service.retune.*]
    trace counters. *)

val mem_budget : t -> int
val shard_count : t -> int

val shard_of_fingerprint : t -> string -> int
(** The shard index a plan fingerprint routes to — deterministic and
    stable across restarts (see {!Ring}). *)

val submit_async : t -> request -> (int, Pmdp_util.Pmdp_error.t) result
(** Admit, route, and enqueue; returns the request id to {!await} on.
    Rejections are immediate and typed: unknown app
    ([Unresolved_external]), open circuit ([Circuit_open]), plan
    compile failure (the cached typed error, which also feeds the
    breaker), over budget ([Scratch_over_budget]), too many in flight
    ([Cancelled]), draining ([Overloaded]), full shard queue
    ([Overloaded]), service shut down ([Pool_shutdown]). *)

val await : t -> int -> (response, Pmdp_util.Pmdp_error.t) result
(** Block until the request finishes; collects its outcome (the id is
    forgotten afterwards — a second await on it returns
    [Plan_invalid]).  A shed or expired request's awaiter gets the
    typed [Overloaded] / [Deadline_exceeded]. *)

val submit : t -> request -> (response, Pmdp_util.Pmdp_error.t) result
(** [submit_async] + [await]. *)

val status : t -> int -> status option
(** Phase of a live (submitted, not yet awaited) request; [None] for
    ids never issued or already collected. *)

val stats : t -> stats

val kernel_stats : t -> Pmdp_kernel.Native_exec.stats option
(** Native-backend ledger (compiles, validations, disk hits, runs);
    [None] unless the service was created with [~native:true] or a
    [~kernel_cache_dir]. *)

val health : t -> health
(** Liveness snapshot: per-shard dispatcher state, queue depths,
    supervisor restarts, and the circuit-breaker ledger. *)

val shutdown : t -> unit
(** Stop every shard dispatcher (requests still queued fail with the
    typed [Cancelled]), join them, and shut the pools down.
    Idempotent. *)

val drain : ?timeout:float -> t -> unit
(** Graceful shutdown: stop admitting (new submits are refused with a
    retryable [Overloaded]), wait up to [timeout] (default 5s) for
    in-flight requests to settle, then {!shutdown}.  Requests still
    queued at the deadline settle as retryable [Overloaded] instead of
    [Cancelled], so retrying clients resubmit cleanly.  Idempotent
    with {!shutdown}. *)

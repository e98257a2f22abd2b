(** One dispatcher shard of the sharded execution service: a bounded
    request queue, a private {!Plan_cache}, a private worker pool, and
    a dispatcher thread that coalesces same-(fingerprint, seed)
    requests into one {!Pmdp_exec.Resilient.run_plan}.

    {!Service} owns a ring of these.  All shards of one service share
    a single mutex and the cross-shard admission ledger (the {!shared}
    record); each shard has its own condition variable, so waking one
    dispatcher does not stampede the fleet.

    Graduated backpressure: the queue is bounded ([queue_limit]).
    When it is full, {!try_enqueue} sheds the lowest-priority queued
    request if the incoming one outranks it — the victim fails with a
    typed [Overloaded] — and otherwise refuses the incoming request.
    The dispatcher drops requests whose deadline passed while queued
    ([Deadline_exceeded]).  Both show up in the [service.shed] trace
    counter and the per-shard {!counters}. *)

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
  app : string;
  scale : int;
  scheduler : Pmdp_core.Scheduler.t;
  seed : int;
  priority : int;  (** higher wins under backpressure; default 0 *)
  deadline : float option;
      (** seconds from submit after which the request may be dropped
          rather than executed *)
}

type response = {
  id : int;
  fingerprint : string;
  cache_hit : bool;
  batch_size : int;
  degraded : bool;
  wall_seconds : float;
  queue_seconds : float;
  checksum : float;
  results : (string * Pmdp_exec.Buffer.t) list;
  max_abs_diff : float option;
}

type phase = P_queued | P_running

type pending = {
  id : int;
  req : request;
  app_entry : Pmdp_apps.Registry.app;
  entry : Plan_cache.entry;
  cache_hit : bool;
  est_bytes : int;
  submitted_at : float;
  trace_ts : float;
  mutable phase : phase;
  mutable outcome : (response, Pmdp_util.Pmdp_error.t) result option;
}

type shared = {
  lock : Mutex.t;  (** the one service-wide mutex *)
  request_done : Condition.t;  (** broadcast whenever any pending settles *)
  machine : Pmdp_machine.Machine.t;
  budget : int;
  validate : bool;
  breaker : Breaker.t;  (** per-fingerprint circuit breaker, all shards *)
  fault : Pmdp_runtime.Fault.t option;
      (** chaos injection: [Shard_kill] fires at batch start, and the
          fault is threaded into [Resilient.run_plan] so worker kills
          and tile crashes reach service executions too *)
  calib : Pmdp_core.Cost_model.calibration option;
      (** fitted cost-model weights, threaded into every plan compile
          ({!Plan_cache.get}) and into the retuner's tile search *)
  retune : Retune.t option;
      (** the online re-optimizer; dispatchers report successful
          execution walls to it ({!Retune.observe}) *)
  mutable draining : bool;
      (** set once a graceful drain's deadline passes: dispatchers
          settle leftovers as retryable [Overloaded] instead of
          [Cancelled] *)
  mutable unfinished : int;
  mutable inflight_bytes : int;
  mutable queued : int;
}

type counters = {
  submitted : int;
  completed : int;
  failed : int;
  rejected : int;
  shed : int;  (** evicted from a full queue by a higher-priority request *)
  expired : int;  (** dropped because the deadline passed while queued *)
  batches : int;
  batched_requests : int;
  executions : int;
  restarts : int;  (** dispatcher respawns by the supervisor *)
  queue_depth : int;
  inflight_bytes : int;
}

type t

val create :
  index:int ->
  shared:shared ->
  disk:Disk_cache.t option ->
  workers:int ->
  batch_window:float ->
  queue_limit:int ->
  t
(** Start the shard: private plan cache persisting to [disk], private
    pool ([workers] > 1),
    dispatcher thread running under a supervisor.  When the dispatcher
    thread dies (injected [Shard_kill], escaped execution exception),
    the supervisor settles the batch it owned with a typed retryable
    [Worker_crash], backs off with seeded jitter (25 ms doubling to
    1 s), and respawns it; the queue survives across the respawn. *)

val index : t -> int
val cache : t -> Plan_cache.t
val workers : t -> int

val batch_key : pending -> string
(** [fingerprint ^ ":" ^ seed] — requests with equal keys compute the
    same result and are coalesced. *)

val try_enqueue : t -> pending -> (unit, Pmdp_util.Pmdp_error.t) result
(** Admit into the bounded queue.  Caller MUST hold [shared.lock] and
    MUST have already charged [shared.unfinished] /
    [shared.inflight_bytes] for the request; on [Error] (queue full,
    nothing outranked) the caller undoes that charge.  May shed a
    lower-priority queued request to make room — the victim settles
    with [Overloaded] and its charge is released here. *)

val note_rejected : t -> unit
(** Attribute an admission rejection to this shard (caller holds
    [shared.lock]). *)

val signal_stop : t -> unit
(** Ask the dispatcher to drain and exit (caller holds
    [shared.lock]). *)

val join : t -> unit
(** Join the dispatcher thread and shut the pool down.  Call without
    the lock, after {!signal_stop}. *)

val counters : t -> counters
(** Snapshot (caller holds [shared.lock]). *)

(** Liveness view for the [health] op. *)
type health = {
  shard : int;
  alive : bool;  (** dispatcher thread up (false during a respawn backoff) *)
  queue_depth : int;
  running : int;  (** requests in the batch being executed right now *)
  restarts : int;
}

val health : t -> health
(** Snapshot (caller holds [shared.lock]). *)

(** Compiled-plan cache: the amortization layer of the execution
    service.

    Every [pmdp run] pays the full DSL → analysis → DP-grouping →
    compile cost and exits; a service must not.  The cache memoizes
    the {!Pmdp_core.Schedule_spec.t} and lowered
    {!Pmdp_exec.Tiled_exec.plan} per {!fingerprint} of the
    plan-relevant request bindings — (app name, param bindings,
    scheduler, machine) — so repeat requests skip grouping and
    compilation entirely.

    Concurrency: the cache is shared across domains and threads.  A
    key is compiled exactly once — the first requester claims the slot
    and compiles outside the lock while later requesters for the same
    key block until the slot is ready; they are counted as hits
    (they did not compile).  Failed compiles are cached too (the same
    schedule fails the same way), so the one-compile-per-key
    invariant holds unconditionally.

    Persistence: a cache created with a {!Disk_cache} owns when plans
    reach and leave it.  A miss first tries the persisted plan —
    admitted through the same gate as every other path into a slot —
    and persists a fresh compile; a persisted plan the gate refuses
    is quarantined; {!preload} warm-loads a persisted plan eagerly at
    startup; {!swap} persists the retuner's winner.

    Observability: hits and misses are recorded as the
    [service.cache.hit] / [service.cache.miss] trace counters
    ({!Pmdp_trace.Trace.count}) and mirrored, with compile/load and
    entry counts, in mutex-protected {!stats}. *)

type entry = {
  fingerprint : string;
  resolved : Pmdp_core.Scheduler.t;
      (** after {!Pmdp_core.Scheduler.for_pipeline} *)
  spec : Pmdp_core.Schedule_spec.t option;
      (** [Some] when the plan was scheduled in this process; [None]
          when the IR was admitted from an external source (the spec
          never crossed the serialization boundary) *)
  plan : Pmdp_exec.Tiled_exec.plan;
  ir : Pmdp_plan.t;  (** the serializable IR the plan was instantiated from *)
  digest : string;  (** {!Pmdp_plan.digest} of [ir] *)
}

type t

val create : ?disk:Disk_cache.t -> unit -> t
(** An empty cache; [disk] (default none) is where its plans persist. *)

val fingerprint :
  app:string ->
  scale:int ->
  scheduler:Pmdp_core.Scheduler.t ->
  machine:Pmdp_machine.Machine.t ->
  string
(** Stable hex digest of the plan-relevant bindings.  Identical
    bindings always produce the same fingerprint (within and across
    processes); changing any of app, scale, scheduler, machine name,
    or machine core count changes it. *)

val get :
  t ->
  ?calib:Pmdp_core.Cost_model.calibration ->
  app:Pmdp_apps.Registry.app ->
  scale:int ->
  scheduler:Pmdp_core.Scheduler.t ->
  machine:Pmdp_machine.Machine.t ->
  unit ->
  (entry * [ `Hit | `Miss | `Loaded ], Pmdp_util.Pmdp_error.t) result
(** The memoized schedule + plan for the request's fingerprint,
    compiling it (once, whatever the concurrency) on first use.
    [`Hit] is a ready slot (including waiters that blocked on an
    in-flight build).  The one requester per key that finds the slot
    empty first consults the cache's {!Disk_cache} (if any): a
    persisted IR that passes the admission gate becomes the entry with
    outcome [`Loaded] — no compilation; one that fails the gate is
    counted as a load reject, quarantined, and discarded.  Otherwise
    the requester compiles ([`Miss]) and, on success, persists the
    fresh IR.
    [calib] threads fitted cost-model weights into the scheduling
    config ({!Pmdp_core.Cost_model.config_of_machine}); it does not
    enter the fingerprint — a server runs one calibration
    process-wide, and cached plans swap via {!swap} when the online
    retuner wins, so keys stay stable across calibration updates.
    Never raises: compile failures surface as the cached typed error.
    A slot only becomes [Ready] after its plan IR passes the digest
    check and the whole-plan static analyzer
    ({!Pmdp_verify.Verify.check_plan_result}) — the gate applies to
    loaded plans exactly as to compiled ones. *)

val preload :
  t ->
  app:Pmdp_apps.Registry.app ->
  scale:int ->
  scheduler:Pmdp_core.Scheduler.t ->
  machine:Pmdp_machine.Machine.t ->
  unit
(** Eagerly admit the persisted plan for these bindings into its slot
    (startup warm-load).  The full gate applies.  A rejection —
    tampered digest, analyzer failure — quarantines the envelope and
    leaves the slot {e empty}, not poisoned: the first real request
    recompiles from scratch.  An already-occupied slot, or a cache
    without a disk, is left alone.  Does not count as a hit or miss;
    successes count in [loads], rejections in [load_rejects]. *)

val load :
  pipeline:Pmdp_dsl.Pipeline.t ->
  ir:Pmdp_plan.t ->
  digest:string ->
  (Pmdp_exec.Tiled_exec.plan, Pmdp_util.Pmdp_error.t) result
(** Admit an externally supplied plan IR (e.g. parsed from a
    {!Pmdp_plan.read} file) through the same gate [get] applies before
    marking a slot [Ready]: the claimed [digest] must equal
    [Pmdp_plan.digest ir] (otherwise the plan was tampered with or
    corrupted) and the whole-plan static analyzer must report no
    errors; only then is the IR instantiated.  Every rejection is a
    typed [Plan_invalid] — nothing is ever executed from a plan that
    fails the gate. *)

val swap : t -> fingerprint:string -> entry:entry -> bool
(** Atomically replace the Ready entry for [fingerprint] — the online
    retuner's commit — and persist the new IR under the request
    bindings the slot recorded, so the swap survives a restart.
    [false] (and no change) unless the slot currently holds a
    successfully built entry: a Building slot has a requester waiting
    on it and an absent slot was never served here, so a
    late-arriving tuner loses cleanly.  The caller is responsible for
    having passed the new entry's IR through the same admission gate
    as every other path ({!load}). *)

type stats = {
  hits : int;  (** requests served from a ready slot (incl. waiters) *)
  misses : int;  (** requests that claimed an empty slot *)
  compiles : int;  (** compilations actually executed *)
  loads : int;  (** entries admitted from the disk cache *)
  load_rejects : int;  (** persisted IRs that failed the admission gate *)
  entries : int;  (** ready slots currently cached *)
}

val stats : t -> stats


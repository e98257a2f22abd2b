(** Resilient execution driver: typed errors, pre-flight resource
    guards, and a tiled-parallel → tiled-serial → reference fallback
    chain.

    {!Tiled_exec.run} trusts its plan; this driver does not.  It
    plans via {!Tiled_exec.plan_result}, checks the plan's memory
    demand against a budget before allocating, and then walks a chain
    of execution strategies until one completes:

    + [native] — the compiled-kernel backend, when one has been
      installed via {!set_native_runner} (a missing toolchain, failed
      compile, or rejected kernel degrades to the next step);
    + [tiled-parallel] — the pool-backed tiled executor (only when a
      pool is supplied and the parallel scratch fits the budget);
    + [tiled-serial] — the tiled executor with the pool bypassed (one
      scratch arena instead of one per worker);
    + [reference] — the unfused reference executor, the correctness
      backstop that needs no plan at all.

    Every step is recorded in the returned {!outcome}, with the
    per-group measurements of the attempt that answered; a run that
    needed any fallback is flagged [degraded] but still returns [Ok].  Only when every
    strategy fails — or the working set alone exceeds the budget — is
    the last typed error returned.

    A watchdog ([timeout]) arms a cooperative-cancellation token per
    attempt: tiles observe it at tile granularity, the attempt fails
    with a typed [Timeout], and the chain continues.  Fault injection
    ([fault], {!Pmdp_runtime.Fault}) is threaded through tile bodies,
    arena allocation, and — for worker kills — the pool's job hook;
    random injection positions are resolved against the plan's total
    tile count, so a seed fully determines the fault. *)

type step = Plan_step | Native | Tiled_parallel | Tiled_serial | Reference_fallback

val step_name : step -> string
(** "plan", "native", "tiled-parallel", "tiled-serial", "reference". *)

type native_runner =
  plan:Tiled_exec.plan ->
  workers:int ->
  inputs:(string * Buffer.t) list ->
  (string * Buffer.t) list
(** A compiled-kernel executor: run [plan] natively with [workers]
    OpenMP threads and return the live-out buffers.  Raises (typically
    a typed [Kernel_unavailable]) to make the chain fall through to
    the interpreter. *)

val set_native_runner : native_runner option -> unit
(** Install (or clear) the process-wide native backend — called by
    [Pmdp_kernel.Native_exec.install].  A hook rather than a library
    dependency, because the kernel backend layers {e above} this
    library; when none is installed the native step is skipped without
    being recorded, so interpreter-only runs are not flagged
    degraded. *)

type outcome = {
  results : (string * Buffer.t) list;
      (** live-out buffers of the strategy that completed (the
          reference fallback returns every stage, a superset) *)
  degraded : bool;  (** some step failed or was skipped over budget *)
  attempts : (step * Pmdp_util.Pmdp_error.t option) list;
      (** chain record in order: [None] = step succeeded *)
  groups : Tiled_exec.group_stats list;
      (** per-group measurements of the tiled attempt that answered,
          in group order; [[]] when the native or reference step
          answered *)
}

val run :
  ?pool:Pmdp_runtime.Pool.t ->
  ?sched:Pmdp_runtime.Pool.sched ->
  ?machine:Pmdp_machine.Machine.t ->
  ?mem_budget:int ->
  ?fault:Pmdp_runtime.Fault.t ->
  ?timeout:float ->
  Pmdp_core.Schedule_spec.t ->
  inputs:(string * Buffer.t) list ->
  (outcome, Pmdp_util.Pmdp_error.t) result
(** [mem_budget] defaults to
    [Machine.default_mem_budget machine] ([machine] defaults to
    {!Pmdp_machine.Machine.xeon}).  [timeout] is per attempt, in
    seconds.  Uncategorized exceptions from an attempt are folded
    into typed [Worker_crash] errors; nothing escapes except through
    the [Error] return. *)

val run_plan :
  ?pool:Pmdp_runtime.Pool.t ->
  ?sched:Pmdp_runtime.Pool.sched ->
  ?machine:Pmdp_machine.Machine.t ->
  ?mem_budget:int ->
  ?fault:Pmdp_runtime.Fault.t ->
  ?timeout:float ->
  Tiled_exec.plan ->
  inputs:(string * Buffer.t) list ->
  (outcome, Pmdp_util.Pmdp_error.t) result
(** {!run} for a plan the caller already lowered (the plan step is
    recorded as succeeded).  Lets repeated executions of one schedule
    — e.g. benchmark repetitions ({!Pmdp_bench.Runner}) — share the
    plan while still getting the budget guards, the fallback chain,
    and the step record. *)

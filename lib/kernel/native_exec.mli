(** The native kernel backend: compile, cache, validate, and execute
    the emitted C.

    For each plan ({!Pmdp_exec.Tiled_exec.plan}) the backend obtains a
    compiled kernel keyed by {!Pmdp_plan.kernel_digest}:

    + process memo table — already admitted this process;
    + {!Kernel_cache} — a checksum-verified shared object from a
      previous process, [dlopen]ed and re-validated;
    + fresh compile — {!Pmdp_codegen.C_emit.emit_kernels} through
      {!Toolchain.compile}, then [dlopen].

    Whatever the path, {b nothing executes a request before passing
    the validation gate}: the kernel runs once on deterministic seeded
    inputs and its live-outs must equal {!Pmdp_exec.Reference.run}
    bitwise ({!Pmdp_exec.Reference.max_abs_diff} = 0: the kernels
    mirror the interpreter's double arithmetic and are compiled with
    [-ffp-contract=off]); anything else is rejected (and quarantined,
    when it came from disk).  Admission failures are memoized per
    digest, so a missing toolchain costs one probe, not one per
    request.

    Execution copies nothing: the kernels read and write the callers'
    storage in place.  Each group's [pmdp_kernel_group_<i>(double
    **bufs, n_threads)] is called in plan order, with the runtime lock
    released, on the [float array]s of the input buffers (declared
    [const double *] in the emitted C, so an input is never written)
    and of the live-outs, which are allocated zero-filled in the major
    heap.  Each run charges the bytes of every slot to the major GC's
    pace, as an out-of-heap Bigarray per slot would be charged, so
    that the GC keeps up with the short-lived live-outs.  Before the
    lock is released, any slot still in
    the minor heap is promoted by one minor collection, since a
    promotion by another thread would move it mid-call.  Major-heap
    blocks must not move during a call: OCaml 5.1 never moves them,
    and from 5.2 only [Gc.compact] does.  Nothing in [lib/] or [bin/]
    calls it; a program that does must not do so while a kernel
    runs.

    {!install} registers the backend as
    {!Pmdp_exec.Resilient.set_native_runner}, making [native] the
    first step of the fallback chain; every failure mode above
    surfaces as a typed [Kernel_unavailable] that degrades the run to
    the interpreter instead of failing it. *)

type t

val create :
  ?fault:Pmdp_runtime.Fault.t -> ?cache_dir:string -> ?cc:string -> unit -> t
(** Probe the toolchain and open the on-disk cache ([cache_dir]
    omitted = no persistence).  [cc] forces a single compiler
    candidate (tests use an impossible one to simulate a host without
    a toolchain); [fault] arms the seeded compile-failure injection. *)

val toolchain : t -> Toolchain.t option
(** [None] on a host with no working C compiler. *)

val run :
  t ->
  Pmdp_exec.Tiled_exec.plan ->
  workers:int ->
  inputs:(string * Pmdp_exec.Buffer.t) list ->
  (string * Pmdp_exec.Buffer.t) list
(** Execute the plan natively with [workers] OpenMP threads; returns
    the live-out buffers by stage name (the same contract as
    {!Pmdp_exec.Tiled_exec.run}).
    @raise Pmdp_util.Pmdp_error.Error ([Kernel_unavailable]) when no
    kernel can be admitted — the signal the resilient chain folds
    into a degraded interpreter run. *)

val install : t -> unit
(** Register this backend as the process-wide native runner of
    {!Pmdp_exec.Resilient}. *)

val uninstall : unit -> unit
(** Clear the process-wide native runner (tests; also useful to pin
    an interpreter-only run). *)

type stats = {
  compiles : int;  (** fresh compiler invocations *)
  compile_failures : int;  (** including seeded [kernel@K] injections *)
  validations : int;  (** gate runs (fresh and disk-loaded kernels) *)
  validation_failures : int;  (** kernels rejected by the gate *)
  disk_hits : int;  (** kernels admitted from the on-disk cache *)
  runs : int;  (** native executions *)
  unavailable : int;  (** digests memoized as unavailable *)
}

val stats : t -> stats
val cache_stats : t -> Kernel_cache.stats option

(** Persistent on-disk plan cache: plan IRs as files, one per
    {!Plan_cache.fingerprint}, so a restarted server answers its first
    hot request without recompiling.

    Each entry is one file, [<fingerprint>.plan], holding the plan
    envelope ([{schema_version, digest, plan}], the format
    {!Pmdp_plan.read} parses) extended with a ["request"] member
    recording the bindings — app, scale, scheduler, machine name,
    core count — the fingerprint was computed from, so a fresh
    process can rebuild the pipeline and admit the plan against it.
    The suffix is the plan store's own, so a kernel store
    ({!Pmdp_kernel.Kernel_cache}) may share the directory.

    This module owns the envelope format and nothing else: the bytes
    on disk — atomic writes, failed writes, [.bad] quarantine, the
    counters — are {!Pmdp_runtime.Store}'s job, and {!Plan_cache}
    decides when a plan is loaded, stored or quarantined.  It never
    instantiates a plan: every IR read from disk goes through the
    {!Plan_cache} admission gate (claimed digest = content digest,
    whole-plan static analyzer) on its way into a shard's memory
    cache, so a tampered or stale file is rejected and recompiled,
    never executed. *)

type t

type meta = {
  app : string;
  scale : int;
  scheduler : Pmdp_core.Scheduler.t;
  machine : string;  (** machine model name, e.g. "xeon" *)
  cores : int;
}
(** The plan-relevant request bindings stored beside the IR. *)

val create : ?fault:Pmdp_runtime.Fault.t -> dir:string -> unit -> t
(** Open the store in [dir] ({!Pmdp_runtime.Store.create}).  [fault]
    enables chaos injection at stores: a firing [Torn_write] persists
    only a prefix of the envelope, a [Corrupt_write] persists
    well-formed JSON with a wrong claimed digest — the two silent
    disk-failure modes the quarantine machinery must recover from.
    @raise Invalid_argument when [dir] exists but is not a directory.
    @raise Unix.Unix_error when it cannot be created. *)

val meta_of_request :
  app:string ->
  scale:int ->
  scheduler:Pmdp_core.Scheduler.t ->
  machine:Pmdp_machine.Machine.t ->
  meta

val store : t -> meta -> fingerprint:string -> ir:Pmdp_plan.t -> unit
(** Write the envelope to [<dir>/<fingerprint>.plan] with
    {!Pmdp_runtime.Store.put}.  A failed write is counted, never
    raised — persistence is an optimization. *)

val load : t -> fingerprint:string -> (Pmdp_plan.t * string) option
(** The stored IR and the digest the file {e claims}.  [None] when
    the file is absent or unparseable (the caller compiles instead);
    an unparseable file is quarantined on the way.  Digest
    verification is the admission gate's job, not this module's. *)

val scan : t -> (string * meta) list
(** Every parseable entry as (fingerprint, request bindings), sorted —
    the startup warm-load walks this and admits each plan through the
    gate.  Unparseable files (torn writes, junk) are quarantined
    instead of silently skipped. *)

val quarantine : t -> fingerprint:string -> reason:string -> unit
(** Rename [<fingerprint>.plan] to [<fingerprint>.plan.bad]: the
    envelope stops shadowing future stores and warm loads but stays
    on disk for inspection.  Called internally for unparseable files;
    {!Plan_cache} calls it for envelopes that parse but fail
    admission.  Best-effort, idempotent, counted in {!stats}. *)

type stats = Pmdp_runtime.Store.stats = {
  stores : int;
  store_failures : int;
  hits : int;
  misses : int;
  quarantined : int;
}

val stats : t -> stats

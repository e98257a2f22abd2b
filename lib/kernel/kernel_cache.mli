(** Persistent on-disk kernel cache: compiled shared objects, one per
    {!Pmdp_plan.kernel_digest}, so a restarted process answers its
    first hot request without re-invoking the C compiler.

    Each entry is two files, [<kernel_digest>.so] (the artifact) and
    [<kernel_digest>.json] (provenance: pipeline name, plan digest,
    emitter ABI, compiler line, and the validation verdict the kernel
    was admitted under), plus an MD5 of the shared object.  {!load}
    refuses — and quarantines — entries whose checksum, ABI, or
    metadata do not hold up, so a tampered or stale object is
    recompiled, never [dlopen]ed.

    This module owns the metadata format and those checks; the bytes
    on disk are {!Pmdp_runtime.Store}'s job: atomic writes ([.so]
    before metadata), failed writes counted and never raised (a full
    or read-only disk degrades the cache to a no-op), and quarantine
    to [<kernel_digest>.so.bad] and [<kernel_digest>.json.bad]. *)

type t

type meta = {
  pipeline : string;
  plan_digest : string;  (** {!Pmdp_plan.digest} of the plan the kernel executes *)
  abi : int;  (** {!Pmdp_plan.kernel_abi_version} at emission time *)
  so_md5 : string;  (** hex MD5 of the shared object as stored *)
  compiler : string;  (** first line of [cc --version] *)
  openmp : bool;  (** compiled with [-fopenmp] *)
  validation : string;  (** admission verdict, always ["bitwise"] *)
  max_abs_diff : float;  (** |native - reference| at admission, always [0.0] *)
}

val create : dir:string -> unit -> t
(** Open the store in [dir] ({!Pmdp_runtime.Store.create}).
    @raise Invalid_argument when [dir] exists but is not a directory.
    @raise Unix.Unix_error when it cannot be created. *)

val store : t -> kernel_digest:string -> meta -> so_src:string -> unit
(** Copy the compiled object at [so_src] into the cache and write its
    metadata beside it with {!Pmdp_runtime.Store.put}.  A failed write
    is counted, never raised — persistence is an optimization. *)

val load : t -> kernel_digest:string -> abi:int -> (string * meta) option
(** The path of a verified shared object and its metadata, or [None]
    after counting a miss.  Any damaged entry — orphaned half,
    unparseable metadata, ABI mismatch, checksum mismatch — is
    quarantined on the way out.  The caller still owns semantic
    admission (re-validating against the reference executor). *)

val quarantine : t -> kernel_digest:string -> reason:string -> unit
(** Rename both entry files to [.bad]: out of the lookup namespace,
    still on disk for inspection.  Best-effort, idempotent, counted. *)

type stats = Pmdp_runtime.Store.stats = {
  stores : int;
  store_failures : int;
  hits : int;
  misses : int;
  quarantined : int;
}

val stats : t -> stats

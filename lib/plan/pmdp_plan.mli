(** Serializable plan IR: the lowered form of a schedule, as data.

    {!Pmdp_exec.Tiled_exec} used to lower a
    {!Pmdp_core.Schedule_spec.t} straight into compiled OCaml closures,
    which made a "plan" opaque — impossible to persist, ship across
    machines, or audit after lowering.  This module is the missing
    middle layer: everything the executor derives from a schedule
    {e except} the closures — fused groups in execution order, member
    order, clamped tile sizes, the scaling/alignment tables, per-member
    overlap expansions and scratch extents, buffer extents, and the
    estimated working-set/scratch bytes — captured as plain data with a
    stable JSON codec and a content digest.

    Lowering is now [of_spec] (schedule → IR, all the analysis) followed
    by [Pmdp_exec.Tiled_exec.instantiate] (IR → closures, cheap), so a
    plan can be serialized between the two steps, verified by the
    whole-plan static analyzer ([Pmdp_verify.Plan_check]), cached on
    disk, or diffed against a golden corpus — without executing
    anything.

    The codec is deterministic: field order is fixed and
    [of_json (to_json t)] is digest-identical to [t], so {!digest} is a
    content address usable for cache keys and tamper detection. *)

module Group_analysis := Pmdp_analysis.Group_analysis

type member = {
  sid : int;  (** stage id in the pipeline *)
  name : string;  (** stage name (cross-checked at instantiation) *)
  dims : (int * int) array;  (** (lo, extent) per own dimension — the buffer extents *)
  liveout : bool;  (** materialized into a full buffer *)
  direct : bool;  (** live-out whose region is always exactly the tile box *)
  scratch_extents : int array;
      (** per own-dimension extents of the per-tile scratch region
          (also computed for direct members, whose arena is elided) *)
  max_scratch : int;  (** arena elements; 0 for direct members *)
}

type edge = {
  e_producer : int;  (** index into [members] *)
  e_consumer : int;
  hull : (int * int) array;  (** per-group-dim dependence-offset hull *)
}

type group = {
  members : member array;  (** topological (execution) order *)
  tile : int array;  (** clamped scaled-space tile sizes, one per group dim *)
  tiles_per_dim : int array;
  n_tiles : int;
  n_dims : int;
  scales : int array array;  (** per member per group dim *)
  dim_of_stage : int array array;  (** group dim of each member's own dim *)
  scaled_lo : int array array;
  scaled_hi : int array array;
  dim_lo : int array;  (** group-dim hull over members *)
  dim_hi : int array;
  expansions : (int * int) array array;  (** overlap expansion per member per group dim *)
  edges : edge array;
}

type t = {
  version : int;  (** codec version, currently 1 *)
  pipeline : string;
  n_stages : int;
  groups : group array;
  liveouts : string list;  (** names of all live-out stages, group order *)
  working_set_bytes : int;  (** full (live-out) buffer bytes, no recycling *)
  scratch_bytes_per_worker : int;  (** worst group's per-worker arena bytes *)
}

val version : int

val member_scratch_extents :
  Group_analysis.t -> member:int -> tile:int array -> int array
(** Per own-dimension extents of the reusable arena slot covering any
    tile's region of a member — the sizing formula shared by the
    interpreted executor ({!Pmdp_exec.Tiled_exec} delegates here), the
    IR, and the static checker. *)

val of_spec : Pmdp_core.Schedule_spec.t -> t
(** Lower a schedule to the IR: validate, analyze every group, clamp
    tile sizes, and derive all per-member quantities.
    @raise Pmdp_util.Pmdp_error.Error ([Plan_invalid] for failed
    validation or group analysis, [Arity_mismatch] for a wrong-length
    tile-size vector). *)

val of_spec_result : Pmdp_core.Schedule_spec.t -> (t, Pmdp_util.Pmdp_error.t) result
(** {!of_spec} with every raising boundary — including
    [Schedule_spec.validate]'s [Invalid_argument] — converted to a
    typed error. *)

val retile : Pmdp_dsl.Pipeline.t -> t -> int array array -> t
(** Same grouping, new tile sizes (one array per group, clamped to the
    group's scaled extents).  Everything tile-derived — tiles_per_dim,
    n_tiles, member scratch extents, arena sizes — is recomputed with
    the formulas lowering uses; grouping, liveouts and the working set
    are tile-independent and carried over.  The result is a fresh IR
    with a fresh digest that must pass the same admission gate as any
    other plan (the tile search and the service's online retuner build
    candidates this way).
    @raise Pmdp_util.Pmdp_error.Error ([Arity_mismatch] on a
    wrong-length outer or inner array, [Plan_invalid] on tile sizes
    < 1 or an IR that does not fit the pipeline). *)

val retile_result :
  Pmdp_dsl.Pipeline.t -> t -> int array array -> (t, Pmdp_util.Pmdp_error.t) result
(** {!retile} with raises converted to typed errors. *)

val group_analysis : Pmdp_dsl.Pipeline.t -> group -> Group_analysis.t
(** Reconstruct the analysis record an IR group denotes, against the
    given pipeline (edge offset lists collapse to their hulls).  This
    is the instantiation-time bridge back into the executor's world.
    @raise Pmdp_util.Pmdp_error.Error ([Plan_invalid]) when the group
    does not fit the pipeline: stage id out of range, stage name or
    buffer extents differing from the pipeline's (a stale or tampered
    plan), or internally inconsistent table dimensions. *)

val to_json : t -> Pmdp_report.Json.t
(** Deterministic: equal IRs produce byte-identical compact JSON. *)

val of_json : Pmdp_report.Json.t -> (t, string) result

val digest : t -> string
(** Hex content digest of the compact {!to_json} rendering. *)

val kernel_abi_version : int
(** Version of the native-kernel extern ABI
    ({!Pmdp_codegen.C_emit.emit_kernels} tracks it); salted into
    {!kernel_digest}. *)

val kernel_digest : t -> string
(** Content address of the plan's compiled native kernel: {!digest}
    salted with {!kernel_abi_version}, so an emitter-ABI change
    re-keys every cached shared object instead of loading stale ones
    with the wrong signature.  The key of {!Pmdp_kernel.Kernel_cache}
    entries. *)

val write : string -> t -> unit
(** Write [{ "schema_version"; "digest"; "kernel_digest"; "plan" }]
    (pretty JSON) to a file — the on-disk format of the golden-plan
    corpus and [pmdp check --plan-out].  {!read} ignores the kernel
    digest (it is derivable); it is recorded for cache tooling. *)

val read : string -> (t * string, string) result
(** Parse a {!write}-format file into the IR and the digest it
    {e claims} (not necessarily {!digest} of the parsed IR — callers
    must compare the two to detect tampering). *)

val n_groups : t -> int
val pp : Format.formatter -> t -> unit

(** C/OpenMP code generation for a lowered plan.

    Emits code with the structure of the paper's Fig. 3: fused
    tile-space loops parallelized with OpenMP, per-tile scratch
    regions for every member stage, overlap-expanded region loops per
    member, and [#pragma ivdep] innermost loops.  The translation unit
    is what the native backend ({!Pmdp_kernel}) compiles, loads, and
    executes: double precision throughout (so results can be compared
    bitwise against the double-precision interpreter and
    {!Pmdp_exec.Reference}), one [extern] function per fused group,
    and every buffer passed in from outside.  [pmdp emit-c] prints the
    same text. *)

val scratch_alloc_extents :
  Pmdp_analysis.Group_analysis.t -> member:int -> tile:int array -> int array
(** Per own-dimension extents of the per-thread heap scratch arena the
    emitted code allocates for a member's per-tile region (the
    [malloc] of [scr_f] uses their product).  Exposed so the static
    bounds checker ({!Pmdp_verify}) can prove every tile's region fits
    the allocation. *)

val kernel_abi_version : int
(** Version of the emitted extern ABI below.  Salted into
    {!Pmdp_plan.kernel_digest}, so an ABI change re-keys every cached
    kernel instead of calling stale objects with the wrong signature. *)

val kernel_symbol : int -> string
(** [kernel_symbol gi] is the exported symbol of group [gi]:
    ["pmdp_kernel_group_<gi>"], with C signature
    [void (double **bufs, int n_threads)]. *)

val kernel_slots : Pmdp_dsl.Pipeline.t -> Pmdp_plan.t -> string list
(** Buffer-slot order of the [bufs] argument: pipeline inputs in
    declaration order, then live-out stages in plan order
    ([Pmdp_plan.t.liveouts]).  Every group function receives the full
    vector; each indexes only the slots it reads or writes. *)

val emit_kernels : Pmdp_dsl.Pipeline.t -> Pmdp_plan.t -> string
(** The kernel translation unit for a lowered plan: per-group tile
    loops under [#pragma omp parallel]/[#pragma omp for] (ignored —
    hence serial but still correct — when compiled without OpenMP),
    per-thread heap scratch arenas, clamped region loops, and an exact
    copy-out of each live-out's tile.  Arithmetic mirrors the
    interpreter ({!Pmdp_exec.Compile}) operation for operation —
    [double] literals via ["%.17g"], [fmin]/[fmax], [Floor] as
    [(double) (int) floor(x)] — so a kernel compiled with
    [-ffp-contract=off] is expected bitwise-equal to
    {!Pmdp_exec.Reference}.
    @raise Invalid_argument when the plan names a different pipeline.
    @raise Pmdp_util.Pmdp_error.Error ([Plan_invalid]) when a plan
    group does not fit the pipeline. *)

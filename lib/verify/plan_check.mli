(** Whole-plan static analyzer over the serializable plan IR.

    The schedule-level passes ({!Legality}, {!Bounds}, {!Race},
    {!Lint}) see a {!Pmdp_core.Schedule_spec.t} — the input to
    lowering.  This pass audits the {e output} of lowering, a
    {!Pmdp_plan.t}, against the pipeline it claims to execute, so
    plans loaded from disk (or cached, or shipped) can be vetted
    without executing a single tile.  All diagnostics carry the
    {!Diagnostic.Plan} pass tag.

    Error kinds:
    - [pipeline-mismatch], [partition], [liveout-list],
      [output-not-liveout], [structure] — the plan does not fit the
      pipeline (stale or tampered IR);
    - [tile-count], [coverage-gap], [hull] — tile-coverage and bounds
      soundness: the tile grid must cover the group hull and the
      per-tile copy-out boxes must cover every live-out point exactly
      once;
    - [scratch-extent], [scratch-size], [direct-flag] — the IR's
      scratch claims cross-checked against
      {!Pmdp_exec.Tiled_exec.member_scratch_extents} (the arena the
      interpreter allocates) and
      {!Pmdp_codegen.C_emit.scratch_alloc_extents} (the per-thread
      heap arena the C backend emits);
    - [dependence], [group-order], [not-materialized] — lowered-level
      dependence/race audit: in-group edges must point forward in
      member order, cross-group producers must run earlier and be
      materialized;
    - [working-set], [scratch-budget], [over-budget] — static
      memory-budget audit mirroring the service's admission formula
      [working_set + scratch_per_worker * workers <= budget].

    Warning kinds: [one-wide-innermost], [tile-oversized],
    [dead-scratch]. *)

val check :
  ?budget:int -> ?workers:int -> Pmdp_dsl.Pipeline.t -> Pmdp_plan.t -> Diagnostic.t list
(** Run every pass.  [budget]/[workers] (default 1) enable the
    admission check; without [budget] only the claim-consistency half
    of the budget audit runs. *)

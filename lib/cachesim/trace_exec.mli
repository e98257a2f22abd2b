(** Address-trace generation for a tiled schedule.

    Walks exactly the loop structure the tiled executor runs — tile
    space, per-member overlap-expanded regions, per-point loads then
    the store — but emits byte addresses into a cache {!Hierarchy}
    instead of computing values.  Full buffers (inputs and group
    live-outs) get disjoint address ranges; per-group scratch buffers
    get fixed arenas that are reused across tiles, as a real
    allocator would.

    Two approximations, documented in DESIGN.md: data-dependent
    coordinates resolve to the producer dimension's midpoint (no
    values are computed), and both branches of a select are charged.
    The Table 5 experiment (Unsharp Mask) contains neither. *)

val run :
  ?max_tiles:int ->
  Pmdp_core.Schedule_spec.t ->
  hierarchy:Hierarchy.t ->
  unit
(** Trace the whole schedule into the hierarchy, walking the groups of
    its lowered plan ({!Pmdp_plan.of_spec}): their clamped tiles, tile
    counts and arena sizes are the executor's.  [max_tiles] caps the
    number of tiles traced per group (default: all), since cache
    fractions converge after a modest number of tiles.
    @raise Pmdp_util.Pmdp_error.Error when the schedule does not lower. *)

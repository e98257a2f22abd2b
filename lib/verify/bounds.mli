(** The bounds checker (pass 2 of [pmdp check]).

    Interval analysis over every stage's affine accesses, per group of
    the schedule:

    - [out-of-domain]: a stage-to-stage read whose index interval
      (over the consumer's whole iteration domain) never intersects
      the producer's domain along some dimension — the read can only
      ever observe boundary-clamped values, which is always a bug.
    - [region-containment]: for every tile of the group's tile grid,
      every in-group read (domain-clamped, as executed) must land
      inside the producer's overlap-expanded, domain-clamped per-tile
      region — the guarantee the paper's Alg. 2 line 2 assumes.
      Verified tile by tile at the interval endpoints (the access map
      is monotone, so endpoints realize the extremes).
    - [scratch-overflow]: the per-tile region extents of every member
      must fit the scratch allocations both executors derive — the
      runtime arena of {!Pmdp_exec.Tiled_exec} and the per-thread heap
      arenas sized by {!Pmdp_codegen.C_emit} — for every tile
      position, proving the emitted [scr_f] arena never overflows. *)

val check : Pmdp_core.Schedule_spec.t -> Diagnostic.t list

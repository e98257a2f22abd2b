(** The race detector (pass 3 of [pmdp check]).

    Tiles of a group run in parallel on the domains pool, so the
    write-sets of distinct tile-space iterations must be provably
    disjoint, and together they must cover every output point exactly
    once.  Per live-out member the copy-out box of tile [t] along each
    dimension is the own-coordinate interval
    [\[ceil(tlo/s), floor(thi/s)\]] clamped into the member's domain;
    the boxes are rectangular, so per-dimension disjointness of
    consecutive tiles proves global disjointness.

    Diagnostic kinds:
    - [multi-writer]: one buffer written by more than one group (a
      stage duplicated across groups silently clobbers results).
    - [overlapping-writes]: two tiles of a group write a common point
      of a live-out buffer — a write-write race under the pool.
    - [uncovered-writes]: some point of a live-out buffer is written
      by no tile and would be returned uninitialized.

    {!Verify.check_legality} refuses schedules with any of these, so
    a racy schedule from [Pmdp_baselines.Schedulers.schedule] or
    [Pmdp_tune.Search.tune_spec] never reaches an executor. *)

val check : Pmdp_core.Schedule_spec.t -> Diagnostic.t list

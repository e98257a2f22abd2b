(** The scheduler-independent output of fusion: a grouping plus tile
    sizes per group.

    Every scheduler in the repository — the paper's DP model, the
    PolyMage greedy heuristic, the Halide auto-scheduler
    reimplementation, and manual schedules — produces this type; the
    lowering and executors consume it.  Tile sizes are in the group's
    scaled iteration space (one entry per group dimension). *)

type group = { stages : int list; tile_sizes : int array }
type t = { pipeline : Pmdp_dsl.Pipeline.t; groups : group list }

val of_grouping : Cost_model.config -> Pmdp_dsl.Pipeline.t -> int list list -> t
(** Assign each group the tile sizes the cost model (Alg. 2) picks
    for it.  Groups the model deems unfusable are split into
    singletons (with their own tile sizes), so the result is always
    executable.  Groups are emitted in a valid inter-group
    topological order.
    @raise Invalid_argument if the grouping is not a partition of the
    pipeline's stages. *)

val with_tiles : Pmdp_dsl.Pipeline.t -> (int list * int array) list -> t
(** Build a schedule from explicit groups and tile sizes (used by
    manual schedules and ablations).  Tile arrays shorter than a
    group's dimensionality are padded with the group extent; longer
    ones are truncated.  Unfusable groups are split as in
    {!of_grouping} with the same requested tile sizes.
    @raise Invalid_argument if the grouping is not a partition. *)

val dp : Cost_model.config -> Pmdp_dsl.Pipeline.t -> t * Dp_grouping.outcome
(** Run the full PolyMageDP scheduler: DP grouping then per-group
    tile sizes. *)

val n_groups : t -> int

val validate : t -> unit
(** Re-checks partition/topological validity and that every tile size
    is positive (nonempty groups must carry a nonempty tile array).
    The deeper legality and race analysis is
    [Pmdp_verify.Verify.check_legality], which lives above the
    executors and runs where schedules are made: in
    [Pmdp_baselines.Schedulers.schedule] and on every
    [Pmdp_tune.Search.tune_spec] candidate.
    @raise Invalid_argument. *)

val pp : Format.formatter -> t -> unit

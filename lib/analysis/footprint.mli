(** Memory footprints, tile volumes, and overlap sizes of a fused
    group (the quantities consumed by Alg. 2 of the paper).

    All element counts use 32-bit float elements
    ([bytes_per_elem = 4]).  Per-tile quantities are computed
    analytically for an interior (unclipped) tile, in floating point —
    the cost model only needs ratios. *)

val bytes_per_elem : int

val liveouts_bytes : Group_analysis.t -> float
(** Total size of the group's live-out buffers (stages consumed
    outside the group or pipeline outputs), in bytes. *)

val intermediates_bytes : Group_analysis.t -> float
(** Total size of the group's intermediate (non-live-out) stages'
    domains, in bytes. *)

val n_buffers : Group_analysis.t -> int
(** Number of buffers a fused tile touches (one per member stage). *)

val tile_compute_volume : Group_analysis.t -> tile:int array -> float
(** Points computed per tile by all member stages {e without}
    overlap (each member's own-resolution points within the tile
    box). *)

val overlap_points : Group_analysis.t -> tile:int array -> float
(** Redundant points recomputed per tile due to overlap: the sum over
    members of (expanded region volume − exact tile volume), at each
    member's own resolution. *)

val livein_tile_bytes : Group_analysis.t -> tile:int array -> float
(** Bytes loaded per tile from outside the group: accesses to
    pipeline inputs and to out-of-group producer stages, with the
    access region expanded by the member's overlap expansion and the
    access's own extent.  Data-dependent coordinates conservatively
    charge the producer's whole extent along that dimension. *)

val liveout_tile_bytes : Group_analysis.t -> tile:int array -> float
(** Bytes stored per tile to live-out buffers. *)

val n_tiles : Group_analysis.t -> tile:int array -> int
(** Actual number of tiles: product over dimensions of
    [ceil(extent / tile)]. *)

val clamp_tile : Group_analysis.t -> int array -> int array
(** Clamp requested tile sizes to [1 .. dim extent] per dimension. *)

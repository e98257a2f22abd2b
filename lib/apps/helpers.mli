(** Shared expression builders for the benchmark pipelines. *)

open Pmdp_dsl

val ident_coords : int -> Expr.coord array
(** Identity access: coordinate [k] is variable [k]. *)

val shifted : int -> dim:int -> int -> Expr.coord array
(** Identity access of the given arity with dimension [dim] shifted
    by the offset. *)

val stencil : string -> ndims:int -> dim:int -> (int * float) list -> Expr.t
(** [stencil name ~ndims ~dim taps] is [Σ w * name(.., x_dim + k, ..)]
    over [(k, w)] taps. @raise Invalid_argument on empty taps. *)

val blur3 : string -> ndims:int -> dim:int -> Expr.t
(** 3-tap box blur along [dim]: [(f(-1) + f(0) + f(+1)) / 3]. *)

val downsample2 : string -> ndims:int -> dim:int -> Expr.t
(** 3-tap [1/4, 1/2, 1/4] decimation along [dim]: producer read at
    [2*x + {-1,0,1}]. *)

val upsample2 : string -> ndims:int -> dim:int -> Expr.t
(** Linear 2x upsampling along [dim]: average of producer values at
    [floor(x/2)] and [floor((x+1)/2)]. *)

val scaled : int -> int -> int
(** [scaled paper_extent scale] = [max 16 (paper_extent / scale)]. *)

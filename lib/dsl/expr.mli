(** Expression language of the image-processing DSL.

    A stage's body is an expression over the stage's iteration
    variables.  [Var i] denotes the i-th iteration variable of the
    *consuming* stage (outermost first); indices at or beyond the
    stage's dimensionality denote reduction variables.  Loads
    reference producer stages or pipeline inputs by name, with one
    coordinate per producer dimension.

    Coordinates are either single-variable affine functions with
    rational scale — which is what the scaling/alignment analysis of
    the fusion model consumes — or arbitrary data-dependent
    expressions ([Cdyn]), which are executable but make the edge
    unfusable (non-constant dependence), as with the data-dependent
    slicing of Bilateral Grid. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Min
  | Max
  | Mod  (** computed on truncated integers, result re-floated *)

type unop = Neg | Abs | Sqrt | Exp | Log | Floor | Sin | Cos

type cmp = Lt | Le | Gt | Ge | Eq | Ne

type coord =
  | Cvar of { var : int; scale : Pmdp_util.Rational.t; offset : Pmdp_util.Rational.t }
      (** index = floor(scale * var + offset) *)
  | Cdyn of t  (** index = floor(value of expression) *)

and cond =
  | Cmp of cmp * t * t
  | And of cond * cond
  | Or of cond * cond
  | Not of cond

and t =
  | Const of float
  | Var of int
  | Load of string * coord array
  | Binop of binop * t * t
  | Unop of unop * t
  | Select of cond * t * t

(** {1 Smart constructors} *)

val const : float -> t
val var : int -> t

val cvar : int -> coord
(** [cvar i] is the identity coordinate on variable [i]. *)

val cshift : int -> int -> coord
(** [cshift i k] is coordinate [var i + k]. *)

val cscale : int -> num:int -> den:int -> off:int -> coord
(** [cscale i ~num ~den ~off] is [floor((num/den) * var i + off)]. *)

val cdyn : t -> coord

val load : string -> coord array -> t

val ( +: ) : t -> t -> t
val ( -: ) : t -> t -> t
val ( *: ) : t -> t -> t
val ( /: ) : t -> t -> t
val min_ : t -> t -> t
val max_ : t -> t -> t
val clamp : t -> lo:t -> hi:t -> t
val neg : t -> t
val abs_ : t -> t
val sqrt_ : t -> t
val exp_ : t -> t
val select : cond -> t -> t -> t
val ( <: ) : t -> t -> cond
val ( <=: ) : t -> t -> cond
val ( >: ) : t -> t -> cond
val ( >=: ) : t -> t -> cond
val ( =: ) : t -> t -> cond
val ( &&: ) : cond -> cond -> cond
val ( ||: ) : cond -> cond -> cond

(** {1 Analysis helpers} *)

val fold_loads : ('a -> string -> coord array -> 'a) -> 'a -> t -> 'a
(** Fold over every [Load] in the expression, including loads nested
    inside dynamic coordinates and conditions. *)

val arith_cost : t -> int
(** Number of arithmetic operations evaluated per point (selects count
    both branches' maximum plus one; loads are free — memory cost is
    modelled separately). *)

val max_var : t -> int
(** Largest variable index used, or [-1] if none. *)

val pp : Format.formatter -> t -> unit

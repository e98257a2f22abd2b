module Rational = Pmdp_util.Rational

type binop = Add | Sub | Mul | Div | Min | Max | Mod
type unop = Neg | Abs | Sqrt | Exp | Log | Floor | Sin | Cos
type cmp = Lt | Le | Gt | Ge | Eq | Ne

type coord =
  | Cvar of { var : int; scale : Rational.t; offset : Rational.t }
  | Cdyn of t

and cond = Cmp of cmp * t * t | And of cond * cond | Or of cond * cond | Not of cond

and t =
  | Const of float
  | Var of int
  | Load of string * coord array
  | Binop of binop * t * t
  | Unop of unop * t
  | Select of cond * t * t

let const f = Const f
let var i = Var i
let cvar i = Cvar { var = i; scale = Rational.one; offset = Rational.zero }
let cshift i k = Cvar { var = i; scale = Rational.one; offset = Rational.of_int k }

let cscale i ~num ~den ~off =
  Cvar { var = i; scale = Rational.make num den; offset = Rational.of_int off }

let cdyn e = Cdyn e
let load name coords = Load (name, coords)
let ( +: ) a b = Binop (Add, a, b)
let ( -: ) a b = Binop (Sub, a, b)
let ( *: ) a b = Binop (Mul, a, b)
let ( /: ) a b = Binop (Div, a, b)
let min_ a b = Binop (Min, a, b)
let max_ a b = Binop (Max, a, b)
let clamp e ~lo ~hi = min_ (max_ e lo) hi
let neg a = Unop (Neg, a)
let abs_ a = Unop (Abs, a)
let sqrt_ a = Unop (Sqrt, a)
let exp_ a = Unop (Exp, a)
let select c a b = Select (c, a, b)
let ( <: ) a b = Cmp (Lt, a, b)
let ( <=: ) a b = Cmp (Le, a, b)
let ( >: ) a b = Cmp (Gt, a, b)
let ( >=: ) a b = Cmp (Ge, a, b)
let ( =: ) a b = Cmp (Eq, a, b)
let ( &&: ) a b = And (a, b)
let ( ||: ) a b = Or (a, b)

let rec fold_loads f acc e =
  match e with
  | Const _ | Var _ -> acc
  | Load (name, coords) ->
      let acc = f acc name coords in
      Array.fold_left
        (fun acc c -> match c with Cvar _ -> acc | Cdyn e -> fold_loads f acc e)
        acc coords
  | Binop (_, a, b) -> fold_loads f (fold_loads f acc a) b
  | Unop (_, a) -> fold_loads f acc a
  | Select (c, a, b) -> fold_loads f (fold_loads f (fold_loads_cond f acc c) a) b

and fold_loads_cond f acc = function
  | Cmp (_, a, b) -> fold_loads f (fold_loads f acc a) b
  | And (a, b) | Or (a, b) -> fold_loads_cond f (fold_loads_cond f acc a) b
  | Not a -> fold_loads_cond f acc a

let rec arith_cost = function
  | Const _ | Var _ -> 0
  | Load (_, coords) ->
      Array.fold_left
        (fun acc c -> match c with Cvar _ -> acc | Cdyn e -> acc + 1 + arith_cost e)
        0 coords
  | Binop (_, a, b) -> 1 + arith_cost a + arith_cost b
  | Unop (_, a) -> 1 + arith_cost a
  | Select (c, a, b) -> 1 + cond_cost c + max (arith_cost a) (arith_cost b)

and cond_cost = function
  | Cmp (_, a, b) -> 1 + arith_cost a + arith_cost b
  | And (a, b) | Or (a, b) -> 1 + cond_cost a + cond_cost b
  | Not a -> 1 + cond_cost a

let rec max_var = function
  | Const _ -> -1
  | Var i -> i
  | Load (_, coords) ->
      Array.fold_left
        (fun acc c ->
          match c with Cvar { var; _ } -> max acc var | Cdyn e -> max acc (max_var e))
        (-1) coords
  | Binop (_, a, b) -> max (max_var a) (max_var b)
  | Unop (_, a) -> max_var a
  | Select (c, a, b) -> max (max_var_cond c) (max (max_var a) (max_var b))

and max_var_cond = function
  | Cmp (_, a, b) -> max (max_var a) (max_var b)
  | And (a, b) | Or (a, b) -> max (max_var_cond a) (max_var_cond b)
  | Not a -> max_var_cond a

let binop_name = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Min -> "min"
  | Max -> "max"
  | Mod -> "mod"

let unop_name = function
  | Neg -> "-"
  | Abs -> "abs"
  | Sqrt -> "sqrt"
  | Exp -> "exp"
  | Log -> "log"
  | Floor -> "floor"
  | Sin -> "sin"
  | Cos -> "cos"

let cmp_name = function
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Eq -> "=="
  | Ne -> "!="

let rec pp ppf = function
  | Const f -> Format.fprintf ppf "%g" f
  | Var i -> Format.fprintf ppf "v%d" i
  | Load (name, coords) ->
      Format.fprintf ppf "%s(%a)" name
        (Format.pp_print_array ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_coord)
        coords
  | Binop (((Min | Max | Mod) as op), a, b) ->
      Format.fprintf ppf "%s(%a, %a)" (binop_name op) pp a pp b
  | Binop (op, a, b) -> Format.fprintf ppf "(%a %s %a)" pp a (binop_name op) pp b
  | Unop (op, a) -> Format.fprintf ppf "%s(%a)" (unop_name op) pp a
  | Select (c, a, b) -> Format.fprintf ppf "select(%a, %a, %a)" pp_cond c pp a pp b

and pp_coord ppf = function
  | Cvar { var; scale; offset } ->
      if Rational.equal scale Rational.one && Rational.equal offset Rational.zero then
        Format.fprintf ppf "v%d" var
      else if Rational.equal scale Rational.one then
        Format.fprintf ppf "v%d+%a" var Rational.pp offset
      else Format.fprintf ppf "%a*v%d%s" Rational.pp scale var
             (if Rational.equal offset Rational.zero then ""
              else "+" ^ Rational.to_string offset)
  | Cdyn e -> Format.fprintf ppf "[%a]" pp e

and pp_cond ppf = function
  | Cmp (op, a, b) -> Format.fprintf ppf "%a %s %a" pp a (cmp_name op) pp b
  | And (a, b) -> Format.fprintf ppf "(%a && %a)" pp_cond a pp_cond b
  | Or (a, b) -> Format.fprintf ppf "(%a || %a)" pp_cond a pp_cond b
  | Not a -> Format.fprintf ppf "!(%a)" pp_cond a

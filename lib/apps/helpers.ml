open Pmdp_dsl

let ident_coords ndims = Array.init ndims Expr.cvar

let shifted ndims ~dim k =
  Array.init ndims (fun d -> if d = dim then Expr.cshift d k else Expr.cvar d)

let stencil name ~ndims ~dim taps =
  match taps with
  | [] -> invalid_arg "Helpers.stencil: empty taps"
  | (k0, w0) :: rest ->
      List.fold_left
        (fun acc (k, w) ->
          Expr.(acc +: (const w *: load name (shifted ndims ~dim k))))
        Expr.(const w0 *: load name (shifted ndims ~dim k0))
        rest

let blur3 name ~ndims ~dim =
  let third = 1.0 /. 3.0 in
  stencil name ~ndims ~dim [ (-1, third); (0, third); (1, third) ]

let downsample2 name ~ndims ~dim =
  let tap k w =
    Expr.(
      const w
      *: load name
           (Array.init ndims (fun d ->
                if d = dim then Expr.cscale d ~num:2 ~den:1 ~off:k else Expr.cvar d)))
  in
  Expr.(tap (-1) 0.25 +: tap 0 0.5 +: tap 1 0.25)

let upsample2 name ~ndims ~dim =
  let at shift =
    (* floor((x + shift) / 2) = floor(x/2 + shift/2) *)
    Expr.load name
      (Array.init ndims (fun d ->
           if d = dim then
             Expr.Cvar
               {
                 var = d;
                 scale = Pmdp_util.Rational.make 1 2;
                 offset = Pmdp_util.Rational.make shift 2;
               }
           else Expr.cvar d))
  in
  Expr.(const 0.5 *: (at 0 +: at 1))

let scaled paper_extent scale = max 16 (paper_extent / scale)

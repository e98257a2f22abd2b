(** Weighted linear least squares for tiny systems (the calibration's
    five parameters) — normal equations, Gaussian elimination with
    partial pivoting, and a [1e-9]-scaled ridge so rank-deficient
    designs degrade gracefully instead of failing. *)

val fit :
  rows:float array array ->
  ys:float array ->
  weights:float array ->
  float array option
(** Minimize [Σ weights.(i) * (rows.(i)·x - ys.(i))²] over [x].
    [None] on empty/ragged input or a singular (post-ridge) system. *)

(* Order statistics behind every figure the harness reports. *)

(* Nearest-rank rank of the [p]-th percentile among [n] samples: the
   smallest rank whose share of samples at or below it reaches p%.
   Integer arithmetic, because [0.9 *. 100.] is not exactly 90. *)
let rank ~p n = max 1 (((p * n) + 99) / 100)

let percentile ~p xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  a.(rank ~p n - 1)

(* Samples strictly beyond the [p]-th percentile's rank.  A percentile
   is reported only when at least ten samples lie beyond it. *)
let beyond ~p n = n - rank ~p n

let median xs = percentile ~p:50 xs
let sum xs = List.fold_left ( +. ) 0.0 xs
let mean = function [] -> 0.0 | xs -> sum xs /. float_of_int (List.length xs)

(* Dense linear-algebra pipelines (the paper's §1 notes the approach
   "is applicable to DSLs where computations are expressed through
   DAGs where each node is a loop nest working on dense matrices or
   tensors ... DSLs for dense linear algebra are a good match", citing
   TensorFlow/XLA).

   This example builds a transformer-style feed-forward block over a
   (batch x features) tensor — affine transform, GELU-ish activation,
   and a numerically-stable softmax with row reductions — and lets the
   DP model fuse the element-wise chains around the reductions,
   exactly the operator-fusion problem XLA solves.

   Run with: dune exec examples/tensor_fusion.exe *)

open Pmdp_dsl
open Expr

let () =
  let batch, features = (256, 512) in
  let dims2 = Stage.dim2 batch features in
  let dims1 = [| { Stage.dim_name = "b"; lo = 0; extent = batch } |] in
  let here name = load name [| cvar 0; cvar 1 |] in

  (* y = x * w + b, with per-feature weight and bias vectors. *)
  let scaled =
    Stage.pointwise "scaled" dims2
      ((load "x" [| cvar 0; cvar 1 |] *: load "w" [| cvar 1 |]) +: load "bias" [| cvar 1 |])
  in
  (* smooth activation (tanh-free GELU approximation) *)
  let activated =
    Stage.pointwise "activated" dims2
      (here "scaled" /: (const 1.0 +: exp_ (neg (here "scaled"))))
  in
  (* stable softmax over the feature dimension *)
  let rowmax =
    Stage.reduction "rowmax" dims1 ~op:Stage.Rmax ~init:neg_infinity
      ~rdom:[| (0, features) |]
      (load "activated" [| cvar 0; cdyn (var 1) |])
  in
  let shifted =
    Stage.pointwise "shifted" dims2 (exp_ (here "activated" -: load "rowmax" [| cvar 0 |]))
  in
  let rowsum =
    Stage.reduction "rowsum" dims1 ~op:Stage.Rsum ~init:0.0 ~rdom:[| (0, features) |]
      (load "shifted" [| cvar 0; cdyn (var 1) |])
  in
  let softmax =
    Stage.pointwise "softmax" dims2 (here "shifted" /: load "rowsum" [| cvar 0 |])
  in
  (* residual mix with the input *)
  let output =
    Stage.pointwise "output" dims2
      ((const 0.9 *: here "softmax") +: (const 0.1 *: load "x" [| cvar 0; cvar 1 |]))
  in
  let p =
    Pipeline.build ~name:"ffn_softmax"
      ~inputs:
        [
          Pipeline.input2 "x" batch features;
          { Pipeline.in_name = "w"; in_dims = [| { Stage.dim_name = "f"; lo = 0; extent = features } |] };
          { Pipeline.in_name = "bias"; in_dims = [| { Stage.dim_name = "f"; lo = 0; extent = features } |] };
        ]
      ~stages:[ scaled; activated; rowmax; shifted; rowsum; softmax; output ]
      ~outputs:[ "output" ]
  in
  Format.printf "%a@.@." Pipeline.pp p;

  let config = Pmdp_core.Cost_model.default_config Pmdp_machine.Machine.xeon in
  let sched, outcome = Pmdp_core.Schedule_spec.dp config p in
  Format.printf "DP fusion (XLA-style operator fusion), %d states explored:@.%a@.@."
    outcome.Pmdp_core.Dp_grouping.enumerated Pmdp_core.Schedule_spec.pp sched;

  (* Execute and validate. *)
  let rng = Pmdp_util.Rng.create 7 in
  let x = Pmdp_exec.Buffer.create "x" dims2 in
  Pmdp_exec.Buffer.fill x (fun _ -> Pmdp_util.Rng.float rng 2.0 -. 1.0);
  let vec name =
    let b = Pmdp_exec.Buffer.create name [| { Stage.dim_name = "f"; lo = 0; extent = features } |] in
    Pmdp_exec.Buffer.fill b (fun _ -> Pmdp_util.Rng.float rng 1.0);
    b
  in
  let inputs = [ ("x", x); ("w", vec "w"); ("bias", vec "bias") ] in
  let t0 = Unix.gettimeofday () in
  let results, _ = Pmdp_exec.Tiled_exec.run (Pmdp_exec.Tiled_exec.plan sched) ~inputs in
  let elapsed = Unix.gettimeofday () -. t0 in
  let reference = Pmdp_exec.Reference.run p ~inputs in
  let out = List.assoc "output" results in
  Format.printf "executed in %.1f ms; max |diff| vs reference = %g@." (elapsed *. 1000.0)
    (Pmdp_exec.Buffer.max_abs_diff out (List.assoc "output" reference));
  (* softmax rows sum to ~1 (checked via the softmax intermediate in the reference) *)
  let sm = List.assoc "softmax" reference in
  let row0 = ref 0.0 in
  for f = 0 to features - 1 do
    row0 := !row0 +. Pmdp_exec.Buffer.get_clamped sm [| 0; f |]
  done;
  Format.printf "softmax row 0 sums to %.6f@." !row0

(* Building your own pipeline against the public API.

   Defines a small edge-aware smoothing pipeline from scratch —
   gradient magnitude, edge mask, selective blur — schedules it with
   the DP model, inspects the cost model's verdicts for a few
   candidate groups, and executes.

   Run with: dune exec examples/custom_pipeline.exe *)

open Pmdp_dsl
open Expr

let () =
  let rows, cols = (384, 512) in
  let dims = Stage.dim2 rows cols in
  let here name = load name [| cvar 0; cvar 1 |] in
  (* Horizontal and vertical central differences of the input. *)
  let gx =
    Stage.pointwise "gx" dims
      ((load "img" [| cshift 0 1; cvar 1 |] -: load "img" [| cshift 0 (-1); cvar 1 |])
      /: const 2.0)
  in
  let gy =
    Stage.pointwise "gy" dims
      ((load "img" [| cvar 0; cshift 1 1 |] -: load "img" [| cvar 0; cshift 1 (-1) |])
      /: const 2.0)
  in
  let mag = Stage.pointwise "mag" dims (sqrt_ ((here "gx" *: here "gx") +: (here "gy" *: here "gy"))) in
  let smooth_x = Stage.pointwise "smooth_x" dims (Pmdp_apps.Helpers.blur3 "img" ~ndims:2 ~dim:0) in
  let smooth = Stage.pointwise "smooth" dims (Pmdp_apps.Helpers.blur3 "smooth_x" ~ndims:2 ~dim:1) in
  (* Blur flat areas, keep edges crisp. *)
  let result =
    Stage.pointwise "result" dims
      (select (here "mag" >: const 0.08) (load "img" [| cvar 0; cvar 1 |]) (here "smooth"))
  in
  let pipeline =
    Pipeline.build ~name:"edge_aware_smooth"
      ~inputs:[ Pipeline.input2 "img" rows cols ]
      ~stages:[ gx; gy; mag; smooth_x; smooth; result ]
      ~outputs:[ "result" ]
  in
  Format.printf "%a@.@." Pipeline.pp pipeline;

  let machine = Pmdp_machine.Machine.xeon in
  let config = Pmdp_core.Cost_model.default_config machine in

  (* Ask the cost model about specific candidate groups. *)
  let candidates =
    [ [ "gx"; "gy"; "mag" ]; [ "smooth_x"; "smooth" ]; [ "mag"; "result" ];
      [ "gx"; "gy"; "mag"; "smooth_x"; "smooth"; "result" ] ]
  in
  List.iter
    (fun names ->
      let ids = List.map (Pipeline.stage_id pipeline) names in
      let v = Pmdp_core.Cost_model.cost config pipeline ids in
      Format.printf "  cost{%s} = %a@." (String.concat "," names)
        Pmdp_core.Cost_model.pp_verdict v)
    candidates;

  (* Let the DP pick, then execute. *)
  let sched, outcome = Pmdp_core.Schedule_spec.dp config pipeline in
  Format.printf "@.DP chose (%d states explored):@.%a@."
    outcome.Pmdp_core.Dp_grouping.enumerated Pmdp_core.Schedule_spec.pp sched;
  let img = Pmdp_apps.Images.gray "img" ~rows ~cols in
  let results, _ = Pmdp_exec.Tiled_exec.run (Pmdp_exec.Tiled_exec.plan sched) ~inputs:[ ("img", img) ] in
  let reference = Pmdp_exec.Reference.run pipeline ~inputs:[ ("img", img) ] in
  Format.printf "max |diff| vs reference: %g@."
    (Pmdp_exec.Buffer.max_abs_diff (List.assoc "result" results) (List.assoc "result" reference))

(* Tests for stage inlining (the §6.2 extension) and the dot
   exporter. *)

open Pmdp_dsl
module Buffer = Pmdp_exec.Buffer
module Reference = Pmdp_exec.Reference

let here name = Expr.(load name [| cvar 0; cvar 1 |])

let blur2d rows cols =
  let dims = Stage.dim2 rows cols in
  let blurx = Stage.pointwise "blurx" dims (Pmdp_apps.Helpers.blur3 "img" ~ndims:2 ~dim:0) in
  let blury = Stage.pointwise "blury" dims (Pmdp_apps.Helpers.blur3 "blurx" ~ndims:2 ~dim:1) in
  Pipeline.build ~name:"blur2"
    ~inputs:[ Pipeline.input2 "img" rows cols ]
    ~stages:[ blurx; blury ] ~outputs:[ "blury" ]

let outputs_equal p1 p2 inputs out =
  let r1 = Reference.run p1 ~inputs and r2 = Reference.run p2 ~inputs in
  Buffer.max_abs_diff (List.assoc out r1) (List.assoc out r2)

let test_inline_blur_semantics () =
  let p = blur2d 24 28 in
  let p' = Inline.inline_stage p "blurx" in
  Alcotest.(check int) "one stage left" 1 (Pipeline.n_stages p');
  let img = Pmdp_apps.Images.gray ~seed:3 "img" ~rows:24 ~cols:28 in
  Alcotest.(check (float 1e-12)) "identical results" 0.0
    (outputs_equal p p' [ ("img", img) ] "blury")

let test_inline_strided_consumer () =
  (* Consumer reads the producer at 2x+1 (deinterleave-style): the
     composed coordinates must stay exact. *)
  let dims = Stage.dim2 16 16 and half = Stage.dim2 8 16 in
  let a = Stage.pointwise "a" dims Expr.(here "img" *: const 2.0) in
  let b =
    Stage.pointwise "b" half
      Expr.(load "a" [| cscale 0 ~num:2 ~den:1 ~off:1; cvar 1 |])
  in
  let p =
    Pipeline.build ~name:"strided" ~inputs:[ Pipeline.input2 "img" 16 16 ]
      ~stages:[ a; b ] ~outputs:[ "b" ]
  in
  let p' = Inline.inline_stage p "a" in
  let img = Pmdp_apps.Images.gray ~seed:5 "img" ~rows:16 ~cols:16 in
  Alcotest.(check (float 1e-12)) "strided inline exact" 0.0
    (outputs_equal p p' [ ("img", img) ] "b")

let test_inline_downsample_consumer () =
  (* Consumer reads at floor(x/2): composition through a fractional
     coordinate must go through the dynamic fallback and still agree. *)
  let dims = Stage.dim2 16 16 in
  let a =
    Stage.pointwise "a" dims
      Expr.(load "img" [| cshift 0 1; cvar 1 |] +: const 1.0)
  in
  let b =
    Stage.pointwise "b" dims Expr.(load "a" [| cscale 0 ~num:1 ~den:2 ~off:0; cvar 1 |])
  in
  let p =
    Pipeline.build ~name:"down" ~inputs:[ Pipeline.input2 "img" 16 16 ]
      ~stages:[ a; b ] ~outputs:[ "b" ]
  in
  let p' = Inline.inline_stage p "a" in
  let img = Pmdp_apps.Images.gray ~seed:7 "img" ~rows:16 ~cols:16 in
  Alcotest.(check (float 1e-9)) "fractional inline agrees" 0.0
    (outputs_equal p p' [ ("img", img) ] "b")

let test_inline_rejects_output () =
  let p = blur2d 8 8 in
  Alcotest.(check bool) "output refused" true
    (try ignore (Inline.inline_stage p "blury"); false with Invalid_argument _ -> true)

let test_inline_rejects_reduction () =
  let p = Pmdp_apps.Bilateral_grid.build ~scale:32 () in
  Alcotest.(check bool) "reduction refused" true
    (try ignore (Inline.inline_stage p "grid"); false with Invalid_argument _ -> true)

let test_inline_unknown () =
  let p = blur2d 8 8 in
  Alcotest.(check bool) "unknown refused" true
    (try ignore (Inline.inline_stage p "ghost"); false with Invalid_argument _ -> true)

let interior_diff b1 b2 margin =
  (* largest |diff| over points at least [margin] from every spatial
     border (inlining may differ within a stencil radius of borders,
     where clamping composes differently; see Inline's doc) *)
  let dims = b1.Buffer.dims in
  let nd = Array.length dims in
  let worst = ref 0.0 in
  let idx = Array.map (fun (d : Stage.dim) -> d.Stage.lo) dims in
  let rec go d =
    if d = nd then begin
      let v = Float.abs (Buffer.get_clamped b1 idx -. Buffer.get_clamped b2 idx) in
      if v > !worst then worst := v
    end
    else begin
      let dim = dims.(d) in
      let m = if d >= nd - 2 then margin else 0 in
      for x = dim.Stage.lo + m to dim.Stage.lo + dim.Stage.extent - 1 - m do
        idx.(d) <- x;
        go (d + 1)
      done
    end
  in
  go 0;
  !worst

let test_inline_all_camera () =
  (* The H-manual advantage on CP: inlining the cheap wrapper stages
     shrinks the pipeline while preserving interior semantics. *)
  let p = Pmdp_apps.Camera_pipe.build ~scale:64 () in
  let p' = Inline.inline_all ~max_cost:3 p in
  Alcotest.(check bool) "fewer stages" true (Pipeline.n_stages p' < Pipeline.n_stages p);
  let app = Pmdp_apps.Registry.find_exn "camera_pipe" in
  let inputs = app.Pmdp_apps.Registry.inputs ~seed:1 p in
  let r1 = Reference.run p ~inputs and r2 = Reference.run p' ~inputs in
  Alcotest.(check (float 1e-9)) "same interior output" 0.0
    (interior_diff (List.assoc "output" r1) (List.assoc "output" r2) 8)

let test_inline_then_schedule () =
  (* Inlined pipelines must still schedule and execute exactly. *)
  let p = Inline.inline_all ~max_cost:4 (Pmdp_apps.Unsharp.build ~scale:32 ()) in
  let config = Pmdp_core.Cost_model.default_config Pmdp_machine.Machine.xeon in
  let sched = fst (Pmdp_core.Schedule_spec.dp config p) in
  let app = Pmdp_apps.Registry.find_exn "unsharp" in
  let inputs = app.Pmdp_apps.Registry.inputs ~seed:1 p in
  let tiled, _ = Pmdp_exec.Tiled_exec.run (Pmdp_exec.Tiled_exec.plan sched) ~inputs in
  let reference = Reference.run p ~inputs in
  Alcotest.(check (float 0.0)) "tiled inlined exact" 0.0
    (Buffer.max_abs_diff (List.assoc "masked" tiled) (List.assoc "masked" reference))

(* -------------------- dot -------------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_dot_pipeline () =
  let p = blur2d 8 8 in
  let dot = Dot.pipeline p in
  Alcotest.(check bool) "digraph" true (contains dot "digraph \"blur2\"");
  Alcotest.(check bool) "edge" true (contains dot "\"blurx\" -> \"blury\"");
  Alcotest.(check bool) "input edge" true (contains dot "\"img\" -> \"blurx\"")

let test_dot_grouping () =
  let p = blur2d 8 8 in
  let dot = Dot.grouping p [ [ 0; 1 ] ] in
  Alcotest.(check bool) "cluster" true (contains dot "subgraph cluster_0")

let test_dot_reduction_shape () =
  let p = Pmdp_apps.Bilateral_grid.build ~scale:32 () in
  Alcotest.(check bool) "hexagon for reduction" true
    (contains (Dot.pipeline p) "\"grid\" [shape=hexagon]")

let () =
  Alcotest.run "pmdp_inline"
    [
      ( "inline",
        [
          Alcotest.test_case "blur semantics" `Quick test_inline_blur_semantics;
          Alcotest.test_case "strided consumer" `Quick test_inline_strided_consumer;
          Alcotest.test_case "downsample consumer" `Quick test_inline_downsample_consumer;
          Alcotest.test_case "rejects output" `Quick test_inline_rejects_output;
          Alcotest.test_case "rejects reduction" `Quick test_inline_rejects_reduction;
          Alcotest.test_case "rejects unknown" `Quick test_inline_unknown;
          Alcotest.test_case "inline_all camera" `Quick test_inline_all_camera;
          Alcotest.test_case "schedule after inline" `Quick test_inline_then_schedule;
        ] );
      ( "dot",
        [
          Alcotest.test_case "pipeline export" `Quick test_dot_pipeline;
          Alcotest.test_case "grouping clusters" `Quick test_dot_grouping;
          Alcotest.test_case "reduction shape" `Quick test_dot_reduction_shape;
        ] );
    ]

(* Edge cases across the stack: unusual dimensionalities, non-zero
   domain origins, extreme tile sizes, deep chains, and multi-output
   pipelines — all checked end-to-end against the reference. *)

open Pmdp_dsl
module Buffer = Pmdp_exec.Buffer
module Reference = Pmdp_exec.Reference
module Tiled_exec = Pmdp_exec.Tiled_exec
module Schedule_spec = Pmdp_core.Schedule_spec
module Cost_model = Pmdp_core.Cost_model
module Machine = Pmdp_machine.Machine

let config = Cost_model.default_config Machine.xeon

let exact p inputs sched =
  let tiled, _ = Tiled_exec.run (Tiled_exec.plan sched) ~inputs in
  let reference = Reference.run p ~inputs in
  List.iter
    (fun (name, buf) ->
      Alcotest.(check (float 0.0)) ("exact " ^ name) 0.0
        (Buffer.max_abs_diff buf (List.assoc name reference)))
    tiled

let fill_input name dims seed =
  let b = Buffer.create name dims in
  let rng = Pmdp_util.Rng.create seed in
  Buffer.fill b (fun _ -> Pmdp_util.Rng.float rng 1.0);
  b

(* -------------------- 1-D pipelines -------------------- *)

let test_1d_pipeline () =
  let dims = [| { Stage.dim_name = "x"; lo = 0; extent = 300 } |] in
  let open Expr in
  let a =
    Stage.pointwise "a" dims
      ((load "sig" [| cshift 0 (-2) |] +: load "sig" [| cvar 0 |] +: load "sig" [| cshift 0 2 |])
      /: const 3.0)
  in
  let b = Stage.pointwise "b" dims (load "a" [| cshift 0 (-1) |] -: load "a" [| cshift 0 1 |]) in
  let p =
    Pipeline.build ~name:"sig1d"
      ~inputs:[ { Pipeline.in_name = "sig"; in_dims = dims } ]
      ~stages:[ a; b ] ~outputs:[ "b" ]
  in
  let inputs = [ ("sig", fill_input "sig" dims 3) ] in
  exact p inputs (fst (Schedule_spec.dp config p));
  exact p inputs (Schedule_spec.with_tiles p [ ([ 0; 1 ], [| 7 |]) ])

(* -------------------- non-zero domain origin -------------------- *)

let test_nonzero_lo () =
  let dims = [| { Stage.dim_name = "x"; lo = 5; extent = 40 }; { Stage.dim_name = "y"; lo = -3; extent = 37 } |] in
  let open Expr in
  let a = Stage.pointwise "a" dims (load "img" [| cshift 0 (-1); cshift 1 1 |] *: const 0.5) in
  let b = Stage.pointwise "b" dims (load "a" [| cvar 0; cshift 1 (-1) |] +: load "a" [| cvar 0; cshift 1 1 |]) in
  let p =
    Pipeline.build ~name:"shifted_domain"
      ~inputs:[ { Pipeline.in_name = "img"; in_dims = dims } ]
      ~stages:[ a; b ] ~outputs:[ "b" ]
  in
  let inputs = [ ("img", fill_input "img" dims 11) ] in
  exact p inputs (fst (Schedule_spec.dp config p));
  exact p inputs (Schedule_spec.with_tiles p [ ([ 0; 1 ], [| 8; 16 |]) ])

(* -------------------- single-point and tiny extents -------------------- *)

let test_tiny_extents () =
  let dims = [| { Stage.dim_name = "x"; lo = 0; extent = 1 }; { Stage.dim_name = "y"; lo = 0; extent = 3 } |] in
  let open Expr in
  let a = Stage.pointwise "a" dims (load "img" [| cvar 0; cvar 1 |] +: const 1.0) in
  let b = Stage.pointwise "b" dims (load "a" [| cvar 0; cshift 1 1 |]) in
  let p =
    Pipeline.build ~name:"tiny"
      ~inputs:[ { Pipeline.in_name = "img"; in_dims = dims } ]
      ~stages:[ a; b ] ~outputs:[ "b" ]
  in
  let inputs = [ ("img", fill_input "img" dims 4) ] in
  exact p inputs (Schedule_spec.with_tiles p [ ([ 0; 1 ], [| 1; 1 |]) ]);
  exact p inputs (Schedule_spec.with_tiles p [ ([ 0; 1 ], [| 100; 100 |]) ])

(* -------------------- tile sizes at extremes -------------------- *)

let test_tile_one_everywhere () =
  let p = Pmdp_apps.Blur.build ~rows:17 ~cols:19 () in
  let inputs = Pmdp_apps.Blur.inputs ~seed:9 p in
  exact p inputs (Schedule_spec.with_tiles p [ ([ 0; 1 ], [| 1; 1; 1 |]) ])

let test_tile_larger_than_domain () =
  let p = Pmdp_apps.Blur.build ~rows:17 ~cols:19 () in
  let inputs = Pmdp_apps.Blur.inputs ~seed:10 p in
  exact p inputs (Schedule_spec.with_tiles p [ ([ 0; 1 ], [| 99; 999; 999 |]) ])

(* -------------------- deep chain with growing stencils -------------------- *)

let test_deep_stencil_chain () =
  let dims = Stage.dim2 40 44 in
  let stages =
    List.init 10 (fun i ->
        let src = if i = 0 then "img" else Printf.sprintf "s%d" (i - 1) in
        Stage.pointwise (Printf.sprintf "s%d" i) dims
          (Pmdp_apps.Helpers.blur3 src ~ndims:2 ~dim:(i mod 2)))
  in
  let p =
    Pipeline.build ~name:"deep" ~inputs:[ Pipeline.input2 "img" 40 44 ] ~stages
      ~outputs:[ "s9" ]
  in
  let inputs = [ ("img", fill_input "img" (Stage.dim2 40 44) 13) ] in
  (* all fused: the expansions reach 10 on each side *)
  exact p inputs (Schedule_spec.with_tiles p [ ([ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ], [| 8; 8 |]) ]);
  exact p inputs (fst (Schedule_spec.dp config p))

(* -------------------- multiple outputs -------------------- *)

let test_multiple_outputs () =
  let dims = Stage.dim2 30 30 in
  let open Expr in
  let a = Stage.pointwise "a" dims (Pmdp_apps.Helpers.blur3 "img" ~ndims:2 ~dim:0) in
  let b = Stage.pointwise "b" dims (load "a" [| cvar 0; cvar 1 |] *: const 2.0) in
  let c = Stage.pointwise "c" dims (load "a" [| cvar 0; cvar 1 |] +: const 1.0) in
  let p =
    Pipeline.build ~name:"multi" ~inputs:[ Pipeline.input2 "img" 30 30 ]
      ~stages:[ a; b; c ]
      ~outputs:[ "b"; "c" ]
  in
  let inputs = [ ("img", fill_input "img" dims 17) ] in
  let sched = fst (Schedule_spec.dp config p) in
  let results, _ = Tiled_exec.run (Tiled_exec.plan sched) ~inputs in
  Alcotest.(check bool) "b present" true (List.mem_assoc "b" results);
  Alcotest.(check bool) "c present" true (List.mem_assoc "c" results);
  exact p inputs sched

(* -------------------- upsample/downsample odd extents -------------------- *)

let test_updown_odd_extents () =
  (* Odd extents make floor-division boundaries interesting. *)
  let open Expr in
  let base = [| { Stage.dim_name = "x"; lo = 0; extent = 33 }; { Stage.dim_name = "y"; lo = 0; extent = 41 } |] in
  let halfd = [| { Stage.dim_name = "x"; lo = 0; extent = 17 }; { Stage.dim_name = "y"; lo = 0; extent = 41 } |] in
  let a = Stage.pointwise "a" base (load "img" [| cvar 0; cvar 1 |]) in
  let down = Stage.pointwise "down" halfd (Pmdp_apps.Helpers.downsample2 "a" ~ndims:2 ~dim:0) in
  let up = Stage.pointwise "up" base (Pmdp_apps.Helpers.upsample2 "down" ~ndims:2 ~dim:0) in
  let out = Stage.pointwise "out" base (load "up" [| cvar 0; cvar 1 |] +: load "a" [| cvar 0; cvar 1 |]) in
  let p =
    Pipeline.build ~name:"updown"
      ~inputs:[ { Pipeline.in_name = "img"; in_dims = base } ]
      ~stages:[ a; down; up; out ] ~outputs:[ "out" ]
  in
  let inputs = [ ("img", fill_input "img" base 23) ] in
  exact p inputs (fst (Schedule_spec.dp config p));
  (* force everything into one group at several odd tile sizes *)
  List.iter
    (fun tile -> exact p inputs (Schedule_spec.with_tiles p [ ([ 0; 1; 2; 3 ], tile) ]))
    [ [| 5; 7 |]; [| 3; 41 |]; [| 33; 3 |] ]

let prop_updown_random_tiles =
  QCheck.Test.make ~name:"odd up/down pyramid exact under random tiles" ~count:20
    QCheck.(pair (int_range 1 40) (int_range 1 50))
    (fun (tx, ty) ->
      let open Expr in
      let base = [| { Stage.dim_name = "x"; lo = 0; extent = 29 }; { Stage.dim_name = "y"; lo = 0; extent = 31 } |] in
      let halfd = [| { Stage.dim_name = "x"; lo = 0; extent = 15 }; { Stage.dim_name = "y"; lo = 0; extent = 31 } |] in
      let a = Stage.pointwise "a" base (load "img" [| cvar 0; cvar 1 |]) in
      let down = Stage.pointwise "down" halfd (Pmdp_apps.Helpers.downsample2 "a" ~ndims:2 ~dim:0) in
      let up = Stage.pointwise "up" base (Pmdp_apps.Helpers.upsample2 "down" ~ndims:2 ~dim:0) in
      let p =
        Pipeline.build ~name:"updown_rand"
          ~inputs:[ { Pipeline.in_name = "img"; in_dims = base } ]
          ~stages:[ a; down; up ] ~outputs:[ "up" ]
      in
      let inputs = [ ("img", fill_input "img" base (tx + (100 * ty))) ] in
      let sched = Schedule_spec.with_tiles p [ ([ 0; 1; 2 ], [| tx; ty |]) ] in
      let tiled, _ = Tiled_exec.run (Tiled_exec.plan sched) ~inputs in
      let reference = Reference.run p ~inputs in
      Buffer.max_abs_diff (List.assoc "up" tiled) (List.assoc "up" reference) = 0.0)

(* -------------------- 4-D stage grouping -------------------- *)

let test_4d_fused () =
  let gd =
    [|
      { Stage.dim_name = "w"; lo = 0; extent = 2 };
      { Stage.dim_name = "z"; lo = 0; extent = 6 };
      { Stage.dim_name = "x"; lo = 0; extent = 10 };
      { Stage.dim_name = "y"; lo = 0; extent = 12 };
    |]
  in
  let open Expr in
  let a =
    Stage.pointwise "a" gd
      (load "grid" [| cvar 0; cvar 1; cvar 2; cvar 3 |] *: const 2.0)
  in
  let b =
    Stage.pointwise "b" gd
      (Pmdp_apps.Helpers.stencil "a" ~ndims:4 ~dim:1 [ (-1, 0.25); (0, 0.5); (1, 0.25) ])
  in
  let c =
    Stage.pointwise "c" gd
      (Pmdp_apps.Helpers.stencil "b" ~ndims:4 ~dim:2 [ (-1, 0.25); (0, 0.5); (1, 0.25) ])
  in
  let p =
    Pipeline.build ~name:"grid4"
      ~inputs:[ { Pipeline.in_name = "grid"; in_dims = gd } ]
      ~stages:[ a; b; c ] ~outputs:[ "c" ]
  in
  let inputs = [ ("grid", fill_input "grid" gd 31) ] in
  exact p inputs (Schedule_spec.with_tiles p [ ([ 0; 1; 2 ], [| 1; 3; 4; 5 |]) ]);
  exact p inputs (fst (Schedule_spec.dp config p))

(* -------------------- mixed-dimensionality groups -------------------- *)

let test_2d_into_3d_group () =
  let d2 = Stage.dim2 20 24 and d3 = Stage.dim3 3 20 24 in
  let open Expr in
  let m = Stage.pointwise "m" d2 (Pmdp_apps.Helpers.blur3 "mask" ~ndims:2 ~dim:1) in
  let apply =
    Stage.pointwise "apply" d3
      (load "img" (Pmdp_apps.Helpers.ident_coords 3) *: load "m" [| cvar 1; cvar 2 |])
  in
  let p =
    Pipeline.build ~name:"mix"
      ~inputs:[ Pipeline.input3 "img" 3 20 24; Pipeline.input2 "mask" 20 24 ]
      ~stages:[ m; apply ] ~outputs:[ "apply" ]
  in
  let inputs =
    [ ("img", fill_input "img" d3 41); ("mask", fill_input "mask" d2 43) ]
  in
  exact p inputs (Schedule_spec.with_tiles p [ ([ 0; 1 ], [| 2; 7; 9 |]) ]);
  exact p inputs (fst (Schedule_spec.dp config p))

let () =
  Alcotest.run "pmdp_edge_cases"
    [
      ( "edge",
        [
          Alcotest.test_case "1-D pipeline" `Quick test_1d_pipeline;
          Alcotest.test_case "non-zero domain origin" `Quick test_nonzero_lo;
          Alcotest.test_case "tiny extents" `Quick test_tiny_extents;
          Alcotest.test_case "tile = 1 everywhere" `Quick test_tile_one_everywhere;
          Alcotest.test_case "tile > domain" `Quick test_tile_larger_than_domain;
          Alcotest.test_case "deep stencil chain" `Quick test_deep_stencil_chain;
          Alcotest.test_case "multiple outputs" `Quick test_multiple_outputs;
          Alcotest.test_case "up/down odd extents" `Quick test_updown_odd_extents;
          QCheck_alcotest.to_alcotest prop_updown_random_tiles;
          Alcotest.test_case "4-D fused group" `Quick test_4d_fused;
          Alcotest.test_case "2-D into 3-D group" `Quick test_2d_into_3d_group;
        ] );
    ]

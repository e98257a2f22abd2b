(* Tests for the static schedule checker: clean schedules verify with
   zero errors, and each seeded bug is caught by the intended pass
   with the intended diagnostic kind. *)

open Pmdp_dsl
open Expr
module GA = Pmdp_analysis.Group_analysis
module Spec = Pmdp_core.Schedule_spec
module V = Pmdp_verify.Verify
module D = Pmdp_verify.Diagnostic

let dims = Stage.dim2 64 64

let blur () =
  let blurx = Stage.pointwise "blurx" dims (Pmdp_apps.Helpers.blur3 "img" ~ndims:2 ~dim:0) in
  let blury = Stage.pointwise "blury" dims (Pmdp_apps.Helpers.blur3 "blurx" ~ndims:2 ~dim:1) in
  Pipeline.build ~name:"blur2"
    ~inputs:[ Pipeline.input2 "img" 64 64 ]
    ~stages:[ blurx; blury ] ~outputs:[ "blury" ]

let config = Pmdp_core.Cost_model.default_config Pmdp_machine.Machine.xeon

let find ?severity ~pass ~kind ds =
  List.exists
    (fun (d : D.t) ->
      d.D.pass = pass && d.D.kind = kind
      && match severity with None -> true | Some s -> d.D.severity = s)
    ds

(* -------------------- clean schedules -------------------- *)

let test_clean_dp () =
  let p = blur () in
  let spec, _ = Spec.dp config p in
  let ds = V.check_schedule spec in
  Alcotest.(check bool) "no errors" true (V.is_clean ds);
  Alcotest.(check int) "no diagnostics at all" 0 (List.length ds)

let test_clean_manual_groups () =
  let p = blur () in
  let spec = Spec.with_tiles p [ ([ 0; 1 ], [| 16; 16 |]) ] in
  Alcotest.(check bool) "no errors" true (V.is_clean (V.check_schedule spec))

(* -------------------- seeded legality bugs -------------------- *)

(* Tile shrunk to the overlap width: the legality pass must warn that
   every tile recomputes at least as much as it produces. *)
let test_seeded_degenerate_tile () =
  let p = blur () in
  let spec = Spec.with_tiles p [ ([ 0; 1 ], [| 64; 1 |]) ] in
  let ds = V.check_schedule spec in
  Alcotest.(check bool) "degenerate-overlap planted" true
    (find ~severity:D.Warning ~pass:D.Legality ~kind:"degenerate-overlap" ds)

(* Groups listed consumers-first: catchable only by re-deriving the
   inter-group dependences. *)
let test_seeded_group_order () =
  let p = blur () in
  let spec =
    {
      Spec.pipeline = p;
      groups =
        [
          { Spec.stages = [ 1 ]; tile_sizes = [| 64; 64 |] };
          { Spec.stages = [ 0 ]; tile_sizes = [| 64; 64 |] };
        ];
    }
  in
  let ds = V.check_schedule spec in
  Alcotest.(check bool) "group-order planted" true
    (find ~severity:D.Error ~pass:D.Legality ~kind:"group-order" ds)

let test_seeded_oversized_tile () =
  let p = blur () in
  let spec =
    { Spec.pipeline = p; groups = [ { Spec.stages = [ 0; 1 ]; tile_sizes = [| 100; 100 |] } ] }
  in
  let ds = V.check_schedule spec in
  Alcotest.(check bool) "tile-exceeds-extent planted" true
    (find ~severity:D.Error ~pass:D.Legality ~kind:"tile-exceeds-extent" ds)

(* -------------------- seeded bounds bug -------------------- *)

(* Corrupted access offset: blury reads blurx 1000 columns away, far
   outside its domain. *)
let test_seeded_corrupt_offset () =
  let blurx = Stage.pointwise "blurx" dims (Pmdp_apps.Helpers.blur3 "img" ~ndims:2 ~dim:0) in
  let blury = Stage.pointwise "blury" dims (load "blurx" [| cvar 0; cshift 1 1000 |]) in
  let p =
    Pipeline.build ~name:"blur_bad"
      ~inputs:[ Pipeline.input2 "img" 64 64 ]
      ~stages:[ blurx; blury ] ~outputs:[ "blury" ]
  in
  let spec = Spec.with_tiles p [ ([ 0; 1 ], [| 16; 16 |]) ] in
  let ds = V.check_schedule spec in
  Alcotest.(check bool) "out-of-domain planted" true
    (find ~severity:D.Error ~pass:D.Bounds ~kind:"out-of-domain" ds)

(* -------------------- seeded race bug -------------------- *)

(* The output stage duplicated into a second group: two groups write
   the same live-out buffer. *)
let test_seeded_multi_writer () =
  let p = blur () in
  let spec =
    {
      Spec.pipeline = p;
      groups =
        [
          { Spec.stages = [ 0; 1 ]; tile_sizes = [| 64; 64 |] };
          { Spec.stages = [ 1 ]; tile_sizes = [| 64; 64 |] };
        ];
    }
  in
  let ds = V.check_schedule spec in
  Alcotest.(check bool) "multi-writer planted" true
    (find ~severity:D.Error ~pass:D.Race ~kind:"multi-writer" ds)

(* -------------------- lint -------------------- *)

(* Tile of width 1 along the innermost dimension: legal, but all
   spatial locality is gone — the lint pass must say so. *)
let test_lint_one_wide_innermost () =
  let p = blur () in
  let spec = Spec.with_tiles p [ ([ 0; 1 ], [| 64; 1 |]) ] in
  let ds = V.check_schedule spec in
  Alcotest.(check bool) "one-wide-innermost planted" true
    (find ~severity:D.Warning ~pass:D.Lint ~kind:"one-wide-innermost" ds)

(* Tile larger than the iteration extent: lowering clamps it, but the
   schedule as written asks for a meaningless tiling. *)
let test_lint_tile_oversized () =
  let p = blur () in
  let spec =
    { Spec.pipeline = p; groups = [ { Spec.stages = [ 0; 1 ]; tile_sizes = [| 100; 100 |] } ] }
  in
  let ds = V.check_schedule spec in
  Alcotest.(check bool) "tile-oversized planted" true
    (find ~severity:D.Warning ~pass:D.Lint ~kind:"tile-oversized" ds)

(* Clean in-tree schedules must not trip the new tile-size lints. *)
let test_lint_clean_tiles () =
  let p = blur () in
  let spec = Spec.with_tiles p [ ([ 0; 1 ], [| 16; 16 |]) ] in
  let ds = V.check_schedule spec in
  Alcotest.(check bool) "no one-wide-innermost" false
    (find ~pass:D.Lint ~kind:"one-wide-innermost" ds);
  Alcotest.(check bool) "no tile-oversized" false
    (find ~pass:D.Lint ~kind:"tile-oversized" ds)

let test_lint_unused_stage () =
  let blurx = Stage.pointwise "blurx" dims (Pmdp_apps.Helpers.blur3 "img" ~ndims:2 ~dim:0) in
  let blury = Stage.pointwise "blury" dims (Pmdp_apps.Helpers.blur3 "blurx" ~ndims:2 ~dim:1) in
  let dead = Stage.pointwise "dead" dims (load "img" [| cvar 0; cvar 1 |]) in
  let p =
    Pipeline.build ~name:"blur_dead"
      ~inputs:[ Pipeline.input2 "img" 64 64 ]
      ~stages:[ blurx; blury; dead ] ~outputs:[ "blury" ]
  in
  let ds = V.check_pipeline p in
  Alcotest.(check bool) "unused-stage" true
    (find ~severity:D.Warning ~pass:D.Lint ~kind:"unused-stage" ds)

(* -------------------- validate hardening -------------------- *)

let invalid f = try f (); false with Invalid_argument _ -> true

let test_validate_rejects_bad_tiles () =
  let p = blur () in
  let zero = { Spec.pipeline = p; groups = [ { Spec.stages = [ 0; 1 ]; tile_sizes = [| 0; 64 |] } ] } in
  Alcotest.(check bool) "zero tile rejected" true (invalid (fun () -> Spec.validate zero));
  let empty = { Spec.pipeline = p; groups = [ { Spec.stages = [ 0; 1 ]; tile_sizes = [||] } ] } in
  Alcotest.(check bool) "empty tile array rejected" true (invalid (fun () -> Spec.validate empty))

let test_legality_oracle () =
  let p = blur () in
  (* passes the basic partition/order/positivity checks, but the tile
     exceeds the scaled extent: only the legality check rejects it *)
  let bad =
    { Spec.pipeline = p; groups = [ { Spec.stages = [ 0; 1 ]; tile_sizes = [| 100; 100 |] } ] }
  in
  Spec.validate bad;
  match V.check_legality bad with
  | Ok () -> Alcotest.fail "check_legality accepted a tile past the scaled extent"
  | Error d ->
      Alcotest.(check string) "first error" "legality/tile-exceeds-extent"
        (D.pass_name d.D.pass ^ "/" ^ d.D.kind)

(* The tile search starts from blur's DP schedule and doubles and
   halves tiles freely; every candidate it can return must pass the
   legality check, whatever process it runs in.  Seed 0, budget 64 is
   a walk on which a tile of 4 over a scaled extent of 3 scores best
   under the model. *)
let test_tuned_winner_legal () =
  let module Search = Pmdp_tune.Search in
  let p = (Pmdp_apps.Registry.find_exn "blur").Pmdp_apps.Registry.build ~scale:32 in
  let spec = Pmdp_core.Scheduler.schedule Pmdp_core.Scheduler.Dp config p in
  let tuned, _ =
    Search.tune_spec ~seed:0 ~budget:64 ~evaluate:(Search.model_evaluate config) spec
  in
  match V.check_legality tuned with
  | Ok () -> ()
  | Error d -> Alcotest.failf "tuned winner is illegal: %s" (D.to_string d)

(* -------------------- machine-readable failures -------------------- *)

let test_failure_format () =
  Alcotest.(check string) "kind slug" "dynamic-access"
    (GA.failure_kind (GA.Dynamic_access { producer = "a"; consumer = "b" }));
  Alcotest.(check string) "pp form" "not-connected: group is not a connected subgraph"
    (Format.asprintf "%a" GA.pp_failure GA.Not_connected);
  let samples =
    [
      GA.Dynamic_access { producer = "a"; consumer = "b" };
      GA.Misaligned { producer = "a"; consumer = "b" };
      GA.Inconsistent_scale { stage = "a"; dim = 1 };
      GA.Fused_reduction "a";
      GA.Rvar_access { producer = "a"; consumer = "b" };
      GA.Zero_scale_access { producer = "a"; consumer = "b" };
      GA.Not_connected;
    ]
  in
  List.iter
    (fun f ->
      let s = Format.asprintf "%a" GA.pp_failure f in
      Alcotest.(check bool) "one line" false (String.contains s '\n');
      Alcotest.(check bool) "kind: prefix" true
        (String.length s > String.length (GA.failure_kind f)
        && String.sub s 0 (String.length (GA.failure_kind f)) = GA.failure_kind f))
    samples

(* -------------------- affine interval arithmetic -------------------- *)

module Affine = Pmdp_verify.Affine
module Q = Pmdp_util.Rational

let q = Q.make

(* floor (a*c + b), the exact quantity both interval functions bound *)
let fl a b c = Q.floor (Q.add (Q.mul a (Q.of_int c)) b)

let test_affine_interval_brute () =
  let cases =
    [ (Q.one, Q.zero); (q 1 2, Q.zero); (q 1 2, q 1 3); (q 3 2, q (-5) 3);
      (q (-1) 3, Q.zero); (q (-2) 1, q 7 5); (Q.zero, q 9 4) ]
  in
  List.iter
    (fun (a, b) ->
      let clo, chi = (-7, 9) in
      let lo, hi = Affine.index_interval ~a ~b ~clo ~chi in
      let vals = List.init (chi - clo + 1) (fun i -> fl a b (clo + i)) in
      Alcotest.(check int) "exact min" (List.fold_left min max_int vals) lo;
      Alcotest.(check int) "exact max" (List.fold_left max min_int vals) hi)
    cases

let test_affine_point_interval () =
  let a = q 3 2 and b = q (-1) 4 in
  let lo, hi = Affine.index_interval ~a ~b ~clo:5 ~chi:5 in
  Alcotest.(check int) "point lo" (fl a b 5) lo;
  Alcotest.(check int) "point hi" (fl a b 5) hi

let test_affine_empty_interval () =
  Alcotest.(check bool) "index_interval rejects empty" true
    (invalid (fun () -> ignore (Affine.index_interval ~a:Q.one ~b:Q.zero ~clo:5 ~chi:4)));
  Alcotest.(check bool) "index_interval rejects negative extent" true
    (invalid (fun () -> ignore (Affine.index_interval ~a:Q.one ~b:Q.zero ~clo:0 ~chi:(-3))));
  Alcotest.(check bool) "exact_offsets rejects empty" true
    (invalid (fun () ->
         ignore (Affine.exact_offsets ~s_p:1 ~s_c:1 ~a:Q.one ~b:Q.zero ~clo:1 ~chi:0)))

(* Composition of shifted maps: applying two integer shifts through
   index_interval equals the single composed shift — shifts are exact,
   so intervals must not widen. *)
let test_affine_composed_shifts () =
  let clo, chi = (0, 10) in
  let l1, h1 = Affine.index_interval ~a:Q.one ~b:(Q.of_int 3) ~clo ~chi in
  let l2, h2 = Affine.index_interval ~a:Q.one ~b:(Q.of_int (-5)) ~clo:l1 ~chi:h1 in
  let ld, hd = Affine.index_interval ~a:Q.one ~b:(Q.of_int (-2)) ~clo ~chi in
  Alcotest.(check (pair int int)) "composed = direct" (ld, hd) (l2, h2);
  (* scaling then shifting: floor((c+4)/2) over [0,10] is [2,7] *)
  let ls, hs = Affine.index_interval ~a:(q 1 2) ~b:(Q.of_int 2) ~clo ~chi in
  Alcotest.(check (pair int int)) "scaled shift" (2, 7) (ls, hs)

(* exact_offsets under the scaling-consistency invariant s_c = a*s_p:
   brute force over every c must land inside — and exactly on — the
   reported hull. *)
let test_affine_offsets_brute () =
  let cases =
    [ (2, 1, q 1 2, Q.zero); (2, 1, q 1 2, q 1 2); (3, 2, q 2 3, q (-1) 3);
      (1, 2, Q.of_int 2, Q.zero); (1, 1, Q.one, Q.of_int (-4)) ]
  in
  List.iter
    (fun (s_p, s_c, a, b) ->
      let clo, chi = (0, 23) in
      let lo, hi = Affine.exact_offsets ~s_p ~s_c ~a ~b ~clo ~chi in
      let vals =
        List.init (chi - clo + 1) (fun i ->
            let c = clo + i in
            (s_p * fl a b c) - (s_c * c))
      in
      Alcotest.(check int) "exact offset min" (List.fold_left min max_int vals) lo;
      Alcotest.(check int) "exact offset max" (List.fold_left max min_int vals) hi)
    cases

(* blurx/blury in scaled space: same scale, a=1, b in {-1,0,1} — the
   hull the checker derives for the blur pipeline. *)
let test_affine_offsets_blur_hull () =
  let lo, hi = Affine.exact_offsets ~s_p:1 ~s_c:1 ~a:Q.one ~b:(Q.of_int (-1)) ~clo:0 ~chi:63 in
  Alcotest.(check (pair int int)) "shift -1" (-1, -1) (lo, hi);
  let lo, hi = Affine.exact_offsets ~s_p:1 ~s_c:1 ~a:Q.one ~b:(Q.of_int 1) ~clo:0 ~chi:63 in
  Alcotest.(check (pair int int)) "shift +1" (1, 1) (lo, hi)

(* -------------------- scratch formulas -------------------- *)

let test_scratch_extents_agree () =
  let p = blur () in
  let ga =
    match GA.analyze p [ 0; 1 ] with Ok ga -> ga | Error _ -> Alcotest.fail "analysis"
  in
  let tile = [| 16; 16 |] in
  Array.iteri
    (fun m _ ->
      let e = Pmdp_exec.Tiled_exec.member_scratch_extents ga ~member:m ~tile in
      let c = Pmdp_codegen.C_emit.scratch_alloc_extents ga ~member:m ~tile in
      Alcotest.(check (array int)) "same extents" e c)
    ga.GA.members

let () =
  Alcotest.run "pmdp_verify"
    [
      ( "clean",
        [
          Alcotest.test_case "dp blur" `Quick test_clean_dp;
          Alcotest.test_case "manual groups" `Quick test_clean_manual_groups;
        ] );
      ( "seeded",
        [
          Alcotest.test_case "degenerate tile" `Quick test_seeded_degenerate_tile;
          Alcotest.test_case "group order" `Quick test_seeded_group_order;
          Alcotest.test_case "oversized tile" `Quick test_seeded_oversized_tile;
          Alcotest.test_case "corrupt offset" `Quick test_seeded_corrupt_offset;
          Alcotest.test_case "multi writer" `Quick test_seeded_multi_writer;
        ] );
      ( "lint",
        [
          Alcotest.test_case "unused stage" `Quick test_lint_unused_stage;
          Alcotest.test_case "one-wide innermost tile" `Quick test_lint_one_wide_innermost;
          Alcotest.test_case "oversized tile" `Quick test_lint_tile_oversized;
          Alcotest.test_case "clean tiles stay clean" `Quick test_lint_clean_tiles;
        ] );
      ( "affine",
        [
          Alcotest.test_case "interval vs brute force" `Quick test_affine_interval_brute;
          Alcotest.test_case "point interval" `Quick test_affine_point_interval;
          Alcotest.test_case "empty interval rejected" `Quick test_affine_empty_interval;
          Alcotest.test_case "composed shifts" `Quick test_affine_composed_shifts;
          Alcotest.test_case "offsets vs brute force" `Quick test_affine_offsets_brute;
          Alcotest.test_case "blur dependence hull" `Quick test_affine_offsets_blur_hull;
        ] );
      ( "validate",
        [
          Alcotest.test_case "bad tiles" `Quick test_validate_rejects_bad_tiles;
          Alcotest.test_case "oracle" `Quick test_legality_oracle;
          Alcotest.test_case "tuned winner is legal" `Quick test_tuned_winner_legal;
        ] );
      ("failures", [ Alcotest.test_case "format" `Quick test_failure_format ]);
      ("scratch", [ Alcotest.test_case "extents agree" `Quick test_scratch_extents_agree ]);
    ]

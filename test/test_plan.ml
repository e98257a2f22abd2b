(* Plan IR tests: codec round-trips and digest stability for every
   app x scheduler, instantiated golden plans executing bitwise-equal
   to the reference interpreter, the plan-cache admission gate
   rejecting tampered/stale IRs before anything runs, seeded-bug
   detection in the whole-plan static analyzer, and DP cost-weight
   drift against the committed golden corpus. *)

module Scheduler = Pmdp_core.Scheduler
module Machine = Pmdp_machine.Machine
module Registry = Pmdp_apps.Registry
module Plan = Pmdp_plan
module Tiled_exec = Pmdp_exec.Tiled_exec
module Buffer = Pmdp_exec.Buffer
module Reference = Pmdp_exec.Reference
module Verify = Pmdp_verify.Verify
module D = Pmdp_verify.Diagnostic
module Pmdp_error = Pmdp_util.Pmdp_error
module Plan_cache = Pmdp_service.Plan_cache

let scale = 32
let schedulers = Scheduler.[ Dp; Greedy; Halide; Manual ]

let spec_of (app : Registry.app) scheduler machine =
  let p = app.Registry.build ~scale in
  let config = Pmdp_core.Cost_model.default_config machine in
  (p, Pmdp_baselines.Schedulers.schedule (Scheduler.for_pipeline scheduler p) config p)

let blur_case () =
  let p, spec = spec_of (Registry.find_exn "blur") Scheduler.Dp Machine.xeon in
  (p, spec, Plan.of_spec spec)

(* Deep copy through the codec, so mutation tests can scribble on
   arrays without aliasing the original. *)
let copy ir =
  match Plan.of_json (Plan.to_json ir) with
  | Ok ir' -> ir'
  | Error e -> Alcotest.failf "copy round-trip failed: %s" e

let has_error_kind ~kind diags =
  List.exists (fun (d : D.t) -> d.D.kind = kind) (D.errors diags)

let expect_plan_invalid name = function
  | Error (Pmdp_error.Plan_invalid _) -> ()
  | Error e ->
      Alcotest.failf "%s: expected Plan_invalid, got %s" name (Pmdp_error.to_string e)
  | Ok _ -> Alcotest.failf "%s: admission gate let a bad plan through" name

(* --- codec ----------------------------------------------------------- *)

let test_round_trip_all () =
  List.iter
    (fun (app : Registry.app) ->
      List.iter
        (fun scheduler ->
          let name =
            Printf.sprintf "%s/%s" app.Registry.name (Scheduler.to_string scheduler)
          in
          let _, spec = spec_of app scheduler Machine.xeon in
          let ir = Plan.of_spec spec in
          match Plan.of_json (Plan.to_json ir) with
          | Error e -> Alcotest.failf "%s: round-trip parse failed: %s" name e
          | Ok ir' ->
              Alcotest.(check bool) (name ^ " structurally equal") true (ir' = ir);
              Alcotest.(check string) (name ^ " digest-identical") (Plan.digest ir)
                (Plan.digest ir'))
        schedulers)
    Registry.all

let test_digest_deterministic () =
  let _, _, ir = blur_case () in
  let _, _, ir2 = blur_case () in
  Alcotest.(check string) "re-lowering reproduces the digest" (Plan.digest ir)
    (Plan.digest ir2)

let test_write_read () =
  let _, _, ir = blur_case () in
  let path = Filename.temp_file "pmdp_plan" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Plan.write path ir;
      match Plan.read path with
      | Error e -> Alcotest.failf "read back failed: %s" e
      | Ok (ir', claimed) ->
          Alcotest.(check string) "claimed digest is the content digest" (Plan.digest ir)
            claimed;
          Alcotest.(check string) "parsed IR digests identically" (Plan.digest ir)
            (Plan.digest ir'))

let test_of_json_rejects_garbage () =
  let bad j =
    match Plan.of_json j with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "parsed a malformed plan"
  in
  bad Pmdp_report.Json.Null;
  bad (Pmdp_report.Json.Obj [ ("version", Pmdp_report.Json.Int 999) ]);
  bad (Pmdp_report.Json.Obj [ ("pipeline", Pmdp_report.Json.String "blur") ])

(* --- execution equivalence ------------------------------------------- *)

(* The acceptance bar for the split lowering: a plan instantiated from
   a committed golden IR must execute bitwise-equal to the reference
   interpreter, for every app x scheduler in the corpus — through the
   same admission gate the service uses. *)
let test_golden_plans_execute () =
  List.iter
    (fun (app : Registry.app) ->
      let p = app.Registry.build ~scale in
      let inputs = app.Registry.inputs ~seed:1 p in
      let reference = Reference.run p ~inputs in
      List.iter
        (fun scheduler ->
          let name =
            Printf.sprintf "%s_%s" app.Registry.name (Scheduler.to_string scheduler)
          in
          let path = Filename.concat "golden_plans" (name ^ ".json") in
          match Plan.read path with
          | Error e -> Alcotest.failf "%s: unreadable golden plan: %s" name e
          | Ok (ir, claimed) -> (
              match Plan_cache.load ~pipeline:p ~ir ~digest:claimed with
              | Error e ->
                  Alcotest.failf "%s: admission gate rejected a golden plan: %s" name
                    (Pmdp_error.to_string e)
              | Ok plan ->
                  List.iter
                    (fun (sname, buf) ->
                      Alcotest.(check (float 0.0))
                        (Printf.sprintf "%s: %s bitwise-equal to reference" name sname)
                        0.0
                        (Buffer.max_abs_diff buf (List.assoc sname reference)))
                    (fst (Tiled_exec.run plan ~inputs))))
        schedulers)
    Registry.all

let test_instantiate_equals_direct_lowering () =
  let p, spec, ir = blur_case () in
  let app = Registry.find_exn "blur" in
  let inputs = app.Registry.inputs ~seed:3 p in
  let via_ir, _ = Tiled_exec.run (Tiled_exec.instantiate p ir) ~inputs in
  let direct, _ = Tiled_exec.run (Tiled_exec.plan spec) ~inputs in
  List.iter
    (fun (sname, buf) ->
      Alcotest.(check (float 0.0))
        (sname ^ " identical through both lowering paths")
        0.0
        (Buffer.max_abs_diff buf (List.assoc sname direct)))
    via_ir

(* --- admission gate --------------------------------------------------- *)

let test_cache_rejects_wrong_digest () =
  let p, _, ir = blur_case () in
  expect_plan_invalid "mutated digest"
    (Plan_cache.load ~pipeline:p ~ir ~digest:(String.make 32 '0'))

let test_cache_rejects_tampered_tile () =
  let p, _, ir = blur_case () in
  let claimed = Plan.digest ir in
  let tampered = copy ir in
  let g = tampered.Plan.groups.(0) in
  g.Plan.tile.(0) <- g.Plan.tile.(0) + 3;
  (* stale digest: the content no longer matches what the file claims *)
  expect_plan_invalid "tampered tile, stale digest"
    (Plan_cache.load ~pipeline:p ~ir:tampered ~digest:claimed);
  (* recomputed digest: passes the content check, but the analyzer
     catches the scratch/tile bookkeeping now being inconsistent *)
  expect_plan_invalid "tampered tile, recomputed digest"
    (Plan_cache.load ~pipeline:p ~ir:tampered ~digest:(Plan.digest tampered))

let test_cache_rejects_zero_tile () =
  let p, _, ir = blur_case () in
  let tampered = copy ir in
  tampered.Plan.groups.(0).Plan.tile.(0) <- 0;
  (* must be a typed rejection, not a division-by-zero crash *)
  expect_plan_invalid "zero tile size"
    (Plan_cache.load ~pipeline:p ~ir:tampered ~digest:(Plan.digest tampered))

let test_cache_entry_carries_ir () =
  let cache = Plan_cache.create () in
  match
    Plan_cache.get cache ~app:(Registry.find_exn "blur") ~scale ~scheduler:Scheduler.Dp
      ~machine:Machine.xeon ()
  with
  | Error e -> Alcotest.failf "cache miss failed: %s" (Pmdp_error.to_string e)
  | Ok (entry, (`Hit | `Loaded)) -> ignore entry; Alcotest.fail "first request cannot be a hit"
  | Ok (entry, `Miss) ->
      Alcotest.(check string) "entry digest is the IR's content digest"
        (Plan.digest entry.Plan_cache.ir) entry.Plan_cache.digest

(* --- analyzer: seeded IR bugs ---------------------------------------- *)

let test_analyzer_flags_scratch_mismatch () =
  let p, _, ir = blur_case () in
  let bad = copy ir in
  let g = bad.Plan.groups.(0) in
  let m =
    match Array.find_opt (fun m -> m.Plan.max_scratch > 0) g.Plan.members with
    | Some m -> m
    | None -> Alcotest.fail "blur dp plan has no scratch member"
  in
  m.Plan.scratch_extents.(0) <- m.Plan.scratch_extents.(0) + 1;
  Alcotest.(check bool) "scratch-extent error" true
    (has_error_kind ~kind:"scratch-extent" (Verify.check_plan p bad))

let test_analyzer_flags_coverage_gap () =
  let p, _, ir = blur_case () in
  let bad = copy ir in
  let g = bad.Plan.groups.(0) in
  (* claim one tile fewer than the domain needs along dim 0 *)
  g.Plan.dim_hi.(0) <- g.Plan.dim_hi.(0) - g.Plan.tile.(0);
  let diags = Verify.check_plan p bad in
  Alcotest.(check bool) "coverage or envelope error" true
    (has_error_kind ~kind:"coverage-gap" diags
    || has_error_kind ~kind:"hull" diags
    || has_error_kind ~kind:"tile-count" diags)

let test_analyzer_flags_dropped_liveout () =
  let p, _, ir = blur_case () in
  let bad = copy ir in
  let g = bad.Plan.groups.(0) in
  let n = Array.length g.Plan.members in
  g.Plan.members.(n - 1) <- { (g.Plan.members.(n - 1)) with Plan.liveout = false };
  let diags = Verify.check_plan p bad in
  Alcotest.(check bool) "output-not-liveout error" true
    (has_error_kind ~kind:"output-not-liveout" diags
    || has_error_kind ~kind:"liveout-list" diags)

let test_analyzer_flags_reversed_edge () =
  let p, spec = spec_of (Registry.find_exn "harris") Scheduler.Dp Machine.xeon in
  let ir = Plan.of_spec spec in
  let bad = copy ir in
  let gi =
    match
      Array.to_list bad.Plan.groups
      |> List.mapi (fun i g -> (i, g))
      |> List.find_opt (fun (_, g) -> Array.length g.Plan.edges > 0)
    with
    | Some (i, _) -> i
    | None -> Alcotest.fail "harris dp plan has no in-group edge"
  in
  let g = bad.Plan.groups.(gi) in
  let e = g.Plan.edges.(0) in
  g.Plan.edges.(0) <-
    { e with Plan.e_producer = e.Plan.e_consumer; e_consumer = e.Plan.e_producer };
  Alcotest.(check bool) "dependence error" true
    (has_error_kind ~kind:"dependence" (Verify.check_plan p bad))

let test_analyzer_budget_audit () =
  let p, _, ir = blur_case () in
  Alcotest.(check bool) "over tiny budget" true
    (has_error_kind ~kind:"over-budget" (Verify.check_plan ~budget:1 ~workers:4 p ir));
  Alcotest.(check bool) "clean under huge budget" false
    (has_error_kind ~kind:"over-budget"
       (Verify.check_plan ~budget:max_int ~workers:4 p ir))

(* --- DP cost-model drift vs the golden corpus ------------------------ *)

(* @plancheck's reason to exist: silently changing a DP cost weight
   must change some lowered plan's digest away from the committed
   corpus.  interpolate's grouping is w3-sensitive at scale 32. *)
let test_perturbed_weight_drifts_from_golden () =
  let app = Registry.find_exn "interpolate" in
  let golden_path = Filename.concat "golden_plans" "interpolate_dp.json" in
  let claimed =
    match Plan.read golden_path with
    | Ok (_, claimed) -> claimed
    | Error e -> Alcotest.failf "unreadable golden plan: %s" e
  in
  let _, spec = spec_of app Scheduler.Dp Machine.xeon in
  Alcotest.(check string) "stock weights match the corpus" claimed
    (Plan.digest (Plan.of_spec spec));
  let perturbed = { Machine.xeon with Machine.w3 = Machine.xeon.Machine.w3 *. 50.0 } in
  let _, spec' = spec_of app Scheduler.Dp perturbed in
  Alcotest.(check bool) "perturbed w3 drifts the digest" true
    (Plan.digest (Plan.of_spec spec') <> claimed)

let () =
  Alcotest.run "plan"
    [
      ( "codec",
        [
          Alcotest.test_case "round-trip all apps x schedulers" `Quick test_round_trip_all;
          Alcotest.test_case "digest deterministic" `Quick test_digest_deterministic;
          Alcotest.test_case "write/read round-trip" `Quick test_write_read;
          Alcotest.test_case "rejects garbage JSON" `Quick test_of_json_rejects_garbage;
        ] );
      ( "execution",
        [
          Alcotest.test_case "golden plans run bitwise-equal" `Quick
            test_golden_plans_execute;
          Alcotest.test_case "instantiate = direct lowering" `Quick
            test_instantiate_equals_direct_lowering;
        ] );
      ( "admission",
        [
          Alcotest.test_case "rejects wrong digest" `Quick test_cache_rejects_wrong_digest;
          Alcotest.test_case "rejects tampered tile" `Quick test_cache_rejects_tampered_tile;
          Alcotest.test_case "rejects zero tile" `Quick test_cache_rejects_zero_tile;
          Alcotest.test_case "cache entry carries IR+digest" `Quick
            test_cache_entry_carries_ir;
        ] );
      ( "analyzer",
        [
          Alcotest.test_case "flags scratch mismatch" `Quick
            test_analyzer_flags_scratch_mismatch;
          Alcotest.test_case "flags coverage gap" `Quick test_analyzer_flags_coverage_gap;
          Alcotest.test_case "flags dropped liveout" `Quick
            test_analyzer_flags_dropped_liveout;
          Alcotest.test_case "flags reversed edge" `Quick test_analyzer_flags_reversed_edge;
          Alcotest.test_case "budget audit" `Quick test_analyzer_budget_audit;
        ] );
      ( "drift",
        [
          Alcotest.test_case "perturbed DP weight drifts from corpus" `Quick
            test_perturbed_weight_drifts_from_golden;
        ] );
    ]

(* Tests for buffers, the expression compiler, and the executors —
   including the central property: any valid schedule executes
   bit-identically to the unfused reference. *)

open Pmdp_dsl
module Buffer = Pmdp_exec.Buffer
module Compile = Pmdp_exec.Compile
module Reference = Pmdp_exec.Reference
module Tiled_exec = Pmdp_exec.Tiled_exec
module Resilient = Pmdp_exec.Resilient
module Trace = Pmdp_trace.Trace
module Schedule_spec = Pmdp_core.Schedule_spec
module Cost_model = Pmdp_core.Cost_model
module Machine = Pmdp_machine.Machine

let config = Cost_model.default_config Machine.xeon

(* -------------------- Buffer -------------------- *)

let test_buffer_basic () =
  let b = Buffer.create "b" (Stage.dim2 3 4) in
  Alcotest.(check int) "size" 12 (Buffer.size b);
  Buffer.set b [| 1; 2 |] 7.5;
  Alcotest.(check (float 0.0)) "get" 7.5 (Buffer.get_clamped b [| 1; 2 |]);
  Alcotest.(check (float 0.0)) "clamp lo" (Buffer.get_clamped b [| 0; 0 |])
    (Buffer.get_clamped b [| -5; -5 |]);
  Alcotest.(check (float 0.0)) "clamp hi" (Buffer.get_clamped b [| 2; 3 |])
    (Buffer.get_clamped b [| 99; 99 |])

let test_buffer_set_out_of_range () =
  let b = Buffer.create "b" (Stage.dim2 3 4) in
  Alcotest.(check bool) "set out of range" true
    (try Buffer.set b [| 3; 0 |] 1.0; false with Invalid_argument _ -> true)

let test_buffer_fill_checksum () =
  let b = Buffer.create "b" (Stage.dim2 4 4) in
  Buffer.fill b (fun idx -> float_of_int (idx.(0) + idx.(1)));
  Alcotest.(check (float 1e-9)) "checksum" 48.0 (Buffer.checksum b)

let test_buffer_diff () =
  let a = Buffer.create "a" (Stage.dim2 2 2) and b = Buffer.create "b" (Stage.dim2 2 2) in
  Buffer.set b [| 1; 1 |] 3.0;
  Alcotest.(check (float 0.0)) "max diff" 3.0 (Buffer.max_abs_diff a b)

(* The one correctness check: a NaN on one side only is a difference,
   NaN against NaN is not, and names the reference lacks are skipped. *)
let test_reference_check () =
  let buf v =
    let b = Buffer.create "b" (Stage.dim2 2 2) in
    Buffer.set b [| 1; 0 |] v;
    b
  in
  let reference = [ ("out", buf Float.nan) ] in
  let check msg expect results =
    Alcotest.(check bool) msg true (expect (Reference.max_abs_diff ~reference results))
  in
  check "NaN against NaN" (( = ) 0.0) [ ("out", buf Float.nan) ];
  check "number against NaN" Float.is_nan [ ("out", buf 1.0) ];
  check "NaN propagates past later names" Float.is_nan
    [ ("out", buf 1.0); ("other", buf 0.0) ];
  check "unknown name skipped" (( = ) 0.0) [ ("extra", buf 5.0) ]

(* -------------------- Compile -------------------- *)

let test_compile_constants_and_ops () =
  let open Expr in
  let e = (const 2.0 *: var 0) +: Unop (Floor, const 2.7) in
  let c = Compile.compile ~slot_of:(fun _ -> assert false) e in
  Alcotest.(check (float 0.0)) "eval" 8.0 (c [||] [| 3 |])

let test_compile_coord_floor_division () =
  let open Expr in
  (* f(floor(x/2)) over a 1-D buffer [0..3] = [10,11,12,13] *)
  let b = Buffer.create "f" [| { Stage.dim_name = "x"; lo = 0; extent = 4 } |] in
  Array.iteri (fun i _ -> b.Buffer.data.(i) <- 10.0 +. float_of_int i) b.Buffer.data;
  let e = load "f" [| cscale 0 ~num:1 ~den:2 ~off:0 |] in
  let c = Compile.compile ~slot_of:(fun _ -> 0) e in
  let env = [| Compile.view_of_buffer b |] in
  Alcotest.(check (float 0.0)) "x=0" 10.0 (c env [| 0 |]);
  Alcotest.(check (float 0.0)) "x=1" 10.0 (c env [| 1 |]);
  Alcotest.(check (float 0.0)) "x=5" 12.0 (c env [| 5 |]);
  (* clamped above the extent *)
  Alcotest.(check (float 0.0)) "x=9 clamps" 13.0 (c env [| 9 |])

let test_compile_select_and_mod () =
  let open Expr in
  let e = select (Binop (Mod, var 0, const 2.0) =: const 0.0) (const 1.0) (const (-1.0)) in
  let c = Compile.compile ~slot_of:(fun _ -> assert false) e in
  Alcotest.(check (float 0.0)) "even" 1.0 (c [||] [| 4 |]);
  Alcotest.(check (float 0.0)) "odd" (-1.0) (c [||] [| 5 |])

let test_compile_dyn_coord () =
  let open Expr in
  let b = Buffer.create "lut" [| { Stage.dim_name = "i"; lo = 0; extent = 4 } |] in
  Array.iteri (fun i _ -> b.Buffer.data.(i) <- float_of_int (i * i)) b.Buffer.data;
  let e = load "lut" [| cdyn (var 0 /: const 2.0) |] in
  let c = Compile.compile ~slot_of:(fun _ -> 0) e in
  let env = [| Compile.view_of_buffer b |] in
  Alcotest.(check (float 0.0)) "floor(5/2)=2 -> 4" 4.0 (c env [| 5 |])

let test_slots_order () =
  let open Expr in
  let e = load "b" [| cvar 0 |] +: (load "a" [| cvar 0 |] *: load "b" [| cvar 0 |]) in
  Alcotest.(check (array string)) "first occurrence order" [| "b"; "a" |] (Compile.slots e)

(* -------------------- Reference vs hand values -------------------- *)

let test_reference_blur_values () =
  let dims = Stage.dim2 3 3 in
  let s =
    Stage.pointwise "avg" dims (Pmdp_apps.Helpers.blur3 "img" ~ndims:2 ~dim:1)
  in
  let p =
    Pipeline.build ~name:"avg" ~inputs:[ Pipeline.input2 "img" 3 3 ] ~stages:[ s ]
      ~outputs:[ "avg" ]
  in
  let img = Buffer.create "img" dims in
  Buffer.fill img (fun idx -> float_of_int ((idx.(0) * 3) + idx.(1)));
  let results = Reference.run p ~inputs:[ ("img", img) ] in
  let out = List.assoc "avg" results in
  (* center point (1,1): (3+4+5)/3 = 4 *)
  Alcotest.(check (float 1e-6)) "center" 4.0 (Buffer.get_clamped out [| 1; 1 |]);
  (* boundary (1,0): clamps to (3+3+4)/3 *)
  Alcotest.(check (float 1e-6)) "boundary clamps" (10.0 /. 3.0) (Buffer.get_clamped out [| 1; 0 |])

let test_reference_reduction () =
  let open Expr in
  let dims = [| { Stage.dim_name = "x"; lo = 0; extent = 2 } |] in
  let s =
    Stage.reduction "sum" dims ~op:Stage.Rsum ~init:0.0 ~rdom:[| (0, 3) |]
      (load "img" [| cdyn (var 1) |] +: var 0)
  in
  let p =
    Pipeline.build ~name:"sum"
      ~inputs:[ { Pipeline.in_name = "img"; in_dims = [| { Stage.dim_name = "i"; lo = 0; extent = 3 } |] } ]
      ~stages:[ s ] ~outputs:[ "sum" ]
  in
  let img = Buffer.create "img" [| { Stage.dim_name = "i"; lo = 0; extent = 3 } |] in
  Array.iteri (fun i _ -> img.Buffer.data.(i) <- float_of_int (i + 1)) img.Buffer.data;
  let results = Reference.run p ~inputs:[ ("img", img) ] in
  let out = List.assoc "sum" results in
  (* x=0: (1+0)+(2+0)+(3+0)=6 ; x=1: 6+3=9 *)
  Alcotest.(check (float 0.0)) "x=0" 6.0 out.Buffer.data.(0);
  Alcotest.(check (float 0.0)) "x=1" 9.0 out.Buffer.data.(1)

let test_reference_missing_input () =
  let p = Pmdp_apps.Blur.build ~rows:16 ~cols:16 () in
  Alcotest.(check bool) "missing input" true
    (try ignore (Reference.run p ~inputs:[]); false with Invalid_argument _ -> true)

(* -------------------- Tiled vs reference -------------------- *)

let check_schedule_exact p inputs sched =
  let plan = Tiled_exec.plan sched in
  let tiled, _ = Tiled_exec.run plan ~inputs in
  let reference = Reference.run p ~inputs in
  List.iter
    (fun (name, buf) ->
      let expected = List.assoc name reference in
      Alcotest.(check (float 0.0)) ("exact: " ^ name) 0.0 (Buffer.max_abs_diff buf expected))
    tiled

let test_all_apps_dp_exact () =
  List.iter
    (fun (app : Pmdp_apps.Registry.app) ->
      let p = app.Pmdp_apps.Registry.build ~scale:48 in
      let inputs = app.Pmdp_apps.Registry.inputs ~seed:3 p in
      let sched = Pmdp_core.Scheduler.schedule Pmdp_core.Scheduler.Dp config p in
      check_schedule_exact p inputs sched)
    Pmdp_apps.Registry.all

let test_all_apps_manual_exact () =
  List.iter
    (fun (app : Pmdp_apps.Registry.app) ->
      let p = app.Pmdp_apps.Registry.build ~scale:48 in
      let inputs = app.Pmdp_apps.Registry.inputs ~seed:5 p in
      check_schedule_exact p inputs (Pmdp_baselines.Manual.schedule p))
    Pmdp_apps.Registry.all

let prop_random_tiles_exact =
  (* ANY tile sizes must give exact results on the fused blur group. *)
  QCheck.Test.make ~name:"random tile sizes execute exactly" ~count:25
    QCheck.(triple (int_range 1 40) (int_range 1 40) (int_range 1 70))
    (fun (tc, tx, ty) ->
      let p = Pmdp_apps.Blur.build ~rows:33 ~cols:37 () in
      let sched = Schedule_spec.with_tiles p [ ([ 0; 1 ], [| tc; tx; ty |]) ] in
      let inputs = Pmdp_apps.Blur.inputs ~seed:7 p in
      let plan = Tiled_exec.plan sched in
      let tiled, _ = Tiled_exec.run plan ~inputs in
      let reference = Reference.run p ~inputs in
      Buffer.max_abs_diff (List.assoc "blury" tiled) (List.assoc "blury" reference) = 0.0)

let prop_random_grouping_exact =
  (* Random contiguous groupings of the Harris chain execute exactly. *)
  QCheck.Test.make ~name:"random groupings execute exactly" ~count:15
    QCheck.(int_bound 1023)
    (fun mask ->
      let p = Pmdp_apps.Harris.build ~scale:64 () in
      let n = Pipeline.n_stages p in
      (* split the topological order at mask bits to form a grouping;
         invalid (unfusable) groups are split by of_grouping *)
      let order = Pmdp_dag.Dag.topo_sort p.Pipeline.dag in
      let groups = ref [] and current = ref [] in
      List.iteri
        (fun i s ->
          current := s :: !current;
          if i < n - 1 && mask land (1 lsl i) <> 0 then begin
            groups := List.rev !current :: !groups;
            current := []
          end)
        order;
      if !current <> [] then groups := List.rev !current :: !groups;
      (* groups must be connected to pass analysis; of_grouping splits
         anything the cost model rejects, so this is always runnable *)
      let sched = Schedule_spec.of_grouping config p (List.rev !groups) in
      let inputs = Pmdp_apps.Harris.inputs ~seed:11 p in
      let plan = Tiled_exec.plan sched in
      let tiled, _ = Tiled_exec.run plan ~inputs in
      let reference = Reference.run p ~inputs in
      Buffer.max_abs_diff (List.assoc "harris" tiled) (List.assoc "harris" reference) = 0.0)

let test_parallel_equals_serial () =
  let p = Pmdp_apps.Unsharp.build ~scale:32 () in
  let inputs = Pmdp_apps.Unsharp.inputs ~seed:13 p in
  let sched = fst (Schedule_spec.dp config p) in
  let plan = Tiled_exec.plan sched in
  let serial, _ = Tiled_exec.run plan ~inputs in
  Pmdp_runtime.Pool.with_pool 4 (fun pool ->
      List.iter
        (fun sched ->
          let parallel, _ = Tiled_exec.run ~pool ~sched plan ~inputs in
          List.iter
            (fun (name, buf) ->
              Alcotest.(check (float 0.0)) ("parallel " ^ name) 0.0
                (Buffer.max_abs_diff buf (List.assoc name parallel)))
            serial)
        Pmdp_runtime.Pool.[ Static; Dynamic; Chunked 0 ])

(* -------------------- Group records -------------------- *)

(* Interpolate's manual schedule at scale 16: fast, multi-tile groups,
   and live-outs computed in scratch (non-zero copy-out). *)
let interpolate_manual () =
  let p = Pmdp_apps.Interpolate.build ~scale:16 () in
  (p, Pmdp_apps.Interpolate.inputs ~seed:2 p, Tiled_exec.plan (Pmdp_baselines.Manual.schedule p))

(* What the IR says a group's record must hold: its tile count and,
   as copy-out, the buffer bytes of its live-outs not written direct. *)
let expected_of_ir (g : Pmdp_plan.group) =
  ( g.Pmdp_plan.n_tiles,
    Array.fold_left
      (fun acc (m : Pmdp_plan.member) ->
        if m.Pmdp_plan.liveout && not m.Pmdp_plan.direct then
          acc + (8 * Array.fold_left (fun n (_, extent) -> n * extent) 1 m.Pmdp_plan.dims)
        else acc)
      0 g.Pmdp_plan.members )

let check_records ~workers plan (stats : Tiled_exec.group_stats list) =
  let groups = (Tiled_exec.ir plan).Pmdp_plan.groups in
  Alcotest.(check int) "one record per group" (Array.length groups) (List.length stats);
  List.iteri
    (fun i (g : Tiled_exec.group_stats) ->
      let tiles, copy_out = expected_of_ir groups.(i) in
      Alcotest.(check int) "group order" i g.Tiled_exec.index;
      Alcotest.(check int) "tiles" tiles g.Tiled_exec.tiles;
      Alcotest.(check int) "copy-out bytes" copy_out g.Tiled_exec.copy_out_bytes;
      Alcotest.(check bool) "1 <= occupancy <= workers" true
        (1 <= g.Tiled_exec.occupancy && g.Tiled_exec.occupancy <= workers))
    stats

let test_group_records () =
  let _, inputs, plan = interpolate_manual () in
  let _, serial = Tiled_exec.run plan ~inputs in
  check_records ~workers:1 plan serial;
  Alcotest.(check bool) "some group copies out" true
    (List.exists (fun (g : Tiled_exec.group_stats) -> g.Tiled_exec.copy_out_bytes > 0) serial);
  Pmdp_runtime.Pool.with_pool 2 (fun pool ->
      check_records ~workers:2 plan (snd (Tiled_exec.run ~pool plan ~inputs)))

(* Every run times each tile: one non-negative duration per tile, and
   run serially the durations fit inside the group's wall-clock. *)
let test_tile_seconds () =
  let _, inputs, plan = interpolate_manual () in
  let check ~serial (stats : Tiled_exec.group_stats list) =
    List.iter
      (fun (g : Tiled_exec.group_stats) ->
        let d = g.Tiled_exec.tile_seconds in
        Alcotest.(check int) "one duration per tile" g.Tiled_exec.tiles (Array.length d);
        Alcotest.(check bool) "durations non-negative" true (Array.for_all (fun x -> x >= 0.0) d);
        if serial then
          Alcotest.(check bool) "serial sum <= group wall" true
            (Array.fold_left ( +. ) 0.0 d <= g.Tiled_exec.wall_seconds))
      stats
  in
  check ~serial:true (snd (Tiled_exec.run plan ~inputs));
  Pmdp_runtime.Pool.with_pool 2 (fun pool ->
      check ~serial:false (snd (Tiled_exec.run ~pool plan ~inputs)))

(* The trace's group spans and counters are emitted from the records. *)
let test_group_records_traced () =
  let _, inputs, plan = interpolate_manual () in
  Trace.set_enabled true;
  Trace.reset ();
  let stats =
    Fun.protect
      ~finally:(fun () -> Trace.set_enabled false)
      (fun () ->
        Pmdp_runtime.Pool.with_pool 2 (fun pool -> snd (Tiled_exec.run ~pool plan ~inputs)))
  in
  let span_args =
    List.concat_map
      (fun (_, evs) ->
        List.filter_map
          (function
            | Trace.Span { name = "group"; ts; args; _ } -> Some (ts, args) | _ -> None)
          evs)
      (Trace.dump ())
    |> List.sort compare |> List.map snd
  in
  let record_args (g : Tiled_exec.group_stats) =
    [
      ("group", Trace.Int g.Tiled_exec.index);
      ("stages", Trace.Str (String.concat "," g.Tiled_exec.stages));
      ("tiles", Trace.Int g.Tiled_exec.tiles);
      ("occupancy", Trace.Int g.Tiled_exec.occupancy);
      ("scratch_bytes", Trace.Int g.Tiled_exec.scratch_bytes);
      ("copy_out_bytes", Trace.Int g.Tiled_exec.copy_out_bytes);
    ]
  in
  Alcotest.(check bool) "group span args = records" true (span_args = List.map record_args stats);
  let sum f = List.fold_left (fun acc g -> acc + f g) 0 stats in
  Alcotest.(check (list (pair string int)))
    "counter totals = record sums"
    [
      ("copy_out_bytes", sum (fun g -> g.Tiled_exec.copy_out_bytes));
      ("scratch_bytes", sum (fun g -> g.Tiled_exec.scratch_bytes));
      ("tiles", sum (fun g -> g.Tiled_exec.tiles));
    ]
    (Trace.counter_totals ())

(* A tile crash in the tiled-parallel attempt: the answering serial
   attempt's records are the outcome's, each group exactly once. *)
let test_degraded_records () =
  let p = Pmdp_apps.Harris.build ~scale:32 () in
  let inputs = Pmdp_apps.Harris.inputs ~seed:1 p in
  let spec = Pmdp_core.Scheduler.schedule Pmdp_core.Scheduler.Dp config p in
  let fault = Pmdp_runtime.Fault.create [ { Pmdp_runtime.Fault.action = Crash; at = 40 } ] in
  match
    Pmdp_runtime.Pool.with_pool 2 (fun pool -> Resilient.run ~pool ~fault spec ~inputs)
  with
  | Error e -> Alcotest.failf "degraded run failed: %s" (Pmdp_util.Pmdp_error.to_string e)
  | Ok o ->
      Alcotest.(check (list (pair string bool)))
        "chain: parallel failed, serial answered"
        [ ("plan", true); ("tiled-parallel", false); ("tiled-serial", true) ]
        (List.map (fun (st, e) -> (Resilient.step_name st, e = None)) o.Resilient.attempts);
      Alcotest.(check (list int)) "each group once"
        (List.init (Schedule_spec.n_groups spec) Fun.id)
        (List.map (fun (g : Tiled_exec.group_stats) -> g.Tiled_exec.index) o.Resilient.groups);
      Alcotest.(check bool) "serial occupancy" true
        (List.for_all (fun (g : Tiled_exec.group_stats) -> g.Tiled_exec.occupancy = 1)
           o.Resilient.groups)

let test_reference_answers_no_records () =
  let p = Pmdp_apps.Blur.build ~rows:32 ~cols:32 () in
  let sched = fst (Schedule_spec.dp config p) in
  let broken =
    {
      sched with
      Schedule_spec.groups =
        List.map
          (fun (g : Schedule_spec.group) ->
            { g with Schedule_spec.tile_sizes = Array.map (fun _ -> 0) g.Schedule_spec.tile_sizes })
          sched.Schedule_spec.groups;
    }
  in
  match Resilient.run broken ~inputs:(Pmdp_apps.Blur.inputs p) with
  | Error e -> Alcotest.failf "reference fallback failed: %s" (Pmdp_util.Pmdp_error.to_string e)
  | Ok o ->
      Alcotest.(check (option string)) "reference answered" (Some "reference")
        (match List.rev o.Resilient.attempts with
        | (st, None) :: _ -> Some (Resilient.step_name st)
        | _ -> None);
      Alcotest.(check int) "no group records" 0 (List.length o.Resilient.groups)

let () =
  Alcotest.run "pmdp_exec"
    [
      ( "buffer",
        [
          Alcotest.test_case "basic" `Quick test_buffer_basic;
          Alcotest.test_case "set out of range" `Quick test_buffer_set_out_of_range;
          Alcotest.test_case "fill/checksum" `Quick test_buffer_fill_checksum;
          Alcotest.test_case "max diff" `Quick test_buffer_diff;
          Alcotest.test_case "reference check" `Quick test_reference_check;
        ] );
      ( "compile",
        [
          Alcotest.test_case "constants/ops" `Quick test_compile_constants_and_ops;
          Alcotest.test_case "floor-division coords" `Quick test_compile_coord_floor_division;
          Alcotest.test_case "select/mod" `Quick test_compile_select_and_mod;
          Alcotest.test_case "dynamic coord" `Quick test_compile_dyn_coord;
          Alcotest.test_case "slot order" `Quick test_slots_order;
        ] );
      ( "reference",
        [
          Alcotest.test_case "blur values" `Quick test_reference_blur_values;
          Alcotest.test_case "reduction" `Quick test_reference_reduction;
          Alcotest.test_case "missing input" `Quick test_reference_missing_input;
        ] );
      ( "tiled",
        [
          Alcotest.test_case "all apps, DP schedule" `Slow test_all_apps_dp_exact;
          Alcotest.test_case "all apps, manual schedule" `Slow test_all_apps_manual_exact;
          QCheck_alcotest.to_alcotest prop_random_tiles_exact;
          QCheck_alcotest.to_alcotest prop_random_grouping_exact;
          Alcotest.test_case "parallel equals serial" `Quick test_parallel_equals_serial;
        ] );
      ( "group records",
        [
          Alcotest.test_case "serial and pooled" `Quick test_group_records;
          Alcotest.test_case "tile seconds" `Quick test_tile_seconds;
          Alcotest.test_case "trace spans and counters" `Quick test_group_records_traced;
          Alcotest.test_case "degraded run counts each group once" `Quick test_degraded_records;
          Alcotest.test_case "none from the reference" `Quick test_reference_answers_no_records;
        ] );
    ]

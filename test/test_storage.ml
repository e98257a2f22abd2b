(* Tests for the storage optimization: lifetime analysis and
   buffer-recycling execution. *)

open Pmdp_dsl
module Storage = Pmdp_exec.Storage
module Buffer = Pmdp_exec.Buffer
module Tiled_exec = Pmdp_exec.Tiled_exec
module Schedule_spec = Pmdp_core.Schedule_spec
module Cost_model = Pmdp_core.Cost_model

let config = Cost_model.default_config Pmdp_machine.Machine.xeon

(* A chain of n stages, scheduled all-unfused: n live-outs with
   strictly nested lifetimes — ideal for recycling. *)
let chain n rows cols =
  let dims = Stage.dim2 rows cols in
  let stages =
    List.init n (fun i ->
        let src = if i = 0 then "img" else Printf.sprintf "s%d" (i - 1) in
        Stage.pointwise (Printf.sprintf "s%d" i) dims
          (Pmdp_apps.Helpers.blur3 src ~ndims:2 ~dim:(i mod 2)))
  in
  Pipeline.build ~name:"chain"
    ~inputs:[ Pipeline.input2 "img" rows cols ]
    ~stages
    ~outputs:[ Printf.sprintf "s%d" (n - 1) ]

let unfused p =
  Schedule_spec.with_tiles p
    (List.init (Pipeline.n_stages p) (fun i -> ([ i ], [| 16; 64 |])))

let ir spec = Pmdp_plan.of_spec spec

let test_lifetimes_chain () =
  let p = chain 5 32 32 in
  let sched = unfused p in
  let ls = Storage.lifetimes p (ir sched) in
  Alcotest.(check int) "five live-outs" 5 (List.length ls);
  List.iteri
    (fun i (l : Storage.lifetime) ->
      Alcotest.(check string) "order" (Printf.sprintf "s%d" i) l.Storage.stage;
      Alcotest.(check int) "born" i l.Storage.born;
      if i < 4 then Alcotest.(check int) "dies at consumer" (i + 1) l.Storage.dies
      else Alcotest.(check int) "output never dies" max_int l.Storage.dies)
    ls

(* The report is what the executor allocates: 8-byte floats, and a
   fresh buffer for the pipeline output. *)
let test_report_savings () =
  let p = chain 8 32 32 in
  let r = Storage.report p (ir (unfused p)) in
  let per = 32 * 32 * 8 in
  Alcotest.(check int) "naive = 8 buffers" (8 * per) r.Storage.peak_naive_bytes;
  (* a producer and its consumer are live together, so the seven
     intermediates share two buffers; the output takes a third *)
  Alcotest.(check int) "reuse = 3 buffers" (3 * per) r.Storage.peak_reuse_bytes

let test_report_fused_is_smaller () =
  let p = chain 8 64 64 in
  let fused = Schedule_spec.with_tiles p [ (List.init 8 Fun.id, [| 16; 64 |]) ] in
  let r = Storage.report p (ir fused) in
  (* one live-out only *)
  Alcotest.(check int) "one live-out" 1 (List.length r.Storage.lifetimes);
  Alcotest.(check int) "naive = reuse" r.Storage.peak_naive_bytes r.Storage.peak_reuse_bytes

let test_reuse_execution_correct () =
  List.iter
    (fun (app : Pmdp_apps.Registry.app) ->
      let p = app.Pmdp_apps.Registry.build ~scale:48 in
      let inputs = app.Pmdp_apps.Registry.inputs ~seed:3 p in
      let sched = Pmdp_core.Scheduler.schedule Pmdp_core.Scheduler.Dp config p in
      let plan = Tiled_exec.plan sched in
      let plain, _ = Tiled_exec.run plan ~inputs in
      let reused, _ = Tiled_exec.run ~reuse_buffers:true plan ~inputs in
      (* recycled runs return outputs only, and they must be identical *)
      List.iter
        (fun out_id ->
          let name = (Pipeline.stage p out_id).Stage.name in
          Alcotest.(check (float 0.0))
            (app.Pmdp_apps.Registry.name ^ " " ^ name)
            0.0
            (Buffer.max_abs_diff (List.assoc name reused) (List.assoc name plain)))
        p.Pipeline.outputs)
    Pmdp_apps.Registry.all

let test_reuse_only_outputs_returned () =
  let p = chain 4 16 16 in
  let plan = Tiled_exec.plan (unfused p) in
  let inputs = [ ("img", Pmdp_apps.Images.gray ~seed:1 "img" ~rows:16 ~cols:16) ] in
  let results, _ = Tiled_exec.run ~reuse_buffers:true plan ~inputs in
  Alcotest.(check int) "only the output" 1 (List.length results);
  Alcotest.(check bool) "named s3" true (List.mem_assoc "s3" results)

let () =
  Alcotest.run "pmdp_storage"
    [
      ( "storage",
        [
          Alcotest.test_case "chain lifetimes" `Quick test_lifetimes_chain;
          Alcotest.test_case "report savings" `Quick test_report_savings;
          Alcotest.test_case "fused report" `Quick test_report_fused_is_smaller;
          Alcotest.test_case "recycled execution exact" `Slow test_reuse_execution_correct;
          Alcotest.test_case "outputs only" `Quick test_reuse_only_outputs_returned;
        ] );
    ]

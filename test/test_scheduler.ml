(* Tests for the first-class Scheduler API, its one dispatch
   (Pmdp_baselines.Schedulers.schedule), and the option-returning app
   registry. *)

module Scheduler = Pmdp_core.Scheduler
module Schedule_spec = Pmdp_core.Schedule_spec
module Cost_model = Pmdp_core.Cost_model
module Pipeline = Pmdp_dsl.Pipeline
module Registry = Pmdp_apps.Registry
module Machine = Pmdp_machine.Machine
module Schedulers = Pmdp_baselines.Schedulers

let test_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Scheduler.to_string s ^ " round-trips")
        true
        (Scheduler.of_string (Scheduler.to_string s) = Some s))
    Scheduler.all

let test_of_string () =
  Alcotest.(check bool) "case insensitive" true (Scheduler.of_string "DP" = Some Scheduler.Dp);
  Alcotest.(check bool) "dp-inc" true (Scheduler.of_string "dp-inc" = Some Scheduler.Dp_inc);
  Alcotest.(check bool) "unknown" true (Scheduler.of_string "polymage2000" = None);
  Alcotest.(check bool) "empty" true (Scheduler.of_string "" = None)

let test_all_distinct_names () =
  let names = List.map Scheduler.to_string Scheduler.all in
  Alcotest.(check int) "six schedulers" 6 (List.length Scheduler.all);
  Alcotest.(check int) "distinct names" (List.length names)
    (List.length (List.sort_uniq compare names))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_names_mentions_all () =
  let s = Scheduler.names () in
  List.iter
    (fun sch ->
      let name = Scheduler.to_string sch in
      Alcotest.(check bool) (name ^ " listed") true (contains s name))
    Scheduler.all

let test_for_pipeline () =
  let small = (Registry.find_exn "unsharp").Registry.build ~scale:32 in
  let large = (Registry.find_exn "camera_pipe").Registry.build ~scale:32 in
  Alcotest.(check bool) "small stays dp" true (Scheduler.for_pipeline Scheduler.Dp small = Scheduler.Dp);
  Alcotest.(check bool) "large becomes dp-inc" true
    (Pipeline.n_stages large < 30 || Scheduler.for_pipeline Scheduler.Dp large = Scheduler.Dp_inc);
  Alcotest.(check bool) "greedy unchanged" true
    (Scheduler.for_pipeline Scheduler.Greedy large = Scheduler.Greedy)

let test_schedule_covers_stages () =
  (* Every scheduler must produce a spec that schedules every stage
     exactly once.  Autotune is skipped: it times real executions. *)
  let p = (Registry.find_exn "harris").Registry.build ~scale:32 in
  let config = Cost_model.default_config Machine.xeon in
  List.iter
    (fun sch ->
      let spec = Schedulers.schedule (Scheduler.for_pipeline sch p) config p in
      let scheduled =
        List.concat_map
          (fun (g : Schedule_spec.group) -> g.Schedule_spec.stages)
          spec.Schedule_spec.groups
      in
      Alcotest.(check int)
        (Scheduler.to_string sch ^ " schedules all stages")
        (Pipeline.n_stages p)
        (List.length (List.sort_uniq compare scheduled)))
    Scheduler.[ Dp; Dp_inc; Greedy; Halide; Manual ]

let test_dp_resolves_large () =
  (* The dispatch itself sends Dp on a large pipeline to Dp_inc, so no
     caller runs the unbounded DP on camera_pipe's 32 stages. *)
  let p = (Registry.find_exn "camera_pipe").Registry.build ~scale:32 in
  let config = Cost_model.default_config Machine.xeon in
  let shape sch =
    List.map
      (fun (g : Schedule_spec.group) -> (g.Schedule_spec.stages, g.Schedule_spec.tile_sizes))
      (Schedulers.schedule sch config p).Schedule_spec.groups
  in
  let dp = shape Scheduler.Dp and dp_inc = shape Scheduler.Dp_inc in
  Alcotest.(check int) "dp-inc's group count" (List.length dp_inc) (List.length dp);
  Alcotest.(check bool) "dp-inc's groups and tiles" true (dp = dp_inc)

let test_unregistered_raises () =
  (* The dispatch runs a baseline with no startup call; the core
     library's DP-only entry point refuses one and names the
     dispatch. *)
  let p = (Registry.find_exn "blur").Registry.build ~scale:32 in
  let config = Cost_model.default_config Machine.xeon in
  ignore (Schedulers.schedule Scheduler.Greedy config p);
  Alcotest.(check pass) "baseline runs through the dispatch" () ();
  match Scheduler.schedule Scheduler.Greedy config p with
  | _ -> Alcotest.fail "Pmdp_core.Scheduler.schedule ran a baseline"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "names the dispatch" true
        (contains msg "Pmdp_baselines.Schedulers.schedule")

let () =
  Alcotest.run "pmdp_scheduler"
    [
      ( "names",
        [
          Alcotest.test_case "round-trip" `Quick test_roundtrip;
          Alcotest.test_case "of_string" `Quick test_of_string;
          Alcotest.test_case "all distinct" `Quick test_all_distinct_names;
          Alcotest.test_case "names lists all" `Quick test_names_mentions_all;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "for_pipeline" `Quick test_for_pipeline;
          Alcotest.test_case "covers stages" `Quick test_schedule_covers_stages;
          Alcotest.test_case "dp on a large pipeline is dp-inc" `Quick test_dp_resolves_large;
          Alcotest.test_case "baselines installed" `Quick test_unregistered_raises;
        ] );
    ]

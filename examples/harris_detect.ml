(* Harris corner detection under all four schedulers.

   Builds the 11-stage Harris pipeline of the paper's Table 2,
   schedules it with H-manual, H-auto, PolyMage-A (greedy +
   auto-tuning), and PolyMageDP, validates each against the
   reference, and reports sequential execution times plus the
   strongest corner responses found.

   Run with: dune exec examples/harris_detect.exe [scale]
   (scale divides the paper's 4256x2832 image; default 8). *)

let time_schedule schedule inputs =
  let plan = Pmdp_exec.Tiled_exec.plan schedule in
  let t0 = Unix.gettimeofday () in
  let results, _ = Pmdp_exec.Tiled_exec.run plan ~inputs in
  (Unix.gettimeofday () -. t0, results)

let () =
  let scale = try int_of_string Sys.argv.(1) with _ -> 8 in
  let machine = Pmdp_machine.Machine.xeon in
  let config = Pmdp_core.Cost_model.default_config machine in
  let pipeline = Pmdp_apps.Harris.build ~scale () in
  let inputs = Pmdp_apps.Harris.inputs pipeline in
  let reference = Pmdp_exec.Reference.run pipeline ~inputs in
  let expected = List.assoc "harris" reference in
  let evaluate sched = fst (time_schedule sched inputs) in
  let schedules =
    [
      ("H-manual", Pmdp_baselines.Manual.schedule pipeline);
      ("H-auto", Pmdp_baselines.Halide_auto.schedule
                   (Pmdp_baselines.Halide_auto.params_for machine) pipeline);
      ("PolyMage-A", (Pmdp_baselines.Autotune.run ~evaluate pipeline).Pmdp_baselines.Autotune.best);
      ("PolyMageDP", fst (Pmdp_core.Schedule_spec.dp config pipeline));
    ]
  in
  Format.printf "Harris corner, %d stages, scale 1/%d:@." (Pmdp_dsl.Pipeline.n_stages pipeline) scale;
  List.iter
    (fun (name, sched) ->
      let t, results = time_schedule sched inputs in
      let out = List.assoc "harris" results in
      let ok = Pmdp_exec.Buffer.max_abs_diff out expected = 0.0 in
      Format.printf "  %-11s %3d groups  %7.1f ms  correct=%b@." name
        (Pmdp_core.Schedule_spec.n_groups sched) (t *. 1000.0) ok)
    schedules;
  (* Report the strongest response, to show the pipeline does real work. *)
  let best_v = ref neg_infinity and best_i = ref 0 in
  Array.iteri
    (fun i v -> if v > !best_v then begin best_v := v; best_i := i end)
    expected.Pmdp_exec.Buffer.data;
  let cols = expected.Pmdp_exec.Buffer.dims.(1).Pmdp_dsl.Stage.extent in
  Format.printf "strongest corner response %.4g at (%d, %d)@." !best_v (!best_i / cols)
    (!best_i mod cols)

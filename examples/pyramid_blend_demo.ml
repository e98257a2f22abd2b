(* Pyramid blending demo: the paper's largest benchmark (44 stages,
   4-level Laplacian pyramids over two images and a mask).

   Shows how the DP model copes with a pyramid DAG — rational scaling
   across levels, per-level fusion — and reports the grouping it
   finds next to the expert manual schedule, along with the
   incremental bounded variant (Alg. 3) at different group limits.

   Run with: dune exec examples/pyramid_blend_demo.exe [scale] *)

let () =
  let scale = try int_of_string Sys.argv.(1) with _ -> 16 in
  let machine = Pmdp_machine.Machine.xeon in
  let config = Pmdp_core.Cost_model.default_config machine in
  let pipeline = Pmdp_apps.Pyramid_blend.build ~scale () in
  Format.printf "pyramid_blend: %d stages at scale 1/%d@."
    (Pmdp_dsl.Pipeline.n_stages pipeline) scale;

  (* Full DP (state-budgeted) vs bounded incremental DP (Alg. 3). *)
  let full = Pmdp_core.Dp_grouping.run ~state_budget:100_000 ~config pipeline in
  Format.printf "  full DP:        cost=%10.1f groups=%2d states=%6d time=%.2fs%s@."
    full.Pmdp_core.Dp_grouping.cost
    (List.length full.Pmdp_core.Dp_grouping.groups)
    full.Pmdp_core.Dp_grouping.enumerated full.Pmdp_core.Dp_grouping.elapsed
    (if full.Pmdp_core.Dp_grouping.complete then "" else " (budget-truncated)");
  List.iter
    (fun limit ->
      let inc = Pmdp_core.Inc_grouping.run ~initial_limit:limit ~config pipeline in
      Format.printf "  inc DP (l=%2d):  cost=%10.1f groups=%2d states=%6d time=%.2fs@." limit
        inc.Pmdp_core.Inc_grouping.cost
        (List.length inc.Pmdp_core.Inc_grouping.groups)
        inc.Pmdp_core.Inc_grouping.total_enumerated inc.Pmdp_core.Inc_grouping.total_elapsed)
    [ 8; 16; 32 ];

  (* Execute the DP schedule and compare against the reference. *)
  let inputs = Pmdp_apps.Pyramid_blend.inputs pipeline in
  let sched = Pmdp_core.Schedule_spec.of_grouping config pipeline full.Pmdp_core.Dp_grouping.groups in
  let plan = Pmdp_exec.Tiled_exec.plan sched in
  let t0 = Unix.gettimeofday () in
  let results, _ = Pmdp_exec.Tiled_exec.run plan ~inputs in
  let dp_time = Unix.gettimeofday () -. t0 in
  let reference = Pmdp_exec.Reference.run pipeline ~inputs in
  let diff =
    Pmdp_exec.Buffer.max_abs_diff (List.assoc "output" results)
      (List.assoc "output" reference)
  in
  Format.printf "  DP schedule executes in %.1f ms, max |diff| vs reference = %g@."
    (dp_time *. 1000.0) diff;

  (* Compare with the expert manual schedule. *)
  let manual = Pmdp_baselines.Manual.schedule pipeline in
  let t0 = Unix.gettimeofday () in
  let mres, _ = Pmdp_exec.Tiled_exec.run (Pmdp_exec.Tiled_exec.plan manual) ~inputs in
  let m_time = Unix.gettimeofday () -. t0 in
  Format.printf "  manual schedule (%d groups): %.1f ms, agrees=%b@."
    (Pmdp_core.Schedule_spec.n_groups manual) (m_time *. 1000.0)
    (Pmdp_exec.Buffer.max_abs_diff (List.assoc "output" mres) (List.assoc "output" reference)
    = 0.0)

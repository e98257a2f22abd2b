(* Quickstart: the paper's blur example, end to end.

   Builds the two-stage blur pipeline of Fig. 1, runs the DP fusion
   model (PolyMageDP) to get a grouping and tile sizes, prints the
   C/OpenMP kernels the schedule lowers to (the shape of the paper's
   Fig. 3), executes it with the overlapped-tiling executor, and
   checks the result against the unfused reference.

   Run with: dune exec examples/quickstart.exe *)

let () =
  let machine = Pmdp_machine.Machine.xeon in
  let config = Pmdp_core.Cost_model.default_config machine in

  (* 1. Define the pipeline (blurx then blury over a 3-channel image). *)
  let pipeline = Pmdp_apps.Blur.build ~rows:510 ~cols:512 () in
  Format.printf "%a@.@." Pmdp_dsl.Pipeline.pp pipeline;

  (* 2. Run the DP fusion + tile-size model. *)
  let schedule, outcome = Pmdp_core.Schedule_spec.dp config pipeline in
  Format.printf "PolyMageDP grouping (cost %.3f, %d DP states):@.%a@.@."
    outcome.Pmdp_core.Dp_grouping.cost outcome.Pmdp_core.Dp_grouping.enumerated
    Pmdp_core.Schedule_spec.pp schedule;

  (* 3. Show the generated C kernels (Fig. 3 shape). *)
  print_endline "Generated C (truncated to 40 lines):";
  let code = Pmdp_codegen.C_emit.emit_kernels pipeline (Pmdp_plan.of_spec schedule) in
  List.iteri
    (fun i line -> if i < 40 then print_endline ("  " ^ line))
    (String.split_on_char '\n' code);
  print_endline "  ...";

  (* 4. Execute and validate against the reference. *)
  let inputs = Pmdp_apps.Blur.inputs pipeline in
  let plan = Pmdp_exec.Tiled_exec.plan schedule in
  let t0 = Unix.gettimeofday () in
  let results, _ = Pmdp_exec.Tiled_exec.run plan ~inputs in
  let tiled_time = Unix.gettimeofday () -. t0 in
  let reference = Pmdp_exec.Reference.run pipeline ~inputs in
  let out = List.assoc "blury" results in
  let expected = List.assoc "blury" reference in
  Format.printf "@.tiled executor: %.1f ms; max |diff| vs reference = %g@."
    (tiled_time *. 1000.0)
    (Pmdp_exec.Buffer.max_abs_diff out expected);

  (* 5. Same schedule on a persistent worker pool (domains are spawned
     once; with_pool joins them on the way out). *)
  Pmdp_runtime.Pool.with_pool 4 (fun pool ->
      let par, _ = Pmdp_exec.Tiled_exec.run ~pool plan ~inputs in
      Format.printf "parallel run agrees: %b@."
        (Pmdp_exec.Buffer.max_abs_diff (List.assoc "blury" par) expected = 0.0))

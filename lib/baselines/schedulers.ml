module Scheduler = Pmdp_core.Scheduler
module Cost_model = Pmdp_core.Cost_model
module Pipeline = Pmdp_dsl.Pipeline
module Buffer = Pmdp_exec.Buffer
module Rng = Pmdp_util.Rng

(* Deterministic synthetic inputs for the autotuner's timing runs:
   the tuner only compares schedules of one pipeline against each
   other, so any well-formed input data works. *)
let synth_inputs (p : Pipeline.t) =
  Array.to_list
    (Array.map
       (fun (inp : Pipeline.input) ->
         let b = Buffer.create inp.Pipeline.in_name inp.Pipeline.in_dims in
         let rng = Rng.create 1 in
         Buffer.fill b (fun _ -> Rng.float rng 1.0);
         (inp.Pipeline.in_name, b))
       p.Pipeline.inputs)

let schedule sch config p =
  let spec =
    match (sch : Scheduler.t) with
    | Dp | Dp_inc -> Scheduler.schedule sch config p
    | Greedy -> Polymage_greedy.schedule { Polymage_greedy.tile = 64; overlap_threshold = 0.4 } p
    | Halide -> Halide_auto.schedule (Halide_auto.params_for config.Cost_model.machine) p
    | Manual -> Manual.schedule p
    | Autotune ->
        let inputs = synth_inputs p in
        let evaluate sched =
          let plan = Pmdp_exec.Tiled_exec.plan sched in
          let t0 = Unix.gettimeofday () in
          ignore (Pmdp_exec.Tiled_exec.run plan ~inputs);
          Unix.gettimeofday () -. t0
        in
        (Autotune.run ~evaluate p).Autotune.best
  in
  match Pmdp_verify.Verify.check_legality spec with
  | Ok () -> spec
  | Error d ->
      invalid_arg
        (Printf.sprintf "Schedulers.schedule: %s produced an illegal schedule: %s"
           (Scheduler.to_string sch) (Pmdp_verify.Diagnostic.to_string d))

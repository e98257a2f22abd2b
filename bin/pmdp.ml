(* pmdp: command-line driver for the PolyMageDP reproduction.

   Subcommands:
     list                         — available pipelines
     schedule <app>               — print the grouping/tiles a scheduler picks
     run <app>                    — execute a schedule and validate vs reference
     bench                        — benchmark apps x schedulers x workers to JSON
     trace <app>                  — run with tracing on and summarize the trace
     emit-c <app>                 — print the C/OpenMP kernels of a schedule
     cachesim <app>               — simulated L1/L2 hit/miss fractions
     check [app]                  — static legality/bounds/race/lint verification
     serve                        — sharded pipeline-execution service (Unix or TCP socket)
     load                         — drive a service and report latency/throughput
     tune calibrate|<app>         — fit the cost model to bench data / autotune tile sizes
*)

open Cmdliner
module Scheduler = Pmdp_core.Scheduler
module Registry = Pmdp_apps.Registry
module Pool = Pmdp_runtime.Pool
module Trace = Pmdp_trace.Trace

let trace_t =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record an execution trace and write it to $(docv) as Chrome trace-event JSON \
                 (loadable in Perfetto or chrome://tracing).")

(* Enabled before the traced work starts; the JSON is written at the
   first exit point after the pool is quiescent, never from a finally
   (exit 1 paths must still leave a readable trace behind them). *)
let trace_begin trace = Option.iter (fun _ -> Trace.set_enabled true; Trace.reset ()) trace

let trace_end trace =
  Option.iter
    (fun path ->
      Trace.write path;
      Printf.printf "wrote trace %s\n%!" path)
    trace

let machine_conv =
  let parse s =
    match Pmdp_machine.Machine.by_name s with
    | Some m -> Ok m
    | None -> Error (`Msg (Printf.sprintf "unknown machine %S (xeon|opteron)" s))
  in
  Arg.conv (parse, fun ppf m -> Format.fprintf ppf "%s" m.Pmdp_machine.Machine.name)

let machine_t =
  Arg.(value & opt machine_conv Pmdp_machine.Machine.xeon & info [ "machine"; "m" ] ~doc:"Machine model (xeon or opteron).")

let scale_t =
  Arg.(value & opt int 8 & info [ "scale" ] ~doc:"Divide the paper's image extents by this factor.")

(* Unknown app names are rejected in Cmdliner's own error channel,
   with the list of valid names. *)
let app_conv =
  let parse s =
    match Registry.find s with
    | Some app -> Ok app
    | None ->
        Error (`Msg (Printf.sprintf "unknown app %S (expected one of: %s)" s (Registry.names ())))
  in
  Arg.conv (parse, fun ppf (a : Registry.app) -> Format.fprintf ppf "%s" a.Registry.name)

let app_t =
  Arg.(required & pos 0 (some app_conv) None & info [] ~docv:"APP" ~doc:"Pipeline name (see `pmdp list`).")

let scheduler_conv =
  let parse s =
    match Scheduler.of_string s with
    | Some sch -> Ok sch
    | None ->
        Error (`Msg (Printf.sprintf "unknown scheduler %S (expected one of: %s)" s (Scheduler.names ())))
  in
  Arg.conv (parse, fun ppf sch -> Format.fprintf ppf "%s" (Scheduler.to_string sch))

let scheduler_t =
  Arg.(value & opt scheduler_conv Scheduler.Dp
       & info [ "scheduler"; "s" ] ~doc:(Printf.sprintf "Scheduler: %s." (Scheduler.names ())))

let pool_sched_conv =
  Arg.enum [ ("static", Pool.Static); ("dynamic", Pool.Dynamic); ("chunked", Pool.Chunked 0) ]

(* Shared by run/bench/serve.  Native execution is opt-in: the
   interpreter is the semantic baseline and every kernel must pass its
   admission gate against it anyway. *)
let native_t =
  Arg.(
    value
    & vflag false
        [
          ( true,
            info [ "native" ]
              ~doc:
                "Compile each plan's fused groups to C, dlopen the shared object, and \
                 execute natively. Kernels are validated against the reference executor \
                 before first use and cached per plan digest; when none can be admitted \
                 (no C compiler, compile or validation failure) execution falls back to \
                 the interpreter." );
          ( false,
            info [ "no-native" ]
              ~doc:"Force the tiled interpreter even where a native kernel could run \
                    (default)." );
        ])

(* Every scheduling path in the CLI builds its config through this one
   constructor, so a loaded calibration reaches all of them the same
   way. *)
let make_schedule ?calib scheduler machine pipeline =
  Pmdp_baselines.Schedulers.schedule scheduler
    (Pmdp_core.Cost_model.config_of_machine ?calib machine)
    pipeline

(* CALIB_<machine>.json -> the fitted weights, with the artifact's
   digest/schema/machine checks applied; any failure is fatal (a
   silently ignored calibration would be worse than none). *)
let load_calib machine path =
  match Pmdp_tune.Calibration.validate path ~machine:machine.Pmdp_machine.Machine.name with
  | Ok c -> c.Pmdp_tune.Calibration.weights
  | Error msg ->
      Printf.eprintf "pmdp: calibration %s: %s\n" path msg;
      exit 1

let calib_file_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "calib-file" ] ~docv:"FILE"
        ~doc:
          "Load fitted cost-model weights from a $(i,CALIB_<machine>.json) artifact (written \
           by $(b,pmdp tune calibrate)) and schedule under the calibrated model instead of \
           the analytic defaults. The artifact's schema version, content digest, and machine \
           name are verified first.")

let build (app : Registry.app) scale = app.Registry.build ~scale

let list_cmd =
  let doc = "List available pipelines and schedulers." in
  let run () =
    Printf.printf "pipelines:\n";
    List.iter
      (fun (a : Registry.app) ->
        let p = a.Registry.build ~scale:32 in
        Printf.printf "  %-15s %-3s %2d stages (paper: %d)\n" a.Registry.name
          a.Registry.short (Pmdp_dsl.Pipeline.n_stages p) a.Registry.paper_stages)
      Registry.all;
    Printf.printf "schedulers:\n";
    List.iter
      (fun s -> Printf.printf "  %s\n" (Scheduler.to_string s))
      Scheduler.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let schedule_cmd =
  let doc = "Print the grouping and tile sizes a scheduler picks." in
  let run app scale machine scheduler =
    let pipeline = build app scale in
    let sched = make_schedule scheduler machine pipeline in
    Format.printf "%a@." Pmdp_core.Schedule_spec.pp sched
  in
  Cmd.v (Cmd.info "schedule" ~doc)
    Term.(const run $ app_t $ scale_t $ machine_t $ scheduler_t)

(* --inject specs are validated at the Cmdliner layer so a typo is a
   usage error, not a runtime crash. *)
let inject_conv =
  let parse s =
    match Pmdp_runtime.Fault.parse s with Ok specs -> Ok specs | Error msg -> Error (`Msg msg)
  in
  Arg.conv
    ( parse,
      fun ppf specs ->
        Format.fprintf ppf "%s"
          (String.concat "," (List.map Pmdp_runtime.Fault.spec_to_string specs)) )

(* The per-group execution profile of one resilient run: each group's
   measurements beside the model's prediction, then the fallback chain
   and, when tracing, the counter totals. *)
let pp_profile ~pipeline ~workers ~predicted ~counters ppf (o : Pmdp_exec.Resilient.outcome) =
  let groups = o.Pmdp_exec.Resilient.groups in
  let total =
    List.fold_left
      (fun acc (g : Pmdp_exec.Tiled_exec.group_stats) -> acc +. g.wall_seconds)
      0.0 groups
  in
  Format.fprintf ppf "@[<v>%s: %.3f ms over %d groups, %d workers%s@," pipeline
    (total *. 1000.0) (List.length groups) workers
    (if o.degraded then "  [DEGRADED]" else "");
  List.iter
    (fun (g : Pmdp_exec.Tiled_exec.group_stats) ->
      Format.fprintf ppf
        "  group %d {%s}: %d tiles, %.3f ms, occupancy %d/%d, scratch %d B, copy-out %d B%s@,"
        g.index (String.concat "," g.stages) g.tiles (g.wall_seconds *. 1000.0) g.occupancy
        workers g.scratch_bytes g.copy_out_bytes
        (match List.find_opt (fun (gi, _, _) -> gi = g.index) predicted with
        | Some (_, _, c) -> Printf.sprintf ", predicted %.4g" c
        | None -> ""))
    groups;
  List.iter
    (fun (st, err) ->
      let name = Pmdp_exec.Resilient.step_name st in
      match err with
      | None -> Format.fprintf ppf "  step %s: ok@," name
      | Some e -> Format.fprintf ppf "  step %s: FAILED (%s)@," name (Pmdp_util.Pmdp_error.to_string e))
    o.attempts;
  List.iter (fun (name, v) -> Format.fprintf ppf "  counter %s = %d@," name v) counters;
  Format.fprintf ppf "@]"

let run_cmd =
  let doc =
    "Execute a schedule through the resilient driver (fallback chain, memory budget, optional \
     fault injection) and validate against the reference executor."
  in
  let run (app : Registry.app) scale machine scheduler workers pool_sched profile mem_budget
      inject seed timeout native trace =
    let pipeline = build app scale in
    let inputs = app.Registry.inputs ~seed:1 pipeline in
    let sched = make_schedule scheduler machine pipeline in
    trace_begin trace;
    if native then Pmdp_kernel.Native_exec.install (Pmdp_kernel.Native_exec.create ());
    let pool = if workers > 1 then Some (Pool.create workers) else None in
    let fault = Option.map (fun specs -> Pmdp_runtime.Fault.create ~seed specs) inject in
    let t0 = Unix.gettimeofday () in
    let outcome =
      Pmdp_exec.Resilient.run ?pool ?sched:pool_sched ~machine ?mem_budget ?fault ?timeout sched
        ~inputs
    in
    let elapsed = Unix.gettimeofday () -. t0 in
    Option.iter Pool.shutdown pool;
    if native then Pmdp_kernel.Native_exec.uninstall ();
    let counters = if Trace.on () then Trace.counter_totals () else [] in
    trace_end trace;
    match outcome with
    | Error e ->
        Format.eprintf "pmdp run: %a@." Pmdp_util.Pmdp_error.pp e;
        exit 1
    | Ok ({ Pmdp_exec.Resilient.results; degraded; attempts; _ } as outcome) ->
        let worst =
          Pmdp_exec.Reference.(max_abs_diff ~reference:(run pipeline ~inputs) results)
        in
        let completed =
          match List.rev attempts with
          | (st, None) :: _ -> Pmdp_exec.Resilient.step_name st
          | _ -> "?"
        in
        Format.printf "%s via %s: %.1f ms (%d groups, %d workers, %s%s), max |diff| = %g@."
          app.Registry.name (Scheduler.to_string scheduler) (elapsed *. 1000.0)
          (Pmdp_core.Schedule_spec.n_groups sched)
          workers completed
          (if degraded then ", DEGRADED" else "")
          worst;
        (* under --profile the chain prints once, as the profile's step lines *)
        if degraded && not profile then
          List.iter
            (fun (st, err) ->
              Format.printf "  %-14s %s@."
                (Pmdp_exec.Resilient.step_name st)
                (match err with None -> "ok" | Some e -> Pmdp_util.Pmdp_error.to_string e))
            attempts;
        if profile then begin
          (* the predictions come from the config the schedule was
             built under *)
          let predicted =
            Pmdp_bench.Runner.group_predictions
              (Pmdp_core.Cost_model.config_of_machine machine)
              sched
          in
          Format.printf "%a@."
            (pp_profile ~pipeline:pipeline.Pmdp_dsl.Pipeline.name ~workers ~predicted ~counters)
            outcome
        end;
        if worst <> 0.0 then exit 1
  in
  let workers_t = Arg.(value & opt int 1 & info [ "workers"; "j" ] ~doc:"Worker domains.") in
  let pool_sched_t =
    Arg.(value & opt (some pool_sched_conv) None
         & info [ "pool-sched" ] ~doc:"Tile distribution: static, dynamic, or chunked (default).")
  in
  let profile_t =
    Arg.(value & flag & info [ "profile" ] ~doc:"Print the per-group execution profile.")
  in
  let mem_budget_t =
    Arg.(value & opt (some int) None
         & info [ "mem-budget" ]
             ~doc:"Memory budget in bytes (default: 64x the machine's L3). Plans whose scratch \
                   arenas exceed it degrade down the fallback chain; a working set over it is a \
                   typed error.")
  in
  let inject_t =
    Arg.(value & opt (some inject_conv) None
         & info [ "inject" ]
             ~doc:"Fault specs: comma-separated crash@K, kill@K, alloc@K, sleep@K:SECONDS, with \
                   K a tick number or 'r' (seeded random).")
  in
  let seed_t =
    Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Seed resolving random injection positions.")
  in
  let timeout_t =
    Arg.(value & opt (some float) None
         & info [ "timeout" ] ~doc:"Per-attempt watchdog in seconds (cooperative cancellation).")
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run $ app_t $ scale_t $ machine_t $ scheduler_t $ workers_t $ pool_sched_t
          $ profile_t $ mem_budget_t $ inject_t $ seed_t $ timeout_t $ native_t $ trace_t)

let bench_cmd =
  let doc =
    "Benchmark apps x schedulers x worker counts on the persistent pool, validate every run \
     against the reference executor, and write the results (median/min wall-clock and \
     per-group profiles) as JSON."
  in
  let run machine scale reps workers schedulers pool_sched output apps quiet native trace =
    let apps = match apps with [] -> Registry.all | apps -> apps in
    let log = if quiet then fun _ -> () else print_endline in
    trace_begin trace;
    if native then Pmdp_kernel.Native_exec.install (Pmdp_kernel.Native_exec.create ());
    let outcomes =
      Pmdp_bench.Runner.run_all ?pool_sched ~log ~reps ~scale ~machine ~workers ~schedulers apps
    in
    if native then Pmdp_kernel.Native_exec.uninstall ();
    trace_end trace;
    let path =
      match output with Some p -> p | None -> Pmdp_bench.Runner.default_path machine
    in
    (match Pmdp_bench.Runner.write_json ~path ~machine ~scale ~reps outcomes with
    | Ok () -> Printf.printf "wrote %s (%d cases)\n" path (List.length outcomes)
    | Error e ->
        Format.eprintf "pmdp bench: %a@." Pmdp_util.Pmdp_error.pp e;
        exit 1);
    if List.exists (fun o -> not (Pmdp_bench.Runner.valid o)) outcomes then begin
      Printf.eprintf "bench: some runs did not validate against the reference executor\n";
      exit 1
    end
  in
  let reps_t =
    Arg.(value & opt int 3 & info [ "reps" ] ~doc:"Repetitions per case (median/min reported).")
  in
  let workers_t =
    Arg.(value & opt (list int) [ 1; 4 ]
         & info [ "workers"; "j" ] ~doc:"Comma-separated pool sizes to benchmark.")
  in
  let schedulers_t =
    Arg.(value & opt (list scheduler_conv)
           Scheduler.[ Dp; Greedy; Halide; Manual ]
         & info [ "scheduler"; "s" ]
             ~doc:(Printf.sprintf
                     "Comma-separated schedulers to benchmark (of: %s). The autotuner is \
                      excluded by default because it executes its own schedule sweep."
                     (Scheduler.names ())))
  in
  let pool_sched_t =
    Arg.(value & opt (some pool_sched_conv) None
         & info [ "pool-sched" ] ~doc:"Tile distribution: static, dynamic, or chunked (default).")
  in
  let out_t =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~doc:"Output file (default BENCH_<machine>.json).")
  in
  let apps_t =
    Arg.(value & pos_all app_conv [] & info [] ~docv:"APP" ~doc:"Apps to benchmark (default: all).")
  in
  let quiet_t = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No per-case progress lines.") in
  Cmd.v (Cmd.info "bench" ~doc)
    Term.(const run $ machine_t $ scale_t $ reps_t $ workers_t $ schedulers_t $ pool_sched_t
          $ out_t $ apps_t $ quiet_t $ native_t $ trace_t)

let trace_cmd =
  let doc =
    "Execute a schedule with tracing enabled and summarize the trace: per-span-name histograms, \
     the slowest tiles, per-worker utilization, and counter totals.  Optionally also write the \
     raw Chrome trace-event JSON."
  in
  let run (app : Registry.app) scale machine scheduler workers pool_sched output top =
    let pipeline = build app scale in
    let inputs = app.Registry.inputs ~seed:1 pipeline in
    let sched = make_schedule scheduler machine pipeline in
    Trace.set_enabled true;
    Trace.reset ();
    let pool = if workers > 1 then Some (Pool.create workers) else None in
    let outcome = Pmdp_exec.Resilient.run ?pool ?sched:pool_sched ~machine sched ~inputs in
    Option.iter Pool.shutdown pool;
    (match outcome with
    | Error e ->
        Format.eprintf "pmdp trace: %a@." Pmdp_util.Pmdp_error.pp e;
        exit 1
    | Ok { Pmdp_exec.Resilient.degraded; _ } ->
        if degraded then Format.printf "note: run was DEGRADED (see resilient.step events)@.");
    Option.iter
      (fun path ->
        Trace.write path;
        Printf.printf "wrote trace %s\n%!" path)
      output;
    Trace.pp_summary ~top Format.std_formatter ();
    Format.pp_print_newline Format.std_formatter ()
  in
  let workers_t = Arg.(value & opt int 4 & info [ "workers"; "j" ] ~doc:"Worker domains.") in
  let pool_sched_t =
    Arg.(value & opt (some pool_sched_conv) None
         & info [ "pool-sched" ] ~doc:"Tile distribution: static, dynamic, or chunked (default).")
  in
  let out_t =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~doc:"Also write the Chrome trace-event JSON here.")
  in
  let top_t =
    Arg.(value & opt int 10 & info [ "top" ] ~doc:"How many of the slowest tiles to list.")
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(const run $ app_t $ scale_t $ machine_t $ scheduler_t $ workers_t $ pool_sched_t
          $ out_t $ top_t)

let emit_c_cmd =
  let doc =
    "Emit the C/OpenMP kernels for a schedule (stdout, or -o FILE): the translation unit \
     $(b,run --native) compiles."
  in
  let run app scale machine scheduler output =
    let pipeline = build app scale in
    let sched = make_schedule scheduler machine pipeline in
    let code = Pmdp_codegen.C_emit.emit_kernels pipeline (Pmdp_plan.of_spec sched) in
    match output with
    | None -> print_string code
    | Some path ->
        let oc = open_out path in
        output_string oc code;
        close_out oc;
        Printf.printf "wrote %s (%d bytes)\n" path (String.length code)
  in
  let out_t = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"Output file.") in
  Cmd.v (Cmd.info "emit-c" ~doc)
    Term.(const run $ app_t $ scale_t $ machine_t $ scheduler_t $ out_t)

let cachesim_cmd =
  let doc = "Simulated cache hit/miss fractions for a schedule (Table 5 methodology)." in
  let run (app : Registry.app) scale machine scheduler max_tiles =
    let pipeline = build app scale in
    let sched = make_schedule scheduler machine pipeline in
    let h = Pmdp_cachesim.Hierarchy.create machine in
    Pmdp_cachesim.Trace_exec.run ?max_tiles:(Some max_tiles) sched ~hierarchy:h;
    let f = Pmdp_cachesim.Hierarchy.fractions h in
    Format.printf "%s via %s: L1 hit %.2f%%  L2 hit %.2f%%  L2 miss %.2f%%  (%d accesses)@."
      app.Registry.name (Scheduler.to_string scheduler)
      (100.0 *. f.Pmdp_cachesim.Hierarchy.l1_hit)
      (100.0 *. f.Pmdp_cachesim.Hierarchy.l2_hit)
      (100.0 *. f.Pmdp_cachesim.Hierarchy.l2_miss)
      (Pmdp_cachesim.Hierarchy.total_accesses h)
  in
  let tiles_t = Arg.(value & opt int 256 & info [ "max-tiles" ] ~doc:"Tiles traced per group.") in
  Cmd.v (Cmd.info "cachesim" ~doc)
    Term.(const run $ app_t $ scale_t $ machine_t $ scheduler_t $ tiles_t)

let dot_cmd =
  let doc = "Export the pipeline DAG (optionally with a scheduler's grouping) as Graphviz dot." in
  let run app scale machine scheduler grouped output =
    let pipeline = build app scale in
    let dot =
      if grouped then begin
        let sched = make_schedule scheduler machine pipeline in
        Pmdp_dsl.Dot.grouping pipeline
          (List.map (fun (g : Pmdp_core.Schedule_spec.group) -> g.Pmdp_core.Schedule_spec.stages)
             sched.Pmdp_core.Schedule_spec.groups)
      end
      else Pmdp_dsl.Dot.pipeline pipeline
    in
    match output with
    | None -> print_string dot
    | Some path ->
        let oc = open_out path in
        output_string oc dot;
        close_out oc
  in
  let grouped_t = Arg.(value & flag & info [ "grouped"; "g" ] ~doc:"Cluster by the scheduler's groups.") in
  let out_t = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"Output file.") in
  Cmd.v (Cmd.info "dot" ~doc)
    Term.(const run $ app_t $ scale_t $ machine_t $ scheduler_t $ grouped_t $ out_t)

let check_cmd =
  let doc =
    "Statically verify schedules (legality, bounds, races, lint) and lowered plan IRs \
     (whole-plan analyzer) without running them.  Exit codes: 0 when clean, 1 on \
     error-severity diagnostics, 2 on a usage error."
  in
  let module D = Pmdp_verify.Diagnostic in
  let module Json = Pmdp_report.Json in
  let run app scale machine schedulers json plan plan_out plan_file =
    let usage msg =
      prerr_endline ("pmdp check: " ^ msg);
      exit 2
    in
    (* One result row per checked case: (app, source, plan digest, diagnostics). *)
    let results = ref [] in
    let add r = results := r :: !results in
    (match plan_file with
    | Some path ->
        let a =
          match app with
          | Some a -> a
          | None -> usage "--plan-file requires an APP to check the plan against"
        in
        let pipeline = a.Registry.build ~scale in
        (match Pmdp_plan.read path with
        | Error e -> add (a.Registry.name, path, None, [ D.make D.Plan D.Error ~kind:"unreadable" e ])
        | Ok (ir, claimed) ->
            let actual = Pmdp_plan.digest ir in
            let digest_ds =
              if actual <> claimed then
                [
                  D.make D.Plan D.Error ~kind:"digest-mismatch"
                    (Printf.sprintf "file claims digest %s but its content digests to %s" claimed
                       actual);
                ]
              else []
            in
            add (a.Registry.name, path, Some actual,
                 digest_ds @ Pmdp_verify.Verify.check_plan pipeline ir))
    | None ->
        let apps = match app with Some a -> [ a ] | None -> Registry.benchmarks in
        if plan_out <> None && (List.length apps <> 1 || List.length schedulers <> 1) then
          usage "--plan-out requires exactly one APP and one --scheduler";
        List.iter
          (fun (app : Registry.app) ->
            let pipeline = app.Registry.build ~scale in
            List.iter
              (fun scheduler ->
                (* The dispatch already runs dp-inc for dp on a large
                   pipeline; resolving here only names it in the report. *)
                let scheduler = Scheduler.for_pipeline scheduler pipeline in
                let ds, digest =
                  match make_schedule scheduler machine pipeline with
                  | exception Invalid_argument reason ->
                      (* The dispatch refuses a schedule that fails the
                         legality check: one error for this case, and the
                         remaining cases still run. *)
                      ([ D.make D.Legality D.Error ~kind:"rejected-schedule" reason ], None)
                  | sched -> (
                      let ds = Pmdp_verify.Verify.check_schedule sched in
                      if not (plan || plan_out <> None) then (ds, None)
                      else
                        match Pmdp_plan.of_spec_result sched with
                        | Error e ->
                            ( ds
                              @ [
                                  D.make D.Plan D.Error ~kind:(Pmdp_util.Pmdp_error.kind e)
                                    (Pmdp_util.Pmdp_error.message e);
                                ],
                              None )
                        | Ok ir ->
                            Option.iter
                              (fun path ->
                                Pmdp_plan.write path ir;
                                if not json then Printf.printf "wrote %s\n%!" path)
                              plan_out;
                            ( ds @ Pmdp_verify.Verify.check_plan pipeline ir,
                              Some (Pmdp_plan.digest ir) ))
                in
                add (app.Registry.name, Scheduler.to_string scheduler, digest, ds))
              schedulers)
          apps);
    let results = List.rev !results in
    let had_errors =
      List.exists (fun (_, _, _, ds) -> Pmdp_verify.Verify.errors ds <> []) results
    in
    if json then
      print_endline
        (Json.to_string_pretty
           (Json.Obj
              [
                ("status", Json.String (if had_errors then "error" else "ok"));
                ( "cases",
                  Json.List
                    (List.map
                       (fun (app, source, digest, ds) ->
                         Json.Obj
                           [
                             ("app", Json.String app);
                             ("source", Json.String source);
                             ( "plan_digest",
                               match digest with Some d -> Json.String d | None -> Json.Null );
                             ( "status",
                               Json.String
                                 (if Pmdp_verify.Verify.errors ds <> [] then "error" else "ok") );
                             ("summary", Json.String (D.summary ds));
                             ("diagnostics", Json.List (List.map D.to_json ds));
                           ])
                       results) );
              ]))
    else
      List.iter
        (fun (app, source, digest, ds) ->
          Format.printf "%-15s %-8s %s%s@." app source (D.summary ds)
            (match digest with Some d -> "  plan " ^ d | None -> "");
          List.iter (fun d -> Format.printf "  %a@." D.pp d) ds)
        results;
    if had_errors then exit 1
  in
  let app_opt_t =
    Arg.(value & pos 0 (some app_conv) None
         & info [] ~docv:"APP" ~doc:"Pipeline name (default: all six benchmarks).")
  in
  let scheds_t =
    Arg.(value & opt (list scheduler_conv) Scheduler.[ Dp; Greedy; Halide ]
         & info [ "scheduler"; "s" ] ~doc:"Comma-separated schedulers to check.")
  in
  let json_t =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Machine-readable output: one JSON object with per-case status and \
                   diagnostics (each carrying its failure_kind) on stdout.")
  in
  let plan_t =
    Arg.(value & flag
         & info [ "plan" ]
             ~doc:"Also lower each schedule to the serializable plan IR and run the whole-plan \
                   static analyzer (coverage, scratch consistency, dependences, budget audit).")
  in
  let plan_out_t =
    Arg.(value & opt (some string) None
         & info [ "plan-out" ] ~docv:"FILE"
             ~doc:"Write the lowered plan IR (with its content digest) to $(docv); requires \
                   exactly one APP and one --scheduler.  Implies --plan.")
  in
  let plan_file_t =
    Arg.(value & opt (some string) None
         & info [ "plan-file" ] ~docv:"FILE"
             ~doc:"Verify an on-disk plan IR against APP's pipeline instead of scheduling: \
                   digest check plus the whole-plan analyzer.")
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(const run $ app_opt_t $ scale_t $ machine_t $ scheds_t $ json_t $ plan_t $ plan_out_t
          $ plan_file_t)

let storage_cmd =
  let doc = "Report buffer lifetimes and the memory saved by recycling (storage optimization)." in
  let run app scale machine scheduler =
    let pipeline = build app scale in
    let sched = make_schedule scheduler machine pipeline in
    let r = Pmdp_exec.Storage.report pipeline (Pmdp_plan.of_spec sched) in
    List.iter
      (fun (l : Pmdp_exec.Storage.lifetime) ->
        Printf.printf "  %-14s %8d bytes  groups %d..%s\n" l.Pmdp_exec.Storage.stage
          l.Pmdp_exec.Storage.bytes l.Pmdp_exec.Storage.born
          (if l.Pmdp_exec.Storage.dies = max_int then "out"
           else string_of_int l.Pmdp_exec.Storage.dies))
      r.Pmdp_exec.Storage.lifetimes;
    Printf.printf "peak resident: naive %d bytes, with recycling %d bytes (%.1fx)\n"
      r.Pmdp_exec.Storage.peak_naive_bytes r.Pmdp_exec.Storage.peak_reuse_bytes
      (float_of_int r.Pmdp_exec.Storage.peak_naive_bytes
      /. float_of_int (max 1 r.Pmdp_exec.Storage.peak_reuse_bytes))
  in
  Cmd.v (Cmd.info "storage" ~doc)
    Term.(const run $ app_t $ scale_t $ machine_t $ scheduler_t)

let endpoint_conv =
  let parse s =
    match Pmdp_service.Transport.of_string s with Ok e -> Ok e | Error m -> Error (`Msg m)
  in
  let print ppf e = Format.pp_print_string ppf (Pmdp_service.Transport.to_string e) in
  Arg.conv (parse, print)

let endpoint_t =
  Arg.(value & opt endpoint_conv (Pmdp_service.Transport.Uds "pmdp.sock")
       & info [ "endpoint" ] ~docv:"ENDPOINT"
           ~doc:"Service endpoint, $(i,unix://PATH) or $(i,tcp://HOST:PORT).")

let serve_cmd =
  let doc =
    "Run the pipeline-execution service: fingerprint-routed dispatcher shards behind a \
     Unix-domain or TCP socket, each with a compiled-plan cache and bounded queue, with \
     admission control against the memory budget, priority-based load shedding, \
     same-pipeline request batching, and an optional persistent plan cache on disk. Stops on \
     a client shutdown operation or SIGINT; SIGTERM drains gracefully first (see \
     --drain-timeout)."
  in
  let run machine workers mem_budget max_inflight batch_window validate shards queue_limit
      cache_dir breaker_threshold breaker_cooldown drain_timeout endpoint native
      kernel_cache_dir calib_file retune trace =
    trace_begin trace;
    let calib = Option.map (load_calib machine) calib_file in
    let retune =
      if retune then Some Pmdp_service.Retune.default_config else None
    in
    let service =
      Pmdp_service.Service.create ~workers ?mem_budget ~max_inflight ~batch_window ~validate
        ~shards ~queue_limit ?cache_dir ~breaker_threshold ~breaker_cooldown ~native
        ?kernel_cache_dir ?calib ?retune ~machine ()
    in
    let server = Pmdp_service.Server.start ~service ~endpoint () in
    Printf.printf
      "pmdp serve: listening on %s (%d shards x %d workers, machine %s, budget %d bytes%s)\n%!"
      (Pmdp_service.Transport.to_string (Pmdp_service.Server.endpoint server))
      shards workers machine.Pmdp_machine.Machine.name
      (Pmdp_service.Service.mem_budget service)
      ((match cache_dir with None -> "" | Some d -> ", plan cache " ^ d)
      ^ (match kernel_cache_dir with Some d -> ", native kernels in " ^ d | None -> if native then ", native kernels" else ""));
    (* OCaml signal handlers only run when a thread reaches a
       safepoint — and a process whose every thread is parked in C
       (condition waits, accept) never does.  So the handler just
       flips a flag, and the main thread polls it from Thread.delay,
       which re-enters OCaml (and runs pending handlers) each tick. *)
    let stop_requested = Atomic.make false in
    let drain_requested = Atomic.make false in
    let flag a _ = Atomic.set a true in
    (try Sys.set_signal Sys.sigint (Sys.Signal_handle (flag stop_requested))
     with Invalid_argument _ -> ());
    (try Sys.set_signal Sys.sigterm (Sys.Signal_handle (flag drain_requested))
     with Invalid_argument _ -> ());
    while
      not
        (Atomic.get stop_requested || Atomic.get drain_requested
        || Pmdp_service.Server.stopped server)
    do
      Thread.delay 0.05
    done;
    if Atomic.get drain_requested && not (Atomic.get stop_requested) then begin
      (* SIGTERM: stop admitting, settle what is in flight, then stop.
         SIGINT (or a second signal) still cuts straight to stop. *)
      Printf.printf "pmdp serve: draining (up to %gs)...\n%!" drain_timeout;
      Pmdp_service.Server.drain ~timeout:drain_timeout server
    end;
    Pmdp_service.Server.stop server;
    Pmdp_service.Server.wait server;
    let s = Pmdp_service.Service.stats service in
    let tot = s.Pmdp_service.Service.total in
    Printf.printf
      "pmdp serve: done — %d submitted, %d completed, %d failed, %d rejected, %d shed, %d \
       expired; %d executions (%d batches covering %d requests); cache %d hits / %d compiles \
       / %d loaded; %d dispatcher restarts; breaker %d trips / %d rejects / %d closes\n%!"
      tot.Pmdp_service.Service.submitted tot.Pmdp_service.Service.completed
      tot.Pmdp_service.Service.failed tot.Pmdp_service.Service.rejected
      tot.Pmdp_service.Service.shed tot.Pmdp_service.Service.expired
      tot.Pmdp_service.Service.executions tot.Pmdp_service.Service.batches
      tot.Pmdp_service.Service.batched_requests
      tot.Pmdp_service.Service.cache.Pmdp_service.Plan_cache.hits
      tot.Pmdp_service.Service.cache.Pmdp_service.Plan_cache.compiles
      tot.Pmdp_service.Service.cache.Pmdp_service.Plan_cache.loads
      tot.Pmdp_service.Service.restarts
      s.Pmdp_service.Service.breaker.Pmdp_service.Breaker.trips
      s.Pmdp_service.Service.breaker.Pmdp_service.Breaker.rejects
      s.Pmdp_service.Service.breaker.Pmdp_service.Breaker.closes;
    (match s.Pmdp_service.Service.retune with
    | None -> ()
    | Some r ->
        Printf.printf
          "pmdp serve: retune — %d observed, %d hot, %d attempts, %d wins, %d losses, %d \
           swaps\n%!"
          r.Pmdp_service.Retune.observed r.Pmdp_service.Retune.hot
          r.Pmdp_service.Retune.started r.Pmdp_service.Retune.wins
          r.Pmdp_service.Retune.losses r.Pmdp_service.Retune.swaps);
    (match Pmdp_service.Service.kernel_stats service with
    | None -> ()
    | Some k ->
        Printf.printf
          "pmdp serve: kernels — %d compiled (%d failed), %d loaded from disk, %d \
           validations (%d rejected), %d native runs, %d plans unavailable\n%!"
          k.Pmdp_kernel.Native_exec.compiles k.Pmdp_kernel.Native_exec.compile_failures
          k.Pmdp_kernel.Native_exec.disk_hits k.Pmdp_kernel.Native_exec.validations
          k.Pmdp_kernel.Native_exec.validation_failures k.Pmdp_kernel.Native_exec.runs
          k.Pmdp_kernel.Native_exec.unavailable);
    trace_end trace
  in
  let workers_t = Arg.(value & opt int 4 & info [ "workers"; "j" ] ~doc:"Worker domains.") in
  let mem_budget_t =
    Arg.(value & opt (some int) None
         & info [ "mem-budget" ]
             ~doc:"Memory budget in bytes (default: 64x the machine's L3); bounds both \
                   admission and execution.")
  in
  let max_inflight_t =
    Arg.(value & opt int 64
         & info [ "max-inflight" ] ~doc:"Admitted-but-unfinished request limit.")
  in
  let batch_window_t =
    Arg.(value & opt float 0.0
         & info [ "batch-window" ]
             ~doc:"Seconds the dispatcher lingers so identical requests can join a batch \
                   (0: batch only what already queued up).")
  in
  let validate_t =
    Arg.(value & flag
         & info [ "validate" ]
             ~doc:"Check every execution against the reference executor (reported as \
                   max_abs_diff in responses).")
  in
  let shards_t =
    Arg.(value & opt int 1
         & info [ "shards" ]
             ~doc:"Dispatcher shards; requests route by plan fingerprint (consistent \
                   hashing), so identical requests always share a shard and still batch.")
  in
  let queue_limit_t =
    Arg.(value & opt int 128
         & info [ "queue-limit" ]
             ~doc:"Per-shard queue bound; beyond it the lowest-priority queued request is \
                   shed (or the incoming one refused).")
  in
  let cache_dir_t =
    Arg.(value & opt (some string) None
         & info [ "cache-dir" ] ~docv:"DIR"
             ~doc:"Persist compiled plans to $(docv) and warm-load them at startup, so a \
                   restarted server serves its first repeat request without compiling.")
  in
  let breaker_threshold_t =
    Arg.(value & opt int 3
         & info [ "breaker-threshold" ]
             ~doc:"Consecutive compile/execution failures of one plan fingerprint that trip \
                   its circuit open; further requests for that plan are refused instantly \
                   with a retryable circuit-open error.")
  in
  let breaker_cooldown_t =
    Arg.(value & opt float 5.0
         & info [ "breaker-cooldown" ]
             ~doc:"Seconds an open circuit waits before admitting one half-open probe; the \
                   probe's success closes the circuit, its failure re-trips it.")
  in
  let drain_timeout_t =
    Arg.(value & opt float 5.0
         & info [ "drain-timeout" ]
             ~doc:"Seconds a SIGTERM-triggered graceful drain waits for in-flight requests \
                   to settle before stopping; requests still queued at the deadline fail \
                   with a retryable overloaded error.")
  in
  let kernel_cache_dir_t =
    Arg.(value & opt (some string) None
         & info [ "kernel-cache-dir" ] ~docv:"DIR"
             ~doc:"Persist compiled native kernels (shared objects plus provenance \
                   metadata) to $(docv), so a restarted server answers its first request \
                   without invoking the C compiler. Implies --native; loaded objects are \
                   checksum-verified and re-validated before use.")
  in
  let retune_t =
    Arg.(
      value & flag
      & info [ "retune" ]
          ~doc:
            "Enable online re-optimization: per-fingerprint latency EWMAs mark hot plans, a \
             background tuner searches for better tile sizes under the (calibrated) cost \
             model, and the cached plan is atomically swapped only after the candidate wins \
             a guarded A/B comparison. Watch the service.retune.start/win/lose/swap trace \
             counters and the retune block of the stats op.")
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run $ machine_t $ workers_t $ mem_budget_t $ max_inflight_t $ batch_window_t
          $ validate_t $ shards_t $ queue_limit_t $ cache_dir_t $ breaker_threshold_t
          $ breaker_cooldown_t $ drain_timeout_t $ endpoint_t $ native_t
          $ kernel_cache_dir_t $ calib_file_t $ retune_t $ trace_t)

let load_cmd =
  let doc =
    "Generate load against a service — over its endpoint (Unix-domain or TCP socket), or \
     against an in-process service with --inproc — and write a latency/throughput report \
     (p50/p95/p99) as JSON."
  in
  let run machine endpoint inproc clients requests rate apps scale scheduler seeds
      retries backoff workers output quiet =
    let apps =
      match apps with
      | [] -> [ "blur" ]
      | apps -> List.map (fun (a : Registry.app) -> a.Registry.name) apps
    in
    let retry =
      Pmdp_service.Client.Retry_policy.create ~max_attempts:retries ~base_delay:backoff ()
    in
    let cfg =
      Pmdp_service.Load.config ~clients ~requests ?arrival_rate:rate ~apps ~scale ~scheduler
        ~seeds ~retry ()
    in
    let report =
      if inproc then begin
        let service = Pmdp_service.Service.create ~workers ~machine () in
        let r = Pmdp_service.Load.run_inproc service cfg in
        Pmdp_service.Service.shutdown service;
        r
      end
      else Pmdp_service.Load.run_remote ~endpoint cfg
    in
    let path = match output with Some p -> p | None -> Pmdp_service.Load.default_path machine in
    let write_result = Pmdp_service.Load.write_json ~path report in
    if not quiet then begin
      Printf.printf
        "%d requests in %.2fs: %d ok, %d failed — %.1f req/s; latency ms p50 %.2f p95 %.2f \
         p99 %.2f max %.2f; %d cache hits, %d batched\n"
        report.Pmdp_service.Load.config.Pmdp_service.Load.requests
        report.Pmdp_service.Load.wall_seconds report.Pmdp_service.Load.succeeded
        report.Pmdp_service.Load.failed report.Pmdp_service.Load.throughput_rps
        report.Pmdp_service.Load.p50_ms report.Pmdp_service.Load.p95_ms
        report.Pmdp_service.Load.p99_ms report.Pmdp_service.Load.max_ms
        report.Pmdp_service.Load.cache_hits report.Pmdp_service.Load.batched;
      List.iter
        (fun (k, n) -> Printf.printf "  %d x %s\n" n k)
        report.Pmdp_service.Load.errors;
      let rs = report.Pmdp_service.Load.retry in
      Printf.printf "retries: %d attempts, %d requests retried, %d gave up\n"
        rs.Pmdp_service.Client.attempts rs.Pmdp_service.Client.retried
        rs.Pmdp_service.Client.gave_up
    end;
    (match write_result with
    | Ok () -> Printf.printf "wrote %s\n" path
    | Error e ->
        Printf.eprintf "pmdp load: %s\n" (Pmdp_util.Pmdp_error.message e);
        exit 1);
    if report.Pmdp_service.Load.succeeded = 0 then exit 1
  in
  let inproc_t =
    Arg.(value & flag
         & info [ "inproc" ]
             ~doc:"Spin up the service in this process instead of connecting to a socket.")
  in
  let clients_t =
    Arg.(value & opt int 4 & info [ "clients"; "c" ] ~doc:"Concurrent client connections.")
  in
  let requests_t = Arg.(value & opt int 100 & info [ "n"; "requests" ] ~doc:"Total requests.") in
  let rate_t =
    Arg.(value & opt (some float) None
         & info [ "rate" ]
             ~doc:"Open-loop arrival rate in req/s (default: closed loop, one request in \
                   flight per client).")
  in
  let apps_t =
    Arg.(value & pos_all app_conv []
         & info [] ~docv:"APP" ~doc:"Request mix, round-robin (default: blur).")
  in
  let seeds_t =
    Arg.(value & opt int 1
         & info [ "seeds" ]
             ~doc:"Rotate input seeds through 1..N (1 maximizes batching opportunity).")
  in
  let retries_t =
    Arg.(value & opt int 1
         & info [ "retries" ]
             ~doc:"Attempts per request, including the first (1 = no retries). Retryable \
                   failures — overloaded, deadline-exceeded, dropped connections, open \
                   circuits — are re-sent with exponential backoff; permanent ones are \
                   not.")
  in
  let backoff_t =
    Arg.(value & opt float 0.005
         & info [ "backoff" ]
             ~doc:"Base backoff delay in seconds before the first retry; doubles per \
                   attempt (jittered, capped at 0.5s).")
  in
  let workers_t =
    Arg.(value & opt int 4 & info [ "workers"; "j" ] ~doc:"Worker domains (--inproc only).")
  in
  let out_t =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~doc:"Report file (default LOAD_<machine>.json).")
  in
  let quiet_t = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Only the report path.") in
  Cmd.v (Cmd.info "load" ~doc)
    Term.(const run $ machine_t $ endpoint_t $ inproc_t $ clients_t $ requests_t
          $ rate_t $ apps_t $ scale_t $ scheduler_t $ seeds_t $ retries_t $ backoff_t
          $ workers_t $ out_t $ quiet_t)

let tune_cmd =
  let doc =
    "Calibrate the cost model against measured bench data, or autotune an app's tile sizes \
     by seeded local search.  $(b,pmdp tune calibrate) fits the model weights to a bench \
     file's per-group timings and writes a digest-stamped CALIB_<machine>.json artifact; \
     $(b,pmdp tune APP) searches neighborhood moves over the DP-chosen tiles, scoring \
     candidates by measured wall time (or the model with --model-only), and validates the \
     winner bitwise against the reference executor."
  in
  let module Calibration = Pmdp_tune.Calibration in
  let module Search = Pmdp_tune.Search in
  let run target machine scale scheduler bench output check calib_file budget seed reps
      plan_out model_only =
    let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("pmdp tune: " ^ msg); exit 1) fmt in
    if target = "calibrate" then begin
      let machine_name = machine.Pmdp_machine.Machine.name in
      if check then begin
        (* Dry-run artifact validation: schema, digest, machine match,
           sanity — runs nothing. *)
        let path =
          match (calib_file, output) with
          | Some p, _ -> p
          | None, Some p -> p
          | None, None -> Calibration.default_path machine_name
        in
        match Calibration.validate path ~machine:machine_name with
        | Error msg -> fail "%s: %s" path msg
        | Ok c ->
            Format.printf "%s: ok@.%a@." path Calibration.pp c
      end
      else begin
        let bench_path =
          match bench with Some p -> p | None -> Pmdp_bench.Runner.default_path machine
        in
        match Calibration.samples_of_bench bench_path with
        | Error msg -> fail "%s: %s" bench_path msg
        | Ok (bench_machine, samples) -> (
            let fit_machine =
              match Pmdp_machine.Machine.by_name bench_machine with
              | Some m -> m
              | None -> fail "%s: unknown machine %S in bench file" bench_path bench_machine
            in
            match
              Calibration.fit ~machine:fit_machine ~source:(Filename.basename bench_path)
                samples
            with
            | Error msg -> fail "fit failed: %s" msg
            | Ok c ->
                let path =
                  match output with
                  | Some p -> p
                  | None -> Calibration.default_path fit_machine.Pmdp_machine.Machine.name
                in
                Calibration.write path c;
                Format.printf "%a@.wrote %s@." Calibration.pp c path)
      end
    end
    else begin
      let app =
        match Registry.find target with
        | Some app -> app
        | None ->
            fail "unknown target %S (expected \"calibrate\" or one of: %s)" target
              (Registry.names ())
      in
      let pipeline = build app scale in
      let inputs = app.Registry.inputs ~seed:1 pipeline in
      let calib = Option.map (load_calib machine) calib_file in
      let config = Pmdp_core.Cost_model.config_of_machine ?calib machine in
      let scheduler = Scheduler.for_pipeline scheduler pipeline in
      let sched = Pmdp_baselines.Schedulers.schedule scheduler config pipeline in
      (* Every candidate passes the gate a served plan passes
         (lowering, digest, whole-plan analyzer) before it is ever
         executed, and is timed by the retuner's own timer. *)
      let plan_of_spec spec =
        match Pmdp_plan.of_spec_result spec with
        | Error _ -> None
        | Ok ir ->
            Result.to_option
              (Pmdp_service.Plan_cache.load ~pipeline ~ir ~digest:(Pmdp_plan.digest ir))
      in
      let measure plan =
        let m = Pmdp_service.Retune.median_wall plan ~machine ~inputs ~reps:(max 1 reps) in
        if Float.is_finite m then Some m else None
      in
      let evaluate =
        if model_only then Search.model_evaluate config
        else fun spec -> Option.bind (plan_of_spec spec) measure
      in
      let init_score = evaluate sched in
      let tuned, result = Search.tune_spec ~seed ~budget ~evaluate sched in
      let pp_tiles ppf (spec : Pmdp_core.Schedule_spec.t) =
        List.iteri
          (fun i (g : Pmdp_core.Schedule_spec.group) ->
            Format.fprintf ppf "  group %d [%s]: %s@." i
              (String.concat " "
                 (List.map
                    (fun s -> (Pmdp_dsl.Pipeline.stage pipeline s).Pmdp_dsl.Stage.name)
                    g.Pmdp_core.Schedule_spec.stages))
              (String.concat "x"
                 (Array.to_list
                    (Array.map string_of_int g.Pmdp_core.Schedule_spec.tile_sizes))))
          spec.Pmdp_core.Schedule_spec.groups
      in
      let unit = if model_only then "cost" else "s" in
      Format.printf "%s via %s, %d evaluations (%d accepted, %d rejected), budget %d@."
        app.Registry.name (Scheduler.to_string scheduler) result.Search.stats.Search.evaluated
        result.Search.stats.Search.accepted result.Search.stats.Search.rejected budget;
      (match init_score with
      | Some s -> Format.printf "initial: %.6g %s@.%a" s unit pp_tiles sched
      | None -> fail "the initial schedule does not evaluate");
      Format.printf "tuned:   %.6g %s@.%a" result.Search.score unit pp_tiles tuned;
      (* The tuned schedule must still be exactly the pipeline: run it
         through the interpreter and demand bitwise agreement with the
         reference executor. *)
      (match plan_of_spec tuned with
      | None -> fail "tuned schedule failed re-validation"
      | Some plan -> (
          match Pmdp_exec.Resilient.run_plan ~machine plan ~inputs with
          | Error e -> fail "tuned schedule failed to execute: %s" (Pmdp_util.Pmdp_error.to_string e)
          | Ok { Pmdp_exec.Resilient.results; _ } ->
              let worst =
                Pmdp_exec.Reference.(max_abs_diff ~reference:(run pipeline ~inputs) results)
              in
              if worst <> 0.0 then fail "tuned schedule diverged from reference (max |diff| %g)" worst;
              Format.printf "validated: tuned plan matches the reference bitwise@."));
      match plan_out with
      | None -> ()
      | Some path -> (
          match Pmdp_plan.of_spec_result tuned with
          | Error e -> fail "plan lowering failed: %s" (Pmdp_util.Pmdp_error.to_string e)
          | Ok ir ->
              Pmdp_plan.write path ir;
              Format.printf "wrote %s (digest %s)@." path (Pmdp_plan.digest ir))
    end
  in
  let target_t =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TARGET"
          ~doc:"$(b,calibrate) to fit the cost model, or a pipeline name to autotune.")
  in
  let bench_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "bench" ] ~docv:"FILE"
          ~doc:
            "Schema-v3 bench file with per-group timings to calibrate from (default \
             BENCH_<machine>.json, as written by $(b,pmdp bench)).")
  in
  let out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Calibration artifact to write (default CALIB_<machine>.json).")
  in
  let check_t =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Dry-run: validate an existing calibration artifact (schema version, content \
             digest, machine match, weight sanity) without fitting or running anything. \
             Checks --calib-file, -o, or the default CALIB_<machine>.json, in that order.")
  in
  let budget_t =
    Arg.(
      value & opt int 32
      & info [ "budget" ]
          ~doc:"Evaluation budget of the local search (the initial point counts).")
  in
  let seed_t =
    Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Search seed; the walk is deterministic per seed.")
  in
  let reps_t =
    Arg.(
      value & opt int 3
      & info [ "reps" ] ~doc:"Executions per measured candidate (median is scored).")
  in
  let plan_out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "plan-out" ] ~docv:"FILE"
          ~doc:"Write the tuned schedule's plan IR (digest-stamped golden-plan envelope) to \
                $(docv).")
  in
  let model_only_t =
    Arg.(
      value & flag
      & info [ "model-only" ]
          ~doc:
            "Score candidates by the (calibrated) cost model instead of executing them — \
             deterministic and fast; use with --calib-file for predictions in seconds.")
  in
  Cmd.v (Cmd.info "tune" ~doc)
    Term.(const run $ target_t $ machine_t $ scale_t $ scheduler_t $ bench_t $ out_t $ check_t
          $ calib_file_t $ budget_t $ seed_t $ reps_t $ plan_out_t $ model_only_t)

let () =
  let doc = "PolyMageDP: DP-based fusion and tile-size model (PPoPP'18 reproduction)" in
  let info = Cmd.info "pmdp" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; schedule_cmd; run_cmd; bench_cmd; trace_cmd; emit_c_cmd; cachesim_cmd;
            dot_cmd; storage_cmd; check_cmd; serve_cmd; load_cmd; tune_cmd ]))

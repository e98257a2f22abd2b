(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (§6).

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe table2     -- grouping statistics
     dune exec bench/main.exe table3     -- execution times, Xeon model
     dune exec bench/main.exe table4     -- execution times, Opteron model
     dune exec bench/main.exe table5     -- cache fractions, Unsharp tiles
     dune exec bench/main.exe figure7    -- scaling over PolyMageDP seq
     dune exec bench/main.exe ablation   -- model ablations (ours)
     dune exec bench/main.exe bechamel   -- Bechamel micro-benchmarks

   Environment: PMDP_SCALE (default 8) divides the paper's image
   extents; PMDP_REPS (default 2) repetitions per measurement.  The
   16-core timings are reconstructed from measured per-tile durations
   under OpenMP-static scheduling (DESIGN.md, substitutions); the
   model decisions themselves use the paper's exact machine
   descriptors and Table 1 weights. *)

module Machine = Pmdp_machine.Machine
module Pipeline = Pmdp_dsl.Pipeline
module Cost_model = Pmdp_core.Cost_model
module Scheduler = Pmdp_core.Scheduler
module Schedule_spec = Pmdp_core.Schedule_spec
module Dp_grouping = Pmdp_core.Dp_grouping
module Inc_grouping = Pmdp_core.Inc_grouping
module Tiled_exec = Pmdp_exec.Tiled_exec
module Pool = Pmdp_runtime.Pool
module Registry = Pmdp_apps.Registry
module Table = Pmdp_report.Table
module Sim = Pmdp_bench.Sim
module Runner = Pmdp_bench.Runner

let scale = try int_of_string (Sys.getenv "PMDP_SCALE") with _ -> 8
let reps = try int_of_string (Sys.getenv "PMDP_REPS") with _ -> 2
let cores = 16 (* the paper evaluates on 16 cores *)

(* ------------------------------------------------------------------ *)
(* Measurement (shared with `pmdp bench`, see Pmdp_bench)              *)

let measure_schedule sched inputs : Sim.measurement =
  Sim.measure_schedule ~reps ~cores sched inputs

let via sch config p =
  lazy (Pmdp_baselines.Schedulers.schedule (Scheduler.for_pipeline sch p) config p)
let dp_schedule config p = Lazy.force (via Scheduler.Dp config p)

let configs machine p =
  let config = Cost_model.default_config machine in
  [
    ("H-manual", via Scheduler.Manual config p);
    ("H-auto", via Scheduler.Halide config p);
    ("PolyMage-A", via Scheduler.Autotune config p);
    ("PolyMageDP", via Scheduler.Dp config p);
  ]

type app_result = { app : Registry.app; times : (string * Sim.measurement) list }

let measure_app machine (app : Registry.app) =
  let p = app.Registry.build ~scale in
  let inputs = app.Registry.inputs ~seed:1 p in
  let times =
    List.map
      (fun (name, sched) -> (name, measure_schedule (Lazy.force sched) inputs))
      (configs machine p)
  in
  { app; times }

(* ------------------------------------------------------------------ *)
(* Table 1: cost-function weights                                      *)

let table1 () =
  let t = Table.create [ "System"; "w1"; "w2"; "w3"; "w4"; "IMTS"; "L1"; "L2"; "cores" ] in
  let row (m : Machine.t) =
    Table.add_row t
      [
        m.Machine.name;
        string_of_float m.Machine.w1;
        string_of_float m.Machine.w2;
        string_of_float m.Machine.w3;
        string_of_float m.Machine.w4;
        string_of_int m.Machine.innermost_tile_size;
        string_of_int (m.Machine.l1_bytes / 1024) ^ "K";
        string_of_int (m.Machine.l2_bytes / 1024) ^ "K";
        string_of_int m.Machine.cores;
      ]
  in
  row Machine.xeon;
  row Machine.opteron;
  Table.print ~title:"Table 1: weights and machine parameters" t

(* ------------------------------------------------------------------ *)
(* Table 2: grouping statistics                                        *)

let table2 () =
  let config = Cost_model.default_config Machine.xeon in
  let t =
    Table.create
      [ "Benchmark"; "Stages"; "max|succ|"; "enum l=inf"; "l=32"; "l=16"; "l=8";
        "t(inf)s"; "t(32)s"; "t(16)s"; "t(8)s" ]
  in
  List.iter
    (fun (app : Registry.app) ->
      let p = app.Registry.build ~scale in
      let n = Pipeline.n_stages p in
      (* Unbounded DP only where tractable; '-' marks an intractable
         unbounded run (the paper's '-' is the mirror case: bounded
         runs that were not needed). *)
      let inf_enum, inf_time, max_succ =
        let o = Dp_grouping.run ~state_budget:2_000_000 ~config p in
        ( string_of_int o.Dp_grouping.enumerated
          ^ (if o.Dp_grouping.complete then "" else "+"),
          Printf.sprintf "%.2f" o.Dp_grouping.elapsed,
          string_of_int o.Dp_grouping.max_succ )
      in
      let bounded l =
        if n <= 12 then ("-", "-")
        else begin
          let inc = Inc_grouping.run ~initial_limit:l ~final_unbounded:false ~config p in
          ( string_of_int inc.Inc_grouping.total_enumerated,
            Printf.sprintf "%.2f" inc.Inc_grouping.total_elapsed )
        end
      in
      let e32, t32 = bounded 32 in
      let e16, t16 = bounded 16 in
      let e8, t8 = bounded 8 in
      Table.add_row t
        [ app.Registry.name; string_of_int n; max_succ; inf_enum; e32; e16; e8;
          inf_time; t32; t16; t8 ])
    Registry.benchmarks;
  Table.print
    ~title:
      (Printf.sprintf "Table 2: fusion choices enumerated and grouping time (scale 1/%d)" scale)
    t

(* ------------------------------------------------------------------ *)
(* Tables 3 and 4: execution times                                     *)

let exec_table machine title =
  let t =
    Table.create
      [ "Benchmark"; "H-man 1"; "H-man 16"; "H-auto 1"; "H-auto 16"; "PM-A 1"; "PM-A 16";
        "PMDP 1"; "PMDP 16"; "vs H-man"; "vs H-auto"; "vs PM-A" ]
  in
  let results = List.map (measure_app machine) Registry.benchmarks in
  List.iter
    (fun r ->
      let get name = List.assoc name r.times in
      let hm = get "H-manual" in
      let ha = get "H-auto" in
      let pa = get "PolyMage-A" in
      let dp = get "PolyMageDP" in
      let ms v = Table.fms (v *. 1000.0) in
      Table.add_row t
        [
          r.app.Registry.name;
          ms hm.Sim.t1; ms hm.Sim.t16; ms ha.Sim.t1; ms ha.Sim.t16; ms pa.Sim.t1; ms pa.Sim.t16; ms dp.Sim.t1; ms dp.Sim.t16;
          Table.fx (hm.Sim.t16 /. dp.Sim.t16);
          Table.fx (ha.Sim.t16 /. dp.Sim.t16);
          Table.fx (pa.Sim.t16 /. dp.Sim.t16);
        ])
    results;
  Table.print ~title t;
  results

let table3 () =
  ignore
    (exec_table Machine.xeon
       (Printf.sprintf
          "Table 3: execution times (ms) on the Xeon model, 1 and 16 cores (scale 1/%d, %d reps)"
          scale reps))

let table4 () =
  ignore
    (exec_table Machine.opteron
       (Printf.sprintf
          "Table 4: execution times (ms) on the Opteron model, 1 and 16 cores (scale 1/%d, %d reps)"
          scale reps))

(* ------------------------------------------------------------------ *)
(* Figure 7: scaling normalized to PolyMageDP sequential               *)

let figure7 () =
  let results = exec_table Machine.xeon "Figure 7 base data: execution times on the Xeon model" in
  let t = Table.create [ "Benchmark"; "Config"; "speedup @1"; "speedup @16" ] in
  List.iter
    (fun r ->
      let base = (List.assoc "PolyMageDP" r.times).Sim.t1 in
      List.iter
        (fun (name, m) ->
          Table.add_row t
            [
              r.app.Registry.name; name;
              Printf.sprintf "%.2f" (base /. m.Sim.t1);
              Printf.sprintf "%.2f" (base /. m.Sim.t16);
            ])
        r.times)
    results;
  Table.print ~title:"Figure 7: speedup over PolyMageDP sequential (Xeon model)" t;
  (* Full scaling curve of the PolyMageDP schedules, from the same
     measured per-tile durations under static scheduling. *)
  let t2 =
    Table.create [ "Benchmark"; "@1"; "@2"; "@4"; "@8"; "@16"; "tiles" ]
  in
  let config = Cost_model.default_config Machine.xeon in
  List.iter
    (fun (app : Registry.app) ->
      let p = app.Registry.build ~scale in
      let inputs = app.Registry.inputs ~seed:1 p in
      let sched = dp_schedule config p in
      let plan = Tiled_exec.plan sched in
      let _, timings = Tiled_exec.run_timed plan ~inputs in
      let total w =
        List.fold_left
          (fun acc (g : Tiled_exec.group_timing) ->
            acc
            +. Pool.simulate_makespan ~sched:Pool.Static ~workers:w g.Tiled_exec.tile_durations)
          0.0 timings
      in
      let base = total 1 in
      Table.add_row t2
        (app.Registry.name
        :: List.map (fun w -> Printf.sprintf "%.2f" (base /. total w)) [ 1; 2; 4; 8; 16 ]
        @ [ string_of_int (Tiled_exec.total_tiles plan) ]))
    Registry.benchmarks;
  Table.print ~title:"Figure 7 (extended): PolyMageDP scaling, 1..16 simulated cores" t2

(* ------------------------------------------------------------------ *)
(* Table 5: cache behaviour of Unsharp Mask tile sizes                 *)

let table5 () =
  let machine = Machine.xeon in
  let p = Pmdp_apps.Unsharp.build ~scale () in
  let inputs = Pmdp_apps.Unsharp.inputs p in
  let stages = List.init (Pipeline.n_stages p) Fun.id in
  let t = Table.create [ "Tile size"; "L1 HIT %"; "L2 HIT %"; "L2 MISS %"; "Runtime (ms)" ] in
  List.iter
    (fun (tx, ty) ->
      let sched = Schedule_spec.with_tiles p [ (stages, [| 3; tx; ty |]) ] in
      let h = Pmdp_cachesim.Hierarchy.create machine in
      Pmdp_cachesim.Trace_exec.run ~max_tiles:64 sched ~hierarchy:h;
      let f = Pmdp_cachesim.Hierarchy.fractions h in
      let m = measure_schedule sched inputs in
      Table.add_row t
        [
          Printf.sprintf "%dx%d" tx ty;
          Printf.sprintf "%.2f" (100.0 *. f.Pmdp_cachesim.Hierarchy.l1_hit);
          Printf.sprintf "%.2f" (100.0 *. f.Pmdp_cachesim.Hierarchy.l2_hit);
          Printf.sprintf "%.2f" (100.0 *. f.Pmdp_cachesim.Hierarchy.l2_miss);
          Table.fms (m.Sim.t1 *. 1000.0);
        ])
    [ (128, 256); (16, 256); (8, 416); (5, 256) ];
  Table.print
    ~title:
      (Printf.sprintf
         "Table 5: simulated cache fractions for Unsharp Mask tiles (Xeon hierarchy, scale 1/%d)"
         scale)
    t;
  (* What does the model itself pick? *)
  let config = Cost_model.default_config machine in
  let v = Cost_model.cost config p stages in
  Format.printf "model's own choice for the fused group: %a@." Cost_model.pp_verdict v

(* ------------------------------------------------------------------ *)
(* Ablations (ours): model variants the paper motivates                *)

let ablation () =
  let machine = Machine.xeon in
  let t = Table.create [ "Variant"; "UM groups"; "UM t16(ms)"; "HC groups"; "HC t16(ms)" ] in
  let variants =
    [
      ("default", Cost_model.default_config machine);
      ( "literal w2 (paper's printed form)",
        { (Cost_model.default_config machine) with Cost_model.w2_mode = Cost_model.Literal } );
      ( "actual tile count for w2",
        { (Cost_model.default_config machine) with Cost_model.paper_n_tiles = false } );
      ("IMTS 128", Cost_model.default_config { machine with Machine.innermost_tile_size = 128 });
      ( "fuse reductions",
        { (Cost_model.default_config machine) with Cost_model.fuse_reductions = true } );
    ]
  in
  let apps = [ Registry.find_exn "unsharp"; Registry.find_exn "harris" ] in
  List.iter
    (fun (name, config) ->
      let cells =
        List.concat_map
          (fun (app : Registry.app) ->
            let p = app.Registry.build ~scale in
            let inputs = app.Registry.inputs ~seed:1 p in
            let sched = fst (Schedule_spec.dp config p) in
            let m = measure_schedule sched inputs in
            [ string_of_int (Schedule_spec.n_groups sched); Table.fms (m.Sim.t16 *. 1000.0) ])
          apps
      in
      Table.add_row t (name :: cells))
    variants;
  Table.print ~title:"Ablation: cost-model variants (DP grouping, Xeon model)" t;
  (* Inlining (the paper's §6.2 explanation for H-manual's camera-pipe
     advantage): scheduling the camera pipeline after inlining its
     cheap wrapper stages. *)
  let t2 = Table.create [ "Camera pipeline variant"; "stages"; "groups"; "t1(ms)"; "t16(ms)" ] in
  let config = Cost_model.default_config machine in
  let app = Registry.find_exn "camera_pipe" in
  List.iter
    (fun (name, transform) ->
      let p = transform (app.Registry.build ~scale) in
      let inputs = app.Registry.inputs ~seed:1 p in
      let sched = dp_schedule config p in
      let m = measure_schedule sched inputs in
      Table.add_row t2
        [
          name;
          string_of_int (Pipeline.n_stages p);
          string_of_int (Schedule_spec.n_groups sched);
          Table.fms (m.Sim.t1 *. 1000.0);
          Table.fms (m.Sim.t16 *. 1000.0);
        ])
    [
      ("as written (32 stages)", Fun.id);
      ("inline_all (cheap wrappers folded)", Pmdp_dsl.Inline.inline_all ~max_cost:3);
    ];
  Table.print ~title:"Ablation: stage inlining on Camera Pipeline (paper 6.2)" t2

(* ------------------------------------------------------------------ *)
(* Cross-pollination (paper §6.2): the paper isolates grouping from
   tile sizes by transplanting PolyMageDP's grouping (and then also
   its tile sizes) into H-manual, taking Harris from 33.0 to 12.6 to
   8.8 ms.  We run the full 2x2 matrix {grouping} x {tile sizes} for
   the manual schedule and the DP model.                               *)

let cross_pollination () =
  let machine = Machine.xeon in
  let config = Cost_model.default_config machine in
  let t =
    Table.create [ "Benchmark"; "Grouping"; "Tile sizes"; "t1 (ms)"; "t16 (ms)" ]
  in
  List.iter
    (fun name ->
      let app = Registry.find_exn name in
      let p = app.Registry.build ~scale in
      let inputs = app.Registry.inputs ~seed:1 p in
      let manual = Pmdp_baselines.Manual.schedule p in
      let dp = fst (Schedule_spec.dp config p) in
      let groups_of (s : Schedule_spec.t) =
        List.map (fun (g : Schedule_spec.group) -> g.Schedule_spec.stages) s.Schedule_spec.groups
      in
      (* a grouping with the tile sizes the model would pick for it *)
      let with_model_tiles grouping = Schedule_spec.of_grouping config p grouping in
      (* a grouping with the manual schedule's uniform tile shape *)
      let manual_tile_shape =
        match manual.Schedule_spec.groups with
        | g :: _ -> g.Schedule_spec.tile_sizes
        | [] -> [| 32; 256 |]
      in
      let with_manual_tiles grouping =
        Schedule_spec.with_tiles p (List.map (fun g -> (g, manual_tile_shape)) grouping)
      in
      List.iter
        (fun (glabel, grouping) ->
          List.iter
            (fun (tlabel, make) ->
              let sched = make grouping in
              let m = measure_schedule sched inputs in
              Table.add_row t
                [ name; glabel; tlabel; Table.fms (m.Sim.t1 *. 1000.0); Table.fms (m.Sim.t16 *. 1000.0) ])
            [ ("manual", with_manual_tiles); ("model", with_model_tiles) ])
        [ ("manual", groups_of manual); ("PolyMageDP", groups_of dp) ])
    [ "harris"; "unsharp" ];
  Table.print
    ~title:
      (Printf.sprintf
         "Cross-pollination (paper 6.2): grouping x tile-size transplants (scale 1/%d)" scale)
    t

(* ------------------------------------------------------------------ *)
(* Tile sweep: how close is the model's analytic tile choice to the
   measured optimum?  (The question behind the paper's Table 5.)      *)

let tile_sweep () =
  let machine = Machine.xeon in
  let p = Pmdp_apps.Unsharp.build ~scale () in
  let inputs = Pmdp_apps.Unsharp.inputs p in
  let stages = List.init (Pipeline.n_stages p) Fun.id in
  let t = Table.create [ "Tile (x)"; "Tile (y)"; "t1 (ms)"; "t16 (ms)" ] in
  let best = ref (infinity, (0, 0)) in
  let xs = [ 4; 5; 8; 16; 32; 64; 128 ] and ys = [ 64; 128; 256; 416 ] in
  List.iter
    (fun tx ->
      List.iter
        (fun ty ->
          let sched = Schedule_spec.with_tiles p [ (stages, [| 3; tx; ty |]) ] in
          let m = measure_schedule sched inputs in
          if m.Sim.t16 < fst !best then best := (m.Sim.t16, (tx, ty));
          Table.add_row t
            [ string_of_int tx; string_of_int ty; Table.fms (m.Sim.t1 *. 1000.0);
              Table.fms (m.Sim.t16 *. 1000.0) ])
        ys)
    xs;
  Table.print
    ~title:
      (Printf.sprintf "Tile sweep: Unsharp Mask fused group, %d tile shapes (scale 1/%d)"
         (List.length xs * List.length ys) scale)
    t;
  let config = Cost_model.default_config machine in
  let v = Cost_model.cost config p stages in
  let _, (bx, by) = !best in
  Format.printf "measured best: %dx%d; model's analytic choice: %a@." bx by
    Cost_model.pp_verdict v

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table/figure           *)

let bechamel () =
  let open Bechamel in
  let um = Registry.find_exn "unsharp" in
  let p = um.Registry.build ~scale:(scale * 2) in
  let inputs = um.Registry.inputs ~seed:1 p in
  let config = Cost_model.default_config Machine.xeon in
  let sched = fst (Schedule_spec.dp config p) in
  let plan = Tiled_exec.plan sched in
  let tests =
    [
      Test.make ~name:"table2.dp_grouping_harris"
        (Staged.stage (fun () ->
             ignore (Dp_grouping.run ~config (Pmdp_apps.Harris.build ~scale:32 ()))));
      Test.make ~name:"table3.unsharp_dp_execution"
        (Staged.stage (fun () -> ignore (Tiled_exec.run plan ~inputs)));
      Test.make ~name:"table4.opteron_model_cost"
        (Staged.stage (fun () ->
             ignore
               (Cost_model.cost
                  (Cost_model.default_config Machine.opteron)
                  p
                  (List.init (Pipeline.n_stages p) Fun.id))));
      Test.make ~name:"table5.cachesim_unsharp_tile"
        (Staged.stage (fun () ->
             let h = Pmdp_cachesim.Hierarchy.create Machine.xeon in
             Pmdp_cachesim.Trace_exec.run ~max_tiles:4 sched ~hierarchy:h));
      Test.make ~name:"figure7.makespan_simulation"
        (Staged.stage (fun () ->
             let durations = Array.init 4096 (fun i -> float_of_int (i mod 97) *. 1e-6) in
             ignore (Pool.simulate_makespan ~workers:16 durations)));
    ]
  in
  let benchmark test =
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
    let results = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
    let results =
      Analyze.all
        (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
        instance results
    in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ est ] -> Printf.printf "  %-42s %14.1f ns/run\n%!" name est
        | _ -> Printf.printf "  %-42s (no estimate)\n%!" name)
      results
  in
  print_endline "Bechamel micro-benchmarks (one per table/figure):";
  List.iter benchmark tests

(* ------------------------------------------------------------------ *)

let () =
  let which = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  let t0 = Unix.gettimeofday () in
  (match which with
  | "table1" -> table1 ()
  | "table2" -> table2 ()
  | "table3" -> table3 ()
  | "table4" -> table4 ()
  | "table5" -> table5 ()
  | "figure7" -> figure7 ()
  | "ablation" -> ablation ()
  | "tilesweep" -> tile_sweep ()
  | "crosspollination" -> cross_pollination ()
  | "bechamel" -> bechamel ()
  | "all" ->
      table1 ();
      table2 ();
      table3 ();
      table4 ();
      table5 ();
      figure7 ();
      ablation ();
      tile_sweep ();
      cross_pollination ()
  | other ->
      Printf.eprintf "unknown target %S\n" other;
      exit 2);
  Printf.printf "\n[bench completed in %.1fs]\n" (Unix.gettimeofday () -. t0)

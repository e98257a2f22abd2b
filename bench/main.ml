(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (§6).

     dune exec bench/main.exe                   -- everything
     dune exec bench/main.exe table2            -- grouping statistics
     dune exec bench/main.exe table3            -- execution times, Xeon model
     dune exec bench/main.exe table4            -- execution times, Opteron model
     dune exec bench/main.exe table5            -- cache fractions, Unsharp tiles
     dune exec bench/main.exe figure7           -- scaling over PolyMageDP seq
     dune exec bench/main.exe ablation          -- model ablations (ours)
     dune exec bench/main.exe tilesweep         -- Unsharp tile shapes (ours)
     dune exec bench/main.exe crosspollination  -- grouping x tile transplants

   Environment: PMDP_SCALE (default 8) divides the paper's image
   extents; PMDP_REPS (default 2) repetitions per measurement.  Every
   time printed is a Pmdp_bench.Runner outcome, the best of its reps
   under OpenMP-static tile distribution, and every rep is checked
   bitwise against the reference executor.  The 1-core times are real
   runs; worker counts past the host's cores are reconstructed from
   measured per-tile durations (DESIGN.md, substitutions).  A case
   that fails the check prints INVALID, and the run then exits 1.  The
   model decisions use the paper's exact machine descriptors and
   Table 1 weights. *)

module Machine = Pmdp_machine.Machine
module Pipeline = Pmdp_dsl.Pipeline
module Cost_model = Pmdp_core.Cost_model
module Scheduler = Pmdp_core.Scheduler
module Schedule_spec = Pmdp_core.Schedule_spec
module Dp_grouping = Pmdp_core.Dp_grouping
module Inc_grouping = Pmdp_core.Inc_grouping
module Reference = Pmdp_exec.Reference
module Registry = Pmdp_apps.Registry
module Table = Pmdp_report.Table
module Runner = Pmdp_bench.Runner

let scale = try int_of_string (Sys.getenv "PMDP_SCALE") with _ -> 8
let reps = try int_of_string (Sys.getenv "PMDP_REPS") with _ -> 2

(* ------------------------------------------------------------------ *)
(* Measurement: Runner outcomes, printed                               *)

let invalid = ref false

(* A case's time in seconds; [None], and a failing exit, when it did
   not pass the reference check. *)
let seconds (o : Runner.outcome) =
  if Runner.valid o then Some o.Runner.min_s
  else begin
    invalid := true;
    None
  end

let ms o = match seconds o with Some s -> Table.fms (s *. 1000.0) | None -> "INVALID"

let ratio print a b =
  match (seconds a, seconds b) with Some x, Some y -> print (x /. y) | _ -> "INVALID"

let speedup = ratio (Printf.sprintf "%.2f")
let at w outcomes = List.find (fun (o : Runner.outcome) -> o.Runner.workers = w) outcomes

let of_scheduler sch outcomes =
  List.filter (fun (o : Runner.outcome) -> o.Runner.scheduler = sch) outcomes

(* The paper evaluates on 16 cores. *)
let run_app ?(workers = [ 1; 16 ]) ~machine schedulers app =
  Runner.run_app ~pool_sched:Pmdp_runtime.Pool.Static ~reps ~scale ~machine ~workers ~schedulers
    app

(* A registry app's seed-1 pipeline, inputs and reference, for the
   hand-built schedules below. *)
let case name =
  let app = Registry.find_exn name in
  let p = app.Registry.build ~scale in
  let inputs = app.Registry.inputs ~seed:1 p in
  (p, inputs, Reference.run p ~inputs)

(* A hand-built schedule on the Xeon model, recorded under the
   scheduler it stands in for. *)
let run_spec ?(scheduler = Scheduler.Manual) ~workers (_, inputs, reference) spec =
  Runner.run_spec ~pool_sched:Pmdp_runtime.Pool.Static ~reps ~machine:Machine.xeon ~workers
    ~scheduler ~inputs ~reference spec

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

let configs =
  Scheduler.
    [ ("H-manual", Manual); ("H-auto", Halide); ("PolyMage-A", Autotune); ("PolyMageDP", Dp) ]

let exec_table ?workers machine title =
  let t =
    Table.create
      [ "Benchmark"; "H-man 1"; "H-man 16"; "H-auto 1"; "H-auto 16"; "PM-A 1"; "PM-A 16";
        "PMDP 1"; "PMDP 16"; "vs H-man"; "vs H-auto"; "vs PM-A" ]
  in
  let results =
    List.map
      (fun app -> (app, run_app ?workers ~machine (List.map snd configs) app))
      Registry.benchmarks
  in
  List.iter
    (fun ((app : Registry.app), outcomes) ->
      let hm = of_scheduler Scheduler.Manual outcomes in
      let ha = of_scheduler Scheduler.Halide outcomes in
      let pa = of_scheduler Scheduler.Autotune outcomes in
      let dp = of_scheduler Scheduler.Dp outcomes in
      let vs base = ratio Table.fx (at 16 base) (at 16 dp) in
      Table.add_row t
        [
          app.Registry.name;
          ms (at 1 hm); ms (at 16 hm); ms (at 1 ha); ms (at 16 ha); ms (at 1 pa); ms (at 16 pa);
          ms (at 1 dp); ms (at 16 dp); vs hm; vs ha; vs pa;
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
  let workers = [ 1; 2; 4; 8; 16 ] in
  let results =
    exec_table ~workers Machine.xeon "Figure 7 base data: execution times on the Xeon model"
  in
  let t = Table.create [ "Benchmark"; "Config"; "speedup @1"; "speedup @16" ] in
  List.iter
    (fun ((app : Registry.app), outcomes) ->
      let base = at 1 (of_scheduler Scheduler.Dp outcomes) in
      List.iter
        (fun (name, sch) ->
          let o = of_scheduler sch outcomes in
          Table.add_row t
            [ app.Registry.name; name; speedup base (at 1 o); speedup base (at 16 o) ])
        configs)
    results;
  Table.print ~title:"Figure 7: speedup over PolyMageDP sequential (Xeon model)" t;
  (* Full scaling curve of the PolyMageDP schedules, from the same
     runs. *)
  let t2 = Table.create [ "Benchmark"; "@1"; "@2"; "@4"; "@8"; "@16"; "tiles" ] in
  List.iter
    (fun ((app : Registry.app), outcomes) ->
      let dp = of_scheduler Scheduler.Dp outcomes in
      Table.add_row t2
        (app.Registry.name
        :: List.map (fun w -> speedup (at 1 dp) (at w dp)) workers
        @ [ string_of_int (at 1 dp).Runner.n_tiles ]))
    results;
  Table.print
    ~title:
      (Printf.sprintf
         "Figure 7 (extended): PolyMageDP scaling, 1..16 cores (past this host's %d: simulated)"
         (Domain.recommended_domain_count ()))
    t2

(* ------------------------------------------------------------------ *)
(* Table 5: cache behaviour of Unsharp Mask tile sizes                 *)

let table5 () =
  let machine = Machine.xeon in
  let ((p, _, _) as unsharp) = case "unsharp" in
  let stages = List.init (Pipeline.n_stages p) Fun.id in
  let t = Table.create [ "Tile size"; "L1 HIT %"; "L2 HIT %"; "L2 MISS %"; "Runtime (ms)" ] in
  List.iter
    (fun (tx, ty) ->
      let sched = Schedule_spec.with_tiles p [ (stages, [| 3; tx; ty |]) ] in
      let h = Pmdp_cachesim.Hierarchy.create machine in
      Pmdp_cachesim.Trace_exec.run ~max_tiles:64 sched ~hierarchy:h;
      let f = Pmdp_cachesim.Hierarchy.fractions h in
      Table.add_row t
        [
          Printf.sprintf "%dx%d" tx ty;
          Printf.sprintf "%.2f" (100.0 *. f.Pmdp_cachesim.Hierarchy.l1_hit);
          Printf.sprintf "%.2f" (100.0 *. f.Pmdp_cachesim.Hierarchy.l2_hit);
          Printf.sprintf "%.2f" (100.0 *. f.Pmdp_cachesim.Hierarchy.l2_miss);
          ms (at 1 (run_spec ~workers:[ 1 ] unsharp sched));
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
  let cases = [ case "unsharp"; case "harris" ] in
  List.iter
    (fun (name, config) ->
      let cells =
        List.concat_map
          (fun ((p, _, _) as c) ->
            let sched = fst (Schedule_spec.dp config p) in
            [
              string_of_int (Schedule_spec.n_groups sched);
              ms (at 16 (run_spec ~scheduler:Scheduler.Dp ~workers:[ 16 ] c sched));
            ])
          cases
      in
      Table.add_row t (name :: cells))
    variants;
  Table.print ~title:"Ablation: cost-model variants (DP grouping, Xeon model)" t;
  (* Inlining (the paper's §6.2 explanation for H-manual's camera-pipe
     advantage): scheduling the camera pipeline after inlining its
     cheap wrapper stages. *)
  let t2 = Table.create [ "Camera pipeline variant"; "stages"; "groups"; "t1(ms)"; "t16(ms)" ] in
  let app = Registry.find_exn "camera_pipe" in
  List.iter
    (fun (name, transform) ->
      let app =
        { app with Registry.build = (fun ~scale -> transform (app.Registry.build ~scale)) }
      in
      let outcomes = run_app ~machine [ Scheduler.Dp ] app in
      Table.add_row t2
        [
          name;
          string_of_int (Pipeline.n_stages (app.Registry.build ~scale));
          string_of_int (at 1 outcomes).Runner.n_groups;
          ms (at 1 outcomes);
          ms (at 16 outcomes);
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
      let ((p, _, _) as c) = case name in
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
              let outcomes = run_spec ~workers:[ 1; 16 ] c (make grouping) in
              Table.add_row t
                [ name; glabel; tlabel; ms (at 1 outcomes); ms (at 16 outcomes) ])
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
  let ((p, _, _) as unsharp) = case "unsharp" in
  let stages = List.init (Pipeline.n_stages p) Fun.id in
  let t = Table.create [ "Tile (x)"; "Tile (y)"; "t1 (ms)"; "t16 (ms)" ] in
  let best = ref (infinity, (0, 0)) in
  let xs = [ 4; 5; 8; 16; 32; 64; 128 ] and ys = [ 64; 128; 256; 416 ] in
  List.iter
    (fun tx ->
      List.iter
        (fun ty ->
          let sched = Schedule_spec.with_tiles p [ (stages, [| 3; tx; ty |]) ] in
          let outcomes = run_spec ~workers:[ 1; 16 ] unsharp sched in
          (match seconds (at 16 outcomes) with
          | Some s when s < fst !best -> best := (s, (tx, ty))
          | _ -> ());
          Table.add_row t
            [ string_of_int tx; string_of_int ty; ms (at 1 outcomes); ms (at 16 outcomes) ])
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

let () =
  let which = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
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
  if !invalid then begin
    prerr_endline "bench: some cases failed the reference check (INVALID above)";
    exit 1
  end

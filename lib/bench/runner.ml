module Machine = Pmdp_machine.Machine
module Pipeline = Pmdp_dsl.Pipeline
module Cost_model = Pmdp_core.Cost_model
module Scheduler = Pmdp_core.Scheduler
module Schedule_spec = Pmdp_core.Schedule_spec
module Tiled_exec = Pmdp_exec.Tiled_exec
module Resilient = Pmdp_exec.Resilient
module Reference = Pmdp_exec.Reference
module Buffer = Pmdp_exec.Buffer
module Trace = Pmdp_trace.Trace
module Pool = Pmdp_runtime.Pool
module Registry = Pmdp_apps.Registry
module Json = Pmdp_report.Json

(* One row of the calibration corpus: what the model predicted for a
   group's tile choice next to what a sequential timed run measured.
   Identical across a schedule's worker counts (computed once per
   schedule), duplicated into each case so every bench row is
   self-contained. *)
type group_cost = {
  gc_group : int;
  gc_features : Cost_model.features;
  gc_predicted : float;  (** model cost of the chosen tile (calibrated = seconds) *)
  gc_wall : float;  (** median across reps of the group's summed tile durations *)
}

type outcome = {
  app_name : string;
  scheduler : Scheduler.t;  (** as requested *)
  resolved : Scheduler.t;  (** after {!Scheduler.for_pipeline} *)
  workers : int;
  wall_seconds : float list;  (** effective, one per rep, in run order *)
  host_wall_seconds : float list;  (** what the host actually took *)
  simulated : bool;  (** effective times reconstructed from per-tile durations *)
  backend : string;  (** resilient step that answered the last rep, e.g. "native" *)
  median_s : float;
  min_s : float;
  max_abs_diff : float;  (** vs {!Reference.run}; 0.0 = bitwise valid *)
  n_groups : int;
  n_tiles : int;
  groups : Tiled_exec.group_stats list;  (** of the last rep *)
  attempts : (Resilient.step * Pmdp_util.Pmdp_error.t option) list;  (** of the last rep *)
  counters : (string * int) list;  (** trace counter delta over the case *)
  failure : string option;  (** rendered typed error of a dead rep *)
  degraded : bool;  (** some rep needed a resilience fallback step *)
  group_costs : group_cost list;  (** predicted vs measured per group (schema v3) *)
}

let valid o = o.failure = None && o.max_abs_diff = 0.0

(* Per-case delta of the global trace counter totals, so each case's
   JSON carries only its own numbers. *)
let counter_delta ~before after =
  List.filter_map
    (fun (k, v) ->
      let v0 = Option.value (List.assoc_opt k before) ~default:0 in
      if v - v0 <> 0 then Some (k, v - v0) else None)
    after

let median_of sorted = List.nth sorted (List.length sorted / 2)

let group_predictions config (spec : Schedule_spec.t) =
  List.concat
    (List.mapi
       (fun gi (g : Schedule_spec.group) ->
         match
           Cost_model.group_features config spec.Schedule_spec.pipeline
             ~stages:g.Schedule_spec.stages ~tile:g.Schedule_spec.tile_sizes
         with
         | None -> []
         | Some f -> [ (gi, f, Cost_model.predict config f) ])
       spec.Schedule_spec.groups)

(* Reconstructed [w]-way wall-clock of one sequential run: groups are
   barriers, tiles within a group distribute under the pool's claim
   policy. *)
let makespan_of_timings ~sched ~workers groups =
  List.fold_left
    (fun acc (g : Tiled_exec.group_stats) ->
      acc +. Pool.simulate_makespan ~sched ~workers g.Tiled_exec.tile_seconds)
    0.0 groups

let run_spec ?pool_sched ?(log = fun _ -> ()) ~reps ~machine ~workers ~scheduler ~inputs
    ~reference (spec : Schedule_spec.t) =
  if reps < 1 then invalid_arg "Runner.run_spec: reps < 1";
  let host_cores = Domain.recommended_domain_count () in
  let sim_sched = Option.value pool_sched ~default:(Pool.Chunked 0) in
  let p = spec.Schedule_spec.pipeline in
  let config = Cost_model.config_of_machine machine in
  let resolved = Scheduler.for_pipeline scheduler p in
  let plan = Tiled_exec.plan spec in
  let n_groups = Schedule_spec.n_groups spec in
  let n_tiles = Tiled_exec.total_tiles plan in
  (* Sequential per-tile timings, for makespan reconstruction on
     hosts with fewer cores than the requested pool (the DESIGN.md
     multicore substitution).  Measured lazily, once per schedule, and
     checked like every rep: each comes with its worst diff against
     the reference.  Forced only after the first case's counter
     snapshot, so no case's counters include them. *)
  let timed_reps =
    lazy
      (List.init reps (fun rep ->
           Trace.with_span ~cat:"bench"
             ~args:
               [
                 ("app", Trace.Str p.Pipeline.name);
                 ("scheduler", Trace.Str (Scheduler.to_string scheduler));
                 ("rep", Trace.Int (rep + 1));
               ]
             "timed-rep"
             (fun () ->
               let results, groups = Tiled_exec.run plan ~inputs in
               (Reference.max_abs_diff ~reference results, groups))))
  in
  (* Predicted-vs-measured per group: the schedule's tile features
     under the model next to the median summed tile durations of
     the sequential timed runs — the calibration corpus
     (lib/tune).  Computed once per schedule; a schedule whose
     timed run dies contributes no rows rather than killing the
     sweep. *)
  let group_costs =
    lazy
      (let timings = try List.map snd (Lazy.force timed_reps) with _ -> [] in
       let walls_per_rep =
         List.map
           (fun reps ->
             List.map
               (fun (g : Tiled_exec.group_stats) ->
                 Array.fold_left ( +. ) 0.0 g.Tiled_exec.tile_seconds)
               reps)
           timings
       in
       List.filter_map
         (fun (gi, f, predicted) ->
           let per_rep = List.filter_map (fun rep -> List.nth_opt rep gi) walls_per_rep in
           match List.sort compare per_rep with
           | [] -> None
           | sorted ->
               Some
                 {
                   gc_group = gi;
                   gc_features = f;
                   gc_predicted = predicted;
                   gc_wall = median_of sorted;
                 })
         (group_predictions config spec))
  in
  List.map
    (fun w ->
      let host_walls = ref [] and diff = ref 0.0 in
      let failure = ref None and degraded = ref false in
      let backend = ref "none" in
      let last = ref ([], []) in
      (* Reps run through the resilient driver sharing the one
         plan, so each records which fallback steps it took (the
         case's "resilience" JSON). *)
      let one_rep rep pool =
        let t0 = Unix.gettimeofday () in
        match Resilient.run_plan ?pool ?sched:pool_sched ~machine plan ~inputs with
        | Ok { Resilient.results; degraded = d; attempts; groups } ->
            host_walls := (Unix.gettimeofday () -. t0) :: !host_walls;
            if d then degraded := true;
            (match List.rev attempts with
            | (st, None) :: _ -> backend := Resilient.step_name st
            | _ -> ());
            last := (groups, attempts);
            diff := Float.max !diff (Reference.max_abs_diff ~reference results)
        | Error e ->
            (* Record the case as failed and move on: one broken
               schedule must not take the whole sweep down. *)
            ignore rep;
            last := ([], []);
            failure := Some (Pmdp_util.Pmdp_error.to_string e)
      in
      let measure pool =
        for rep = 1 to reps do
          if !failure = None then
            if not (Trace.on ()) then one_rep rep pool
            else
              Trace.with_span ~cat:"bench"
                ~args:
                  [
                    ("app", Trace.Str p.Pipeline.name);
                    ("scheduler", Trace.Str (Scheduler.to_string scheduler));
                    ("workers", Trace.Int w);
                    ("rep", Trace.Int rep);
                  ]
                "rep"
                (fun () -> one_rep rep pool)
        done
      in
      let totals_before = if Trace.on () then Trace.counter_totals () else [] in
      if w > 1 then Pool.with_pool w (fun pool -> measure (Some pool)) else measure None;
      let counters =
        if Trace.on () then counter_delta ~before:totals_before (Trace.counter_totals ())
        else []
      in
      let host_wall_seconds = List.rev !host_walls in
      (* Native kernels parallelize with real OS threads inside the
         shared object, so their host wall-clock is the effective
         time — the multicore substitution only models the
         interpreter pool's tile distribution. *)
      let simulated = w > 1 && host_cores < w && !backend <> "native" in
      (* The timed reps feed this case's group costs, and its times
         when simulated, so their check counts here too; a simulated
         case without them has no time to report. *)
      let timed =
        match Lazy.force timed_reps with
        | timed -> timed
        | exception e ->
            if simulated && !failure = None then failure := Some (Printexc.to_string e);
            []
      in
      List.iter (fun (d, _) -> diff := Float.max !diff d) timed;
      let wall_seconds =
        if (not simulated) || !failure <> None then host_wall_seconds
        else
          List.map
            (fun (_, timings) -> makespan_of_timings ~sched:sim_sched ~workers:w timings)
            timed
      in
      let sorted =
        match List.sort compare wall_seconds with [] -> [ Float.nan ] | s -> s
      in
      let groups, attempts = !last in
      let o =
        {
          app_name = p.Pipeline.name;
          scheduler;
          resolved;
          workers = w;
          wall_seconds;
          host_wall_seconds;
          simulated;
          backend = !backend;
          median_s = median_of sorted;
          min_s = List.hd sorted;
          max_abs_diff = !diff;
          n_groups;
          n_tiles;
          groups;
          attempts;
          counters;
          failure = !failure;
          degraded = !degraded;
          group_costs = Lazy.force group_costs;
        }
      in
      log
        (Printf.sprintf "%-15s %-8s %2d workers  median %8.2f ms  min %8.2f ms%s%s%s%s"
           o.app_name (Scheduler.to_string scheduler) w (o.median_s *. 1000.0)
           (o.min_s *. 1000.0)
           (if o.backend = "native" then "  [native]" else "")
           (if simulated then "  (simulated)" else "")
           (if o.degraded then "  DEGRADED" else "")
           (match o.failure with
           | Some e -> "  FAILED " ^ e
           | None ->
               if valid o then ""
               else Printf.sprintf "  INVALID max|diff|=%g" o.max_abs_diff));
      o)
    workers

let run_app ?pool_sched ?log ~reps ~scale ~machine ~workers ~schedulers (app : Registry.app) =
  let p = app.Registry.build ~scale in
  let inputs = app.Registry.inputs ~seed:1 p in
  let reference = Reference.run p ~inputs in
  let config = Cost_model.config_of_machine machine in
  List.concat_map
    (fun scheduler ->
      run_spec ?pool_sched ?log ~reps ~machine ~workers ~scheduler ~inputs ~reference
        (Pmdp_baselines.Schedulers.schedule scheduler config p))
    schedulers

let run_all ?pool_sched ?log ~reps ~scale ~machine ~workers ~schedulers apps =
  List.concat_map
    (fun app -> run_app ?pool_sched ?log ~reps ~scale ~machine ~workers ~schedulers app)
    apps

let json_of_group_cost gc =
  let f = gc.gc_features in
  Json.Obj
    [
      ("group", Json.Int gc.gc_group);
      ("f_mem", Json.Float f.Cost_model.f_mem);
      ("f_idle", Json.Float f.Cost_model.f_idle);
      ("f_overlap", Json.Float f.Cost_model.f_overlap);
      ("f_mismatch", Json.Float f.Cost_model.f_mismatch);
      ("predicted_cost", Json.Float gc.gc_predicted);
      ("median_wall_seconds", Json.Float gc.gc_wall);
    ]

(* The execution profile of the case's last rep: its groups beside the
   model's predictions, its fallback chain, and the case's counters. *)
let json_of_profile o =
  let group_json (g : Tiled_exec.group_stats) =
    Json.Obj
      ([
         ("group", Json.Int g.index);
         ("stages", Json.List (List.map (fun s -> Json.String s) g.stages));
         ("tiles", Json.Int g.tiles);
         ("occupancy", Json.Int g.occupancy);
         ("scratch_bytes", Json.Int g.scratch_bytes);
         ("copy_out_bytes", Json.Int g.copy_out_bytes);
         ("wall_seconds", Json.Float g.wall_seconds);
       ]
      @
      match List.find_opt (fun gc -> gc.gc_group = g.index) o.group_costs with
      | Some gc -> [ ("predicted_cost", Json.Float gc.gc_predicted) ]
      | None -> [])
  in
  let step_json (st, err) =
    Json.Obj
      [
        ("step", Json.String (Resilient.step_name st));
        ( "error",
          match err with None -> Json.Null | Some e -> Json.String (Pmdp_util.Pmdp_error.to_string e)
        );
      ]
  in
  Json.Obj
    [
      ("pipeline", Json.String o.app_name);
      ("workers", Json.Int o.workers);
      ( "total_seconds",
        Json.Float
          (List.fold_left (fun acc (g : Tiled_exec.group_stats) -> acc +. g.wall_seconds) 0.0 o.groups)
      );
      ("degraded", Json.Bool (List.exists (fun (_, e) -> e <> None) o.attempts));
      ("resilience", Json.List (List.map step_json o.attempts));
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) o.counters));
      ("groups", Json.List (List.map group_json o.groups));
    ]

let json_of_outcome o =
  Json.Obj
    [
      ("app", Json.String o.app_name);
      ("scheduler", Json.String (Scheduler.to_string o.scheduler));
      ("resolved_scheduler", Json.String (Scheduler.to_string o.resolved));
      ("workers", Json.Int o.workers);
      ("wall_seconds", Json.List (List.map (fun f -> Json.Float f) o.wall_seconds));
      ("host_wall_seconds", Json.List (List.map (fun f -> Json.Float f) o.host_wall_seconds));
      ("simulated", Json.Bool o.simulated);
      ("backend", Json.String o.backend);
      ("median_seconds", Json.Float o.median_s);
      ("min_seconds", Json.Float o.min_s);
      ("valid", Json.Bool (valid o));
      ("max_abs_diff", Json.Float o.max_abs_diff);
      ("n_groups", Json.Int o.n_groups);
      ("n_tiles", Json.Int o.n_tiles);
      ("failure", match o.failure with None -> Json.Null | Some e -> Json.String e);
      ("degraded", Json.Bool o.degraded);
      ("profile", json_of_profile o);
      ("group_costs", Json.List (List.map json_of_group_cost o.group_costs));
    ]

(* v3 added per-case "group_costs" (predicted-vs-measured per group,
   the calibration corpus); v2 files are refused for merge like any
   other foreign schema. *)
let schema_version = 3

let to_json ~machine ~scale ~reps outcomes =
  Json.Obj
    [
      ("schema_version", Json.Int schema_version);
      ("machine", Json.String machine.Machine.name);
      ("scale", Json.Int scale);
      ("reps", Json.Int reps);
      ("host_cores", Json.Int (Domain.recommended_domain_count ()));
      ("cases", Json.List (List.map json_of_outcome outcomes));
    ]

(* A pre-existing output file is merged into, not clobbered: its cases
   survive unless this run re-measured the same (app, scheduler,
   workers) cell.  Anything that is not verifiably a current-schema
   bench file is refused with a typed error — merging fields into a
   file written under a different schema (v1, v2, ...) would silently
   corrupt it. *)
let load_for_merge path =
  if not (Sys.file_exists path) then Ok None
  else
    let invalid reason =
      Error (Pmdp_util.Pmdp_error.Plan_invalid { context = "bench: " ^ path; reason })
    in
    match Json.of_file path with
    | Error msg -> invalid ("not parseable as JSON: " ^ msg)
    | Ok doc -> (
        match Option.bind (Json.member "schema_version" doc) Json.to_int_opt with
        | Some v when v = schema_version -> Ok (Some doc)
        | Some v ->
            invalid
              (Printf.sprintf "schema_version %d, but this runner writes (and merges) v%d" v
                 schema_version)
        | None -> invalid "missing schema_version; refusing to merge into an unknown schema")

let case_key j =
  ( Option.bind (Json.member "app" j) Json.to_string_opt,
    Option.bind (Json.member "scheduler" j) Json.to_string_opt,
    Option.bind (Json.member "workers" j) Json.to_int_opt )

let merge_cases ~existing fresh =
  let fresh_keys = List.map case_key fresh in
  let kept =
    match Option.bind (Json.member "cases" existing) Json.to_list_opt with
    | None -> []
    | Some cases -> List.filter (fun c -> not (List.mem (case_key c) fresh_keys)) cases
  in
  kept @ fresh

let write_json ~path ~machine ~scale ~reps outcomes =
  match load_for_merge path with
  | Error _ as e -> e
  | Ok existing ->
      let doc = to_json ~machine ~scale ~reps outcomes in
      let doc =
        match (existing, doc) with
        | Some old, Json.Obj fields ->
            let fresh =
              match List.assoc_opt "cases" fields with Some (Json.List l) -> l | _ -> []
            in
            Json.Obj
              (List.map
                 (fun (k, v) ->
                   if k = "cases" then (k, Json.List (merge_cases ~existing:old fresh))
                   else (k, v))
                 fields)
        | _ -> doc
      in
      Json.to_file path doc;
      Ok ()

let default_path machine = Printf.sprintf "BENCH_%s.json" machine.Machine.name

(* Tuning-loop checks (`dune build @tunecheck`, part of runtest and
   the root @smoke):

   - synthetic-weight recovery: the weighted least-squares fit
     reconstructs known linear weights from exact data;
   - calibration on the committed BENCH_xeon.json: the calibrated
     model must predict measured per-group walls with lower mean
     relative error than the analytic defaults (raw and best
     single-scale), and the fit must match the committed golden
     artifact (drift check) which itself passes `--check` validation;
   - tuned-plan sweep: model-guided tile search on real apps, with the
     winner re-verified, round-tripped through the golden-plan
     envelope, and executed bitwise-equal to the reference;
   - deterministic seeded search: same seed, same walk;
   - schema guard: v2 bench files are refused by both the merge path
     and the calibration corpus parser;
   - the online service retuner: a served hot fingerprint swaps its
     cached plan only after winning the guarded A/B (and persists the
     swap), and keeps the incumbent when the candidate loses. *)

module Machine = Pmdp_machine.Machine
module Registry = Pmdp_apps.Registry
module Scheduler = Pmdp_core.Scheduler
module Cost_model = Pmdp_core.Cost_model
module Schedule_spec = Pmdp_core.Schedule_spec
module Tiled_exec = Pmdp_exec.Tiled_exec
module Resilient = Pmdp_exec.Resilient
module Reference = Pmdp_exec.Reference
module Buffer = Pmdp_exec.Buffer
module Calibration = Pmdp_tune.Calibration
module Search = Pmdp_tune.Search
module Rng = Pmdp_util.Rng
module Pmdp_error = Pmdp_util.Pmdp_error
module Service = Pmdp_service.Service
module Retune = Pmdp_service.Retune
module Plan_cache = Pmdp_service.Plan_cache
module Disk_cache = Pmdp_service.Disk_cache

let failures = ref 0

let check name cond =
  if cond then Printf.printf "  ok   %s\n%!" name
  else begin
    incr failures;
    Printf.printf "  FAIL %s\n%!" name
  end

let section name = Printf.printf "%s\n%!" name

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let rm_rf dir =
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

let or_fail what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" what (Pmdp_error.to_string e))

(* ------------------------------------------------------------------ *)
(* Synthetic-weight recovery *)

let test_lstsq_recovery () =
  section "least-squares: synthetic weight recovery";
  let rng = Rng.create 42 in
  (* Ground truth in "seconds": positive intercept and weights, so
     every sample is positive and the 1/y² weighting is well posed. *)
  let c0 = 3.0e-3
  and cm = 2.0e-4
  and ci = 1.5e-3
  and co = 8.0e-4
  and cd = 5.0e-4 in
  let samples =
    List.init 48 (fun i ->
        let f =
          {
            Cost_model.f_mem = 0.1 +. Rng.float rng 10.0;
            f_idle = Rng.float rng 2.0;
            f_overlap = Rng.float rng 0.5;
            f_mismatch = Rng.float rng 1.0;
          }
        in
        let y =
          c0 +. (cm *. f.Cost_model.f_mem) +. (ci *. f.Cost_model.f_idle)
          +. (co *. f.Cost_model.f_overlap)
          +. (cd *. f.Cost_model.f_mismatch)
        in
        {
          Calibration.s_app = "synthetic";
          s_scheduler = "dp";
          s_group = i;
          s_features = f;
          s_predicted = y;
          s_wall = y;
        })
  in
  match Calibration.fit ~machine:Machine.xeon ~source:"synthetic" samples with
  | Error msg -> check (Printf.sprintf "fit succeeded (%s)" msg) false
  | Ok c ->
      let w = c.Calibration.weights in
      Printf.printf
        "  recovered c0=%.6e c_mem=%.6e c_idle=%.6e c_overlap=%.6e c_mismatch=%.6e\n%!"
        w.Cost_model.c0 w.Cost_model.c_mem w.Cost_model.c_idle w.Cost_model.c_overlap
        w.Cost_model.c_mismatch;
      let close got want = Float.abs (got -. want) <= 1e-6 *. Float.abs want in
      check "recovers c0" (close w.Cost_model.c0 c0);
      check "recovers c_mem" (close w.Cost_model.c_mem cm);
      check "recovers c_idle" (close w.Cost_model.c_idle ci);
      check "recovers c_overlap" (close w.Cost_model.c_overlap co);
      check "recovers c_mismatch" (close w.Cost_model.c_mismatch cd);
      check "near-zero residual" (c.Calibration.mean_rel_err < 1e-6)

(* ------------------------------------------------------------------ *)
(* Calibration on the committed bench corpus *)

let bench_path = ref "../BENCH_xeon.json"
let golden_calib_path = "golden_calib/CALIB_xeon.json"

let test_calibrate_bench () =
  section "calibration: committed BENCH_xeon.json";
  match Calibration.samples_of_bench !bench_path with
  | Error msg -> check (Printf.sprintf "bench parses (%s)" msg) false
  | Ok (machine_name, samples) -> (
      check "bench machine is xeon" (machine_name = "xeon");
      check
        (Printf.sprintf "corpus has enough samples (%d)" (List.length samples))
        (List.length samples >= 10);
      match Calibration.fit ~machine:Machine.xeon ~source:"BENCH_xeon.json" samples with
      | Error msg -> check (Printf.sprintf "fit succeeded (%s)" msg) false
      | Ok c ->
          Printf.printf
            "  mean relative error: calibrated %.4f | scaled analytic %.4f | raw analytic \
             %.4g\n%!"
            c.Calibration.mean_rel_err c.Calibration.scaled_analytic_mean_rel_err
            c.Calibration.analytic_mean_rel_err;
          check "calibrated beats the raw analytic defaults"
            (c.Calibration.mean_rel_err < c.Calibration.analytic_mean_rel_err);
          check "calibrated no worse than the best single-scale analytic"
            (c.Calibration.mean_rel_err <= c.Calibration.scaled_analytic_mean_rel_err);
          (* Golden-artifact drift check: refitting the committed
             corpus must reproduce the committed artifact. *)
          (match Calibration.read golden_calib_path with
          | Error msg -> check (Printf.sprintf "golden artifact reads (%s)" msg) false
          | Ok g ->
              let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1e-30 (Float.abs b) in
              let gw = g.Calibration.weights and cw = c.Calibration.weights in
              check "golden weights match the refit"
                (close gw.Cost_model.c0 cw.Cost_model.c0
                && close gw.Cost_model.c_mem cw.Cost_model.c_mem
                && close gw.Cost_model.c_idle cw.Cost_model.c_idle
                && close gw.Cost_model.c_overlap cw.Cost_model.c_overlap
                && close gw.Cost_model.c_mismatch cw.Cost_model.c_mismatch);
              check "golden error figures match the refit"
                (close g.Calibration.mean_rel_err c.Calibration.mean_rel_err));
          (match Calibration.validate golden_calib_path ~machine:"xeon" with
          | Ok _ -> check "golden artifact passes --check validation" true
          | Error msg ->
              check (Printf.sprintf "golden artifact passes --check validation (%s)" msg)
                false);
          (* The digest is load-bearing: flipping a payload byte must
             fail the read. *)
          let raw =
            let ic = open_in_bin golden_calib_path in
            Fun.protect
              ~finally:(fun () -> close_in ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          in
          let tampered =
            (* Flip the first "xeon" byte-run; every occurrence lives
               inside the digested payload, so the stamp must break. *)
            let sub = "xeon" in
            let n = String.length raw and m = String.length sub in
            let rec find i =
              if i + m > n then None
              else if String.sub raw i m = sub then Some i
              else find (i + 1)
            in
            match find 0 with
            | None -> raw ^ "garbage"
            | Some i ->
                String.sub raw 0 i ^ "neox" ^ String.sub raw (i + m) (n - i - m)
          in
          let tmp = Filename.temp_file "pmdp-calib-tamper" ".json" in
          let oc = open_out_bin tmp in
          output_string oc tampered;
          close_out oc;
          (match Calibration.read tmp with
          | Error _ -> check "tampered artifact is refused" true
          | Ok _ -> check "tampered artifact is refused" false);
          Sys.remove tmp)

(* ------------------------------------------------------------------ *)
(* Model-guided tuning sweep: verify + envelope round-trip + bitwise *)

let test_tuned_plan_sweep () =
  section "tile search: tuned plans re-verify and run bitwise";
  let machine = Machine.xeon in
  let config = Cost_model.config_of_machine machine in
  List.iter
    (fun name ->
      let app = Option.get (Registry.find name) in
      let pipeline = app.Registry.build ~scale:32 in
      let inputs = app.Registry.inputs ~seed:1 pipeline in
      let scheduler = Scheduler.for_pipeline Scheduler.Dp pipeline in
      let sched = Scheduler.schedule scheduler config pipeline in
      let evaluate = Search.model_evaluate config in
      let init_score =
        match evaluate sched with Some s -> s | None -> failwith "initial spec must score"
      in
      let tuned, result = Search.tune_spec ~seed:7 ~budget:40 ~evaluate sched in
      check
        (Printf.sprintf "%s: tuned model cost <= initial (%.4g <= %.4g)" name
           result.Search.score init_score)
        (result.Search.score <= init_score);
      check
        (Printf.sprintf "%s: search stayed in budget (%d)" name
           result.Search.stats.Search.evaluated)
        (result.Search.stats.Search.evaluated <= 40);
      match Pmdp_plan.of_spec_result tuned with
      | Error e -> check (name ^ ": tuned spec lowers: " ^ Pmdp_error.to_string e) false
      | Ok ir ->
          (match Pmdp_verify.Verify.check_plan_result pipeline ir with
          | Ok () -> check (name ^ ": tuned plan passes the analyzer") true
          | Error e ->
              check (name ^ ": tuned plan passes the analyzer: " ^ Pmdp_error.to_string e)
                false);
          (* Golden-plan envelope round-trip. *)
          let tmp = Filename.temp_file "pmdp-tuned" ".json" in
          Pmdp_plan.write tmp ir;
          (match Pmdp_plan.read tmp with
          | Error msg -> check (name ^ ": envelope round-trips: " ^ msg) false
          | Ok (ir2, claimed) ->
              check (name ^ ": envelope round-trips")
                (claimed = Pmdp_plan.digest ir && Pmdp_plan.digest ir2 = claimed));
          Sys.remove tmp;
          let plan = Tiled_exec.instantiate pipeline ir in
          (match Resilient.run_plan ~machine plan ~inputs with
          | Error e -> check (name ^ ": tuned plan runs: " ^ Pmdp_error.to_string e) false
          | Ok { Resilient.results; _ } ->
              let reference = Reference.run pipeline ~inputs in
              let worst =
                List.fold_left
                  (fun acc (n, b) ->
                    match List.assoc_opt n reference with
                    | Some r -> Float.max acc (Buffer.max_abs_diff b r)
                    | None -> acc)
                  0.0 results
              in
              check (Printf.sprintf "%s: tuned plan bitwise vs reference" name) (worst = 0.0)))
    [ "blur"; "unsharp" ]

(* ------------------------------------------------------------------ *)
(* Seeded determinism *)

let test_deterministic_search () =
  section "search: deterministic per seed";
  let evaluate tiles =
    (* Smooth synthetic objective with a basin at 16 per dimension. *)
    Some
      (Array.fold_left
         (fun acc row ->
           Array.fold_left
             (fun acc t -> acc +. Float.abs (Float.log (float_of_int t /. 16.0)))
             acc row)
         0.0 tiles)
  in
  let init = [| [| 4; 4 |]; [| 128; 2 |] |] in
  let a = Search.run ~seed:11 ~budget:60 ~init ~evaluate in
  let b = Search.run ~seed:11 ~budget:60 ~init ~evaluate in
  check "same seed, same tiles" (a.Search.tiles = b.Search.tiles);
  check "same seed, same score" (a.Search.score = b.Search.score);
  check "same seed, same stats"
    (a.Search.stats = b.Search.stats);
  check "search improved the objective"
    (a.Search.score < Option.get (evaluate init));
  (* And the IR-level adapter is deterministic on a real app. *)
  let app = Option.get (Registry.find "blur") in
  let pipeline = app.Registry.build ~scale:32 in
  let config = Cost_model.config_of_machine Machine.xeon in
  let sched =
    Scheduler.schedule (Scheduler.for_pipeline Scheduler.Dp pipeline) config pipeline
  in
  let ir = match Pmdp_plan.of_spec_result sched with Ok ir -> ir | Error _ -> assert false in
  let t1, _ = Search.tune_ir ~seed:3 ~budget:30 ~config ~pipeline ir in
  let t2, _ = Search.tune_ir ~seed:3 ~budget:30 ~config ~pipeline ir in
  check "tune_ir deterministic per seed" (t1 = t2)

(* ------------------------------------------------------------------ *)
(* Schema guards *)

let test_schema_guards () =
  section "bench schema: v2 refused by merge and calibration";
  let path = Filename.temp_file "pmdp-benchv2" ".json" in
  let oc = open_out path in
  output_string oc "{\n  \"schema_version\": 2,\n  \"machine\": \"xeon\",\n  \"cases\": []\n}\n";
  close_out oc;
  (match Calibration.samples_of_bench path with
  | Error _ -> check "calibration refuses a v2 corpus" true
  | Ok _ -> check "calibration refuses a v2 corpus" false);
  (match Pmdp_bench.Runner.write_json ~path ~machine:Machine.xeon ~scale:8 ~reps:1 [] with
  | Error _ -> check "bench merge refuses a v2 file" true
  | Ok () -> check "bench merge refuses a v2 file" false);
  Sys.remove path;
  check "runner writes schema v3" (Pmdp_bench.Runner.schema_version = 3)

(* ------------------------------------------------------------------ *)
(* Online service retuner *)

let ones_like (ir : Pmdp_plan.t) =
  Array.map
    (fun (g : Pmdp_plan.group) -> Array.map (fun _ -> 1) g.Pmdp_plan.tile)
    ir.Pmdp_plan.groups

let good_and_bad_plans () =
  let app = Option.get (Registry.find "blur") in
  let machine = Machine.xeon in
  let scale = 32 and scheduler = Scheduler.Dp in
  let pipeline = app.Registry.build ~scale in
  let config = Cost_model.config_of_machine machine in
  let sched = Scheduler.schedule (Scheduler.for_pipeline scheduler pipeline) config pipeline in
  let ir_good =
    match Pmdp_plan.of_spec_result sched with Ok ir -> ir | Error _ -> assert false
  in
  (* All-1x1 tiles: legal, admissible, and pathologically slow — the
     deterministic stand-in for a miscalibrated incumbent. *)
  let ir_bad = Pmdp_plan.retile pipeline ir_good (ones_like ir_good) in
  (app, machine, scale, scheduler, pipeline, ir_good, ir_bad)

let wait_retune service ~deadline =
  let rec go () =
    let s = Service.stats service in
    match s.Service.retune with
    | Some r when r.Retune.wins >= 1 || r.Retune.losses >= 1 -> r
    | _ ->
        if Unix.gettimeofday () > deadline then failwith "retune did not settle in time"
        else begin
          Thread.delay 0.05;
          go ()
        end
  in
  go ()

let test_retune_swap_on_win () =
  section "service retune: hot fingerprint swaps only after winning the A/B";
  let app, machine, scale, scheduler, _pipeline, ir_good, ir_bad = good_and_bad_plans () in
  let bad_digest = Pmdp_plan.digest ir_bad in
  let good_tiles =
    Array.map (fun (g : Pmdp_plan.group) -> Array.copy g.Pmdp_plan.tile) ir_good.Pmdp_plan.groups
  in
  let dir = temp_dir "pmdp-retune-win" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let fp = Plan_cache.fingerprint ~app:app.Registry.name ~scale ~scheduler ~machine in
  (* Seed the persistent cache with the slow plan; the service
     warm-loads it and serves it as the incumbent. *)
  let d = Disk_cache.create ~dir () in
  let meta = Disk_cache.meta_of_request ~app:app.Registry.name ~scale ~scheduler ~machine in
  Disk_cache.store d meta ~fingerprint:fp ~ir:ir_bad;
  let retune_cfg =
    {
      Retune.default_config with
      Retune.hot_threshold = 2;
      ab_reps = 2;
      propose = (fun _ -> Some (Array.map Array.copy good_tiles)) |> Option.some;
    }
  in
  let service =
    Service.create ~workers:1 ~validate:true ~cache_dir:dir ~retune:retune_cfg ~machine ()
  in
  let req = Service.request ~scale ~scheduler ~seed:1 app.Registry.name in
  let first = or_fail "first request" (Service.submit service req) in
  check "incumbent served from the warm-loaded envelope" first.Service.cache_hit;
  ignore (or_fail "second request" (Service.submit service req));
  let r = wait_retune service ~deadline:(Unix.gettimeofday () +. 120.0) in
  check "fingerprint went hot" (r.Retune.hot >= 1);
  check "retune attempt started" (r.Retune.started >= 1);
  check "candidate won the guarded A/B" (r.Retune.wins >= 1);
  (* The swap is asynchronous wrt the win counter only in that both
     are set by the tuner thread before it goes idle; poll briefly. *)
  let rec wait_swap tries =
    let s = Service.stats service in
    match s.Service.retune with
    | Some r when r.Retune.swaps >= 1 -> r
    | _ when tries > 0 ->
        Thread.delay 0.05;
        wait_swap (tries - 1)
    | _ -> r
  in
  let r = wait_swap 100 in
  check "winning candidate was swapped in" (r.Retune.swaps >= 1);
  (* Post-swap requests serve the tuned plan and stay bitwise-correct. *)
  let resp = or_fail "post-swap request" (Service.submit service req) in
  check "post-swap response is bitwise-correct" (resp.Service.max_abs_diff = Some 0.0);
  Service.shutdown service;
  (* The swap reached the persistent cache: the stored envelope is no
     longer the slow plan. *)
  let d2 = Disk_cache.create ~dir () in
  match Disk_cache.load d2 ~fingerprint:fp with
  | Some (_, digest) -> check "swap persisted to the disk cache" (digest <> bad_digest)
  | None -> check "swap persisted to the disk cache" false

let test_retune_keep_on_loss () =
  section "service retune: losing candidate never replaces the incumbent";
  let app, machine, scale, scheduler, _pipeline, _ir_good, _ir_bad = good_and_bad_plans () in
  let retune_cfg =
    {
      Retune.default_config with
      Retune.hot_threshold = 2;
      ab_reps = 2;
      propose = (fun ir -> Some (ones_like ir)) |> Option.some;
    }
  in
  let service = Service.create ~workers:1 ~validate:true ~retune:retune_cfg ~machine () in
  let req = Service.request ~scale ~scheduler ~seed:1 app.Registry.name in
  ignore (or_fail "first request" (Service.submit service req));
  ignore (or_fail "second request" (Service.submit service req));
  let r = wait_retune service ~deadline:(Unix.gettimeofday () +. 120.0) in
  check "retune attempt started" (r.Retune.started >= 1);
  check "pathological candidate lost the A/B" (r.Retune.losses >= 1);
  check "no win recorded" (r.Retune.wins = 0);
  check "no swap happened" (r.Retune.swaps = 0);
  let resp = or_fail "post-loss request" (Service.submit service req) in
  check "incumbent still serves bitwise-correct results"
    (resp.Service.max_abs_diff = Some 0.0);
  Service.shutdown service

(* ------------------------------------------------------------------ *)

let () =
  (match Array.to_list Sys.argv with
  | _ :: p :: _ -> bench_path := p
  | _ -> ());
  test_lstsq_recovery ();
  test_calibrate_bench ();
  test_tuned_plan_sweep ();
  test_deterministic_search ();
  test_schema_guards ();
  test_retune_swap_on_win ();
  test_retune_keep_on_loss ();
  if !failures > 0 then begin
    Printf.printf "tune_check: %d failure(s)\n%!" !failures;
    exit 1
  end
  else Printf.printf "tune_check: all checks passed\n%!"

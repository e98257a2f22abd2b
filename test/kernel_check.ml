(* Native-kernel checks: every registry pipeline compiled to C,
   dlopen'ed, and executed through the native backend must match the
   reference executor bitwise, as the admission gate demands, also
   while another thread forces minor collections during the calls; a
   steady native run must allocate little beyond its live-outs, and the
   resilient chain must admit the native step under a budget that holds
   the working set and the scratch arenas; the
   on-disk kernel cache must serve a warm restart without recompiling,
   quarantine a corrupted shared object and recompile around it, and
   count a store that fails on a full disk without leaving files; and a
   host without a toolchain — or a seeded compile failure — must
   degrade every request to the interpreter, never fail it.
   Run directly or via `dune build @kernelcheck` / `dune runtest`. *)

module Machine = Pmdp_machine.Machine
module Buffer = Pmdp_exec.Buffer
module Scheduler = Pmdp_core.Scheduler
module Tiled_exec = Pmdp_exec.Tiled_exec
module Resilient = Pmdp_exec.Resilient
module Reference = Pmdp_exec.Reference
module Fault = Pmdp_runtime.Fault
module Pmdp_error = Pmdp_util.Pmdp_error
module Registry = Pmdp_apps.Registry
module Toolchain = Pmdp_kernel.Toolchain
module Kernel_cache = Pmdp_kernel.Kernel_cache
module Native_exec = Pmdp_kernel.Native_exec

let failed = ref false

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      failed := true;
      Printf.printf "  FAIL %s\n%!" msg)
    fmt

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let scale = 32

(* Scheduled once per app: the DP dominates this check's run time. *)
let plans = Hashtbl.create 16

let plan_of (app : Registry.app) =
  match Hashtbl.find_opt plans app.Registry.name with
  | Some planned -> planned
  | None -> (
      let p = app.Registry.build ~scale in
      let config = Pmdp_core.Cost_model.default_config Machine.xeon in
      let spec = Scheduler.schedule (Scheduler.for_pipeline Scheduler.Dp p) config p in
      match Tiled_exec.plan_result spec with
      | Ok plan ->
          Hashtbl.replace plans app.Registry.name (p, spec, plan);
          (p, spec, plan)
      | Error e ->
          fail "%s: plan failed: %s" app.Registry.name (Pmdp_error.to_string e);
          exit 1)

(* 1. The sweep: every app executes natively, bitwise equal to the
   reference. *)
let sweep backend =
  Printf.printf "native-vs-reference sweep (scale %d):\n%!" scale;
  List.iter
    (fun (app : Registry.app) ->
      let p, spec, plan = plan_of app in
      let inputs = app.Registry.inputs ~seed:1 p in
      let reference = Reference.run p ~inputs in
      (match Native_exec.run backend plan ~workers:2 ~inputs with
      | exception e ->
          fail "%s: native run raised %s" app.Registry.name (Printexc.to_string e)
      | results ->
          let d = Reference.max_abs_diff ~reference results in
          if d = 0.0 then Printf.printf "  ok   %-16s bitwise\n%!" app.Registry.name
          else fail "%s: native diverges: max abs %g" app.Registry.name d);
      (* Same plan through the resilient chain: the native step must be
         the one that answers, with no degradation and no interpreter
         group records. *)
      Native_exec.install backend;
      (match Resilient.run ~machine:Machine.xeon spec ~inputs with
      | Error e ->
          fail "%s: resilient run failed: %s" app.Registry.name (Pmdp_error.to_string e)
      | Ok { Resilient.results; degraded; attempts; groups } ->
          if degraded then fail "%s: native-backed run marked degraded" app.Registry.name;
          if groups <> [] then fail "%s: native-backed run returned group records" app.Registry.name;
          (match List.rev attempts with
          | (step, None) :: _ when Resilient.step_name step = "native" -> ()
          | _ -> fail "%s: native was not the answering step" app.Registry.name);
          let d = Reference.max_abs_diff ~reference results in
          if d <> 0.0 then fail "%s: resilient native diverges: max abs %g" app.Registry.name d);
      Native_exec.uninstall ())
    Registry.all

let bits_equal (a : float array) (b : float array) =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

(* The kernels read inputs in place, so an input still in the minor
   heap would move if another thread promoted it while the runtime
   lock is released.  Fresh inputs of several seeds run while a second
   thread calls Gc.minor in a loop, after a random pause so that a
   promotion can land in any group call, and then overwrites the
   emptied minor heap with NaNs.  camera_pipe's 12-element matrix is
   young in every fresh input set but read only by a late group, so a
   missing promotion shows in a few percent of its runs: hence its
   many repetitions.  Every result must be bitwise the reference's,
   every input unchanged. *)
let churn backend =
  Printf.printf "minor-GC churn during native calls:\n%!";
  let seeds = [ 1; 2; 3; 4; 5 ] in
  let cases =
    List.map
      (fun (name, reps) ->
        let app = Registry.find_exn name in
        let p, _spec, plan = plan_of app in
        let references =
          List.map (fun seed -> (seed, Reference.run p ~inputs:(app.Registry.inputs ~seed p))) seeds
        in
        (app, p, plan, references, reps))
      [ ("camera_pipe", 40); ("interpolate", 8); ("local_laplacian", 8) ]
  in
  let stop = Atomic.make false in
  let churner =
    Thread.create
      (fun () ->
        let rng = Random.State.make [| 1 |] in
        while not (Atomic.get stop) do
          Unix.sleepf (Random.State.float rng 0.002);
          Gc.minor ();
          for _ = 1 to 512 do
            ignore (Sys.opaque_identity (Array.make 32 Float.nan))
          done
        done)
      ()
  in
  Fun.protect ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join churner)
  @@ fun () ->
  List.iter
    (fun ((app : Registry.app), p, plan, references, reps) ->
      let name = app.Registry.name in
      let wrong = ref 0 and touched = ref 0 in
      List.iter
        (fun (seed, reference) ->
          for _ = 1 to reps do
            let inputs = app.Registry.inputs ~seed p in
            let before = List.map (fun (n, (b : Buffer.t)) -> (n, Array.copy b.Buffer.data)) inputs in
            let results = Native_exec.run backend plan ~workers:2 ~inputs in
            if Reference.max_abs_diff ~reference results <> 0.0 then incr wrong;
            if
              not
                (List.for_all
                   (fun (n, (b : Buffer.t)) -> bits_equal (List.assoc n before) b.Buffer.data)
                   inputs)
            then incr touched
          done)
        references;
      let runs = List.length seeds * reps in
      if !wrong > 0 then fail "%s: %d of %d runs under churn diverge" name !wrong runs;
      if !touched > 0 then fail "%s: %d of %d runs changed an input" name !touched runs;
      if !wrong = 0 && !touched = 0 then
        Printf.printf "  ok   %-16s %d runs bitwise, inputs intact\n%!" name runs)
    cases

(* A steady run allocates its live-outs and little else: no copy of
   an input, no mirror of a live-out, no re-digest of the plan.  Words
   are counted as Gc.quick_stat's minor + major - promoted, but read
   with Gc.counters after a minor collection: on OCaml 5.1 quick_stat
   lags both by up to a minor heap and a major slice, which is noise
   at the scale of one run. *)
let allocation backend =
  Printf.printf "steady native allocation (words allocated / live-out words):\n%!";
  let words () =
    Gc.minor ();
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  List.iter
    (fun (app : Registry.app) ->
      let p, _spec, plan = plan_of app in
      let inputs = app.Registry.inputs ~seed:1 p in
      ignore (Native_exec.run backend plan ~workers:2 ~inputs);
      let w0 = words () in
      let results = Native_exec.run backend plan ~workers:2 ~inputs in
      let allocated = words () -. w0 in
      let liveout =
        List.fold_left (fun acc (_, b) -> acc + Buffer.size b) 0 results |> float_of_int
      in
      let ratio = allocated /. liveout in
      if ratio < 1.5 then Printf.printf "  ok   %-16s %.2fx\n%!" app.Registry.name ratio
      else fail "%s: a steady run allocates %.2fx its live-outs (want < 1.5x)" app.Registry.name ratio)
    Registry.benchmarks

(* The native step needs the working set plus one scratch arena per
   thread, not a second copy of the working set: a budget between the
   two figures must let it answer undegraded. *)
let budget backend =
  Printf.printf "native memory budget:\n%!";
  let app = Registry.find_exn "harris" in
  let p, _spec, plan = plan_of app in
  let inputs = app.Registry.inputs ~seed:1 p in
  let reference = Reference.run p ~inputs in
  let input_bytes = List.fold_left (fun acc (_, b) -> acc + (Buffer.size b * 8)) 0 inputs in
  let resident = input_bytes + Tiled_exec.working_set_bytes plan in
  let needed = resident + Tiled_exec.scratch_bytes_per_worker plan in
  if needed >= 2 * resident then
    fail "budget: harris needs %d bytes, not below twice its working set (%d)" needed
      (2 * resident)
  else begin
    let mem_budget = (needed + (2 * resident)) / 2 in
    Native_exec.install backend;
    (match Resilient.run_plan ~machine:Machine.xeon ~mem_budget plan ~inputs with
    | Error e -> fail "budget: run failed: %s" (Pmdp_error.to_string e)
    | Ok { Resilient.results; degraded; attempts; _ } -> (
        let answered =
          match List.rev attempts with
          | (step, None) :: _ -> Resilient.step_name step = "native"
          | _ -> false
        in
        let bitwise = Reference.max_abs_diff ~reference results = 0.0 in
        if degraded then fail "budget: run under %d bytes marked degraded" mem_budget;
        if not answered then fail "budget: native was not the answering step";
        if not bitwise then fail "budget: result diverges from the reference";
        if answered && bitwise && not degraded then
          Printf.printf "  ok   native runs undegraded in %d bytes (working set %d)\n%!"
            mem_budget resident));
    Native_exec.uninstall ()
  end

(* 2/3. Cache lifecycle on one app: cold compile, warm restart served
   from disk, corrupted object quarantined and recompiled, failed
   store on a full disk. *)
let cache_lifecycle () =
  Printf.printf "kernel cache lifecycle:\n%!";
  let dir = temp_dir "pmdp_kernel_check" in
  let app = Registry.find_exn "blur" in
  let p, _spec, plan = plan_of app in
  let inputs = app.Registry.inputs ~seed:1 p in
  let reference = Reference.run p ~inputs in
  let check_run label backend =
    match Native_exec.run backend plan ~workers:1 ~inputs with
    | exception e -> fail "%s: raised %s" label (Printexc.to_string e)
    | results ->
        let d = Reference.max_abs_diff ~reference results in
        if d <> 0.0 then fail "%s: diverges by %g" label d
  in
  (* cold: compile and persist *)
  let a = Native_exec.create ~cache_dir:dir () in
  check_run "cold" a;
  let sa = Native_exec.stats a in
  if sa.Native_exec.compiles <> 1 then fail "cold: %d compiles (want 1)" sa.Native_exec.compiles;
  if sa.Native_exec.disk_hits <> 0 then fail "cold: unexpected disk hit";
  (match Native_exec.cache_stats a with
  | Some cs when cs.Kernel_cache.stores = 1 -> ()
  | Some cs -> fail "cold: %d stores (want 1)" cs.Kernel_cache.stores
  | None -> fail "cold: no cache stats");
  Printf.printf "  ok   cold compile persisted\n%!";
  (* warm: a fresh backend on the same dir loads, revalidates, never compiles *)
  let b = Native_exec.create ~cache_dir:dir () in
  check_run "warm" b;
  let sb = Native_exec.stats b in
  if sb.Native_exec.compiles <> 0 then fail "warm: %d compiles (want 0)" sb.Native_exec.compiles;
  if sb.Native_exec.disk_hits <> 1 then
    fail "warm: %d disk hits (want 1)" sb.Native_exec.disk_hits;
  if sb.Native_exec.validations <> 1 then
    fail "warm: disk-loaded kernel skipped the validation gate";
  Printf.printf "  ok   warm restart served from disk\n%!";
  (* corrupt: flip bytes in the stored object; the checksum must send
     it to quarantine and the next backend recompiles cleanly *)
  (match Sys.readdir dir |> Array.to_list |> List.filter (fun f -> Filename.check_suffix f ".so") with
  | [ so ] ->
      let path = Filename.concat dir so in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
      ignore (Unix.write_substring fd "corrupted!" 0 10);
      Unix.close fd
  | l -> fail "corrupt: expected 1 cached .so, found %d" (List.length l));
  let c = Native_exec.create ~cache_dir:dir () in
  check_run "corrupt" c;
  let sc = Native_exec.stats c in
  if sc.Native_exec.compiles <> 1 then
    fail "corrupt: %d compiles (want 1 recompile)" sc.Native_exec.compiles;
  (match Native_exec.cache_stats c with
  | Some cs when cs.Kernel_cache.quarantined >= 1 -> ()
  | _ -> fail "corrupt: damaged object was not quarantined");
  if
    not
      (Sys.readdir dir |> Array.exists (fun f -> Filename.check_suffix f ".bad"))
  then fail "corrupt: no .bad quarantine file on disk";
  Printf.printf "  ok   corrupted object quarantined and recompiled\n%!";
  (* full disk: the object's temp path in a fresh store is a symlink
     to /dev/full, so copying it in fails.  The run still answers, the
     failure is counted, neither entry file appears and the temp path
     is removed. *)
  if Sys.file_exists "/dev/full" then begin
    let full = temp_dir "pmdp_kernel_full" in
    let kd = Pmdp_plan.kernel_digest (Tiled_exec.ir plan) in
    let file name = Filename.concat full name in
    let tmp = Printf.sprintf "%s.tmp.%d" (file (kd ^ ".so")) (Unix.getpid ()) in
    Unix.symlink "/dev/full" tmp;
    let d = Native_exec.create ~cache_dir:full () in
    check_run "full disk" d;
    if (Native_exec.stats d).Native_exec.compiles <> 1 then fail "full disk: kernel not compiled";
    (match Native_exec.cache_stats d with
    | Some cs when cs.Kernel_cache.store_failures = 1 && cs.Kernel_cache.stores = 0 -> ()
    | Some cs ->
        fail "full disk: %d stores, %d store failures (want 0, 1)" cs.Kernel_cache.stores
          cs.Kernel_cache.store_failures
    | None -> fail "full disk: no cache stats");
    List.iter
      (fun name -> if Sys.file_exists (file name) then fail "full disk: %s was written" name)
      [ kd ^ ".so"; kd ^ ".json" ];
    if Sys.file_exists tmp then fail "full disk: temp path left behind";
    Printf.printf "  ok   failed store counted, nothing left on disk\n%!"
  end

(* 4/5. Unavailability: no toolchain, then a seeded compile failure.
   Both must leave the resilient chain answering bitwise-correctly via
   the interpreter, with the native failure on the attempt ledger. *)
let expect_fallback label backend spec ~inputs ~reference =
  Native_exec.install backend;
  (match Resilient.run ~machine:Machine.xeon spec ~inputs with
  | Error e -> fail "%s: hard error %s" label (Pmdp_error.to_string e)
  | Ok { Resilient.results; degraded; attempts; _ } ->
      if not degraded then fail "%s: run not marked degraded" label;
      (match
         List.find_opt
           (fun (step, e) -> Resilient.step_name step = "native" && e <> None)
           attempts
       with
      | Some (_, Some e) ->
          if Pmdp_error.kind e <> "kernel-unavailable" then
            fail "%s: native failed with %s (want kernel-unavailable)" label
              (Pmdp_error.kind e)
      | _ -> fail "%s: no failed native attempt on the ledger" label);
      let d = Reference.max_abs_diff ~reference results in
      if d <> 0.0 then fail "%s: fallback diverges by %g" label d);
  Native_exec.uninstall ()

let fallbacks () =
  Printf.printf "interpreter fallback:\n%!";
  let app = Registry.find_exn "harris" in
  let p, spec, _plan = plan_of app in
  let inputs = app.Registry.inputs ~seed:1 p in
  let reference = Reference.run p ~inputs in
  (* a host without any working compiler *)
  let none = Native_exec.create ~cc:"/nonexistent/pmdp-cc" () in
  if Native_exec.toolchain none <> None then fail "no-toolchain: probe found /nonexistent/pmdp-cc";
  expect_fallback "no-toolchain" none spec ~inputs ~reference;
  Printf.printf "  ok   no toolchain degrades to interpreter\n%!";
  (* a seeded compile failure (fault spec kernel@0) *)
  let fault = Fault.create [ { Fault.action = Fault.Kernel_fail; at = 0 } ] in
  let injected = Native_exec.create ~fault () in
  expect_fallback "kernel@0" injected spec ~inputs ~reference;
  let si = Native_exec.stats injected in
  if si.Native_exec.compile_failures <> 1 then
    fail "kernel@0: %d compile failures (want 1)" si.Native_exec.compile_failures;
  (* the failure is memoized: a second request neither recompiles nor
     re-probes, it degrades straight away *)
  expect_fallback "kernel@0-memo" injected spec ~inputs ~reference;
  let si' = Native_exec.stats injected in
  if si'.Native_exec.compiles <> si.Native_exec.compiles then
    fail "kernel@0-memo: retried the compiler for a memoized failure";
  if si'.Native_exec.unavailable <> 1 then
    fail "kernel@0-memo: %d unavailable digests (want 1)" si'.Native_exec.unavailable;
  Printf.printf "  ok   seeded compile failure degrades and is memoized\n%!"

let () =
  (match Toolchain.probe () with
  | None ->
      (* The container bakes in gcc; a missing toolchain here is a
         broken environment, not a pass. *)
      fail "no working C compiler on this host"
  | Some tc ->
      Printf.printf "toolchain: %s (openmp: %b)\n%!" tc.Toolchain.version tc.Toolchain.openmp;
      let dir = temp_dir "pmdp_kernel_sweep" in
      let backend = Native_exec.create ~cache_dir:dir () in
      sweep backend;
      churn backend;
      allocation backend;
      budget backend;
      cache_lifecycle ();
      fallbacks ());
  if !failed then exit 1;
  print_endline "kernelcheck OK"

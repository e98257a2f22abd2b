(* The benchmark harness: two workloads over the six paper pipelines
   under the DP scheduler, on the native backend.

   paper-s8   in process at scale 8: Scheduler -> Tiled_exec -> Verify ->
              Resilient.run_plan with Native_exec installed.
   serve-s32  `pmdp serve --native` at scale 32, driven over
              Pmdp_service.Client with a fresh input seed per request.

   Every workload runs the same phases: a cold set-up that writes the
   plan and kernel stores, then several restarts on the warm stores,
   each a fresh process (a harness process or a server) that reads them
   and then carries an equal share of a closed loop with one caller and
   of an open loop at a fixed rate.
   With --trace 1 the harness wraps each layer call it makes in a span
   (see Spans) and prints the per-layer table; end-to-end figures come
   from --trace 0 runs.  README.md has the metric definitions. *)

module Registry = Pmdp_apps.Registry
module Pipeline = Pmdp_dsl.Pipeline
module Scheduler = Pmdp_core.Scheduler
module Tiled_exec = Pmdp_exec.Tiled_exec
module Resilient = Pmdp_exec.Resilient
module Reference = Pmdp_exec.Reference
module Buffer = Pmdp_exec.Buffer
module Native_exec = Pmdp_kernel.Native_exec
module Kernel_cache = Pmdp_kernel.Kernel_cache
module Toolchain = Pmdp_kernel.Toolchain
module C_emit = Pmdp_codegen.C_emit
module Verify = Pmdp_verify.Verify
module Diagnostic = Pmdp_verify.Diagnostic
module Client = Pmdp_service.Client
module Service = Pmdp_service.Service
module Disk_cache = Pmdp_service.Disk_cache
module Plan_cache = Pmdp_service.Plan_cache
module Transport = Pmdp_service.Transport
module Json = Pmdp_report.Json
module Pool = Pmdp_runtime.Pool
module Pmdp_error = Pmdp_util.Pmdp_error
module Rng = Pmdp_util.Rng

let t_process_start = Unix.gettimeofday ()
let now = Unix.gettimeofday
let span = Spans.with_span

(* ------------------------------------------------------------------ *)
(* Workloads and metric names *)

type kind = In_process | Served

type workload = {
  name : string;
  kind : kind;
  scale : int;
  rate : float;  (** open-loop requests per second, about a fifth of the closed-loop rate *)
  restarts : int;  (** warm restarts per run, each carrying an equal share of the loops *)
}

(* restart_s is the nearest-rank median over a run's restarts.  A
   served restart lands in one of two modes, about 0.3 s or 0.75 s, at
   random per process; within the fast mode it still steps by about
   50 ms.  With eight served restarts a slow one or three do not move
   the median, where the fastest of them jumped between the 50 ms
   steps.  An in-process restart costs about five seconds, so paper-s8
   has five. *)
let workloads =
  [
    { name = "paper-s8"; kind = In_process; scale = 8; rate = 7.0; restarts = 5 };
    { name = "serve-s32"; kind = Served; scale = 32; rate = 20.0; restarts = 8 };
  ]

let apps = Registry.benchmarks
let app_names = List.map (fun (a : Registry.app) -> a.Registry.name) apps

(* The open loop's app mix: each cycle is a seeded shuffle of the six
   apps plus a second unsharp.  Seven slots put the pooled p50 (3.5/7)
   and p90 (6.3/7) inside one app's latency mode instead of on the
   boundary between two, where six equal slots would put the p50. *)
let cycle = app_names @ [ "unsharp" ]

let end_to_end =
  [
    ("setup_s", "s");
    ("restart_s", "s");
    ("exec_ms", "ms");
    ("req_per_s", "1/s");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [ ("core.schedule_s", "s") ]
  @ List.map (fun a -> ("core.schedule_s." ^ a, "s")) app_names
  @ [
      ("plan.lower_ms", "ms");
      ("verify.check_plan_ms", "ms");
      ("codegen.emit_ms", "ms");
      ("codegen.c_kb", "KiB");
      ("kernel.cc_s", "s");
      ("kernel.admit_s", "s");
      ("exec.reference_ms", "ms");
      ("kernel.exec_ms", "ms");
    ]
  @ List.map (fun a -> ("kernel.exec_ms." ^ a, "ms")) app_names
  @ [
      ("kernel.exec_1t_ms", "ms");
      ("exec.driver_ms", "ms");
      ("exec.alloc_mb", "MB");
      ("exec.major_gcs", "count");
      ("apps.inputs_ms", "ms");
      ("exec.checksum_ms", "ms");
      ("service.rtt_ms", "ms");
      ("service.queue_ms", "ms");
      ("service.exec_ms", "ms");
      ("service.other_ms", "ms");
      ("service.listen_s", "s");
      ("service.restart_compiles", "count");
      ("service.cache_hit_pct", "%");
      ("service.batched_pct", "%");
      ("harness.late_ms", "ms");
    ]

(* ------------------------------------------------------------------ *)
(* Process bookkeeping: children are killed and reaped on every exit. *)

let children : int list ref = ref []

let reap pid =
  children := List.filter (( <> ) pid) !children;
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let kill_children () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    !children

let () =
  at_exit kill_children;
  (* A terminated run still stops its servers and removes its files. *)
  List.iter
    (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigint; Sys.sigterm ]

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 1)
    fmt

(* ------------------------------------------------------------------ *)
(* Op accounting *)

type phase = { label : string; mutable attempted : int; mutable failed : int }

let phases : phase list ref = ref []
let wrong_outputs = ref 0

let phase label =
  let p = { label; attempted = 0; failed = 0 } in
  phases := !phases @ [ p ];
  p

let failed_op ph fmt =
  Printf.ksprintf
    (fun msg ->
      ph.failed <- ph.failed + 1;
      prerr_endline (Printf.sprintf "perfbench: %s: failed op: %s" ph.label msg))
    fmt

(* One op whose outputs disagree with the reference: a failed op, and
   the run is not correct. *)
let wrong_output ph ~what = function
  | [] -> ()
  | problems ->
      incr wrong_outputs;
      failed_op ph "%s: wrong output: %s" what (String.concat "; " problems)

(* ------------------------------------------------------------------ *)
(* Correctness reference, computed by the harness itself *)

type expected = (string * float) list (* live-out or output name -> checksum *)

let checksums results =
  List.map (fun (n, b) -> (n, Buffer.checksum b)) results

(* Checksums must equal the expected ones exactly, unless [tolerance n]
   lets output [n] differ by that much. *)
let compare_sums ?(tolerance = fun _ -> 0.0) ph ~what ~(expect : expected) (got : expected) =
  wrong_output ph ~what
    (List.filter_map
       (fun (n, v) ->
         match List.assoc_opt n expect with
         | Some e when v = e || Float.abs (v -. e) <= tolerance n -> None
         | Some e -> Some (Printf.sprintf "%s checksum %.17g, expected %.17g" n v e)
         | None -> Some ("unexpected output " ^ n))
       got
    @
    if List.length got <> List.length expect then
      [ Printf.sprintf "%d outputs, expected %d" (List.length got) (List.length expect) ]
    else [])

let max_abs (b : Buffer.t) = Array.fold_left (fun a x -> Float.max a (Float.abs x)) 0.0 b.Buffer.data

(* The kernel admission gate's verdict per pipeline, "bitwise" or
   "epsilon", as the run-private kernel store records it. *)
let verdicts kdir =
  let store = Kernel_cache.create ~dir:kdir () in
  Array.to_list (Sys.readdir kdir)
  |> List.filter_map (fun f ->
         if not (Filename.check_suffix f ".json") then None
         else
           Kernel_cache.load store ~kernel_digest:(Filename.chop_suffix f ".json")
             ~abi:Pmdp_plan.kernel_abi_version
           |> Option.map (fun (_, (m : Kernel_cache.meta)) -> (m.pipeline, m.validation)))

let epsilon verdicts app = List.assoc_opt app verdicts = Some "epsilon"

(* Full buffers against Reference.run, once per plan: bitwise, or
   max |diff| <= 1e-6 max |ref| per buffer where the gate admitted the
   kernel under epsilon (the gate's own rule).  Every declared output
   must be among the live-outs. *)
let compare_buffers ph ~what ~epsilon ~outputs results reference =
  wrong_output ph ~what
    (List.filter_map
       (fun (n, b) ->
         match List.assoc_opt n reference with
         | None -> Some ("live-out " ^ n ^ " not in reference")
         | Some r ->
             let d = Buffer.max_abs_diff b r in
             if d = 0.0 || (epsilon && d <= 1e-6 *. max_abs r) then None
             else Some (Printf.sprintf "live-out %s differs from Reference.run by %g" n d))
       results
    @ List.filter_map
        (fun n -> if List.mem_assoc n results then None else Some ("no live-out " ^ n))
        outputs)

(* ------------------------------------------------------------------ *)
(* In-process path: the layers a `pmdp bench` case goes through *)

let cost_config = Pmdp_core.Cost_model.config_of_machine Pmdp_machine.Machine.xeon

(* Time the harness spends on its own work (self-test, directories,
   input synthesis, reference checks, codegen probes).  Set-up and
   restart times are read on [program_clock], which stops during it;
   at process start the two clocks agree. *)
let excluded = ref 0.0

let harness_work f =
  let t = now () in
  Fun.protect ~finally:(fun () -> excluded := !excluded +. (now () -. t)) f

let program_clock () = now () -. !excluded

type prepared = {
  app : Registry.app;
  plan : Tiled_exec.plan;
  inputs : (string * Buffer.t) list;
  expect : expected;  (** live-out checksums of the first native run *)
}

(* The traced run installs the backend through a wrapper that spans
   each Native_exec.run: the first per plan is admission, later ones
   steady-state execution.  The untraced run installs it directly. *)
let install_native native =
  if not !Spans.enabled then Native_exec.install native
  else begin
    let seen = Hashtbl.create 8 in
    Resilient.set_native_runner
      (Some
         (fun ~plan ~workers ~inputs ->
           let app = (Tiled_exec.pipeline plan).Pipeline.name in
           let name = if Hashtbl.mem seen app then "kernel.exec" else "kernel.admit" in
           Hashtbl.replace seen app ();
           span ~app name (fun () -> Native_exec.run native plan ~workers ~inputs)))
  end

(* One Resilient.run_plan; [None] (and a failed op) unless the native
   step answered. *)
let run_plan ph pool ~app plan ~inputs =
  ph.attempted <- ph.attempted + 1;
  match span ~app "exec.run_plan" (fun () -> Resilient.run_plan ~pool plan ~inputs) with
  | Error e ->
      failed_op ph "%s: %s" app (Pmdp_error.to_string e);
      None
  | Ok { Resilient.degraded = true; attempts; _ } ->
      failed_op ph "%s: degraded (%s)" app
        (String.concat ", "
           (List.map
              (fun (st, e) ->
                Resilient.step_name st
                ^ match e with None -> " ok" | Some e -> ": " ^ Pmdp_error.to_string e)
              attempts));
      None
  | Ok { Resilient.results; _ } -> Some results

let plan_file dir (app : Registry.app) = Filename.concat dir (app.Registry.name ^ ".json")

let toolchain = lazy (Toolchain.probe ())

(* The C source and compiler run a kernel admission performs, repeated
   by the traced run so each gets its own span. *)
let codegen_probe dir (app : Registry.app) pipeline plan c_bytes =
  let name = app.Registry.name in
  let src =
    span ~app:name "codegen.emit" (fun () -> C_emit.emit_kernels pipeline (Tiled_exec.ir plan))
  in
  c_bytes := !c_bytes + String.length src;
  let path = Filename.concat dir (name ^ ".c") in
  Out_channel.with_open_bin path (fun oc -> output_string oc src);
  match Lazy.force toolchain with
  | None -> die "no working C compiler"
  | Some tc -> (
      match
        span ~app:name "kernel.cc" (fun () ->
            Toolchain.compile tc ~src:path ~out:(Filename.concat dir (name ^ ".so")))
      with
      | Ok () -> ()
      | Error e -> die "compiling %s: %s" name e)

(* Cold set-up of all six apps: schedule, lower, verify, store the plan,
   then the first Resilient.run_plan admits the kernel.  Returns the
   [program_clock] seconds from [t0] to the last first result, and each
   plan's live-out checksums from that first native run, which later
   runs must match exactly. *)
let cold_setup ~t0 ~scale ~seed ~kdir ~pdir ~probe ph pool =
  let native = Native_exec.create ~cache_dir:kdir () in
  install_native native;
  let c_bytes = ref 0 in
  let prepared =
    List.map
      (fun (app : Registry.app) ->
        let name = app.Registry.name in
        let pipeline = app.Registry.build ~scale in
        let resolved = Scheduler.for_pipeline Scheduler.Dp pipeline in
        let spec =
          span ~app:name "core.schedule" (fun () -> Scheduler.schedule resolved cost_config pipeline)
        in
        let plan = span ~app:name "plan.lower" (fun () -> Tiled_exec.plan spec) in
        let ir = Tiled_exec.ir plan in
        (match
           Diagnostic.errors
             (span ~app:name "verify.check_plan" (fun () -> Verify.check_plan pipeline ir))
         with
        | [] -> ()
        | d :: _ -> die "%s: plan rejected: %s" name (Format.asprintf "%a" Diagnostic.pp d));
        Pmdp_plan.write (plan_file pdir app) ir;
        if probe then harness_work (fun () -> codegen_probe pdir app pipeline plan c_bytes);
        let inputs =
          harness_work (fun () ->
              span ~app:name "apps.inputs" (fun () -> app.Registry.inputs ~seed pipeline))
        in
        match run_plan ph pool ~app:name plan ~inputs with
        | None -> die "%s: no native result in cold set-up" name
        | Some results ->
            harness_work (fun () ->
                let r = span ~app:name "exec.reference" (fun () -> Reference.run pipeline ~inputs) in
                compare_buffers ph ~what:name
                  ~epsilon:(epsilon (verdicts kdir) name)
                  ~outputs:(List.map fst (Reference.outputs_only pipeline r))
                  results r);
            { app; plan; inputs; expect = checksums results })
      apps
  in
  (program_clock () -. t0, native, prepared, !c_bytes)

(* Warm restart in process: a fresh backend over the kernel store the
   cold set-up wrote, plans read back from their envelopes, every app
   answering once.  Returns the [program_clock] seconds from [t0]. *)
let warm_restart ~t0 ~scale ~seed ~kdir ~pdir ph pool expected =
  let native = Native_exec.create ~cache_dir:kdir () in
  install_native native;
  let prepared =
    List.map
      (fun (app : Registry.app) ->
        let name = app.Registry.name in
        let pipeline = app.Registry.build ~scale in
        let ir =
          match Pmdp_plan.read (plan_file pdir app) with
          | Ok (ir, digest) when digest = Pmdp_plan.digest ir -> ir
          | Ok _ -> die "%s: stored plan digest mismatch" name
          | Error e -> die "%s: reading stored plan: %s" name e
        in
        let plan = span ~app:name "plan.instantiate" (fun () -> Tiled_exec.instantiate pipeline ir) in
        if
          Diagnostic.errors
            (span ~app:name "verify.check_plan" (fun () -> Verify.check_plan pipeline ir))
          <> []
        then die "%s: stored plan rejected" name;
        let inputs =
          harness_work (fun () ->
              span ~app:name "apps.inputs" (fun () -> app.Registry.inputs ~seed pipeline))
        in
        let expect = List.assoc name expected in
        (match run_plan ph pool ~app:name plan ~inputs with
        | None -> ()
        | Some results ->
            harness_work (fun () -> compare_sums ph ~what:name ~expect (checksums results)));
        { app; plan; inputs; expect })
      apps
  in
  (program_clock () -. t0, native, prepared)

let gc_words () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words, s.Gc.major_collections)

type pass_stats = { walls : float list; alloc_mb : float list; major_gcs : float list; runs : int }

(* Closed loop in process: back-to-back passes, each running every plan
   once; a pass's wall is the sum of its six run_plan calls, so the
   checksum checks between runs are not counted. *)
let inproc_passes ~seconds ph pool prepared =
  let walls = ref [] and allocs = ref [] and gcs = ref [] and runs = ref 0 in
  let deadline = now () +. seconds in
  while now () < deadline || !walls = [] do
    let wall = ref 0.0 and alloc = ref 0.0 and majors = ref 0 in
    List.iter
      (fun pr ->
        let name = pr.app.Registry.name in
        let w0, m0 = gc_words () in
        let t0 = now () in
        let r = run_plan ph pool ~app:name pr.plan ~inputs:pr.inputs in
        let t1 = now () in
        let w1, m1 = gc_words () in
        wall := !wall +. (t1 -. t0);
        alloc := !alloc +. (w1 -. w0);
        majors := !majors + (m1 - m0);
        incr runs;
        Option.iter
          (fun results ->
            let got = span ~app:name "exec.checksum" (fun () -> checksums results) in
            compare_sums ph ~what:name ~expect:pr.expect got)
          r)
      prepared;
    walls := !wall :: !walls;
    allocs := (!alloc *. 8.0 /. 1e6) :: !allocs;
    gcs := float_of_int !majors :: !gcs
  done;
  { walls = List.rev !walls; alloc_mb = !allocs; major_gcs = !gcs; runs = !runs }

(* The traced run's single-thread kernel timing: Native_exec.run called
   directly at one OpenMP thread, a few passes. *)
let one_thread_passes ~seconds native prepared =
  let deadline = now () +. seconds in
  let first = ref true in
  while now () < deadline || !first do
    first := false;
    List.iter
      (fun pr ->
        let app = pr.app.Registry.name in
        ignore
          (span ~app "kernel.exec_1t" (fun () ->
               Native_exec.run native pr.plan ~workers:1 ~inputs:pr.inputs)))
      prepared
  done

(* ------------------------------------------------------------------ *)
(* Open-loop samples, shared by both paths *)

type sample = {
  due : float;
  sent : float;
  finished : float;
  late : float;  (** how late the generator sent it *)
  ok : bool;  (** answered without error or degradation *)
  queue : float;  (** response queue_seconds (served only) *)
  exec : float;  (** response wall_seconds (served only) *)
  cache_hit : bool;
  batched : bool;
}

let latency s = if s.ok then s.finished -. s.due else infinity

(* [n] requests: consecutive cycles, each a seeded shuffle of [cycle]. *)
let open_loop_mix ~seed n =
  let rng = Rng.create (seed + 7919) in
  let k = List.length cycle in
  let out = Array.make n "" in
  for c = 0 to (n - 1) / k do
    let a = Array.of_list cycle in
    for i = k - 1 downto 1 do
      let j = Rng.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    Array.iteri (fun j app -> if (c * k) + j < n then out.((c * k) + j) <- app) a
  done;
  out

(* Open-loop requests in a run, in whole cycles per restart: at least
   100 in all, so at least ten of the run's samples lie beyond its p90. *)
let open_loop_count w ~seconds =
  let k = List.length cycle in
  let r = w.restarts in
  let per = max ((100 + r - 1) / r) (int_of_float (w.rate *. seconds) / r) in
  r * k * ((per + k - 1) / k)

(* In process there is one executor: request i starts when it is due
   or when request i-1 finishes, whichever is later; the latency counts
   that wait. *)
let inproc_open_loop w ~mix ph pool prepared =
  let by_name = List.map (fun pr -> (pr.app.Registry.name, pr)) prepared in
  let t_start = now () +. 0.05 in
  let prev_done = ref t_start in
  Array.to_list mix
  |> List.mapi (fun i name ->
         let pr = List.assoc name by_name in
         let due = t_start +. (float_of_int i /. w.rate) in
         let t = now () in
         if t < due then Unix.sleepf (due -. t);
         let sent = now () in
         let r = run_plan ph pool ~app:name pr.plan ~inputs:pr.inputs in
         let finished = now () in
         let late = sent -. Float.max due !prev_done in
         prev_done := finished;
         let ok =
           match r with
           | None -> false
           | Some results ->
               let got = span ~app:name "exec.checksum" (fun () -> checksums results) in
               compare_sums ph ~what:name ~expect:pr.expect got;
               true
         in
         { due; sent; finished; late; ok; queue = 0.0; exec = finished -. sent; cache_hit = true; batched = false })

(* ------------------------------------------------------------------ *)
(* Served path *)

let pmdp_exe = "_build/default/bin/pmdp.exe"

type server = { pid : int; endpoint : Transport.endpoint; spawned : float; log : string }

let free_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close s)
    (fun () ->
      Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname s with Unix.ADDR_INET (_, p) -> p | _ -> die "no TCP port")

let spawn_server ~nproc ~cache_dir ~kernel_dir ~log =
  let endpoint = Transport.Tcp ("127.0.0.1", free_port ()) in
  let args =
    [|
      pmdp_exe; "serve"; "--native"; "-j"; string_of_int nproc; "--shards"; "1";
      "--endpoint"; Transport.to_string endpoint; "--cache-dir"; cache_dir;
      "--kernel-cache-dir"; kernel_dir;
    |]
  in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let spawned = now () in
  let pid = Unix.create_process pmdp_exe args null out out in
  Unix.close out;
  Unix.close null;
  children := pid :: !children;
  { pid; endpoint; spawned; log }

(* Readiness is polled every 5 ms rather than through the client's
   exponential connect backoff, whose schedule would set the measured
   restart time. *)
let await_listen srv =
  let rec go () =
    match Client.connect ~endpoint:srv.endpoint () with
    | Ok c -> (c, now () -. srv.spawned)
    | Error _ ->
        (match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
        | 0, _ -> ()
        | _ ->
            children := List.filter (( <> ) srv.pid) !children;
            die "server exited before listening; log in %s" srv.log);
        if now () -. srv.spawned > 120.0 then die "server not listening after 120 s";
        Unix.sleepf 0.005;
        go ()
  in
  go ()

(* The child's exit status; killed (SIGKILL) after [timeout] seconds. *)
let wait_exit pid ~timeout =
  let deadline = now () +. timeout in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.01;
        go ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        snd (Unix.waitpid [] pid)
    | _, status -> status
  in
  let status = go () in
  children := List.filter (( <> ) pid) !children;
  status

let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  let line =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find_opt (String.starts_with ~prefix:"VmHWM:")
  in
  match line with
  | Some l -> Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
  | None -> die "no VmHWM in %s" path

let stop_server srv client =
  (match Client.shutdown_server client with
  | Ok () -> ()
  | Error e -> prerr_endline ("perfbench: shutdown: " ^ Pmdp_error.to_string e));
  Client.close client;
  ignore (wait_exit srv.pid ~timeout:30.0)

(* "pmdp serve: kernels — N compiled ..." from the shutdown ledger. *)
let ledger_kernel_compiles log =
  In_channel.with_open_text log In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         try Scanf.sscanf l "pmdp serve: kernels — %d compiled" (fun n -> Some n)
         with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)
  |> function
  | Some n -> n
  | None -> die "no kernel ledger in %s" log

type served = {
  key : string * int;  (** app, input seed *)
  resp : (Client.remote_response, Pmdp_error.t) result;
}

let submit ph client ~scale (app, seed) =
  ph.attempted <- ph.attempted + 1;
  let resp =
    span ~app "service.submit" (fun () ->
        Client.submit client (Service.request ~scale ~scheduler:Scheduler.Dp ~seed app))
  in
  (match resp with
  | Error e -> failed_op ph "%s seed %d: %s" app seed (Pmdp_error.to_string e)
  | Ok r when r.Client.degraded -> failed_op ph "%s seed %d: degraded response" app seed
  | Ok _ -> ());
  { key = (app, seed); resp }

let answered s = match s.resp with Ok r -> not r.Client.degraded | Error _ -> false

(* One served request as a latency sample, with the response's fields. *)
let sample_of ~due ~sent ~finished s =
  let queue, exec, cache_hit, batched =
    match s.resp with
    | Ok r -> (r.Client.queue_seconds, r.Client.wall_seconds, r.Client.cache_hit, r.Client.batch_size > 1)
    | Error _ -> (0.0, 0.0, false, false)
  in
  { due; sent; finished; late = sent -. due; ok = answered s; queue; exec; cache_hit; batched }

(* One request per app, in registry order: the first answer for each
   fingerprint. *)
let first_answers ph client ~scale ~seed_of ~base =
  List.mapi (fun j a -> submit ph client ~scale (a, seed_of (base + j))) app_names

(* Twenty Client.health round trips, in seconds. *)
let health_rtts c =
  List.init 20 (fun _ ->
      let t0 = now () in
      (match span "service.health" (fun () -> Client.health c) with
      | Ok _ -> ()
      | Error e -> die "health: %s" (Pmdp_error.to_string e));
      now () -. t0)

(* Stop a restarted server and count its plan and kernel compiles, from
   the stats op and the shutdown ledger; any is a failed op. *)
let stop_restarted ph srv c =
  let plan_compiles =
    let ( let* ) = Option.bind in
    match
      let* j = Result.to_option (Client.stats c) in
      let* totals = Json.member "totals" j in
      let* cache = Json.member "cache" totals in
      let* n = Json.member "compiles" cache in
      Json.to_int_opt n
    with
    | Some n -> n
    | None -> die "stats op: no totals.cache.compiles"
  in
  stop_server srv c;
  let compiles = plan_compiles + ledger_kernel_compiles srv.log in
  if compiles <> 0 then failed_op ph "%d plan or kernel compiles after restart" compiles;
  compiles

let closed_loop_served ~seconds ph client ~scale ~seed_of ~base =
  let walls = ref [] and log = ref [] and pass = ref 0 in
  let t_start = now () in
  let deadline = t_start +. seconds in
  while now () < deadline || !walls = [] do
    let t0 = now () in
    List.iteri
      (fun j a -> log := submit ph client ~scale (a, seed_of (base + (6 * !pass) + j)) :: !log)
      app_names;
    walls := (now () -. t0) :: !walls;
    incr pass
  done;
  let elapsed = now () -. t_start in
  (List.rev !walls, List.rev !log, elapsed)

(* The open-loop generator: nproc connections, each taking the next due
   request in order, so a request whose connections are all busy is
   sent late and its latency, timed from the due time, shows it. *)
let open_loop_served w ~mix ~nproc ph srv ~seed_of ~base =
  let n = Array.length mix in
  let results = Array.make n None in
  let next = ref 0 and lock = Mutex.create () in
  let t_start = now () +. 0.1 in
  let worker () =
    match Client.connect ~endpoint:srv.endpoint () with
    | Error e -> die "open loop connect: %s" (Pmdp_error.to_string e)
    | Ok client ->
        let rec go () =
          Mutex.lock lock;
          let i = !next in
          incr next;
          Mutex.unlock lock;
          if i < n then begin
            let due = t_start +. (float_of_int i /. w.rate) in
            let t = now () in
            if t < due then Unix.sleepf (due -. t);
            let sent = now () in
            let app = mix.(i) in
            let s = submit ph client ~scale:w.scale (app, seed_of (base + i)) in
            results.(i) <- Some (due, sent, now (), s);
            go ()
          end
        in
        go ();
        Client.close client
  in
  let threads = List.init nproc (fun _ -> Thread.create worker ()) in
  List.iter Thread.join threads;
  Array.to_list results
  |> List.map (function
       | None -> die "open loop: request never sent"
       | Some (due, sent, finished, s) -> (sample_of ~due ~sent ~finished s, s))

(* The harness's own reference for (app, scale, seed), from
   Reference.run on the inputs the server synthesizes: the checksum of
   every stage, how far an epsilon-admitted kernel may move it, and the
   names of the pipeline's declared outputs. *)
type reference = { sums : expected; slack : expected; outputs : string list }

let reference_table ~scale keys =
  let pipelines = Hashtbl.create 8 in
  let pipeline app =
    match Hashtbl.find_opt pipelines app with
    | Some p -> p
    | None ->
        let p = (Registry.find_exn app).Registry.build ~scale in
        Hashtbl.add pipelines app p;
        p
  in
  (* The gate's epsilon rule, max |diff| <= 1e-6 max |ref|, moves a
     buffer's sum by at most 1e-6 * size * max |ref|. *)
  let slack (n, b) = (n, 1e-6 *. float_of_int (Array.length b.Buffer.data) *. max_abs b) in
  List.map
    (fun ((app, seed) as key) ->
      let p = pipeline app in
      let inputs = span ~app "apps.inputs" (fun () -> (Registry.find_exn app).Registry.inputs ~seed p) in
      let r = span ~app "exec.reference" (fun () -> Reference.run p ~inputs) in
      ( key,
        {
          sums = checksums r;
          slack = List.map slack r;
          outputs = List.map fst (Reference.outputs_only p r);
        } ))
    keys

(* A response must carry every declared output, and each checksum it
   carries must equal the reference's for that stage: exactly, or
   within the slack when the gate admitted the app's kernel under
   epsilon. *)
let check_served ph ~verdicts refs s =
  match s.resp with
  | Error _ -> ()
  | Ok r -> (
      let app, seed = s.key in
      let what = Printf.sprintf "%s seed %d" app seed in
      match List.assoc_opt s.key refs with
      | None -> ()
      | Some e -> (
          match List.filter (fun n -> not (List.mem_assoc n r.Client.outputs)) e.outputs with
          | [] ->
              let expect = List.filter (fun (n, _) -> List.mem_assoc n r.Client.outputs) e.sums in
              let tolerance n =
                if epsilon verdicts app then Option.value ~default:0.0 (List.assoc_opt n e.slack) else 0.0
              in
              compare_sums ~tolerance ph ~what ~expect r.Client.outputs
          | missing -> wrong_output ph ~what (List.map (fun n -> "no output " ^ n) missing)))

(* ------------------------------------------------------------------ *)
(* Run stamp *)

let command_line cmd =
  try
    let ic = Unix.open_process_in (cmd ^ " 2>/dev/null") in
    let l = try input_line ic with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    String.trim l
  with Unix.Unix_error _ | Sys_error _ -> ""

(* MD5 over the program's sources, which identifies the code when the
   checkout is not a git repository. *)
let source_digest () =
  let files = ref [] in
  let rec walk dir =
    Array.iter
      (fun f ->
        let p = Filename.concat dir f in
        if Sys.is_directory p then walk p
        else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" || Filename.check_suffix p ".c"
        then files := p :: !files)
      (Sys.readdir dir)
  in
  List.iter walk [ "lib"; "bin"; "perfbench" ];
  let files = List.sort compare !files in
  Digest.to_hex (Digest.string (String.concat "" (List.map (fun f -> f ^ Digest.file f) files)))

(* Printed after the measured phases, so that its git, MD5 and compiler
   probe neither count towards set-up nor warm the compiler for it. *)
let print_stamp w ~seed ~nproc ~md5 =
  let rev =
    match if Sys.file_exists ".git" then command_line "git rev-parse HEAD" else "" with
    | "" -> "none (not a git checkout)"
    | r -> r
  in
  let cc, omp =
    match Lazy.force toolchain with
    | Some tc -> (tc.Toolchain.version, if tc.Toolchain.openmp then "yes" else "no")
    | None -> ("none", "no")
  in
  Printf.printf "# perfbench workload=%s seed=%d nproc=%d\n" w.name seed nproc;
  Printf.printf "# git rev: %s\n# source md5: %s\n# cc: %s\n# openmp: %s\n%!" rev md5 cc omp

(* ------------------------------------------------------------------ *)
(* Self-test: percentile rule and metric names against BENCHMARK.json *)

let self_test () =
  let fail fmt = Printf.ksprintf (fun m -> die "self-test: %s" m) fmt in
  let xs = List.init 10 (fun i -> float_of_int (10 - i)) in
  if Stats.percentile ~p:50 xs <> 5.0 then fail "p50 of 1..10 is not 5";
  if Stats.percentile ~p:90 xs <> 9.0 then fail "p90 of 1..10 is not 9";
  if Stats.percentile ~p:100 xs <> 10.0 then fail "p100 of 1..10 is not 10";
  if Stats.percentile ~p:90 [ 3.0 ] <> 3.0 then fail "p90 of one sample";
  if Stats.beyond ~p:90 100 <> 10 then fail "100 samples leave 10 beyond p90";
  if Stats.beyond ~p:90 99 <> 9 then fail "99 samples leave 9 beyond p90";
  if Stats.rank ~p:90 1000 <> 900 then fail "rank of p90 in 1000";
  let hundred = List.init 100 float_of_int in
  if Stats.percentile ~p:90 hundred <> 89.0 then fail "p90 of 0..99 is not 89";
  let w = { name = "t"; kind = Served; scale = 32; rate = 1.0; restarts = 3 } in
  let n = open_loop_count w ~seconds:1.0 in
  if n mod (7 * w.restarts) <> 0 || Stats.beyond ~p:90 n < 10 then
    fail "open loop too short for p90";
  let json =
    match Json.of_file "BENCHMARK.json" with Ok j -> j | Error e -> fail "BENCHMARK.json: %s" e
  in
  let declared key =
    match Option.bind (Json.member key json) Json.to_list_opt with
    | None -> fail "BENCHMARK.json has no %s list" key
    | Some l ->
        List.map
          (fun m ->
            let field f = Option.bind (Json.member f m) Json.to_string_opt in
            (Option.value ~default:"" (field "name"), Option.value ~default:"" (field "unit")))
          l
  in
  let same what ours theirs =
    if List.sort compare ours <> List.sort compare theirs then
      fail "%s in BENCHMARK.json differ from the harness's" what
  in
  same "end_to_end metrics" end_to_end (declared "end_to_end");
  same "per_layer metrics" per_layer (declared "per_layer");
  same "workloads"
    (List.map (fun w -> (w.name, "")) workloads)
    (List.map (fun (n, _) -> (n, "")) (declared "workloads"))

(* ------------------------------------------------------------------ *)
(* Reporting *)

let print_phases () =
  Printf.printf "\n%-22s %9s %7s\n" "phase" "attempted" "failed";
  List.iter (fun p -> Printf.printf "%-22s %9d %7d\n" p.label p.attempted p.failed) !phases

let print_metrics title units values =
  Printf.printf "\n%s\n" title;
  List.iter
    (fun (name, unit) ->
      match List.assoc_opt name values with
      | Some v -> Printf.printf "  %-30s %14.4f %s\n" name v unit
      | None -> ())
    units

let print_span_table spans =
  let selfs = Spans.self_times spans in
  let names = List.sort_uniq compare (List.map (fun (s : Spans.span) -> s.Spans.name) spans) in
  Printf.printf "\nper-layer spans (harness-side, all phases)\n  %-20s %7s %12s %12s\n" "span" "calls"
    "total_ms" "self_ms";
  List.iter
    (fun n ->
      let mine = List.filter (fun ((s : Spans.span), _) -> s.Spans.name = n) selfs in
      let total = Stats.sum (List.map (fun (s, _) -> Spans.duration s) mine) in
      let self = Stats.sum (List.map snd mine) in
      Printf.printf "  %-20s %7d %12.3f %12.3f\n" n (List.length mine) (total *. 1e3) (self *. 1e3))
    names

(* Each untraced run's figures are kept under its workload, seed,
   --seconds and source MD5.  A traced run is compared only with an
   untraced run that matches it in all four, so that neither a code
   change nor a different run reads as tracing overhead. *)
let untraced_file w ~seed ~seconds ~md5 =
  Filename.concat ".perfbench" (Printf.sprintf "untraced-%s-%d-%gs-%s.json" w.name seed seconds md5)

let save_untraced w ~seed ~seconds ~md5 values =
  Json.to_file
    (untraced_file w ~seed ~seconds ~md5)
    (Json.Obj
       [
         ("workload", Json.String w.name);
         ("seed", Json.Int seed);
         ("seconds", Json.Float seconds);
         ("source_md5", Json.String md5);
         ("metrics", Json.Obj (List.map (fun (n, v) -> (n, Json.Float v)) values));
       ])

let print_overhead w ~seed ~seconds ~md5 values =
  Printf.printf
    "\ntracing overhead (this traced run minus the untraced run with the same seed, --seconds and sources)\n";
  let untraced =
    match Json.of_file (untraced_file w ~seed ~seconds ~md5) with
    | Error _ -> None
    | Ok j ->
        let get key f = Option.bind (Json.member key j) f in
        if
          get "workload" Json.to_string_opt = Some w.name
          && get "seed" Json.to_int_opt = Some seed
          && get "seconds" Json.to_float_opt = Some seconds
          && get "source_md5" Json.to_string_opt = Some md5
        then Json.member "metrics" j
        else None
  in
  match untraced with
  | None ->
      Printf.printf
        "  not measured: this checkout holds no untraced run of %s at seed %d, --seconds %g and source md5 %s;\n\
        \  run one with --trace 0 first\n"
        w.name seed seconds md5
  | Some m ->
      List.iter
        (fun (name, unit) ->
          match (List.assoc_opt name values, Option.bind (Json.member name m) Json.to_float_opt) with
          | Some traced, Some untraced ->
              Printf.printf "  %-18s %+12.4f %s (%+.1f%%)\n" name (traced -. untraced) unit
                (100.0 *. (traced -. untraced) /. untraced)
          | _ -> ())
        end_to_end

let final_line ~values ~units =
  let attempted = List.fold_left (fun a p -> a + p.attempted) 0 !phases in
  let failed = List.fold_left (fun a p -> a + p.failed) 0 !phases in
  let metrics =
    List.map
      (fun (name, unit) ->
        let v = List.assoc name values in
        if not (Float.is_finite v) then die "metric %s is not finite (failed ops?)" name;
        (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
      units
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (!wrong_outputs = 0));
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", Json.Obj metrics);
          ]))

(* ------------------------------------------------------------------ *)
(* Metric assembly *)

let ms x = x *. 1000.0

(* The open loop's nearest-rank p50 and p90 over the run's requests,
   pooled over the app mix and the restarts.  They are printed but not
   gated: on a shared 2-vCPU host they follow the host's CPU steal far
   more than the closed-loop figures do (README.md, Open-loop latency). *)
let print_open_loop w samples =
  let lats = List.map latency samples in
  let n = List.length lats in
  if Stats.beyond ~p:90 n < 10 then die "open loop: %d samples leave fewer than 10 beyond p90" n;
  Printf.printf "\nopen loop at %g req/s, %d requests (printed, not gated)\n" w.rate n;
  List.iter
    (fun p -> Printf.printf "  %-30s %14.4f ms\n" (Printf.sprintf "latency_p%d_ms" p) (ms (Stats.percentile ~p lats)))
    [ 50; 90 ]

(* Quartiles of a phase's samples, and the medians of its first and
   second halves: whether the spread is within the run or between runs. *)
let describe label unit xs =
  let n = List.length xs in
  if n >= 4 then begin
    let half = List.filteri (fun i _ -> i < n / 2) xs and rest = List.filteri (fun i _ -> i >= n / 2) xs in
    Printf.printf "# %s: n=%d p25=%.3f p50=%.3f p75=%.3f %s (first half p50 %.3f, second half %.3f)\n" label n
      (Stats.percentile ~p:25 xs) (Stats.median xs) (Stats.percentile ~p:75 xs) unit (Stats.median half)
      (Stats.median rest)
  end

let print_restarts times =
  Printf.printf "# restarts: %s s\n" (String.concat " " (List.map (Printf.sprintf "%.3f") times))

let late_ms samples = ms (Stats.mean (List.map (fun s -> Float.max 0.0 s.late) samples))

(* The service layer's figures, means over the answered requests. *)
let service_metrics ~samples ~rtts ~listen_s ~restart_compiles =
  let ok = List.filter (fun s -> s.ok) samples in
  let pct f = 100.0 *. float_of_int (List.length (List.filter f ok)) /. float_of_int (max 1 (List.length ok)) in
  let mean_ms f = ms (Stats.mean (List.map f ok)) in
  let queue = mean_ms (fun s -> s.queue) and exec = mean_ms (fun s -> s.exec) in
  [
    ("service.rtt_ms", ms (Stats.mean rtts));
    ("service.queue_ms", queue);
    ("service.exec_ms", exec);
    ("service.other_ms", mean_ms (fun s -> s.finished -. s.sent) -. queue -. exec);
    ("service.listen_s", listen_s);
    ("service.restart_compiles", float_of_int restart_compiles);
    ("service.cache_hit_pct", pct (fun s -> s.cache_hit));
    ("service.batched_pct", pct (fun s -> s.batched));
  ]

(* Layer figures from the spans of one cold set-up (totals over the six
   apps) and of steady passes (per pass: the sum over apps of each
   app's median call, so a slow first pass does not skew it). *)
let layer_metrics ~setup ~steady ~c_bytes ~all =
  let total ?app name spans = Stats.sum (List.map Spans.duration (Spans.named ?app name spans)) in
  let mean_call name = Stats.mean (List.map Spans.duration (Spans.named name all)) in
  let median_of = function [] -> 0.0 | xs -> Stats.median xs in
  let app_median name a = median_of (List.map Spans.duration (Spans.named ~app:a name steady)) in
  let per_pass name = Stats.sum (List.map (app_median name) app_names) in
  let driver =
    let selfs = Spans.self_times steady in
    Stats.sum
      (List.map
         (fun a ->
           median_of
             (List.filter_map
                (fun ((s : Spans.span), self) ->
                  if s.Spans.name = "exec.run_plan" && s.Spans.app = a then Some self else None)
                selfs))
         app_names)
  in
  [
    ("core.schedule_s", total "core.schedule" setup);
    ("plan.lower_ms", ms (total "plan.lower" setup));
    ("verify.check_plan_ms", ms (total "verify.check_plan" setup));
    ("codegen.emit_ms", ms (total "codegen.emit" setup));
    ("codegen.c_kb", float_of_int c_bytes /. 1024.0);
    ("kernel.cc_s", total "kernel.cc" setup);
    ("kernel.admit_s", total "kernel.admit" setup);
    ("exec.reference_ms", ms (total "exec.reference" setup));
    ("kernel.exec_ms", ms (per_pass "kernel.exec"));
    ("kernel.exec_1t_ms", ms (per_pass "kernel.exec_1t"));
    ("exec.driver_ms", ms driver);
    ("apps.inputs_ms", ms (mean_call "apps.inputs"));
    ("exec.checksum_ms", ms (mean_call "exec.checksum"));
  ]
  @ List.map (fun a -> ("core.schedule_s." ^ a, total ~app:a "core.schedule" setup)) app_names
  @ List.map (fun a -> ("kernel.exec_ms." ^ a, ms (app_median "kernel.exec" a))) app_names

let fresh_dir path =
  harness_work (fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote path)));
      Sys.mkdir path 0o755)

(* ------------------------------------------------------------------ *)
(* Workload drivers *)

(* The traced run of a served workload times the in-process layers with
   this probe at the workload's scale, before any server starts: a cold
   set-up, then steady passes at nproc threads and at one. *)
let inproc_probe w ~seed ~seconds ~run_dir pool =
  let kdir = Filename.concat run_dir "probe-kernels" and pdir = Filename.concat run_dir "probe-plans" in
  fresh_dir kdir;
  fresh_dir pdir;
  let ph = phase "in-process-probe" in
  let _, native, prepared, c_bytes =
    cold_setup ~t0:(program_clock ()) ~scale:w.scale ~seed ~kdir ~pdir ~probe:true ph pool
  in
  let setup = Spans.take () in
  (* One untimed pass first: the first run after admission is slow. *)
  ignore (inproc_passes ~seconds:0.0 ph pool prepared);
  ignore (Spans.take ());
  let ps = inproc_passes ~seconds ph pool prepared in
  one_thread_passes ~seconds native prepared;
  (setup, Spans.take (), ps, c_bytes)

let setup_remainder setup_s l =
  ( "setup_s - (schedule + lower + verify + admit)",
    setup_s
    -. (l "core.schedule_s" +. ((l "plan.lower_ms" +. l "verify.check_plan_ms") /. 1e3) +. l "kernel.admit_s"),
    "s" )

(* How the measured phases split --seconds. *)
let closed_share = 0.4
let open_share = 0.6

(* paper-s8's warm restarts are fresh harness processes, the in-process
   counterpart of restarting the server: each reads the plan envelopes
   and kernel store the cold set-up wrote, answers every app once, runs
   its share of the closed and open loops, and reports back through a
   JSON file.  Pooling several processes keeps one process's luck out of
   the figures. *)

let expect_file run_dir = Filename.concat run_dir "expect.json"
let segment_file run_dir i = Filename.concat run_dir (Printf.sprintf "segment-%d.json" i)

let json_of_span (sp : Spans.span) =
  Json.List
    [
      Json.Int sp.Spans.id; Json.Int sp.Spans.parent; Json.String sp.Spans.name;
      Json.String sp.Spans.app; Json.Float sp.Spans.start; Json.Float sp.Spans.stop;
    ]

let field j key = match Json.member key j with Some v -> v | None -> die "segment result: no %s" key
let items v = match Json.to_list_opt v with Some l -> l | None -> die "segment result: not a list"
let num v = match Json.to_float_opt v with Some f -> f | None -> die "segment result: not a number"
let str v = Option.value ~default:"" (Json.to_string_opt v)
let floats j key = List.map num (items (field j key))

(* Span ids are offset per segment so they stay unique in the parent. *)
let span_of_json ~offset v =
  match items v with
  | [ id; parent; name; app; start; stop ] ->
      let id = int_of_float (num id) and parent = int_of_float (num parent) in
      {
        Spans.id = id + offset;
        parent = (if parent < 0 then parent else parent + offset);
        name = str name;
        app = str app;
        start = num start;
        stop = num stop;
      }
  | _ -> die "segment result: bad span"

(* Restart [i]'s share of the open loop. *)
let segment_mix w ~seed ~seconds i =
  let n = open_loop_count w ~seconds:(seconds *. open_share) in
  Array.sub (open_loop_mix ~seed n) (i * n / w.restarts) (n / w.restarts)

let run_paper_segment w ~seed ~seconds ~run_dir ~nproc i =
  let pool = Pool.create nproc in
  let kdir = Filename.concat run_dir "kernels" and pdir = Filename.concat run_dir "plans" in
  let expected =
    harness_work (fun () ->
        match Json.of_file (expect_file run_dir) with
        | Ok (Json.Obj l) ->
            List.map
              (fun (app, sums) ->
                match sums with
                | Json.Obj l -> (app, List.map (fun (n, v) -> (n, num v)) l)
                | _ -> die "%s: bad expectation" app)
              l
        | _ -> die "no expectations in %s" run_dir)
  in
  let ph_restart = phase "restart" in
  let restart_s, native, prepared =
    warm_restart ~t0:t_process_start ~scale:w.scale ~seed ~kdir ~pdir ph_restart pool expected
  in
  let compiles = (Native_exec.stats native).Native_exec.compiles in
  if compiles <> 0 then failed_op ph_restart "%d kernel compiles after restart" compiles;
  ignore (Spans.take ());
  (* Loading the plans leaves garbage behind; every segment starts its
     loops from a compacted heap. *)
  Gc.compact ();
  (* One pass before timing: the first runs after admission are slow. *)
  ignore (inproc_passes ~seconds:0.0 (phase "warm-up") pool prepared);
  let share = 1.0 /. float_of_int w.restarts in
  let ps = inproc_passes ~seconds:(seconds *. closed_share *. share) (phase "closed-loop") pool prepared in
  if !Spans.enabled then one_thread_passes ~seconds:(seconds *. 0.1 *. share) native prepared;
  let steady = Spans.take () in
  let samples = inproc_open_loop w ~mix:(segment_mix w ~seed ~seconds i) (phase "open-loop") pool prepared in
  Pool.shutdown pool;
  let fl xs = Json.List (List.map (fun x -> Json.Float x) xs) in
  Json.to_file (segment_file run_dir i)
    (Json.Obj
       [
         ("restart_s", Json.Float restart_s);
         ("walls", fl ps.walls);
         ("runs", Json.Int ps.runs);
         ("alloc_mb", fl ps.alloc_mb);
         ("major_gcs", fl ps.major_gcs);
         ( "samples",
           Json.List
             (List.map
                (fun s -> fl [ s.due; s.sent; s.finished; s.late; (if s.ok then 1.0 else 0.0) ])
                samples) );
         ("peak_mb", Json.Float (vm_hwm_mb 0));
         ("compiles", Json.Int compiles);
         ( "phases",
           Json.List
             (List.map
                (fun p -> Json.List [ Json.String p.label; Json.Int p.attempted; Json.Int p.failed ])
                !phases) );
         ("wrong", Json.Int !wrong_outputs);
         ("steady", Json.List (List.map json_of_span steady));
         ("spans", Json.List (List.map json_of_span (Spans.all ())));
       ])

type segment = {
  seg_restart : float;
  seg_walls : float list;
  seg_runs : int;
  seg_alloc : float list;
  seg_gcs : float list;
  seg_samples : sample list;
  seg_peak : float;
  seg_compiles : int;
  seg_steady : Spans.span list;
  seg_spans : Spans.span list;
}

let run_segment w ~seed ~seconds ~run_dir i =
  let args =
    [|
      Sys.executable_name; "--workload"; w.name; "--seed"; string_of_int seed; "--seconds";
      Printf.sprintf "%.17g" seconds; "--trace"; (if !Spans.enabled then "1" else "0");
      "--segment"; string_of_int i; "--run-dir"; run_dir;
    |]
  in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stderr Unix.stderr in
  children := pid :: !children;
  (match wait_exit pid ~timeout:150.0 with
  | Unix.WEXITED 0 -> ()
  | _ -> die "restart process %d failed" i);
  let j = match Json.of_file (segment_file run_dir i) with Ok j -> j | Error e -> die "segment %d: %s" i e in
  List.iter
    (fun v ->
      match items v with
      | [ label; attempted; failed ] ->
          let p =
            match List.find_opt (fun p -> p.label = str label) !phases with
            | Some p -> p
            | None -> phase (str label)
          in
          p.attempted <- p.attempted + int_of_float (num attempted);
          p.failed <- p.failed + int_of_float (num failed)
      | _ -> die "segment result: bad phase")
    (items (field j "phases"));
  wrong_outputs := !wrong_outputs + int_of_float (num (field j "wrong"));
  let offset = (i + 1) * 100_000_000 in
  let spans key = List.map (span_of_json ~offset) (items (field j key)) in
  {
    seg_restart = num (field j "restart_s");
    seg_walls = floats j "walls";
    seg_runs = int_of_float (num (field j "runs"));
    seg_alloc = floats j "alloc_mb";
    seg_gcs = floats j "major_gcs";
    seg_samples =
      List.map
        (fun v ->
          match List.map num (items v) with
          | [ due; sent; finished; late; ok ] ->
              { due; sent; finished; late; ok = ok = 1.0; queue = 0.0; exec = finished -. sent; cache_hit = true; batched = false }
          | _ -> die "segment result: bad sample")
        (items (field j "samples"));
    seg_peak = num (field j "peak_mb");
    seg_compiles = int_of_float (num (field j "compiles"));
    seg_steady = spans "steady";
    seg_spans = spans "spans";
  }

(* paper-s8 has no service in its path.  Its traced run times the
   service layer with this probe at the same scale, after the restart
   processes: a server restarted on warm stores, the run's kernel store
   [kernel_dir] and a plan store holding the cold set-up's plans as a
   server's cold start would have left them (the server schedules as
   the harness does).  It answers a warm-up pass and three timed passes
   over the six apps with the workload seed, and the health round
   trips.  Every response is checked against the harness's reference. *)
let served_probe w ~seed ~run_dir ~kernel_dir ~nproc prepared =
  let cache_dir = Filename.concat run_dir "probe-served-plans" in
  fresh_dir cache_dir;
  let store = Disk_cache.create ~dir:cache_dir () and machine = Pmdp_machine.Machine.xeon in
  List.iter
    (fun pr ->
      let app = pr.app.Registry.name and scheduler = Scheduler.Dp in
      Disk_cache.store store
        (Disk_cache.meta_of_request ~app ~scale:w.scale ~scheduler ~machine)
        ~fingerprint:(Plan_cache.fingerprint ~app ~scale:w.scale ~scheduler ~machine)
        ~ir:(Tiled_exec.ir pr.plan))
    prepared;
  let ph = phase "served-probe" in
  let seed_of _ = seed in
  let srv = spawn_server ~nproc ~cache_dir ~kernel_dir ~log:(Filename.concat run_dir "probe-server.log") in
  let c, listen_s = await_listen srv in
  let warm = first_answers ph c ~scale:w.scale ~seed_of ~base:0 in
  let timed =
    List.concat_map
      (fun _ ->
        List.map
          (fun app ->
            let sent = now () in
            let s = submit ph c ~scale:w.scale (app, seed) in
            (sample_of ~due:sent ~sent ~finished:(now ()) s, s))
          app_names)
      [ 1; 2; 3 ]
  in
  let rtts = health_rtts c in
  let compiles = stop_restarted ph srv c in
  let refs = reference_table ~scale:w.scale (List.map (fun a -> (a, seed)) app_names) in
  let verdicts = verdicts kernel_dir in
  List.iter (check_served ph ~verdicts refs) (warm @ List.map snd timed);
  (List.map fst timed, rtts, listen_s, compiles)

let run_paper w ~seed ~seconds ~run_dir ~nproc =
  let pool = Pool.create nproc in
  let kdir = Filename.concat run_dir "kernels" and pdir = Filename.concat run_dir "plans" in
  fresh_dir kdir;
  fresh_dir pdir;
  let setup_s, _, prepared, c_bytes =
    cold_setup ~t0:t_process_start ~scale:w.scale ~seed ~kdir ~pdir ~probe:!Spans.enabled
      (phase "cold-setup") pool
  in
  let setup_spans = Spans.take () in
  Pool.shutdown pool;
  Native_exec.uninstall ();
  Json.to_file (expect_file run_dir)
    (Json.Obj
       (List.map
          (fun pr ->
            (pr.app.Registry.name, Json.Obj (List.map (fun (n, v) -> (n, Json.Float v)) pr.expect)))
          prepared));
  let segments = List.init w.restarts (run_segment w ~seed ~seconds ~run_dir) in
  let pick f = List.concat_map f segments in
  let walls = pick (fun g -> g.seg_walls) and samples = pick (fun g -> g.seg_samples) in
  Spans.import (pick (fun g -> g.seg_spans));
  describe "closed-loop pass" "ms" (List.map ms walls);
  print_open_loop w samples;
  let exec_ms = ms (Stats.median walls) in
  let restart_s = Stats.median (List.map (fun g -> g.seg_restart) segments) in
  print_restarts (List.map (fun g -> g.seg_restart) segments);
  let e2e =
    [
      ("setup_s", setup_s);
      ("restart_s", restart_s);
      ("exec_ms", exec_ms);
      ("req_per_s", float_of_int (List.fold_left (fun a g -> a + g.seg_runs) 0 segments) /. Stats.sum walls);
      ("peak_rss_mb", Stats.median (List.map (fun g -> g.seg_peak) segments));
    ]
  in
  if not !Spans.enabled then (e2e, [], [])
  else
    let probe_samples, rtts, listen_s, probe_compiles =
      served_probe w ~seed ~run_dir ~kernel_dir:kdir ~nproc prepared
    in
    let layers =
      layer_metrics ~setup:setup_spans ~steady:(pick (fun g -> g.seg_steady)) ~c_bytes ~all:(Spans.all ())
      @ [
          ("exec.alloc_mb", Stats.mean (pick (fun g -> g.seg_alloc)));
          ("exec.major_gcs", Stats.mean (pick (fun g -> g.seg_gcs)));
          ("harness.late_ms", late_ms samples);
        ]
      @ service_metrics ~samples:probe_samples ~rtts ~listen_s
          ~restart_compiles:(List.fold_left (fun a g -> a + g.seg_compiles) probe_compiles segments)
    in
    let l n = List.assoc n layers in
    ( e2e,
      layers,
      [
        setup_remainder setup_s l;
        ( "exec_ms - (kernel.exec_ms + exec.driver_ms)",
          exec_ms -. l "kernel.exec_ms" -. l "exec.driver_ms",
          "ms" );
        ("restart_s - exec.reference_ms", restart_s -. (l "exec.reference_ms" /. 1e3), "s");
      ] )

(* Share of loop requests whose outputs the served workload checks. *)
let check_per_mille = 25

(* What one restarted server measured. *)
type served_segment = {
  restart_s : float;
  listen_s : float;
  answers : served list;  (** first answers *)
  warm : served list;  (** the warm-up pass *)
  walls : float list;  (** closed-loop passes *)
  closed : served list;
  elapsed : float;  (** closed-loop seconds *)
  opened : (sample * served) list;
  rtts : float list;
  peak : float;  (** VmHWM, MB *)
  compiles : int;  (** plan and kernel compiles after restart *)
}

let run_served w ~seed ~seconds ~run_dir ~nproc =
  (* The in-process layers are probed before any server runs. *)
  let probe =
    if not !Spans.enabled then None
    else begin
      let pool = Pool.create nproc in
      let p = inproc_probe w ~seed ~seconds:(seconds *. 0.1) ~run_dir pool in
      Pool.shutdown pool;
      Native_exec.uninstall ();
      Some p
    end
  in
  (* A distinct input seed per request: [k] is distinct across phases. *)
  let seed_of k = (seed * 100_000_000) + k in
  let cache_dir = Filename.concat run_dir "plans" and kernel_dir = Filename.concat run_dir "kernels" in
  fresh_dir cache_dir;
  fresh_dir kernel_dir;
  let log i = Filename.concat run_dir (Printf.sprintf "server-%d.log" i) in
  let ph_cold = phase "cold-start" in
  let srv = spawn_server ~nproc ~cache_dir ~kernel_dir ~log:(log 0) in
  let c, _ = await_listen srv in
  let cold = first_answers ph_cold c ~scale:w.scale ~seed_of ~base:0 in
  let setup_s = now () -. srv.spawned in
  stop_server srv c;
  (* Each warm restart's server then carries an equal share of the
     closed and open loops, so the figures pool several servers instead of
     resting on one. *)
  let ph_restart = phase "restart" and ph_warm = phase "warm-up" in
  let ph_closed = phase "closed-loop" in
  let ph_open = phase "open-loop" in
  let segment i =
    let base = (i + 1) * 1_000_000 in
    let srv = spawn_server ~nproc ~cache_dir ~kernel_dir ~log:(log (i + 1)) in
    let c, listen_s = await_listen srv in
    let restart = first_answers ph_restart c ~scale:w.scale ~seed_of ~base in
    let restart_s = now () -. srv.spawned in
    let warm = first_answers ph_warm c ~scale:w.scale ~seed_of ~base:(base + 100) in
    let closed =
      closed_loop_served ~seconds:(seconds *. closed_share /. float_of_int w.restarts) ph_closed c
        ~scale:w.scale ~seed_of ~base:(base + 1000)
    in
    (* The open loop opens its own nproc connections; this one is closed
       meanwhile so the server never holds more than nproc. *)
    Client.close c;
    let opened =
      open_loop_served w ~mix:(segment_mix w ~seed ~seconds i) ~nproc ph_open srv ~seed_of
        ~base:(base + 500_000)
    in
    let c =
      match Client.connect ~endpoint:srv.endpoint () with
      | Ok c -> c
      | Error e -> die "reconnect: %s" (Pmdp_error.to_string e)
    in
    let rtts = if !Spans.enabled then health_rtts c else [] in
    let peak = vm_hwm_mb srv.pid in
    let compiles = stop_restarted ph_restart srv c in
    let walls, closed, elapsed = closed in
    {
      restart_s;
      listen_s;
      answers = restart;
      warm;
      walls;
      closed;
      elapsed;
      opened;
      rtts;
      peak;
      compiles;
    }
  in
  let segments = List.init w.restarts segment in
  let pick f = List.map f segments and concat f = List.concat_map f segments in
  let restart_s = Stats.median (pick (fun g -> g.restart_s)) in
  let listen_s = Stats.median (pick (fun g -> g.listen_s)) in
  let restart = concat (fun g -> g.answers) and warm = concat (fun g -> g.warm) in
  let walls = concat (fun g -> g.walls) in
  let closed = concat (fun g -> g.closed) and opened = concat (fun g -> g.opened) in
  let elapsed = Stats.sum (pick (fun g -> g.elapsed)) and rtts = concat (fun g -> g.rtts) in
  let peak = Stats.median (pick (fun g -> g.peak)) in
  let restart_compiles = List.fold_left (fun a g -> a + g.compiles) 0 segments in
  let samples = List.map fst opened in
  (* Correctness, after the servers have exited, against the harness's
     own reference: every first answer and warm-up request, and a
     seeded sample of the loops' requests (each has a fresh seed, so
     checking all of them would take longer than the loops). *)
  let by_phase =
    [
      (ph_cold, cold); (ph_restart, restart); (ph_warm, warm); (ph_closed, closed);
      (ph_open, List.map snd opened);
    ]
  in
  let sampled =
    let rng = Rng.create seed in
    List.filter (fun _ -> Rng.int rng 1000 < check_per_mille) (closed @ List.map snd opened)
  in
  let keys = List.sort_uniq compare (List.map (fun s -> s.key) (cold @ restart @ warm @ sampled)) in
  let refs = reference_table ~scale:w.scale keys in
  let verdicts = verdicts kernel_dir in
  List.iter (fun (p, ss) -> List.iter (check_served p ~verdicts refs) ss) by_phase;
  let ok_samples = List.filter (fun s -> s.ok) samples in
  describe "closed-loop pass" "ms" (List.map ms walls);
  print_open_loop w samples;
  print_restarts (pick (fun g -> g.restart_s));
  let exec_ms = ms (Stats.median walls) in
  let e2e =
    [
      ("setup_s", setup_s);
      ("restart_s", restart_s);
      ("exec_ms", exec_ms);
      ("req_per_s", float_of_int (List.length closed) /. elapsed);
      ("peak_rss_mb", peak);
    ]
  in
  match probe with
  | None -> (e2e, [], [])
  | Some (setup, steady, ps, c_bytes) ->
      let layers =
        layer_metrics ~setup ~steady ~c_bytes ~all:(Spans.all ())
        @ [
            ("exec.alloc_mb", Stats.mean ps.alloc_mb);
            ("exec.major_gcs", Stats.mean ps.major_gcs);
            ("harness.late_ms", late_ms samples);
          ]
        @ service_metrics ~samples ~rtts ~listen_s ~restart_compiles
      in
      let l n = List.assoc n layers in
      ( e2e,
        layers,
        [
          ( "mean latency - (rtt + inputs + service.exec + checksum)",
            ms (Stats.mean (List.map latency ok_samples))
            -. (l "service.rtt_ms" +. l "apps.inputs_ms" +. l "service.exec_ms" +. l "exec.checksum_ms"),
            "ms" );
          setup_remainder setup_s l;
          ( "restart_s - (listen_s + exec.reference_ms)",
            restart_s -. (listen_s +. (l "exec.reference_ms" /. 1e3)),
            "s" );
        ] )

(* ------------------------------------------------------------------ *)
(* Entry point *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 and trace = ref 0 in
  let segment = ref (-1) and parent_dir = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  paper-s8 or serve-s32");
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_float seconds, "S  length of the measured phases");
      ("--trace", Arg.Set_int trace, "0|1  1 records spans and prints per-layer metrics");
      ("--segment", Arg.Set_int segment, "I  (internal) run paper-s8's restart process I");
      ("--run-dir", Arg.Set_string parent_dir, "DIR  (internal) the parent run's directory");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "harness --workload NAME --seed N --seconds S --trace 0|1";
  harness_work self_test;
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        die "unknown workload %S (known: %s)" !workload
          (String.concat ", " (List.map (fun w -> w.name) workloads))
  in
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  if !seconds <= 0.0 then die "--seconds must be positive";
  Spans.enabled := !trace = 1;
  let nproc = Domain.recommended_domain_count () in
  ignore
    (Thread.create
       (fun () ->
         Thread.delay 170.0;
         prerr_endline "perfbench: run exceeded 170 s";
         exit 3)
       ());
  if !segment >= 0 then
    run_paper_segment w ~seed:!seed ~seconds:!seconds ~run_dir:!parent_dir ~nproc !segment
  else begin
    if not (Sys.file_exists pmdp_exe) then die "%s is not built" pmdp_exe;
    let run_dir = Filename.concat ".perfbench" (Printf.sprintf "run-%d" (Unix.getpid ())) in
    fresh_dir run_dir;
    at_exit (fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote run_dir)));
    let e2e, layers, remainder =
      match w.kind with
      | In_process -> run_paper w ~seed:!seed ~seconds:!seconds ~run_dir ~nproc
      | Served -> run_served w ~seed:!seed ~seconds:!seconds ~run_dir ~nproc
    in
    let md5 = source_digest () in
    print_stamp w ~seed:!seed ~nproc ~md5;
    print_phases ();
    print_metrics "end-to-end" end_to_end e2e;
    if !Spans.enabled then begin
      print_span_table (Spans.all ());
      print_metrics "per-layer" per_layer layers;
      print_overhead w ~seed:!seed ~seconds:!seconds ~md5 e2e;
      Printf.printf "\nunattributed remainder\n";
      List.iter (fun (what, v, unit) -> Printf.printf "  %-58s %12.4f %s\n" what v unit) remainder
    end
    else save_untraced w ~seed:!seed ~seconds:!seconds ~md5 e2e;
    final_line
      ~values:(if !Spans.enabled then layers else e2e)
      ~units:(if !Spans.enabled then per_layer else end_to_end);
    if !wrong_outputs > 0 then exit 1
  end

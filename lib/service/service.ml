module Machine = Pmdp_machine.Machine
module Registry = Pmdp_apps.Registry
module Scheduler = Pmdp_core.Scheduler
module Tiled_exec = Pmdp_exec.Tiled_exec
module Buffer = Pmdp_exec.Buffer
module Pmdp_error = Pmdp_util.Pmdp_error
module Trace = Pmdp_trace.Trace

type request = Shard.request = {
  app : string;
  scale : int;
  scheduler : Scheduler.t;
  seed : int;
  priority : int;
  deadline : float option;
}

let request ?(scale = 32) ?(scheduler = Scheduler.Dp) ?(seed = 1) ?(priority = 0) ?deadline app =
  { app; scale; scheduler; seed; priority; deadline }

type response = Shard.response = {
  id : int;
  fingerprint : string;
  cache_hit : bool;
  batch_size : int;
  degraded : bool;
  wall_seconds : float;
  queue_seconds : float;
  checksum : float;
  results : (string * Buffer.t) list;
  max_abs_diff : float option;
}

type status = Queued | Running | Done | Failed of Pmdp_error.t

type counters = {
  submitted : int;
  completed : int;
  failed : int;
  rejected : int;
  shed : int;
  expired : int;
  batches : int;
  batched_requests : int;
  executions : int;
  restarts : int;
  queue_depth : int;
  inflight_bytes : int;
  cache : Plan_cache.stats;
}

type stats = {
  shards : counters array;
  total : counters;
  disk : Disk_cache.stats option;
  breaker : Breaker.counters;
  retune : Retune.counters option;
}

type health = {
  draining : bool;
  shards : Shard.health array;
  breaker : Breaker.counters;
  circuits : Breaker.snapshot list;
}

type t = {
  shared : Shard.shared;
  ring : Shard.Ring.t;
  shards : Shard.t array;
  disk : Disk_cache.t option;
  kernel : Pmdp_kernel.Native_exec.t option;
  max_inflight : int;
  tickets : (int, Shard.pending) Hashtbl.t;
  mutable next_id : int;
  mutable stop : bool;
  mutable draining : bool;  (* refusing new work while in-flight settles *)
  mutable unrouted_rejected : int;  (* rejections before a shard was chosen *)
}

let machine t = t.shared.Shard.machine
let mem_budget t = t.shared.Shard.budget
let shard_count t = Array.length t.shards
let shard_of_fingerprint t fp = Shard.Ring.route t.ring fp

(* ------------------------------------------------------------------ *)
(* Startup *)

(* Admit every plan the disk cache holds for this machine into the
   shard that will serve it, through the full gate.  Rejections
   (tampered files, stale analyzer) quarantine the envelope — the
   first request recompiles and re-stores — and are visible as
   [load_rejects] and [quarantined]. *)
let warm_load t disk =
  List.iter
    (fun (fp, (m : Disk_cache.meta)) ->
      let machine = t.shared.Shard.machine in
      if m.Disk_cache.machine = machine.Machine.name && m.Disk_cache.cores = machine.Machine.cores
      then
        match Registry.find m.Disk_cache.app with
        | None -> ()
        | Some app ->
            let expected =
              Plan_cache.fingerprint ~app:app.Registry.name ~scale:m.Disk_cache.scale
                ~scheduler:m.Disk_cache.scheduler ~machine
            in
            if expected = fp then
              Plan_cache.preload (Shard.cache t.shards.(shard_of_fingerprint t fp)) ~app
                ~scale:m.Disk_cache.scale ~scheduler:m.Disk_cache.scheduler ~machine)
    (Disk_cache.scan disk)

let create ?(workers = 4) ?mem_budget ?(max_inflight = 64) ?(batch_window = 0.0)
    ?(validate = false) ?(shards = 1) ?(queue_limit = 128) ?cache_dir ?fault
    ?(breaker_threshold = 3) ?(breaker_cooldown = 5.0) ?(native = false) ?kernel_cache_dir
    ?(native_march = false) ?calib ?retune ~machine () =
  if workers < 1 then invalid_arg "Service.create: workers < 1";
  if max_inflight < 1 then invalid_arg "Service.create: max_inflight < 1";
  if shards < 1 then invalid_arg "Service.create: shards < 1";
  if queue_limit < 1 then invalid_arg "Service.create: queue_limit < 1";
  let budget =
    match mem_budget with Some b -> b | None -> Machine.default_mem_budget machine
  in
  let disk = Option.map (fun dir -> Disk_cache.create ?fault ~dir ()) cache_dir in
  let retuner = Option.map (fun config -> Retune.create ?calib ~config ~machine ()) retune in
  let shared =
    {
      Shard.lock = Mutex.create ();
      request_done = Condition.create ();
      machine;
      budget;
      validate;
      breaker = Breaker.create ~threshold:breaker_threshold ~cooldown:breaker_cooldown ();
      fault;
      calib;
      retune = retuner;
      draining = false;
      unfinished = 0;
      inflight_bytes = 0;
      queued = 0;
    }
  in
  (* Naming a kernel cache dir is enough of an opt-in: persistence
     only makes sense when kernels run.  [native_march] implies the
     backend too — asking for vectorized kernels is asking for
     kernels. *)
  let kernel =
    if native || native_march || kernel_cache_dir <> None then
      Some
        (Pmdp_kernel.Native_exec.create ?fault ?cache_dir:kernel_cache_dir
           ~march:native_march ())
    else None
  in
  let t =
    {
      shared;
      ring = Shard.Ring.create ~shards;
      shards =
        Array.init shards (fun index ->
            Shard.create ~index ~shared ~disk ~workers ~batch_window ~queue_limit);
      disk;
      kernel;
      max_inflight;
      tickets = Hashtbl.create 64;
      next_id = 1;
      stop = false;
      draining = false;
      unrouted_rejected = 0;
    }
  in
  Option.iter Pmdp_kernel.Native_exec.install kernel;
  Option.iter (warm_load t) t.disk;
  t

let kernel_stats t = Option.map Pmdp_kernel.Native_exec.stats t.kernel

(* ------------------------------------------------------------------ *)
(* Admission *)

let reject t shard e =
  Mutex.lock t.shared.Shard.lock;
  (match shard with
  | Some s -> Shard.note_rejected s
  | None -> t.unrouted_rejected <- t.unrouted_rejected + 1);
  Mutex.unlock t.shared.Shard.lock;
  if Trace.on () then begin
    Trace.count "service.admission.reject" 1;
    Trace.instant ~cat:"service"
      ~args:[ ("error", Trace.Str (Pmdp_error.to_string e)) ]
      "service.reject"
  end;
  Error e

let submit_async t (req : request) =
  match Registry.find req.app with
  | None ->
      reject t None
        (Pmdp_error.Unresolved_external
           { name = req.app; context = "service: unknown app (see `pmdp list`)" })
  | Some app -> (
      let fp =
        Plan_cache.fingerprint ~app:app.Registry.name ~scale:req.scale ~scheduler:req.scheduler
          ~machine:t.shared.Shard.machine
      in
      let shard = t.shards.(shard_of_fingerprint t fp) in
      (* The breaker gates admission before any compile or queue work:
         an open circuit answers in O(1). *)
      match Breaker.check t.shared.Shard.breaker fp with
      | `Reject (failures, retry_after) ->
          reject t (Some shard)
            (Pmdp_error.Circuit_open
               {
                 fingerprint = fp;
                 failures;
                 retry_after;
                 context = "service admission: circuit breaker open for this plan";
               })
      | `Proceed | `Probe -> (
      match
        Plan_cache.get (Shard.cache shard) ?calib:t.shared.Shard.calib ~app ~scale:req.scale
          ~scheduler:req.scheduler ~machine:t.shared.Shard.machine ()
      with
      | Error e ->
          (* A compile failure is a plan failure: it feeds the breaker
             so a poison plan trips open even though it never reaches
             a dispatcher. *)
          Breaker.failure t.shared.Shard.breaker fp;
          reject t (Some shard) e
      | Ok (entry, hit) ->
          let plan = entry.Plan_cache.plan in
          let est =
            Tiled_exec.working_set_bytes plan
            + (Tiled_exec.scratch_bytes_per_worker plan * Shard.workers shard)
          in
          Mutex.lock t.shared.Shard.lock;
          if t.stop then begin
            Mutex.unlock t.shared.Shard.lock;
            reject t (Some shard)
              (Pmdp_error.Pool_shutdown { context = "service: submit after shutdown" })
          end
          else if t.draining then begin
            let unfinished = t.shared.Shard.unfinished in
            Mutex.unlock t.shared.Shard.lock;
            reject t (Some shard)
              (Pmdp_error.Overloaded
                 {
                   shard = Shard.index shard;
                   depth = unfinished;
                   limit = t.max_inflight;
                   context = "service draining: not accepting new requests";
                 })
          end
          else if t.shared.Shard.unfinished >= t.max_inflight then begin
            let unfinished = t.shared.Shard.unfinished in
            Mutex.unlock t.shared.Shard.lock;
            reject t (Some shard)
              (Pmdp_error.Cancelled
                 {
                   reason =
                     Printf.sprintf "service admission: %d requests in flight (limit %d)"
                       unfinished t.max_inflight;
                 })
          end
          else if t.shared.Shard.inflight_bytes + est > t.shared.Shard.budget then begin
            let required = t.shared.Shard.inflight_bytes + est in
            Mutex.unlock t.shared.Shard.lock;
            reject t (Some shard)
              (Pmdp_error.Scratch_over_budget
                 {
                   required_bytes = required;
                   budget_bytes = t.shared.Shard.budget;
                   context = "service admission: in-flight working sets + scratch arenas";
                 })
          end
          else begin
            let id = t.next_id in
            t.next_id <- t.next_id + 1;
            let p =
              {
                Shard.id;
                req;
                app_entry = app;
                entry;
                cache_hit = (match hit with `Hit | `Loaded -> true | `Miss -> false);
                est_bytes = est;
                submitted_at = Unix.gettimeofday ();
                trace_ts = (if Trace.on () then Trace.now () else Float.nan);
                phase = Shard.P_queued;
                outcome = None;
              }
            in
            t.shared.Shard.unfinished <- t.shared.Shard.unfinished + 1;
            t.shared.Shard.inflight_bytes <- t.shared.Shard.inflight_bytes + est;
            match Shard.try_enqueue shard p with
            | Ok () ->
                Hashtbl.add t.tickets id p;
                Mutex.unlock t.shared.Shard.lock;
                Ok id
            | Error e ->
                (* Refused by backpressure: undo the admission charge. *)
                t.shared.Shard.unfinished <- t.shared.Shard.unfinished - 1;
                t.shared.Shard.inflight_bytes <- t.shared.Shard.inflight_bytes - est;
                Mutex.unlock t.shared.Shard.lock;
                if Trace.on () then Trace.count "service.shed" 1;
                reject t (Some shard) e
          end))

let await t id =
  Mutex.lock t.shared.Shard.lock;
  match Hashtbl.find_opt t.tickets id with
  | None ->
      Mutex.unlock t.shared.Shard.lock;
      Error
        (Pmdp_error.Plan_invalid
           {
             context = "service: await";
             reason = Printf.sprintf "unknown or already-collected request id %d" id;
           })
  | Some p ->
      while p.Shard.outcome = None do
        Condition.wait t.shared.Shard.request_done t.shared.Shard.lock
      done;
      Hashtbl.remove t.tickets id;
      let r = Option.get p.Shard.outcome in
      Mutex.unlock t.shared.Shard.lock;
      r

let submit t req = match submit_async t req with Error e -> Error e | Ok id -> await t id

let status t id =
  Mutex.lock t.shared.Shard.lock;
  let s =
    Option.map
      (fun (p : Shard.pending) ->
        match (p.Shard.outcome, p.Shard.phase) with
        | Some (Ok _), _ -> Done
        | Some (Error e), _ -> Failed e
        | None, Shard.P_running -> Running
        | None, Shard.P_queued -> Queued)
      (Hashtbl.find_opt t.tickets id)
  in
  Mutex.unlock t.shared.Shard.lock;
  s

(* ------------------------------------------------------------------ *)
(* Stats *)

let zero_cache =
  { Plan_cache.hits = 0; misses = 0; compiles = 0; loads = 0; load_rejects = 0; entries = 0 }

let add_cache (a : Plan_cache.stats) (b : Plan_cache.stats) =
  {
    Plan_cache.hits = a.Plan_cache.hits + b.Plan_cache.hits;
    misses = a.Plan_cache.misses + b.Plan_cache.misses;
    compiles = a.Plan_cache.compiles + b.Plan_cache.compiles;
    loads = a.Plan_cache.loads + b.Plan_cache.loads;
    load_rejects = a.Plan_cache.load_rejects + b.Plan_cache.load_rejects;
    entries = a.Plan_cache.entries + b.Plan_cache.entries;
  }

let zero_counters =
  {
    submitted = 0;
    completed = 0;
    failed = 0;
    rejected = 0;
    shed = 0;
    expired = 0;
    batches = 0;
    batched_requests = 0;
    executions = 0;
    restarts = 0;
    queue_depth = 0;
    inflight_bytes = 0;
    cache = zero_cache;
  }

let add_counters a b =
  {
    submitted = a.submitted + b.submitted;
    completed = a.completed + b.completed;
    failed = a.failed + b.failed;
    rejected = a.rejected + b.rejected;
    shed = a.shed + b.shed;
    expired = a.expired + b.expired;
    batches = a.batches + b.batches;
    batched_requests = a.batched_requests + b.batched_requests;
    executions = a.executions + b.executions;
    restarts = a.restarts + b.restarts;
    queue_depth = a.queue_depth + b.queue_depth;
    inflight_bytes = a.inflight_bytes + b.inflight_bytes;
    cache = add_cache a.cache b.cache;
  }

let stats t =
  Mutex.lock t.shared.Shard.lock;
  let raw = Array.map Shard.counters t.shards in
  let unrouted = t.unrouted_rejected in
  Mutex.unlock t.shared.Shard.lock;
  let shards =
    Array.map2
      (fun (c : Shard.counters) cache ->
        {
          submitted = c.Shard.submitted;
          completed = c.Shard.completed;
          failed = c.Shard.failed;
          rejected = c.Shard.rejected;
          shed = c.Shard.shed;
          expired = c.Shard.expired;
          batches = c.Shard.batches;
          batched_requests = c.Shard.batched_requests;
          executions = c.Shard.executions;
          restarts = c.Shard.restarts;
          queue_depth = c.Shard.queue_depth;
          inflight_bytes = c.Shard.inflight_bytes;
          cache;
        })
      raw
      (Array.map (fun s -> Plan_cache.stats (Shard.cache s)) t.shards)
  in
  let total = Array.fold_left add_counters zero_counters shards in
  let total = { total with rejected = total.rejected + unrouted } in
  {
    shards;
    total;
    disk = Option.map Disk_cache.stats t.disk;
    breaker = Breaker.counters t.shared.Shard.breaker;
    retune = Option.map Retune.counters t.shared.Shard.retune;
  }

let health t =
  Mutex.lock t.shared.Shard.lock;
  let shards = Array.map Shard.health t.shards in
  let draining = t.draining in
  Mutex.unlock t.shared.Shard.lock;
  {
    draining;
    shards;
    breaker = Breaker.counters t.shared.Shard.breaker;
    circuits =
      List.filter
        (fun (s : Breaker.snapshot) -> s.Breaker.state <> Breaker.Closed)
        (Breaker.snapshot t.shared.Shard.breaker);
  }

let shutdown t =
  Mutex.lock t.shared.Shard.lock;
  if t.stop then Mutex.unlock t.shared.Shard.lock
  else begin
    t.stop <- true;
    Array.iter Shard.signal_stop t.shards;
    Mutex.unlock t.shared.Shard.lock;
    Option.iter Retune.shutdown t.shared.Shard.retune;
    Array.iter Shard.join t.shards;
    (* The native runner is a process-wide hook; a service that
       installed it takes it back down with the shards. *)
    if t.kernel <> None then Pmdp_kernel.Native_exec.uninstall ()
  end

(* Graceful drain: refuse new admissions, wait (bounded) for in-flight
   work to settle, then shut down.  Whatever is still queued when the
   deadline passes settles as retryable [Overloaded] — the stop-path
   settle error is switched by [shared.draining] — so a client with a
   retry policy resubmits elsewhere.  OCaml's [Condition] has no timed
   wait, so the bounded wait is a poll loop. *)
let drain ?(timeout = 5.0) t =
  Mutex.lock t.shared.Shard.lock;
  if t.stop then Mutex.unlock t.shared.Shard.lock
  else begin
    t.draining <- true;
    Mutex.unlock t.shared.Shard.lock;
    if Trace.on () then Trace.count "service.drain" 1;
    let deadline = Unix.gettimeofday () +. Float.max 0.0 timeout in
    let rec wait () =
      Mutex.lock t.shared.Shard.lock;
      let left = t.shared.Shard.unfinished in
      Mutex.unlock t.shared.Shard.lock;
      if left > 0 && Unix.gettimeofday () < deadline then begin
        Thread.delay 0.01;
        wait ()
      end
    in
    wait ();
    Mutex.lock t.shared.Shard.lock;
    t.shared.Shard.draining <- true;
    Mutex.unlock t.shared.Shard.lock;
    shutdown t
  end

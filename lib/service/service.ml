module Machine = Pmdp_machine.Machine
module Registry = Pmdp_apps.Registry
module Scheduler = Pmdp_core.Scheduler
module Tiled_exec = Pmdp_exec.Tiled_exec
module Resilient = Pmdp_exec.Resilient
module Reference = Pmdp_exec.Reference
module Buffer = Pmdp_exec.Buffer
module Pool = Pmdp_runtime.Pool
module Fault = Pmdp_runtime.Fault
module Pmdp_error = Pmdp_util.Pmdp_error
module Rng = Pmdp_util.Rng
module Trace = Pmdp_trace.Trace

(* ------------------------------------------------------------------ *)
(* Consistent-hash ring *)

module Ring = struct
  type t = { points : (string * int) array }

  let vnodes = 64

  (* Every hash input is a fixed string of the shard/vnode indices or
     the fingerprint — no randomness, no process state — so the same
     fingerprint routes to the same shard across restarts. *)
  let point shard vnode = Digest.to_hex (Digest.string (Printf.sprintf "pmdp-ring|%d|%d" shard vnode))
  let key fingerprint = Digest.to_hex (Digest.string ("pmdp-ring-key|" ^ fingerprint))

  let create ~shards =
    if shards < 1 then invalid_arg "Ring.create: shards < 1";
    let points =
      Array.init (shards * vnodes) (fun i ->
          let shard = i / vnodes and vnode = i mod vnodes in
          (point shard vnode, shard))
    in
    Array.sort compare points;
    { points }

  let route t fingerprint =
    let k = key fingerprint in
    let n = Array.length t.points in
    (* First point clockwise of the key; wrap to the first point. *)
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if fst t.points.(mid) < k then search (mid + 1) hi else search lo mid
    in
    let i = search 0 n in
    snd t.points.(if i = n then 0 else i)
end

(* ------------------------------------------------------------------ *)
(* Public types *)

type request = {
  app : string;
  scale : int;
  scheduler : Scheduler.t;
  seed : int;
  priority : int;
  deadline : float option;
}

let request ?(scale = 32) ?(scheduler = Scheduler.Dp) ?(seed = 1) ?(priority = 0) ?deadline app =
  { app; scale; scheduler; seed; priority; deadline }

type response = {
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

type shard_health = {
  shard : int;
  alive : bool;
  queue_depth : int;
  running : int;
  restarts : int;
}

type health = {
  draining : bool;
  shards : shard_health array;
  breaker : Breaker.counters;
  circuits : Breaker.snapshot list;
}

(* ------------------------------------------------------------------ *)
(* Service state *)

type phase = P_queued | P_running

type pending = {
  id : int;
  req : request;
  app_entry : Registry.app;
  entry : Plan_cache.entry;
  cache_hit : bool;
  est_bytes : int;  (* admission charge: working set + pool scratch *)
  submitted_at : float;
  trace_ts : float;  (* Trace.now at submit; nan when tracing off *)
  mutable phase : phase;
  mutable outcome : (response, Pmdp_error.t) result option;
}

(* One dispatcher shard.  The mutable counts from [submitted] on are
   its ledger: [stats] snapshots them, and the fleet-wide admission
   figures are their sums (see [unfinished]).  Every mutable field is
   guarded by the service lock. *)
type shard = {
  index : int;
  cache : Plan_cache.t;
  pool : Pool.t option;
  work_ready : Condition.t;  (* per shard, on the service lock *)
  queue : pending Queue.t;
  refs : (string, (string * Buffer.t) list) Hashtbl.t;
      (* batch key -> reference results; dispatcher-thread only *)
  mutable supervisor : Thread.t option;
  mutable running : pending list;  (* batch owned by the dispatcher right now *)
  mutable alive : bool;  (* dispatcher up (false while the supervisor backs off) *)
  mutable restarts : int;
  mutable submitted : int;
  mutable completed : int;
  mutable failed : int;
  mutable rejected : int;
  mutable shed : int;
  mutable expired : int;
  mutable batches : int;
  mutable batched_requests : int;
  mutable executions : int;
  mutable inflight_bytes : int;
}

type t = {
  lock : Mutex.t;  (* the one service-wide mutex *)
  request_done : Condition.t;  (* broadcast whenever any pending settles *)
  machine : Machine.t;
  budget : int;
  validate : bool;
  workers : int;
  batch_window : float;
  queue_limit : int;
  max_inflight : int;
  breaker : Breaker.t;
  fault : Fault.t option;
      (* [Shard_kill] fires at batch start; the fault also reaches
         [Resilient.run_plan], so worker kills and tile crashes hit
         service executions *)
  calib : Pmdp_core.Cost_model.calibration option;
  retune : Retune.t option;
  ring : Ring.t;
  shards : shard array;
  disk : Disk_cache.t option;
  kernel : Pmdp_kernel.Native_exec.t option;
  tickets : (int, pending) Hashtbl.t;
  mutable next_id : int;
  mutable stop : bool;
  mutable draining : bool;  (* refusing new work while in-flight settles *)
  mutable drain_expired : bool;
      (* the drain deadline passed: dispatchers settle leftovers as
         retryable [Overloaded] instead of [Cancelled] *)
  mutable unrouted_rejected : int;  (* rejections before a shard was chosen *)
}

let mem_budget t = t.budget
let shard_count t = Array.length t.shards
let shard_of_fingerprint t fp = Ring.route t.ring fp
let batch_key (p : pending) = p.entry.Plan_cache.fingerprint ^ ":" ^ string_of_int p.req.seed

(* Fleet-wide figures, summed from the shard ledgers (caller holds the
   lock).  Admission counts [submitted] and settlement exactly one of
   the four outcomes, so their difference is the admitted requests
   not yet settled. *)
let sum_shards t f = Array.fold_left (fun acc s -> acc + f s) 0 t.shards
let unfinished t = sum_shards t (fun s -> s.submitted - s.completed - s.failed - s.shed - s.expired)
let inflight_bytes t = sum_shards t (fun s -> s.inflight_bytes)

let gauge_depth t =
  if Trace.on () then
    Trace.gauge "service.queue_depth" (sum_shards t (fun s -> Queue.length s.queue))

(* ------------------------------------------------------------------ *)
(* Settlement and the bounded queue (caller holds the lock) *)

let settle s (p : pending) outcome tally =
  p.outcome <- Some outcome;
  (match tally with
  | `Completed -> s.completed <- s.completed + 1
  | `Failed -> s.failed <- s.failed + 1
  | `Shed -> s.shed <- s.shed + 1
  | `Expired -> s.expired <- s.expired + 1);
  s.inflight_bytes <- s.inflight_bytes - p.est_bytes

let overloaded t s context =
  Pmdp_error.Overloaded
    { shard = s.index; depth = Queue.length s.queue; limit = t.queue_limit; context }

(* Remove and return, in queue order, the queued requests matching [f]. *)
let take_queued s f =
  let kept = Queue.create () and taken = ref [] in
  Queue.iter (fun p -> if f p then taken := p :: !taken else Queue.add p kept) s.queue;
  Queue.clear s.queue;
  Queue.transfer kept s.queue;
  List.rev !taken

let push t s p =
  Queue.add p s.queue;
  s.submitted <- s.submitted + 1;
  s.inflight_bytes <- s.inflight_bytes + p.est_bytes;
  gauge_depth t;
  Condition.signal s.work_ready

(* Graduated backpressure: when the queue is full, the lowest-priority
   queued request loses.  If that is a victim with strictly lower
   priority than [p], the victim is shed (settled with [Overloaded])
   and [p] takes its place; otherwise [p] itself is refused. *)
let enqueue t s (p : pending) =
  if Queue.length s.queue < t.queue_limit then Ok (push t s p)
  else
    let victim = ref None in
    Queue.iter
      (fun q ->
        match !victim with
        | None when q.req.priority < p.req.priority -> victim := Some q
        | Some v when q.req.priority < v.req.priority -> victim := Some q
        | _ -> ())
      s.queue;
    match !victim with
    | None -> Error (overloaded t s "service backpressure: request refused")
    | Some v ->
        ignore (take_queued s (fun q -> q == v));
        settle s v
          (Error (overloaded t s "service backpressure: shed for a higher-priority request"))
          `Shed;
        push t s p;
        if Trace.on () then Trace.count "service.shed" 1;
        Condition.broadcast t.request_done;
        Ok ()

(* Split [batch] into still-live requests and ones whose deadline
   passed while they were queued; expired ones settle on the spot. *)
let drop_expired t s batch =
  let now = Unix.gettimeofday () in
  let live, dead =
    List.partition
      (fun p ->
        match p.req.deadline with None -> true | Some d -> now -. p.submitted_at <= d)
      batch
  in
  List.iter
    (fun p ->
      let waited = now -. p.submitted_at in
      let deadline = Option.value ~default:0.0 p.req.deadline in
      settle s p
        (Error
           (Pmdp_error.Deadline_exceeded
              { deadline; waited; context = "service dispatch: request expired in queue" }))
        `Expired;
      if Trace.on () then Trace.count "service.shed" 1)
    dead;
  if dead <> [] then Condition.broadcast t.request_done;
  live

(* Pull every queued request with batch key [key], marked running. *)
let drain_matching t s key =
  let matched = take_queued s (fun p -> batch_key p = key) in
  List.iter (fun p -> p.phase <- P_running) matched;
  gauge_depth t;
  matched

(* ------------------------------------------------------------------ *)
(* Dispatcher *)

(* Reference results per batch key, memoized so validation costs one
   reference run per distinct request, not one per request.
   Dispatcher-thread only. *)
let reference_for s key (p : pending) =
  match Hashtbl.find_opt s.refs key with
  | Some r -> r
  | None ->
      let pipeline = Tiled_exec.pipeline p.entry.Plan_cache.plan in
      let inputs = p.app_entry.Registry.inputs ~seed:p.req.seed pipeline in
      let r = Reference.run pipeline ~inputs in
      if Hashtbl.length s.refs < 128 then Hashtbl.add s.refs key r;
      r

let execute_batch t s key (batch : pending list) =
  (* A firing [Shard_kill] spec raises out of the dispatcher thread
     here, before any request settles — exactly the window the
     supervisor must cover. *)
  Option.iter Fault.shard_tick t.fault;
  let p0 = List.hd batch in
  let size = List.length batch in
  let pipeline = Tiled_exec.pipeline p0.entry.Plan_cache.plan in
  let inputs = p0.app_entry.Registry.inputs ~seed:p0.req.seed pipeline in
  let exec_start = Unix.gettimeofday () in
  let run () =
    Resilient.run_plan ?pool:s.pool ?fault:t.fault ~machine:t.machine ~mem_budget:t.budget
      p0.entry.Plan_cache.plan ~inputs
  in
  let result =
    if not (Trace.on ()) then run ()
    else
      Trace.with_span ~cat:"service"
        ~args:
          [
            ("app", Trace.Str p0.req.app);
            ("shard", Trace.Int s.index);
            ("fingerprint", Trace.Str (String.sub key 0 (min 12 (String.length key))));
            ("requests", Trace.Int size);
          ]
        "service.execute" run
  in
  let wall = Unix.gettimeofday () -. exec_start in
  if Trace.on () && size > 1 then begin
    Trace.count "service.batch" 1;
    Trace.count "service.batch.requests" size
  end;
  (* Per-execution kernel accounting: answered by the native step, or
     native attempted and the chain fell back to the interpreter.  An
     execution with no native attempt (no backend installed) counts as
     neither. *)
  (if Trace.on () then
     match result with
     | Error _ -> ()
     | Ok { Resilient.attempts; _ } -> (
         match List.rev attempts with
         | (step, None) :: _ when Resilient.step_name step = "native" ->
             Trace.count "service.kernel.native" 1
         | _ ->
             if
               List.exists
                 (fun (st, e) -> Resilient.step_name st = "native" && e <> None)
                 attempts
             then Trace.count "service.kernel.fallback" 1));
  let outcome_of p =
    match result with
    | Error e -> Error e
    | Ok { Resilient.results; degraded; _ } ->
        let checksum = List.fold_left (fun acc (_, b) -> acc +. Buffer.checksum b) 0.0 results in
        let max_abs_diff =
          if not t.validate then None
          else Some (Reference.max_abs_diff ~reference:(reference_for s key p0) results)
        in
        Ok
          {
            id = p.id;
            fingerprint = p.entry.Plan_cache.fingerprint;
            cache_hit = p.cache_hit;
            batch_size = size;
            degraded;
            wall_seconds = wall;
            queue_seconds = Float.max 0.0 (exec_start -. p.submitted_at);
            checksum;
            results;
            max_abs_diff;
          }
  in
  (* Feed the circuit breaker one verdict per execution, not one per
     coalesced request (leaf lock; take it before the service lock). *)
  (match result with
  | Ok _ -> Breaker.success t.breaker p0.entry.Plan_cache.fingerprint
  | Error _ -> Breaker.failure t.breaker p0.entry.Plan_cache.fingerprint);
  (* Feed the online retuner one latency sample per successful
     execution (its own leaf lock); the job thunk is only forced when
     this sample makes the fingerprint hot. *)
  (match (t.retune, result) with
  | Some r, Ok _ ->
      Retune.observe r ~fingerprint:p0.entry.Plan_cache.fingerprint ~wall ~job:(fun () ->
          {
            Retune.fingerprint = p0.entry.Plan_cache.fingerprint;
            app = p0.app_entry;
            input_seed = p0.req.seed;
            cache = s.cache;
            entry = p0.entry;
          })
  | _ -> ());
  Mutex.lock t.lock;
  s.executions <- s.executions + 1;
  if size > 1 then begin
    s.batches <- s.batches + 1;
    s.batched_requests <- s.batched_requests + size
  end;
  List.iter
    (fun p ->
      let o = outcome_of p in
      settle s p o (match o with Ok _ -> `Completed | Error _ -> `Failed))
    batch;
  s.running <- [];
  Condition.broadcast t.request_done;
  Mutex.unlock t.lock;
  if Trace.on () then
    List.iter
      (fun p ->
        Trace.count "service.request" 1;
        if not (Float.is_nan p.trace_ts) then
          Trace.complete ~cat:"service"
            ~args:
              [
                ("id", Trace.Int p.id);
                ("app", Trace.Str p.req.app);
                ("shard", Trace.Int s.index);
                ("cache_hit", Trace.Bool p.cache_hit);
                ("batch", Trace.Int size);
              ]
            ~name:"service.request" ~ts:p.trace_ts ())
      batch

let run_dispatcher t s =
  let continue = ref true in
  while !continue do
    Mutex.lock t.lock;
    while Queue.is_empty s.queue && not t.stop do
      Condition.wait s.work_ready t.lock
    done;
    if t.stop then begin
      (* Drain: whatever is still queued fails typed, then exit.  A
         graceful drain that ran out of time settles the remainder as
         retryable [Overloaded]; a plain shutdown as [Cancelled]. *)
      let leftover context =
        if t.drain_expired then overloaded t s context
        else Pmdp_error.Cancelled { reason = "service shutdown" }
      in
      Queue.iter
        (fun p ->
          settle s p (Error (leftover "service drain: request still queued at the deadline"))
            `Failed)
        s.queue;
      Queue.clear s.queue;
      Condition.broadcast t.request_done;
      Mutex.unlock t.lock;
      continue := false
    end
    else begin
      let head = Queue.pop s.queue in
      head.phase <- P_running;
      let key = batch_key head in
      let batch = drop_expired t s (head :: drain_matching t s key) in
      (* From here until settlement this batch exists only in the
         dispatcher; publish it so the supervisor can settle it if the
         thread dies mid-execution. *)
      s.running <- batch;
      Mutex.unlock t.lock;
      (* Linger so same-key requests arriving right now can share the
         execution; anything that queued while we slept is collected
         in one more sweep. *)
      let batch =
        if t.batch_window <= 0.0 || batch = [] then batch
        else begin
          Thread.delay t.batch_window;
          Mutex.lock t.lock;
          let more = drop_expired t s (drain_matching t s key) in
          let batch = batch @ more in
          s.running <- batch;
          Mutex.unlock t.lock;
          batch
        end
      in
      if batch <> [] then execute_batch t s key batch
      else begin
        Mutex.lock t.lock;
        s.running <- [];
        Mutex.unlock t.lock
      end
    end
  done

(* ------------------------------------------------------------------ *)
(* Supervision *)

(* The dispatcher runs under a supervisor thread (Pool's self-heal,
   one level up): when the dispatcher dies — an injected Shard_kill, a
   bug, anything an execution raised that Resilient did not fold into
   a result — the supervisor settles the batch the dispatcher owned
   with a typed retryable error, backs off with seeded jitter, and
   respawns.  A clean stop-driven exit ends supervision. *)
let supervise t s =
  let rng = Rng.create (0x5eed + s.index) in
  let continue = ref true in
  while !continue do
    let crashed = ref None in
    let th =
      Thread.create
        (fun () -> try run_dispatcher t s with e -> crashed := Some (Printexc.to_string e))
        ()
    in
    Thread.join th;
    match !crashed with
    | None -> continue := false
    | Some detail ->
        Mutex.lock t.lock;
        s.alive <- false;
        s.restarts <- s.restarts + 1;
        let orphans = List.filter (fun p -> Option.is_none p.outcome) s.running in
        List.iter
          (fun p ->
            settle s p
              (Error
                 (Pmdp_error.Worker_crash
                    {
                      worker = -1;
                      detail =
                        Printf.sprintf "shard %d dispatcher died: %s (respawning)" s.index
                          detail;
                    }))
              `Failed)
          orphans;
        s.running <- [];
        if orphans <> [] then Condition.broadcast t.request_done;
        Mutex.unlock t.lock;
        if Trace.on () then Trace.count "service.shard.restart" 1;
        (* Jittered exponential backoff, cut short by stop: the queue
           is intact, so a stop-time respawn still drains it. *)
        let d = Float.min 1.0 (0.025 *. (2.0 ** float_of_int (min 5 (s.restarts - 1)))) in
        let d = d *. (0.5 +. Rng.float rng 0.5) in
        let slept = ref 0.0 in
        while !slept < d && not t.stop do
          Thread.delay 0.005;
          slept := !slept +. 0.005
        done;
        Mutex.lock t.lock;
        s.alive <- true;
        Mutex.unlock t.lock
  done

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
      let machine = t.machine in
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
              Plan_cache.preload t.shards.(shard_of_fingerprint t fp).cache ~app
                ~scale:m.Disk_cache.scale ~scheduler:m.Disk_cache.scheduler ~machine)
    (Disk_cache.scan disk)

let new_shard ~disk ~workers index =
  {
    index;
    cache = Plan_cache.create ?disk ();
    pool = (if workers > 1 then Some (Pool.create workers) else None);
    work_ready = Condition.create ();
    queue = Queue.create ();
    refs = Hashtbl.create 8;
    supervisor = None;
    running = [];
    alive = true;
    restarts = 0;
    submitted = 0;
    completed = 0;
    failed = 0;
    rejected = 0;
    shed = 0;
    expired = 0;
    batches = 0;
    batched_requests = 0;
    executions = 0;
    inflight_bytes = 0;
  }

let create ?(workers = 4) ?mem_budget ?(max_inflight = 64) ?(batch_window = 0.0)
    ?(validate = false) ?(shards = 1) ?(queue_limit = 128) ?cache_dir ?fault
    ?(breaker_threshold = 3) ?(breaker_cooldown = 5.0) ?(native = false) ?kernel_cache_dir
    ?calib ?retune ~machine () =
  if workers < 1 then invalid_arg "Service.create: workers < 1";
  if max_inflight < 1 then invalid_arg "Service.create: max_inflight < 1";
  if shards < 1 then invalid_arg "Service.create: shards < 1";
  if queue_limit < 1 then invalid_arg "Service.create: queue_limit < 1";
  let disk = Option.map (fun dir -> Disk_cache.create ?fault ~dir ()) cache_dir in
  (* Naming a kernel cache dir is enough of an opt-in: persistence
     only makes sense when kernels run. *)
  let kernel =
    if native || kernel_cache_dir <> None then
      Some (Pmdp_kernel.Native_exec.create ?fault ?cache_dir:kernel_cache_dir ())
    else None
  in
  let t =
    {
      lock = Mutex.create ();
      request_done = Condition.create ();
      machine;
      budget = (match mem_budget with Some b -> b | None -> Machine.default_mem_budget machine);
      validate;
      workers;
      batch_window;
      queue_limit;
      max_inflight;
      breaker = Breaker.create ~threshold:breaker_threshold ~cooldown:breaker_cooldown ();
      fault;
      calib;
      retune = Option.map (fun config -> Retune.create ?calib ~config ~machine ()) retune;
      ring = Ring.create ~shards;
      shards = Array.init shards (new_shard ~disk ~workers);
      disk;
      kernel;
      tickets = Hashtbl.create 64;
      next_id = 1;
      stop = false;
      draining = false;
      drain_expired = false;
      unrouted_rejected = 0;
    }
  in
  Array.iter (fun s -> s.supervisor <- Some (Thread.create (supervise t) s)) t.shards;
  Option.iter Pmdp_kernel.Native_exec.install kernel;
  Option.iter (warm_load t) t.disk;
  t

let kernel_stats t = Option.map Pmdp_kernel.Native_exec.stats t.kernel

(* ------------------------------------------------------------------ *)
(* Admission *)

let reject t shard e =
  Mutex.lock t.lock;
  (match shard with
  | Some s -> s.rejected <- s.rejected + 1
  | None -> t.unrouted_rejected <- t.unrouted_rejected + 1);
  Mutex.unlock t.lock;
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
          ~machine:t.machine
      in
      let s = t.shards.(shard_of_fingerprint t fp) in
      (* The breaker gates admission before any compile or queue work:
         an open circuit answers in O(1). *)
      match Breaker.check t.breaker fp with
      | `Reject (failures, retry_after) ->
          reject t (Some s)
            (Pmdp_error.Circuit_open
               {
                 fingerprint = fp;
                 failures;
                 retry_after;
                 context = "service admission: circuit breaker open for this plan";
               })
      | `Proceed | `Probe -> (
      match
        Plan_cache.get s.cache ?calib:t.calib ~app ~scale:req.scale ~scheduler:req.scheduler
          ~machine:t.machine ()
      with
      | Error e ->
          (* A compile failure is a plan failure: it feeds the breaker
             so a poison plan trips open even though it never reaches
             a dispatcher. *)
          Breaker.failure t.breaker fp;
          reject t (Some s) e
      | Ok (entry, hit) ->
          let plan = entry.Plan_cache.plan in
          let est =
            Tiled_exec.working_set_bytes plan
            + (Tiled_exec.scratch_bytes_per_worker plan * t.workers)
          in
          Mutex.lock t.lock;
          let refuse e =
            Mutex.unlock t.lock;
            reject t (Some s) e
          in
          let unfinished = unfinished t and inflight = inflight_bytes t in
          if t.stop then
            refuse (Pmdp_error.Pool_shutdown { context = "service: submit after shutdown" })
          else if t.draining then
            refuse
              (Pmdp_error.Overloaded
                 {
                   shard = s.index;
                   depth = unfinished;
                   limit = t.max_inflight;
                   context = "service draining: not accepting new requests";
                 })
          else if unfinished >= t.max_inflight then
            refuse
              (Pmdp_error.Cancelled
                 {
                   reason =
                     Printf.sprintf "service admission: %d requests in flight (limit %d)"
                       unfinished t.max_inflight;
                 })
          else if inflight + est > t.budget then
            refuse
              (Pmdp_error.Scratch_over_budget
                 {
                   required_bytes = inflight + est;
                   budget_bytes = t.budget;
                   context = "service admission: in-flight working sets + scratch arenas";
                 })
          else begin
            let id = t.next_id in
            t.next_id <- t.next_id + 1;
            let p =
              {
                id;
                req;
                app_entry = app;
                entry;
                cache_hit = (match hit with `Hit | `Loaded -> true | `Miss -> false);
                est_bytes = est;
                submitted_at = Unix.gettimeofday ();
                trace_ts = (if Trace.on () then Trace.now () else Float.nan);
                phase = P_queued;
                outcome = None;
              }
            in
            match enqueue t s p with
            | Ok () ->
                Hashtbl.add t.tickets id p;
                Mutex.unlock t.lock;
                Ok id
            | Error e ->
                Mutex.unlock t.lock;
                if Trace.on () then Trace.count "service.shed" 1;
                reject t (Some s) e
          end))

let await t id =
  Mutex.lock t.lock;
  match Hashtbl.find_opt t.tickets id with
  | None ->
      Mutex.unlock t.lock;
      Error
        (Pmdp_error.Plan_invalid
           {
             context = "service: await";
             reason = Printf.sprintf "unknown or already-collected request id %d" id;
           })
  | Some p ->
      while p.outcome = None do
        Condition.wait t.request_done t.lock
      done;
      Hashtbl.remove t.tickets id;
      let r = Option.get p.outcome in
      Mutex.unlock t.lock;
      r

let submit t req = match submit_async t req with Error e -> Error e | Ok id -> await t id

let status t id =
  Mutex.lock t.lock;
  let s =
    Option.map
      (fun (p : pending) ->
        match (p.outcome, p.phase) with
        | Some (Ok _), _ -> Done
        | Some (Error e), _ -> Failed e
        | None, P_running -> Running
        | None, P_queued -> Queued)
      (Hashtbl.find_opt t.tickets id)
  in
  Mutex.unlock t.lock;
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

let zero_counters : counters =
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

let add_counters (a : counters) (b : counters) : counters =
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

(* A shard's ledger, snapshotted under the lock; its plan-cache stats
   are read after, under the cache's own lock. *)
let ledger s : counters =
  {
    submitted = s.submitted;
    completed = s.completed;
    failed = s.failed;
    rejected = s.rejected;
    shed = s.shed;
    expired = s.expired;
    batches = s.batches;
    batched_requests = s.batched_requests;
    executions = s.executions;
    restarts = s.restarts;
    queue_depth = Queue.length s.queue;
    inflight_bytes = s.inflight_bytes;
    cache = zero_cache;
  }

let stats t : stats =
  Mutex.lock t.lock;
  let ledgers = Array.map ledger t.shards in
  let unrouted = t.unrouted_rejected in
  Mutex.unlock t.lock;
  let shards =
    Array.map2
      (fun (c : counters) s -> { c with cache = Plan_cache.stats s.cache })
      ledgers t.shards
  in
  let total = Array.fold_left add_counters zero_counters shards in
  {
    shards;
    total = { total with rejected = total.rejected + unrouted };
    disk = Option.map Disk_cache.stats t.disk;
    breaker = Breaker.counters t.breaker;
    retune = Option.map Retune.counters t.retune;
  }

let health t : health =
  Mutex.lock t.lock;
  let shards =
    Array.map
      (fun s ->
        {
          shard = s.index;
          alive = s.alive;
          queue_depth = Queue.length s.queue;
          running = List.length (List.filter (fun p -> Option.is_none p.outcome) s.running);
          restarts = s.restarts;
        })
      t.shards
  in
  let draining = t.draining in
  Mutex.unlock t.lock;
  {
    draining;
    shards;
    breaker = Breaker.counters t.breaker;
    circuits =
      List.filter
        (fun (c : Breaker.snapshot) -> c.Breaker.state <> Breaker.Closed)
        (Breaker.snapshot t.breaker);
  }

let shutdown t =
  Mutex.lock t.lock;
  if t.stop then Mutex.unlock t.lock
  else begin
    t.stop <- true;
    Array.iter (fun s -> Condition.broadcast s.work_ready) t.shards;
    Mutex.unlock t.lock;
    Option.iter Retune.shutdown t.retune;
    Array.iter
      (fun s ->
        Option.iter Thread.join s.supervisor;
        Option.iter Pool.shutdown s.pool)
      t.shards;
    (* The native runner is a process-wide hook; a service that
       installed it takes it back down with the shards. *)
    if t.kernel <> None then Pmdp_kernel.Native_exec.uninstall ()
  end

(* Graceful drain: refuse new admissions, wait (bounded) for in-flight
   work to settle, then shut down.  Whatever is still queued when the
   deadline passes settles as retryable [Overloaded] — the stop-path
   settle error is switched by [drain_expired] — so a client with a
   retry policy resubmits elsewhere.  OCaml's [Condition] has no timed
   wait, so the bounded wait is a poll loop. *)
let drain ?(timeout = 5.0) t =
  Mutex.lock t.lock;
  if t.stop then Mutex.unlock t.lock
  else begin
    t.draining <- true;
    Mutex.unlock t.lock;
    if Trace.on () then Trace.count "service.drain" 1;
    let deadline = Unix.gettimeofday () +. Float.max 0.0 timeout in
    let rec wait () =
      Mutex.lock t.lock;
      let left = unfinished t in
      Mutex.unlock t.lock;
      if left > 0 && Unix.gettimeofday () < deadline then begin
        Thread.delay 0.01;
        wait ()
      end
    in
    wait ();
    Mutex.lock t.lock;
    t.drain_expired <- true;
    Mutex.unlock t.lock;
    shutdown t
  end

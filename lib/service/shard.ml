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
(* Request/response types (re-exported by Service) *)

type request = {
  app : string;
  scale : int;
  scheduler : Scheduler.t;
  seed : int;
  priority : int;
  deadline : float option;
}

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

type phase = P_queued | P_running

type pending = {
  id : int;
  req : request;
  app_entry : Registry.app;
  entry : Plan_cache.entry;
  cache_hit : bool;
  est_bytes : int;  (** admission charge: working set + pool scratch *)
  submitted_at : float;
  trace_ts : float;  (** {!Trace.now} at submit; nan when tracing off *)
  mutable phase : phase;
  mutable outcome : (response, Pmdp_error.t) result option;
}

(* State shared by every shard of one service: the single lock, the
   cross-shard admission ledger, and the execution configuration. *)
type shared = {
  lock : Mutex.t;
  request_done : Condition.t;
  machine : Machine.t;
  budget : int;
  validate : bool;
  breaker : Breaker.t;
  fault : Fault.t option;
  calib : Pmdp_core.Cost_model.calibration option;
  retune : Retune.t option;
  mutable draining : bool;  (* drain deadline passed: settle leftovers Overloaded *)
  mutable unfinished : int;  (* admitted, not yet settled, all shards *)
  mutable inflight_bytes : int;
  mutable queued : int;  (* sum of queue lengths, for the depth gauge *)
}

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
}

type t = {
  index : int;
  shared : shared;
  cache : Plan_cache.t;
  pool : Pool.t option;
  workers : int;
  batch_window : float;
  queue_limit : int;
  work_ready : Condition.t;  (* per-shard, on shared.lock *)
  queue : pending Queue.t;
  refs : (string, (string * Buffer.t) list) Hashtbl.t;
      (* batch key -> reference results; dispatcher-thread only *)
  mutable stop : bool;
  mutable dispatcher : Thread.t option;  (* the supervisor thread *)
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

let index t = t.index
let cache t = t.cache
let workers t = t.workers
let batch_key (p : pending) = p.entry.Plan_cache.fingerprint ^ ":" ^ string_of_int p.req.seed

let gauge_depth shared = if Trace.on () then Trace.gauge "service.queue_depth" shared.queued

(* ------------------------------------------------------------------ *)
(* Settlement (caller holds shared.lock) *)

let settle t (p : pending) outcome tally =
  p.outcome <- Some outcome;
  (match tally with
  | `Completed -> t.completed <- t.completed + 1
  | `Failed -> t.failed <- t.failed + 1
  | `Shed -> t.shed <- t.shed + 1
  | `Expired -> t.expired <- t.expired + 1);
  t.shared.unfinished <- t.shared.unfinished - 1;
  t.shared.inflight_bytes <- t.shared.inflight_bytes - p.est_bytes;
  t.inflight_bytes <- t.inflight_bytes - p.est_bytes

(* ------------------------------------------------------------------ *)
(* Graduated backpressure *)

(* Admit [p] into the bounded queue; caller holds shared.lock and has
   already charged the admission ledger.  When the queue is full, the
   lowest-priority queued request loses: if that is a queued victim
   with strictly lower priority than [p], the victim is shed (settled
   with [Overloaded]) and [p] takes its place; otherwise [p] itself is
   refused and the caller must undo its ledger charge. *)
let try_enqueue t (p : pending) =
  if Queue.length t.queue < t.queue_limit then begin
    Queue.add p t.queue;
    t.submitted <- t.submitted + 1;
    t.inflight_bytes <- t.inflight_bytes + p.est_bytes;
    t.shared.queued <- t.shared.queued + 1;
    gauge_depth t.shared;
    Condition.signal t.work_ready;
    Ok ()
  end
  else begin
    let victim = ref None in
    Queue.iter
      (fun q ->
        match !victim with
        | None when q.req.priority < p.req.priority -> victim := Some q
        | Some v when q.req.priority < v.req.priority -> victim := Some q
        | _ -> ())
      t.queue;
    let overloaded context =
      Pmdp_error.Overloaded
        { shard = t.index; depth = Queue.length t.queue; limit = t.queue_limit; context }
    in
    match !victim with
    | None -> Error (overloaded "service backpressure: request refused")
    | Some v ->
        (* Rebuild the queue without the victim (Queue has no remove). *)
        let rest = Queue.create () in
        let dropped = ref false in
        Queue.iter
          (fun q -> if (not !dropped) && q.id = v.id then dropped := true else Queue.add q rest)
          t.queue;
        Queue.clear t.queue;
        Queue.transfer rest t.queue;
        settle t v (Error (overloaded "service backpressure: shed for a higher-priority request"))
          `Shed;
        Queue.add p t.queue;
        t.submitted <- t.submitted + 1;
        t.inflight_bytes <- t.inflight_bytes + p.est_bytes;
        gauge_depth t.shared;
        if Trace.on () then Trace.count "service.shed" 1;
        Condition.broadcast t.shared.request_done;
        Condition.signal t.work_ready;
        Ok ()
  end

(* Split [batch] into still-live requests and ones whose deadline
   passed while they were queued; caller holds shared.lock.  Expired
   requests are settled on the spot. *)
let drop_expired t batch =
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
      settle t p
        (Error
           (Pmdp_error.Deadline_exceeded
              { deadline; waited; context = "service dispatch: request expired in queue" }))
        `Expired;
      if Trace.on () then Trace.count "service.shed" 1)
    dead;
  if dead <> [] then Condition.broadcast t.shared.request_done;
  live

(* ------------------------------------------------------------------ *)
(* Dispatcher *)

(* Pull every queued request with batch key [key]; caller holds the
   lock.  Matches are marked running on the way out. *)
let drain_matching t key =
  let matched = ref [] in
  let rest = Queue.create () in
  Queue.iter
    (fun p ->
      if batch_key p = key then begin
        p.phase <- P_running;
        matched := p :: !matched
      end
      else Queue.add p rest)
    t.queue;
  Queue.clear t.queue;
  Queue.transfer rest t.queue;
  let matched = List.rev !matched in
  t.shared.queued <- t.shared.queued - List.length matched;
  gauge_depth t.shared;
  matched

(* Reference results per batch key, memoized so validation costs one
   reference run per distinct request, not one per request.
   Dispatcher-thread only. *)
let reference_for t key (p : pending) =
  match Hashtbl.find_opt t.refs key with
  | Some r -> r
  | None ->
      let pipeline = Tiled_exec.pipeline p.entry.Plan_cache.plan in
      let inputs = p.app_entry.Registry.inputs ~seed:p.req.seed pipeline in
      let r = Reference.run pipeline ~inputs in
      if Hashtbl.length t.refs < 128 then Hashtbl.add t.refs key r;
      r

let execute_batch t key (batch : pending list) =
  (* A firing [Shard_kill] spec raises out of the dispatcher thread
     here, before any request settles — exactly the window the
     supervisor must cover. *)
  Option.iter Fault.shard_tick t.shared.fault;
  let p0 = List.hd batch in
  let size = List.length batch in
  let pipeline = Tiled_exec.pipeline p0.entry.Plan_cache.plan in
  let inputs = p0.app_entry.Registry.inputs ~seed:p0.req.seed pipeline in
  let exec_start = Unix.gettimeofday () in
  let run () =
    Resilient.run_plan ?pool:t.pool ?fault:t.shared.fault ~machine:t.shared.machine
      ~mem_budget:t.shared.budget p0.entry.Plan_cache.plan ~inputs
  in
  let result =
    if not (Trace.on ()) then run ()
    else
      Trace.with_span ~cat:"service"
        ~args:
          [
            ("app", Trace.Str p0.req.app);
            ("shard", Trace.Int t.index);
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
    | Ok { Resilient.results; degraded; attempts = _ } ->
        let checksum = List.fold_left (fun acc (_, b) -> acc +. Buffer.checksum b) 0.0 results in
        let max_abs_diff =
          if not t.shared.validate then None
          else
            let reference = reference_for t key p0 in
            Some
              (List.fold_left
                 (fun acc (n, b) ->
                   match List.assoc_opt n reference with
                   | Some r -> Float.max acc (Buffer.max_abs_diff b r)
                   | None -> acc)
                 0.0 results)
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
     coalesced request (leaf lock; take it before shared.lock). *)
  (match result with
  | Ok _ -> Breaker.success t.shared.breaker p0.entry.Plan_cache.fingerprint
  | Error _ -> Breaker.failure t.shared.breaker p0.entry.Plan_cache.fingerprint);
  (* Feed the online retuner one latency sample per successful
     execution (its own leaf lock); the job thunk is only forced when
     this sample makes the fingerprint hot. *)
  (match (t.shared.retune, result) with
  | Some r, Ok _ ->
      Retune.observe r ~fingerprint:p0.entry.Plan_cache.fingerprint ~wall ~job:(fun () ->
          {
            Retune.fingerprint = p0.entry.Plan_cache.fingerprint;
            app = p0.app_entry;
            input_seed = p0.req.seed;
            cache = t.cache;
            entry = p0.entry;
          })
  | _ -> ());
  Mutex.lock t.shared.lock;
  t.executions <- t.executions + 1;
  if size > 1 then begin
    t.batches <- t.batches + 1;
    t.batched_requests <- t.batched_requests + size
  end;
  List.iter
    (fun p ->
      let o = outcome_of p in
      settle t p o (match o with Ok _ -> `Completed | Error _ -> `Failed))
    batch;
  t.running <- [];
  Condition.broadcast t.shared.request_done;
  Mutex.unlock t.shared.lock;
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
                ("shard", Trace.Int t.index);
                ("cache_hit", Trace.Bool p.cache_hit);
                ("batch", Trace.Int size);
              ]
            ~name:"service.request" ~ts:p.trace_ts ())
      batch

let run_dispatcher t =
  let continue = ref true in
  while !continue do
    Mutex.lock t.shared.lock;
    while Queue.is_empty t.queue && not t.stop do
      Condition.wait t.work_ready t.shared.lock
    done;
    if t.stop then begin
      (* Drain: whatever is still queued fails typed, then exit.  A
         graceful drain that ran out of time settles the remainder as
         retryable [Overloaded]; a plain shutdown as [Cancelled]. *)
      let leftover context =
        if t.shared.draining then
          Pmdp_error.Overloaded
            { shard = t.index; depth = Queue.length t.queue; limit = t.queue_limit; context }
        else Pmdp_error.Cancelled { reason = "service shutdown" }
      in
      Queue.iter
        (fun p ->
          settle t p (Error (leftover "service drain: request still queued at the deadline"))
            `Failed)
        t.queue;
      t.shared.queued <- t.shared.queued - Queue.length t.queue;
      Queue.clear t.queue;
      Condition.broadcast t.shared.request_done;
      Mutex.unlock t.shared.lock;
      continue := false
    end
    else begin
      let head = Queue.pop t.queue in
      head.phase <- P_running;
      t.shared.queued <- t.shared.queued - 1;
      let key = batch_key head in
      let batch = drop_expired t (head :: drain_matching t key) in
      (* From here until settlement this batch exists only in the
         dispatcher; publish it so the supervisor can settle it if the
         thread dies mid-execution. *)
      t.running <- batch;
      Mutex.unlock t.shared.lock;
      (* Linger so same-key requests arriving right now can share the
         execution; anything that queued while we slept is collected
         in one more sweep. *)
      let batch =
        if t.batch_window <= 0.0 || batch = [] then batch
        else begin
          Thread.delay t.batch_window;
          Mutex.lock t.shared.lock;
          let more = drop_expired t (drain_matching t key) in
          let batch = batch @ more in
          t.running <- batch;
          Mutex.unlock t.shared.lock;
          batch
        end
      in
      if batch <> [] then execute_batch t key batch
      else begin
        Mutex.lock t.shared.lock;
        t.running <- [];
        Mutex.unlock t.shared.lock
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
let supervise t =
  let rng = Rng.create (0x5eed + t.index) in
  let continue = ref true in
  while !continue do
    let crashed = ref None in
    let th =
      Thread.create
        (fun () -> try run_dispatcher t with e -> crashed := Some (Printexc.to_string e))
        ()
    in
    Thread.join th;
    match !crashed with
    | None -> continue := false
    | Some detail ->
        Mutex.lock t.shared.lock;
        t.alive <- false;
        t.restarts <- t.restarts + 1;
        let orphans = List.filter (fun p -> Option.is_none p.outcome) t.running in
        List.iter
          (fun p ->
            settle t p
              (Error
                 (Pmdp_error.Worker_crash
                    {
                      worker = -1;
                      detail =
                        Printf.sprintf "shard %d dispatcher died: %s (respawning)" t.index
                          detail;
                    }))
              `Failed)
          orphans;
        t.running <- [];
        if orphans <> [] then Condition.broadcast t.shared.request_done;
        Mutex.unlock t.shared.lock;
        if Trace.on () then Trace.count "service.shard.restart" 1;
        (* Jittered exponential backoff, cut short by stop: the queue
           is intact, so a stop-time respawn still drains it. *)
        let d = Float.min 1.0 (0.025 *. (2.0 ** float_of_int (min 5 (t.restarts - 1)))) in
        let d = d *. (0.5 +. Rng.float rng 0.5) in
        let slept = ref 0.0 in
        while !slept < d && not t.stop do
          Thread.delay 0.005;
          slept := !slept +. 0.005
        done;
        Mutex.lock t.shared.lock;
        t.alive <- true;
        Mutex.unlock t.shared.lock
  done

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

let create ~index ~shared ~disk ~workers ~batch_window ~queue_limit =
  if workers < 1 then invalid_arg "Shard.create: workers < 1";
  if queue_limit < 1 then invalid_arg "Shard.create: queue_limit < 1";
  let t =
    {
      index;
      shared;
      cache = Plan_cache.create ?disk ();
      pool = (if workers > 1 then Some (Pool.create workers) else None);
      workers;
      batch_window;
      queue_limit;
      work_ready = Condition.create ();
      queue = Queue.create ();
      refs = Hashtbl.create 8;
      stop = false;
      dispatcher = None;
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
  in
  t.dispatcher <- Some (Thread.create supervise t);
  t

let note_rejected t = t.rejected <- t.rejected + 1

let signal_stop t =
  t.stop <- true;
  Condition.broadcast t.work_ready

let join t =
  Option.iter Thread.join t.dispatcher;
  t.dispatcher <- None;
  Option.iter Pool.shutdown t.pool

let counters t =
  {
    submitted = t.submitted;
    completed = t.completed;
    failed = t.failed;
    rejected = t.rejected;
    shed = t.shed;
    expired = t.expired;
    batches = t.batches;
    batched_requests = t.batched_requests;
    executions = t.executions;
    restarts = t.restarts;
    queue_depth = Queue.length t.queue;
    inflight_bytes = t.inflight_bytes;
  }

type health = {
  shard : int;
  alive : bool;
  queue_depth : int;
  running : int;
  restarts : int;
}

let health t =
  {
    shard = t.index;
    alive = t.alive;
    queue_depth = Queue.length t.queue;
    running = List.length (List.filter (fun p -> Option.is_none p.outcome) t.running);
    restarts = t.restarts;
  }

module Json = Pmdp_report.Json
module Pmdp_error = Pmdp_util.Pmdp_error
module Fault = Pmdp_runtime.Fault

type t = {
  service : Service.t;
  endpoint : Transport.endpoint;  (* as bound: TCP port 0 already resolved *)
  listener : Unix.file_descr;
  fault : Fault.t option;  (* chaos injection at the reply-write site *)
  lock : Mutex.t;
  stopped_cond : Condition.t;
  mutable conns : (Unix.file_descr * Thread.t) list;
  mutable accept_thread : Thread.t option;
  mutable draining : bool;  (* refusing new connections; settling in-flight *)
  mutable stopping : bool;  (* no new connections; existing ones being unblocked *)
  mutable stopped : bool;  (* everything joined; [wait] may return *)
}

let endpoint t = t.endpoint

let ok fields = Json.Obj (("ok", Json.Bool true) :: fields)
let err e = Json.Obj [ ("ok", Json.Bool false); ("error", Protocol.json_of_error e) ]

let status_string = function
  | Some Service.Queued -> "queued"
  | Some Service.Running -> "running"
  | Some Service.Done -> "done"
  | Some (Service.Failed _) -> "failed"
  | None -> "unknown"

(* [dispatch] returns [(reply, shutdown_requested)]. *)
let dispatch t req =
  match Option.bind (Json.member "op" req) Json.to_string_opt with
  | Some "submit" -> (
      match Protocol.request_of_json req with
      | Error e -> (err e, false)
      | Ok r -> (
          match Service.submit t.service r with
          | Ok resp -> (ok [ ("response", Protocol.json_of_response resp) ], false)
          | Error e -> (err e, false)))
  | Some "status" -> (
      match Option.bind (Json.member "id" req) Json.to_int_opt with
      | None ->
          ( err
              (Pmdp_error.Plan_invalid
                 { context = "protocol: status"; reason = "missing or ill-typed field \"id\"" }),
            false )
      | Some id -> (ok [ ("status", Json.String (status_string (Service.status t.service id))) ], false))
  | Some "stats" -> (ok [ ("stats", Protocol.json_of_stats (Service.stats t.service)) ], false)
  | Some "health" -> (ok [ ("health", Protocol.json_of_health (Service.health t.service)) ], false)
  | Some "shutdown" -> (ok [], true)
  | op ->
      ( err
          (Pmdp_error.Plan_invalid
             {
               context = "protocol: dispatch";
               reason =
                 (match op with
                 | None -> "missing operation field \"op\""
                 | Some op -> Printf.sprintf "unknown operation %S" op);
             }),
        false )

let rec stop t =
  Mutex.lock t.lock;
  if t.stopping then begin
    (* Someone else is stopping (or has stopped); just wait it out —
       unless that someone is us, re-entering from a connection
       thread, in which case returning immediately is the only
       non-deadlocking option. *)
    let self = Thread.self () in
    let am_conn = List.exists (fun (_, th) -> Thread.id th = Thread.id self) t.conns in
    if am_conn then Mutex.unlock t.lock
    else begin
      while not t.stopped do
        Condition.wait t.stopped_cond t.lock
      done;
      Mutex.unlock t.lock
    end
  end
  else begin
    t.stopping <- true;
    let conns = t.conns in
    Mutex.unlock t.lock;
    (* shutdown(2), not close(2): closing an fd does not wake a thread
       already blocked in accept/read on it, shutting it down does.
       The listener is closed only after its thread is joined. *)
    (try Unix.shutdown t.listener Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    List.iter
      (fun (fd, _) -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      conns;
    Option.iter Thread.join t.accept_thread;
    (try Unix.close t.listener with Unix.Unix_error _ -> ());
    let self_id = Thread.id (Thread.self ()) in
    List.iter (fun (_, th) -> if Thread.id th <> self_id then Thread.join th) conns;
    Service.shutdown t.service;
    Transport.cleanup t.endpoint;
    Mutex.lock t.lock;
    t.stopped <- true;
    Condition.broadcast t.stopped_cond;
    Mutex.unlock t.lock
  end

(* Enact a transport-fault directive at the reply-write site.  The
   request has already been processed — what the fault corrupts is the
   client's view of the outcome, which is exactly the failure mode a
   retrying client must survive (executions are deterministic, so a
   replay is bitwise-identical).  Returns [false] when the connection
   was deliberately killed. *)
and write_reply t fd reply =
  let directive =
    match t.fault with Some f -> Fault.frame_tick f | None -> `Pass
  in
  let kill () = try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> () in
  match directive with
  | `Pass ->
      Protocol.write_frame fd reply;
      true
  | `Delay d ->
      Thread.delay d;
      Protocol.write_frame fd reply;
      true
  | `Drop ->
      (* Reply vanishes: the client sees EOF where a frame was due. *)
      kill ();
      false
  | `Truncate ->
      (try Protocol.write_truncated fd reply with Protocol.Closed -> ());
      kill ();
      false
  | `Garbage ->
      (try Protocol.write_garbage fd with Protocol.Closed -> ());
      kill ();
      false

and handle_conn t fd =
  let continue = ref true in
  (try
     while !continue do
       match Protocol.read_frame fd with
       | None -> continue := false
       | Some req ->
           let reply, shutdown_requested = dispatch t req in
           if not (write_reply t fd reply) then continue := false;
           if shutdown_requested then begin
             continue := false;
             (* Spawned, not called: this connection thread must stay
                joinable by the stopper. *)
             ignore (Thread.create (fun () -> stop t) ())
           end
     done
   with
  | Protocol.Closed -> ()
  | Failure reason -> (
      (* Protocol violation: tell the client if the pipe still works,
         then drop the connection. *)
      try Protocol.write_frame fd (err (Pmdp_error.Plan_invalid { context = "protocol"; reason }))
      with Protocol.Closed -> ())
  | Unix.Unix_error _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ())

let accept_loop t =
  let continue = ref true in
  while !continue do
    match Unix.accept t.listener with
    | exception Unix.Unix_error ((EBADF | EINVAL | ECONNABORTED), _, _) ->
        (* EBADF/EINVAL: listener closed by [stop]; ECONNABORTED: the
           peer gave up first, keep accepting. *)
        Mutex.lock t.lock;
        if t.stopping then continue := false;
        Mutex.unlock t.lock
    | fd, _ ->
        (match t.endpoint with Transport.Tcp _ -> Transport.nodelay fd | Transport.Uds _ -> ());
        Mutex.lock t.lock;
        if t.stopping then begin
          Mutex.unlock t.lock;
          (try Unix.close fd with Unix.Unix_error _ -> ());
          continue := false
        end
        else if t.draining then begin
          (* Draining: refuse the connection but keep listening so the
             in-flight ones can finish; the close reads as a retryable
             connection error client-side. *)
          Mutex.unlock t.lock;
          try Unix.close fd with Unix.Unix_error _ -> ()
        end
        else begin
          let th = Thread.create (fun () -> handle_conn t fd) () in
          t.conns <- (fd, th) :: t.conns;
          Mutex.unlock t.lock
        end
  done

let start ?(backlog = 16) ?fault ~service ~endpoint () =
  (* A peer that disconnects mid-reply must surface as EPIPE (mapped
     to {!Protocol.Closed}), not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listener = Transport.listen ~backlog endpoint in
  let t =
    {
      service;
      endpoint = Transport.bound_endpoint endpoint listener;
      listener;
      fault;
      lock = Mutex.create ();
      stopped_cond = Condition.create ();
      conns = [];
      accept_thread = None;
      draining = false;
      stopping = false;
      stopped = false;
    }
  in
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  t

let wait t =
  Mutex.lock t.lock;
  while not t.stopped do
    Condition.wait t.stopped_cond t.lock
  done;
  Mutex.unlock t.lock

let stopped t =
  Mutex.lock t.lock;
  let s = t.stopped in
  Mutex.unlock t.lock;
  s

let drain ?timeout t =
  Mutex.lock t.lock;
  let first = not t.draining in
  t.draining <- true;
  Mutex.unlock t.lock;
  if first then begin
    (* Order matters: refuse new connections (the accept loop closes
       them while [draining]), let the service settle what is in
       flight — replies still flow over existing connections — then
       tear the listener down. *)
    Service.drain ?timeout t.service;
    stop t
  end
  else wait t

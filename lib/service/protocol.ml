module Json = Pmdp_report.Json
module Pmdp_error = Pmdp_util.Pmdp_error
module Scheduler = Pmdp_core.Scheduler
module Buffer_ = Pmdp_exec.Buffer

exception Closed

let max_frame_bytes = 1 lsl 20

(* ------------------------------------------------------------------ *)
(* Framing *)

let really_write fd buf =
  let n = Bytes.length buf in
  let off = ref 0 in
  (try
     while !off < n do
       off := !off + Unix.write fd buf !off (n - !off)
     done
   with Unix.Unix_error ((EPIPE | ECONNRESET), _, _) -> raise Closed)

(* [really_read] distinguishes EOF at offset 0 (peer closed between
   frames: a clean end of stream) from EOF mid-buffer (truncated
   frame). *)
let really_read fd buf =
  let n = Bytes.length buf in
  let off = ref 0 in
  (try
     while !off < n do
       match Unix.read fd buf !off (n - !off) with
       | 0 -> if !off = 0 then raise Exit else raise Closed
       | k -> off := !off + k
     done;
     true
   with
  | Exit -> false
  | Unix.Unix_error (ECONNRESET, _, _) -> if !off = 0 then false else raise Closed)

let write_frame fd json =
  let payload = Bytes.unsafe_of_string (Json.to_string json) in
  let n = Bytes.length payload in
  let header = Bytes.create 4 in
  Bytes.set_int32_be header 0 (Int32.of_int n);
  really_write fd header;
  really_write fd payload

(* Chaos writers: wire-level misbehaviour the client must survive.
   [write_truncated] sends the header and only half the payload, then
   the caller closes the socket — a mid-frame connection loss.
   [write_garbage] sends a well-framed payload that is not JSON — a
   corrupted but correctly-length-prefixed frame. *)
let write_truncated fd json =
  let payload = Bytes.unsafe_of_string (Json.to_string json) in
  let n = Bytes.length payload in
  let header = Bytes.create 4 in
  Bytes.set_int32_be header 0 (Int32.of_int n);
  really_write fd header;
  really_write fd (Bytes.sub payload 0 (n / 2))

let write_garbage fd =
  let payload = Bytes.of_string "\xfe\xedpmdp-chaos-not-json\x00\x01\x02" in
  let header = Bytes.create 4 in
  Bytes.set_int32_be header 0 (Int32.of_int (Bytes.length payload));
  really_write fd header;
  really_write fd payload

let read_frame fd =
  let header = Bytes.create 4 in
  if not (really_read fd header) then None
  else begin
    let n = Int32.to_int (Bytes.get_int32_be header 0) in
    if n < 0 || n > max_frame_bytes then
      failwith (Printf.sprintf "protocol: frame length %d outside [0, %d]" n max_frame_bytes);
    let payload = Bytes.create n in
    if not (really_read fd payload) then raise Closed;
    match Json.of_string (Bytes.unsafe_to_string payload) with
    | Ok j -> Some j
    | Error e -> failwith ("protocol: bad frame payload: " ^ e)
  end

(* ------------------------------------------------------------------ *)
(* Codecs *)

let request_of_json j =
  let invalid reason = Error (Pmdp_error.Plan_invalid { context = "protocol: submit"; reason }) in
  (* Distinguish a missing field (use the default) from an ill-typed
     one (reject): a client that sends ["scale": "big"] should hear
     about it, not silently run at scale 32. *)
  let field name decode ~default =
    match Json.member name j with
    | None -> Ok default
    | Some v -> (
        match decode v with
        | Some x -> Ok x
        | None -> invalid (Printf.sprintf "field %S is ill-typed" name))
  in
  let ( let* ) = Result.bind in
  match Option.bind (Json.member "app" j) Json.to_string_opt with
  | None -> invalid "missing or ill-typed field \"app\""
  | Some app ->
      let d = Service.request app in
      let* scale = field "scale" Json.to_int_opt ~default:d.Service.scale in
      let* seed = field "seed" Json.to_int_opt ~default:d.Service.seed in
      let* priority = field "priority" Json.to_int_opt ~default:d.Service.priority in
      let* deadline =
        field "deadline"
          (function Json.Null -> Some None | v -> Option.map Option.some (Json.to_float_opt v))
          ~default:d.Service.deadline
      in
      let* scheduler =
        field "scheduler"
          (fun v -> Option.bind (Json.to_string_opt v) Scheduler.of_string)
          ~default:d.Service.scheduler
      in
      if scale < 1 then invalid "field \"scale\" must be >= 1"
      else if (match deadline with Some d -> d <= 0.0 | None -> false) then
        invalid "field \"deadline\" must be > 0"
      else Ok { Service.app; scale; seed; scheduler; priority; deadline }

let json_of_request (r : Service.request) =
  Json.Obj
    (("op", Json.String "submit")
    :: ("app", Json.String r.Service.app)
    :: ("scale", Json.Int r.Service.scale)
    :: ("scheduler", Json.String (Scheduler.to_string r.Service.scheduler))
    :: ("seed", Json.Int r.Service.seed)
    :: ("priority", Json.Int r.Service.priority)
    ::
    (match r.Service.deadline with
    | None -> []
    | Some d -> [ ("deadline", Json.Float d) ]))

let json_of_error e =
  Json.Obj
    (("kind", Json.String (Pmdp_error.kind e))
    :: ("message", Json.String (Pmdp_error.message e))
    :: List.map
         (fun (name, f) ->
           ( name,
             match f with
             | Pmdp_error.Int i -> Json.Int i
             | Pmdp_error.Float x -> Json.Float x
             | Pmdp_error.Str s -> Json.String s ))
         (Pmdp_error.fields e))

let error_of_json j =
  let str name ~default =
    Option.value ~default (Option.bind (Json.member name j) Json.to_string_opt)
  in
  let int name ~default =
    Option.value ~default (Option.bind (Json.member name j) Json.to_int_opt)
  in
  let flt name ~default =
    Option.value ~default (Option.bind (Json.member name j) Json.to_float_opt)
  in
  let context = str "context" ~default:"(remote)" in
  match str "kind" ~default:"" with
  | "arity-mismatch" ->
      Pmdp_error.Arity_mismatch
        { context; expected = int "expected" ~default:0; got = int "got" ~default:0 }
  | "unresolved-external" ->
      Pmdp_error.Unresolved_external { name = str "name" ~default:"?"; context }
  | "scratch-over-budget" ->
      Pmdp_error.Scratch_over_budget
        {
          required_bytes = int "required_bytes" ~default:0;
          budget_bytes = int "budget_bytes" ~default:0;
          context;
        }
  | "worker-crash" ->
      Pmdp_error.Worker_crash
        { worker = int "worker" ~default:(-1); detail = str "detail" ~default:"(remote)" }
  | "timeout" -> Pmdp_error.Timeout { seconds = flt "seconds" ~default:0.0; context }
  | "cancelled" -> Pmdp_error.Cancelled { reason = str "reason" ~default:"(remote)" }
  | "pool-shutdown" -> Pmdp_error.Pool_shutdown { context }
  | "overloaded" ->
      Pmdp_error.Overloaded
        {
          shard = int "shard" ~default:(-1);
          depth = int "depth" ~default:0;
          limit = int "limit" ~default:0;
          context;
        }
  | "deadline-exceeded" ->
      Pmdp_error.Deadline_exceeded
        { deadline = flt "deadline" ~default:0.0; waited = flt "waited" ~default:0.0; context }
  | "plan-invalid" ->
      Pmdp_error.Plan_invalid { context; reason = str "reason" ~default:"(remote)" }
  | "circuit-open" ->
      Pmdp_error.Circuit_open
        {
          fingerprint = str "fingerprint" ~default:"?";
          failures = int "failures" ~default:0;
          retry_after = flt "retry_after" ~default:0.0;
          context;
        }
  | "kernel-unavailable" ->
      Pmdp_error.Kernel_unavailable { reason = str "reason" ~default:"(remote)"; context }
  | other ->
      Pmdp_error.Plan_invalid
        {
          context = "protocol: error frame";
          reason =
            (if other = "" then "missing error kind"
             else Printf.sprintf "unknown error kind %S: %s" other (str "message" ~default:""));
        }

let json_of_response (r : Service.response) =
  Json.Obj
    [
      ("id", Json.Int r.Service.id);
      ("fingerprint", Json.String r.Service.fingerprint);
      ("cache_hit", Json.Bool r.Service.cache_hit);
      ("batch_size", Json.Int r.Service.batch_size);
      ("degraded", Json.Bool r.Service.degraded);
      ("wall_seconds", Json.Float r.Service.wall_seconds);
      ("queue_seconds", Json.Float r.Service.queue_seconds);
      ("checksum", Json.Float r.Service.checksum);
      ( "outputs",
        Json.List
          (List.map
             (fun (name, buf) ->
               Json.Obj
                 [ ("name", Json.String name); ("checksum", Json.Float (Buffer_.checksum buf)) ])
             r.Service.results) );
      ( "max_abs_diff",
        match r.Service.max_abs_diff with None -> Json.Null | Some d -> Json.Float d );
    ]

let fields_of_counters (c : Service.counters) =
  [
    ("submitted", Json.Int c.Service.submitted);
    ("completed", Json.Int c.Service.completed);
    ("failed", Json.Int c.Service.failed);
    ("rejected", Json.Int c.Service.rejected);
    ("shed", Json.Int c.Service.shed);
    ("expired", Json.Int c.Service.expired);
    ("batches", Json.Int c.Service.batches);
    ("batched_requests", Json.Int c.Service.batched_requests);
    ("executions", Json.Int c.Service.executions);
    ("restarts", Json.Int c.Service.restarts);
    ("queue_depth", Json.Int c.Service.queue_depth);
    ("inflight_bytes", Json.Int c.Service.inflight_bytes);
    ( "cache",
      Json.Obj
        [
          ("hits", Json.Int c.Service.cache.Plan_cache.hits);
          ("misses", Json.Int c.Service.cache.Plan_cache.misses);
          ("compiles", Json.Int c.Service.cache.Plan_cache.compiles);
          ("loads", Json.Int c.Service.cache.Plan_cache.loads);
          ("load_rejects", Json.Int c.Service.cache.Plan_cache.load_rejects);
          ("entries", Json.Int c.Service.cache.Plan_cache.entries);
        ] );
  ]

let json_of_breaker (b : Breaker.counters) =
  Json.Obj
    [
      ("trips", Json.Int b.Breaker.trips);
      ("rejects", Json.Int b.Breaker.rejects);
      ("probes", Json.Int b.Breaker.probes);
      ("closes", Json.Int b.Breaker.closes);
      ("open_now", Json.Int b.Breaker.open_now);
      ("tracked", Json.Int b.Breaker.tracked);
    ]

let json_of_stats (s : Service.stats) =
  Json.Obj
    [
      ( "shards",
        Json.List
          (Array.to_list
             (Array.mapi
                (fun i c -> Json.Obj (("shard", Json.Int i) :: fields_of_counters c))
                s.Service.shards)) );
      ("totals", Json.Obj (fields_of_counters s.Service.total));
      ("breaker", json_of_breaker s.Service.breaker);
      ( "retune",
        match s.Service.retune with
        | None -> Json.Null
        | Some r ->
            Json.Obj
              [
                ("observed", Json.Int r.Retune.observed);
                ("hot", Json.Int r.Retune.hot);
                ("started", Json.Int r.Retune.started);
                ("wins", Json.Int r.Retune.wins);
                ("losses", Json.Int r.Retune.losses);
                ("swaps", Json.Int r.Retune.swaps);
              ] );
      ( "disk",
        match s.Service.disk with
        | None -> Json.Null
        | Some d ->
            Json.Obj
              [
                ("stores", Json.Int d.Disk_cache.stores);
                ("store_failures", Json.Int d.Disk_cache.store_failures);
                ("hits", Json.Int d.Disk_cache.hits);
                ("misses", Json.Int d.Disk_cache.misses);
                ("quarantined", Json.Int d.Disk_cache.quarantined);
              ] );
    ]

(* ------------------------------------------------------------------ *)
(* Health codec *)

let json_of_health (h : Service.health) =
  Json.Obj
    [
      ("draining", Json.Bool h.Service.draining);
      ( "shards",
        Json.List
          (Array.to_list
             (Array.map
                (fun (sh : Service.shard_health) ->
                  Json.Obj
                    [
                      ("shard", Json.Int sh.Service.shard);
                      ("alive", Json.Bool sh.Service.alive);
                      ("queue_depth", Json.Int sh.Service.queue_depth);
                      ("running", Json.Int sh.Service.running);
                      ("restarts", Json.Int sh.Service.restarts);
                    ])
                h.Service.shards)) );
      ("breaker", json_of_breaker h.Service.breaker);
      ( "circuits",
        Json.List
          (List.map
             (fun (c : Breaker.snapshot) ->
               Json.Obj
                 [
                   ("fingerprint", Json.String c.Breaker.fingerprint);
                   ("state", Json.String (Breaker.state_to_string c.Breaker.state));
                   ("failures", Json.Int c.Breaker.failures);
                   ("trips", Json.Int c.Breaker.trips);
                 ])
             h.Service.circuits) );
    ]

let health_of_json j =
  let malformed reason =
    Error (Pmdp_error.Plan_invalid { context = "protocol: health frame"; reason })
  in
  let int j name ~default = Option.value ~default (Option.bind (Json.member name j) Json.to_int_opt) in
  match
    ( Option.bind (Json.member "draining" j) Json.to_bool_opt,
      Option.bind (Json.member "shards" j) Json.to_list_opt )
  with
  | None, _ | _, None -> malformed "expected draining and shards members"
  | Some draining, Some shards ->
      let shards =
        Array.of_list
          (List.map
             (fun sj ->
               {
                 Service.shard = int sj "shard" ~default:(-1);
                 alive = Option.value ~default:false (Option.bind (Json.member "alive" sj) Json.to_bool_opt);
                 queue_depth = int sj "queue_depth" ~default:0;
                 running = int sj "running" ~default:0;
                 restarts = int sj "restarts" ~default:0;
               })
             shards)
      in
      let breaker =
        let bj = Option.value ~default:(Json.Obj []) (Json.member "breaker" j) in
        {
          Breaker.trips = int bj "trips" ~default:0;
          rejects = int bj "rejects" ~default:0;
          probes = int bj "probes" ~default:0;
          closes = int bj "closes" ~default:0;
          open_now = int bj "open_now" ~default:0;
          tracked = int bj "tracked" ~default:0;
        }
      in
      let circuits =
        match Option.bind (Json.member "circuits" j) Json.to_list_opt with
        | None -> []
        | Some cs ->
            List.filter_map
              (fun cj ->
                match Option.bind (Json.member "fingerprint" cj) Json.to_string_opt with
                | None -> None
                | Some fingerprint ->
                    let state =
                      Option.value ~default:"open"
                        (Option.bind (Json.member "state" cj) Json.to_string_opt)
                    in
                    Some
                      {
                        Breaker.fingerprint;
                        state =
                          (match Breaker.state_of_string state with
                          | Some s -> s
                          | None -> Breaker.Open);
                        failures = int cj "failures" ~default:0;
                        trips = int cj "trips" ~default:0;
                      })
              cs
      in
      Ok { Service.draining; shards; breaker; circuits }

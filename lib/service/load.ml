module Json = Pmdp_report.Json
module Stats = Pmdp_util.Stats
module Scheduler = Pmdp_core.Scheduler
module Pmdp_error = Pmdp_util.Pmdp_error
module Machine = Pmdp_machine.Machine

type config = {
  clients : int;
  requests : int;
  arrival_rate : float option;
  apps : string list;
  scale : int;
  scheduler : Scheduler.t;
  seeds : int;
  retry : Client.Retry_policy.t;
}

let config ?(clients = 4) ?(requests = 100) ?arrival_rate ?(apps = [ "blur" ]) ?(scale = 32)
    ?(scheduler = Scheduler.Dp) ?(seeds = 1) ?(retry = Client.Retry_policy.none) () =
  if clients < 1 then invalid_arg "Load.config: clients < 1";
  if requests < 1 then invalid_arg "Load.config: requests < 1";
  if apps = [] then invalid_arg "Load.config: empty app mix";
  if seeds < 1 then invalid_arg "Load.config: seeds < 1";
  (match arrival_rate with
  | Some r when r <= 0.0 -> invalid_arg "Load.config: arrival_rate <= 0"
  | _ -> ());
  { clients; requests; arrival_rate; apps; scale; scheduler; seeds; retry }

type sample = {
  ok : bool;
  cache_hit : bool;
  batched : bool;
  kind : string option;  (** error kind when not ok *)
  latency : float;  (** seconds; meaningful when ok *)
}

type report = {
  config : config;
  wall_seconds : float;
  succeeded : int;
  failed : int;
  throughput_rps : float;
  latency_ms : float array;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  mean_ms : float;
  max_ms : float;
  cache_hits : int;
  batched : int;
  errors : (string * int) list;
  retry : Client.retry_stats;
  service_stats : Json.t option;
}

let request_for cfg i =
  let apps = Array.of_list cfg.apps in
  Service.request
    ~scale:cfg.scale ~scheduler:cfg.scheduler
    ~seed:(1 + (i mod cfg.seeds))
    apps.(i mod Array.length apps)

let to_sample outcome latency =
  match outcome with
  | Ok (cache_hit, batch_size) ->
      { ok = true; cache_hit; batched = batch_size > 1; kind = None; latency }
  | Error e ->
      { ok = false; cache_hit = false; batched = false; kind = Some (Pmdp_error.kind e); latency }

(* The loop core, parameterized over how a worker submits.
   [make_worker w] is called once per worker thread and returns
   (submit, close); remote workers get their own connection, and
   [close] hands back that worker's retry accounting. *)
let run_core ~make_worker ~finish cfg =
  let n = cfg.requests in
  let samples = Array.make n None in
  let retry_totals = ref Client.zero_retry_stats in
  let retry_lock = Mutex.create () in
  let next = Atomic.make 0 in
  let start = Unix.gettimeofday () in
  let worker w =
    let submit, close = make_worker w in
    (match cfg.arrival_rate with
    | None ->
        (* Closed loop: each worker keeps one request in flight. *)
        let continue = ref true in
        while !continue do
          let i = Atomic.fetch_and_add next 1 in
          if i >= n then continue := false
          else begin
            let t0 = Unix.gettimeofday () in
            let r = submit (request_for cfg i) in
            samples.(i) <- Some (to_sample r (Unix.gettimeofday () -. t0))
          end
        done
    | Some rate ->
        (* Open loop: request i is due at i/rate, dealt round-robin;
           latency counts from the due time, so falling behind the
           arrival schedule shows up as queueing delay. *)
        let i = ref w in
        while !i < n do
          let due = start +. (float_of_int !i /. rate) in
          let now = Unix.gettimeofday () in
          if due > now then Thread.delay (due -. now);
          let r = submit (request_for cfg !i) in
          samples.(!i) <- Some (to_sample r (Unix.gettimeofday () -. due));
          i := !i + cfg.clients
        done);
    let rs = close () in
    Mutex.lock retry_lock;
    retry_totals := Client.add_retry_stats !retry_totals rs;
    Mutex.unlock retry_lock
  in
  let threads = List.init cfg.clients (fun w -> Thread.create worker w) in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. start in
  let service_stats = finish () in
  let samples = Array.to_list samples |> List.filter_map Fun.id in
  let oks = List.filter (fun s -> s.ok) samples in
  let latency_ms = Array.of_list (List.map (fun s -> s.latency *. 1000.0) oks) in
  let pct p = if Array.length latency_ms = 0 then 0.0 else Stats.percentile p latency_ms in
  let errors =
    List.sort_uniq compare (List.filter_map (fun s -> s.kind) samples)
    |> List.map (fun k ->
           (k, List.length (List.filter (fun s -> s.kind = Some k) samples)))
  in
  {
    config = cfg;
    wall_seconds = wall;
    succeeded = List.length oks;
    failed = List.length samples - List.length oks;
    throughput_rps = (if wall > 0.0 then float_of_int (List.length oks) /. wall else 0.0);
    latency_ms;
    p50_ms = pct 50.0;
    p95_ms = pct 95.0;
    p99_ms = pct 99.0;
    mean_ms =
      (if Array.length latency_ms = 0 then 0.0
       else Array.fold_left ( +. ) 0.0 latency_ms /. float_of_int (Array.length latency_ms));
    max_ms = Array.fold_left Float.max 0.0 latency_ms;
    cache_hits = List.length (List.filter (fun s -> s.cache_hit) oks);
    batched = List.length (List.filter (fun (s : sample) -> s.batched) oks);
    errors;
    retry = !retry_totals;
    service_stats;
  }

(* Each worker gets its own jitter stream: identical streams would
   synchronize the backoff sleeps and re-collide every retry wave. *)
let worker_policy (cfg : config) w =
  let p = cfg.retry in
  Client.Retry_policy.{ p with seed = p.seed + w }

let run_remote ~endpoint cfg =
  let make_worker w =
    match Client.connect ~retry:(worker_policy cfg w) ~endpoint () with
    | Ok client ->
        ( (fun req ->
            Result.map
              (fun (r : Client.remote_response) -> (r.Client.cache_hit, r.Client.batch_size))
              (Client.submit client req)),
          fun () ->
            let rs = Client.retry_stats client in
            Client.close client;
            rs )
    | Error e ->
        (* No listener even after the connect retries: every request
           of this worker fails with that typed error. *)
        ((fun _ -> Error e), fun () -> Client.zero_retry_stats)
  in
  let finish () =
    match Client.connect ~endpoint () with
    | Error _ -> None
    | Ok client ->
        let s = Client.stats client in
        Client.close client;
        Result.to_option s
  in
  run_core ~make_worker ~finish cfg

let run_inproc service cfg =
  let make_worker w =
    (* The same retry loop as the remote path, minus the transport:
       typed retryable errors (shed, expired, supervisor-settled, open
       circuit) are re-submitted with the same backoff and
       accounting. *)
    let p = worker_policy cfg w in
    let rng = Pmdp_util.Rng.create p.Client.Retry_policy.seed in
    let rs = ref Client.zero_retry_stats in
    let submit req =
      Client.Retry_policy.run p ~rng ~stats:rs (fun () ->
          Result.map
            (fun r -> (r.Service.cache_hit, r.Service.batch_size))
            (Service.submit service req))
    in
    (submit, fun () -> !rs)
  in
  let finish () = Some (Protocol.json_of_stats (Service.stats service)) in
  run_core ~make_worker ~finish cfg

(* v2: adds the ["retry"] totals object, the retry policy in
   ["config"], and writes through the schema guard in {!write_json}. *)
let schema_version = 2

let to_json r =
  Json.Obj
    [
      ("schema_version", Json.Int schema_version);
      ("kind", Json.String "pmdp-load");
      ( "config",
        Json.Obj
          [
            ("clients", Json.Int r.config.clients);
            ("requests", Json.Int r.config.requests);
            ( "arrival_rate",
              match r.config.arrival_rate with None -> Json.Null | Some x -> Json.Float x );
            ("apps", Json.List (List.map (fun a -> Json.String a) r.config.apps));
            ("scale", Json.Int r.config.scale);
            ("scheduler", Json.String (Scheduler.to_string r.config.scheduler));
            ("seeds", Json.Int r.config.seeds);
            ( "retry_policy",
              Json.Obj
                [
                  ("max_attempts", Json.Int r.config.retry.Client.Retry_policy.max_attempts);
                  ("base_delay", Json.Float r.config.retry.Client.Retry_policy.base_delay);
                  ("max_delay", Json.Float r.config.retry.Client.Retry_policy.max_delay);
                  ("multiplier", Json.Float r.config.retry.Client.Retry_policy.multiplier);
                ] );
          ] );
      ("wall_seconds", Json.Float r.wall_seconds);
      ("succeeded", Json.Int r.succeeded);
      ("failed", Json.Int r.failed);
      ("throughput_rps", Json.Float r.throughput_rps);
      ("p50_ms", Json.Float r.p50_ms);
      ("p95_ms", Json.Float r.p95_ms);
      ("p99_ms", Json.Float r.p99_ms);
      ("mean_ms", Json.Float r.mean_ms);
      ("max_ms", Json.Float r.max_ms);
      ("cache_hits", Json.Int r.cache_hits);
      ("batched", Json.Int r.batched);
      ("errors", Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) r.errors));
      ( "retry",
        Json.Obj
          [
            ("attempts", Json.Int r.retry.Client.attempts);
            ("retried", Json.Int r.retry.Client.retried);
            ("gave_up", Json.Int r.retry.Client.gave_up);
          ] );
      ("latency_ms", Json.List (Array.to_list (Array.map (fun x -> Json.Float x) r.latency_ms)));
      ("service_stats", Option.value ~default:Json.Null r.service_stats);
    ]

let default_path (machine : Machine.t) = Printf.sprintf "LOAD_%s.json" machine.Machine.name

(* Same guard as the bench runner's merge path: a pre-existing output
   file is only replaced when it is verifiably a load report of the
   schema this writer produces — overwriting a file written under a
   different (or unknown) schema would silently destroy data a reader
   of that schema still expects. *)
let write_json ~path r =
  let invalid reason =
    Error (Pmdp_error.Plan_invalid { context = "load: " ^ path; reason })
  in
  let check =
    if not (Sys.file_exists path) then Ok ()
    else
      match Json.of_file path with
      | Error msg -> invalid ("existing file not parseable as JSON: " ^ msg)
      | Ok doc -> (
          match
            ( Option.bind (Json.member "kind" doc) Json.to_string_opt,
              Option.bind (Json.member "schema_version" doc) Json.to_int_opt )
          with
          | Some "pmdp-load", Some v when v = schema_version -> Ok ()
          | Some "pmdp-load", Some v ->
              invalid
                (Printf.sprintf "schema_version %d, but this writer produces v%d" v schema_version)
          | Some "pmdp-load", None ->
              invalid "missing schema_version; refusing to replace an unknown schema"
          | _ -> invalid "not a pmdp-load report; refusing to overwrite")
  in
  match check with
  | Error _ as e -> e
  | Ok () ->
      Json.to_file path (to_json r);
      Ok ()

(* End-to-end smoke test for the sharded execution service,
   parameterized by transport: argv is "uds" (default) or "tcp".
   Starts a real 2-shard server on the chosen endpoint, drives it with
   the load generator (100 requests, two pipelines, four clients), and
   checks the acceptance properties — everything succeeds, the warm
   cache skips compiles, percentiles are populated, an unknown
   operation gets a typed error, results are bitwise-equal to the
   reference, and shutdown is clean.  Then, in process: mixed-seed
   load still batches (same-fingerprint requests coalesce on one
   shard), and a service restarted on a warm --cache-dir serves its
   first request without compiling.  Run via `dune build
   @servicecheck` (which runs it once per transport). *)

module Json = Pmdp_report.Json
module Machine = Pmdp_machine.Machine
module Scheduler = Pmdp_core.Scheduler
module Pmdp_error = Pmdp_util.Pmdp_error
module Plan_cache = Pmdp_service.Plan_cache
module Transport = Pmdp_service.Transport
module Service = Pmdp_service.Service
module Protocol = Pmdp_service.Protocol
module Server = Pmdp_service.Server
module Client = Pmdp_service.Client
module Load = Pmdp_service.Load

let failures = ref 0

let check name ok =
  if ok then Printf.printf "  ok: %s\n%!" name
  else begin
    incr failures;
    Printf.printf "  FAIL: %s\n%!" name
  end

let checkf name fmt_ok actual ok =
  check (Printf.sprintf "%s (%s)" name (fmt_ok actual)) ok

let temp_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "pmdp-smoke-%s-%d" name (Unix.getpid ()))

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

(* One raw frame round trip on a fresh connection (no Client) — for
   poking at the protocol below the codec layer. *)
let raw_round_trip endpoint req =
  let fd = Transport.connect endpoint in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Protocol.write_frame fd req;
  Protocol.read_frame fd

let contains ~needle hay =
  let nh = String.length needle and nl = String.length hay in
  let rec go i = i + nh <= nl && (String.sub hay i nh = needle || go (i + 1)) in
  go 0

let () =
  let machine = Machine.xeon in
  let transport = if Array.length Sys.argv > 1 then Sys.argv.(1) else "uds" in
  let sock_path = temp_path (transport ^ ".sock") in
  let requested_endpoint =
    match transport with
    | "tcp" -> Transport.Tcp ("127.0.0.1", 0) (* kernel-assigned port *)
    | "uds" -> Transport.Uds sock_path
    | other ->
        Printf.printf "service smoke: unknown transport %S (uds|tcp)\n%!" other;
        exit 2
  in

  let service =
    Service.create ~workers:2 ~shards:2 ~batch_window:0.005 ~validate:true ~machine ()
  in
  let server = Server.start ~service ~endpoint:requested_endpoint () in
  let endpoint = Server.endpoint server in
  Printf.printf "service smoke: serving %s\n%!" (Transport.to_string endpoint);
  (match (requested_endpoint, endpoint) with
  | Transport.Tcp (_, 0), Transport.Tcp (_, port) ->
      check "kernel-assigned port reported" (port > 0)
  | Transport.Uds _, Transport.Uds _ -> ()
  | _ -> check "endpoint family preserved" false);

  (* 100 requests across two pipelines: exactly two distinct
     fingerprints, so a warm cache means exactly two compiles. *)
  let cfg =
    Load.config ~clients:4 ~requests:100 ~apps:[ "blur"; "unsharp" ] ~scale:32 ()
  in
  let report = Load.run_remote ~endpoint cfg in

  checkf "all requests succeed"
    (fun r -> Printf.sprintf "%d ok, %d failed" r.Load.succeeded r.Load.failed)
    report
    (report.Load.succeeded = 100 && report.Load.failed = 0);
  checkf "throughput positive"
    (fun r -> Printf.sprintf "%.1f req/s" r.Load.throughput_rps)
    report
    (report.Load.throughput_rps > 0.0);
  checkf "latency percentiles ordered"
    (fun r -> Printf.sprintf "p50 %.2f p95 %.2f p99 %.2f ms" r.Load.p50_ms r.Load.p95_ms r.Load.p99_ms)
    report
    (report.Load.p50_ms > 0.0
    && report.Load.p50_ms <= report.Load.p95_ms
    && report.Load.p95_ms <= report.Load.p99_ms
    && report.Load.p99_ms <= report.Load.max_ms);
  checkf "warm cache skips compiles"
    (fun r -> Printf.sprintf "%d hits" r.Load.cache_hits)
    report
    (report.Load.cache_hits > 0);

  let stats = Service.stats service in
  let total = stats.Service.total in
  checkf "compiles == distinct fingerprints"
    (fun t -> Printf.sprintf "%d compiles" t.Service.cache.Plan_cache.compiles)
    total
    (total.Service.cache.Plan_cache.compiles = 2);
  checkf "server settled every request"
    (fun t -> Printf.sprintf "%d submitted, %d completed" t.Service.submitted t.Service.completed)
    total
    (total.Service.submitted = 100 && total.Service.completed = 100
   && total.Service.queue_depth = 0 && total.Service.inflight_bytes = 0);
  check "per-shard ledgers sum to the rollup"
    (Array.fold_left (fun acc c -> acc + c.Service.completed) 0 stats.Service.shards
    = total.Service.completed);

  (* One direct round trip over the wire: validation ran (the service
     was created with ~validate:true), and the tiled results are
     bitwise-equal to the reference executor. *)
  let client =
    match Client.connect ~endpoint () with
    | Ok c -> c
    | Error e ->
        Printf.printf "service smoke: connect failed: %s\n%!" (Pmdp_error.to_string e);
        exit 1
  in
  (match Client.submit client (Service.request ~scale:32 "blur") with
  | Error e -> check (Printf.sprintf "direct submit (%s)" (Pmdp_error.to_string e)) false
  | Ok r ->
      check "direct submit over the socket" true;
      check "direct submit hits the warm cache" r.Client.cache_hit;
      checkf "bitwise-equal to reference"
        (function Some d -> Printf.sprintf "max_abs_diff %g" d | None -> "no diff reported")
        r.Client.max_abs_diff
        (r.Client.max_abs_diff = Some 0.0);
      check "outputs carry checksums" (r.Client.outputs <> []));

  (* Below the codec: an unknown operation gets a typed error naming
     it. *)
  (match raw_round_trip endpoint (Json.Obj [ ("op", Json.String "martian") ]) with
  | Some reply ->
      checkf "unknown op gets a typed error" Json.to_string reply
        (Option.bind (Json.member "ok" reply) Json.to_bool_opt = Some false
        && (match Option.map Protocol.error_of_json (Json.member "error" reply) with
           | Some (Pmdp_error.Plan_invalid { reason; _ }) -> contains ~needle:"\"martian\"" reason
           | _ -> false))
  | None -> check "unknown op answered" false);

  (* The health op over the wire: every shard alive, nothing
     draining, no open circuits on a healthy server. *)
  (match Client.health client with
  | Error e -> check (Printf.sprintf "wire health (%s)" (Pmdp_error.to_string e)) false
  | Ok h ->
      check "wire health reports every shard alive"
        (Array.length h.Service.shards = 2
        && Array.for_all (fun (sh : Service.shard_health) -> sh.Service.alive) h.Service.shards);
      check "wire health reports not draining" (not h.Service.draining);
      check "wire health reports no open circuits" (h.Service.circuits = []));

  (* The report document survives a write + re-parse round trip. *)
  let report_path = temp_path "load.json" in
  Json.to_file report_path (Load.to_json report);
  (match Json.of_file report_path with
  | Error e -> check (Printf.sprintf "report re-parses (%s)" e) false
  | Ok doc ->
      check "report re-parses" true;
      check "report carries schema_version"
        (Option.bind (Json.member "schema_version" doc) Json.to_int_opt <> None);
      check "report carries percentiles"
        (List.for_all
           (fun k -> Option.bind (Json.member k doc) Json.to_float_opt <> None)
           [ "throughput_rps"; "p50_ms"; "p95_ms"; "p99_ms" ]));
  (try Sys.remove report_path with Sys_error _ -> ());

  (* Wire shutdown: the server acknowledges, then tears down the
     socket; Server.wait returns and a Unix socket file is gone. *)
  (match Client.shutdown_server client with
  | Ok () -> check "wire shutdown acknowledged" true
  | Error e -> check (Printf.sprintf "wire shutdown (%s)" (Pmdp_error.to_string e)) false);
  Client.close client;
  Server.wait server;
  (match endpoint with
  | Transport.Uds path -> check "socket unlinked after shutdown" (not (Sys.file_exists path))
  | Transport.Tcp _ -> ());
  (* Stop after wait is a no-op, not a hang. *)
  Server.stop server;
  check "stop after shutdown is idempotent" true;

  (* In process: mixed-seed load on a 2-shard fleet still batches —
     both seeds of one app share a fingerprint, so they route to the
     same shard and same-(fingerprint, seed) requests coalesce. *)
  let service2 = Service.create ~workers:2 ~shards:2 ~batch_window:0.02 ~machine () in
  let mixed =
    Load.run_inproc service2
      (Load.config ~clients:8 ~requests:80 ~apps:[ "blur" ] ~seeds:2 ~scale:32 ())
  in
  checkf "mixed-seed load succeeds"
    (fun r -> Printf.sprintf "%d ok, %d failed" r.Load.succeeded r.Load.failed)
    mixed
    (mixed.Load.succeeded = 80 && mixed.Load.failed = 0);
  checkf "same-fingerprint requests still batch across shards"
    (fun r -> Printf.sprintf "%d responses with batch_size > 1" r.Load.batched)
    mixed
    (mixed.Load.batched > 0);
  check "no sheds under the closed loop"
    ((Service.stats service2).Service.total.Service.shed = 0);
  Service.shutdown service2;

  (* Persistent plan cache: a restarted service warm-loads the stored
     plan through the admission gate and serves its first request as a
     cache hit, with zero compiles. *)
  let cache_dir = temp_path "plans" in
  let s_cold = Service.create ~workers:2 ~cache_dir ~machine () in
  (match Service.submit s_cold (Service.request ~scale:32 "blur") with
  | Ok r -> check "cold request compiles" (not r.Service.cache_hit)
  | Error e -> check (Printf.sprintf "cold submit (%s)" (Pmdp_error.to_string e)) false);
  (match (Service.stats s_cold).Service.disk with
  | Some d -> checkf "plan persisted" (fun d -> Printf.sprintf "%d stores" d.Pmdp_service.Disk_cache.stores) d (d.Pmdp_service.Disk_cache.stores = 1)
  | None -> check "disk stats reported" false);
  Service.shutdown s_cold;
  let s_warm = Service.create ~workers:2 ~cache_dir ~machine () in
  (match Service.submit s_warm (Service.request ~scale:32 "blur") with
  | Ok r -> check "first request after restart is a cache hit" r.Service.cache_hit
  | Error e -> check (Printf.sprintf "warm submit (%s)" (Pmdp_error.to_string e)) false);
  checkf "zero compiles after warm restart"
    (fun t ->
      Printf.sprintf "%d compiles, %d loads" t.Service.cache.Plan_cache.compiles
        t.Service.cache.Plan_cache.loads)
    (Service.stats s_warm).Service.total
    ((Service.stats s_warm).Service.total.Service.cache.Plan_cache.compiles = 0
    && (Service.stats s_warm).Service.total.Service.cache.Plan_cache.loads = 1);
  Service.shutdown s_warm;
  rm_rf cache_dir;

  if !failures > 0 then begin
    Printf.printf "service smoke [%s]: %d check(s) FAILED\n%!" transport !failures;
    exit 1
  end;
  Printf.printf "service smoke [%s]: all checks passed\n%!" transport

(* Network/disk chaos harness for the fault-tolerant serving stack.

   A real 2-shard server on a Unix-domain socket takes 200 requests
   from 6 concurrent retrying clients while a seeded fault schedule
   fires every class of injected failure exactly once (or more):

   - transport: dropped reply frames, truncated frames, well-framed
     garbage, a stalled reply (all of which kill the connection from
     the client's point of view and force a reconnect + re-send);
   - shard: one dispatcher kill mid-load (the supervisor must settle
     the in-flight batch retryably and respawn);
   - pool: one worker-domain kill inside an execution (the resilient
     driver must self-heal, the response is only flagged degraded);
   - disk: one torn and one corrupt cache store (the quarantine
     machinery must isolate both on the next restart).

   Acceptance: every request eventually succeeds, every checksum is
   bitwise-equal to a clean in-process reference run, at least one
   request was retried, post-chaos health shows every shard alive
   (with the respawn on the ledger), and a warm restart on the
   damaged cache dir quarantines both bad envelopes and recompiles
   cleanly.  A watchdog hard-exits if the whole run exceeds its
   wall-clock bound — a hang is a failure, not a stall.

   Run via `dune build @chaoscheck`; also part of runtest. *)

module Machine = Pmdp_machine.Machine
module Pmdp_error = Pmdp_util.Pmdp_error
module Plan_cache = Pmdp_service.Plan_cache
module Disk_cache = Pmdp_service.Disk_cache
module Transport = Pmdp_service.Transport
module Service = Pmdp_service.Service
module Server = Pmdp_service.Server
module Client = Pmdp_service.Client
module Fault = Pmdp_runtime.Fault

let wall_clock_bound = 120.0 (* seconds; the run takes a few *)
let requests = 200
let clients = 6
let apps = [| "blur"; "unsharp" |]
let seeds = 2
let scale = 32

(* Frame-fault positions count reply frames, and under load every
   reply is a submit reply; every other class fires at its first
   opportunities.  One schedule, shared by the server, the
   shard dispatchers, the pool, and the disk cache. *)
let fault_spec =
  "drop@12,truncate@33,garbage@54,fdelay@75:0.05,drop@96,truncate@117,garbage@138,"
  ^ "shardkill@2,kill@5,torn@0,corrupt@1"

let failures = ref 0

let check name ok =
  if ok then Printf.printf "  ok: %s\n%!" name
  else begin
    incr failures;
    Printf.printf "  FAIL: %s\n%!" name
  end

let temp_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "pmdp-chaos-%s-%d" name (Unix.getpid ()))

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

let request_for i =
  Service.request ~scale ~seed:(1 + (i mod seeds)) apps.(i mod Array.length apps)

let () =
  let machine = Machine.xeon in

  (* Hard wall-clock bound: chaos that wedges the stack must fail the
     check, not hang the build. *)
  let (_ : Thread.t) =
    Thread.create
      (fun () ->
        Thread.delay wall_clock_bound;
        Printf.printf "chaos check: TIMEOUT after %.0fs — a hang is a failure\n%!"
          wall_clock_bound;
        Unix._exit 2)
      ()
  in

  (* Reference checksums from a clean, fault-free in-process service:
     one per distinct (app, seed) request key. *)
  let reference = Hashtbl.create 8 in
  let ref_service = Service.create ~workers:2 ~machine () in
  for i = 0 to (Array.length apps * seeds) - 1 do
    match Service.submit ref_service (request_for i) with
    | Ok r -> Hashtbl.replace reference (i mod (Array.length apps * seeds)) r.Service.checksum
    | Error e ->
        Printf.printf "chaos check: reference run failed: %s\n%!" (Pmdp_error.to_string e);
        exit 1
  done;
  Service.shutdown ref_service;

  (* The system under chaos: sharded, persistent, supervised. *)
  let cache_dir = temp_path "plans" in
  let fault =
    match Fault.parse fault_spec with
    | Ok specs -> Fault.create specs
    | Error m ->
        Printf.printf "chaos check: bad fault spec: %s\n%!" m;
        exit 1
  in
  let service =
    Service.create ~workers:2 ~shards:2 ~batch_window:0.002 ~cache_dir ~fault ~machine ()
  in
  let server = Server.start ~fault ~service ~endpoint:(Transport.Uds (temp_path "sock")) () in
  let endpoint = Server.endpoint server in
  Printf.printf "chaos check: serving %s under %s\n%!" (Transport.to_string endpoint)
    fault_spec;

  let next = Atomic.make 0 in
  let ok_count = Atomic.make 0 in
  let bad_checksums = Atomic.make 0 in
  let hard_failures = Atomic.make 0 in
  let retry_lock = Mutex.create () in
  let retry_totals = ref Client.zero_retry_stats in
  let worker w =
    let retry = Client.Retry_policy.create ~max_attempts:8 ~base_delay:0.01 ~seed:w () in
    match Client.connect ~retry ~endpoint () with
    | Error e ->
        Printf.printf "  worker %d: connect failed: %s\n%!" w (Pmdp_error.to_string e);
        Atomic.incr hard_failures
    | Ok client ->
        let continue = ref true in
        while !continue do
          let i = Atomic.fetch_and_add next 1 in
          if i >= requests then continue := false
          else
            match Client.submit client (request_for i) with
            | Ok r ->
                Atomic.incr ok_count;
                let expected =
                  Hashtbl.find reference (i mod (Array.length apps * seeds))
                in
                if r.Client.checksum <> expected then begin
                  Atomic.incr bad_checksums;
                  Printf.printf "  request %d: checksum %.17g, expected %.17g\n%!" i
                    r.Client.checksum expected
                end
            | Error e ->
                Atomic.incr hard_failures;
                Printf.printf "  request %d: %s\n%!" i (Pmdp_error.to_string e)
        done;
        let rs = Client.retry_stats client in
        Mutex.lock retry_lock;
        retry_totals := Client.add_retry_stats !retry_totals rs;
        Mutex.unlock retry_lock;
        Client.close client
  in
  let threads = List.init clients (fun w -> Thread.create worker w) in
  List.iter Thread.join threads;

  let rt = !retry_totals in
  Printf.printf "chaos check: %d ok, %d failed, %d bad checksums; %d attempts, %d retried\n%!"
    (Atomic.get ok_count) (Atomic.get hard_failures) (Atomic.get bad_checksums)
    rt.Client.attempts rt.Client.retried;
  check "every request succeeded"
    (Atomic.get ok_count = requests && Atomic.get hard_failures = 0);
  check "every result bitwise-equal to the clean reference" (Atomic.get bad_checksums = 0);
  check "the chaos forced at least one retry" (rt.Client.retried >= 1);
  check "nothing gave up" (rt.Client.gave_up = 0);

  (* Post-chaos health over the wire: the dispatcher kill is on the
     restart ledger and every shard came back. *)
  (match Client.connect ~endpoint () with
  | Error e -> check (Printf.sprintf "post-chaos connect (%s)" (Pmdp_error.to_string e)) false
  | Ok probe ->
      (match Client.health probe with
      | Error e -> check (Printf.sprintf "post-chaos health (%s)" (Pmdp_error.to_string e)) false
      | Ok h ->
          check "post-chaos health: every shard alive"
            (Array.length h.Service.shards = 2
            && Array.for_all
                 (fun (sh : Service.shard_health) -> sh.Service.alive)
                 h.Service.shards);
          check "post-chaos health: not draining" (not h.Service.draining);
          let restarts =
            Array.fold_left (fun acc (sh : Service.shard_health) -> acc + sh.Service.restarts) 0
              h.Service.shards
          in
          check "the dispatcher kill is on the restart ledger" (restarts >= 1));
      (match Client.shutdown_server probe with
      | Ok () -> check "wire shutdown acknowledged" true
      | Error e -> check (Printf.sprintf "wire shutdown (%s)" (Pmdp_error.to_string e)) false);
      Client.close probe);
  Server.wait server;
  Service.shutdown service;

  (* The torn and corrupt stores must not survive a restart: both are
     quarantined to .bad, both plans recompile, and the repaired
     envelopes warm-load on the generation after that. *)
  let s2 = Service.create ~workers:2 ~cache_dir ~machine () in
  check "damaged envelopes not warm-loaded"
    ((Service.stats s2).Service.total.Service.cache.Plan_cache.loads = 0);
  (match (Service.stats s2).Service.disk with
  | Some d -> check "both damaged envelopes quarantined" (d.Disk_cache.quarantined = 2)
  | None -> check "disk stats reported" false);
  let bad =
    Sys.readdir cache_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".bad")
  in
  check "quarantine files on disk" (List.length bad = 2);
  Array.iter
    (fun app ->
      match Service.submit s2 (Service.request ~scale app) with
      | Ok r -> check (app ^ " recompiles after quarantine") (not r.Service.cache_hit)
      | Error e ->
          check (Printf.sprintf "%s recompile (%s)" app (Pmdp_error.to_string e)) false)
    apps;
  Service.shutdown s2;
  let s3 = Service.create ~workers:2 ~cache_dir ~machine () in
  check "repaired envelopes warm-load"
    ((Service.stats s3).Service.total.Service.cache.Plan_cache.loads = 2);
  Service.shutdown s3;
  rm_rf cache_dir;

  if !failures > 0 then begin
    Printf.printf "chaos check: %d check(s) FAILED\n%!" !failures;
    exit 1
  end;
  Printf.printf "chaos check: all checks passed\n%!"

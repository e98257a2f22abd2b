(* Tests for the execution service: JSON parsing (the wire format's
   foundation), the plan cache (fingerprints, one-compile-per-key),
   endpoint parsing, consistent-hash routing, the persistent disk
   cache and its admission gate, admission control and graduated
   backpressure, batching, service lifecycle, the protocol codecs,
   and the bench-file schema validation that shares the JSON
   parser. *)

module Json = Pmdp_report.Json
module Machine = Pmdp_machine.Machine
module Scheduler = Pmdp_core.Scheduler
module Registry = Pmdp_apps.Registry
module Pmdp_error = Pmdp_util.Pmdp_error
module Plan_cache = Pmdp_service.Plan_cache
module Disk_cache = Pmdp_service.Disk_cache
module Transport = Pmdp_service.Transport
module Service = Pmdp_service.Service
module Protocol = Pmdp_service.Protocol
module Load = Pmdp_service.Load
module Client = Pmdp_service.Client
module Breaker = Pmdp_service.Breaker
module Fault = Pmdp_runtime.Fault
module Store = Pmdp_runtime.Store
module Plan = Pmdp_plan

(* ------------------------------------------------------------------ *)
(* JSON parser *)

let roundtrip j = Json.of_string (Json.to_string j)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("null", Json.Null);
        ("yes", Json.Bool true);
        ("no", Json.Bool false);
        ("int", Json.Int (-42));
        ("float", Json.Float 2.5);
        ("str", Json.String "hello \"world\"\n\ttab\\slash");
        ("empty_list", Json.List []);
        ("empty_obj", Json.Obj []);
        ( "nested",
          Json.List [ Json.Obj [ ("k", Json.List [ Json.Int 1; Json.Int 2 ]) ]; Json.Null ] );
      ]
  in
  match roundtrip doc with
  | Ok parsed -> Alcotest.(check bool) "compact round trip" true (parsed = doc)
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_json_roundtrip_pretty () =
  let doc =
    Json.Obj [ ("a", Json.List [ Json.Int 1 ]); ("b", Json.Obj [ ("c", Json.String "x") ]) ]
  in
  match Json.of_string (Json.to_string_pretty doc) with
  | Ok parsed -> Alcotest.(check bool) "pretty round trip" true (parsed = doc)
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_json_numbers () =
  let check s expected =
    match Json.of_string s with
    | Ok v -> Alcotest.(check bool) (Printf.sprintf "%s parses as expected" s) true (v = expected)
    | Error e -> Alcotest.failf "%s: %s" s e
  in
  check "0" (Json.Int 0);
  check "-7" (Json.Int (-7));
  check "2.5" (Json.Float 2.5);
  check "1e3" (Json.Float 1000.0);
  check "-1.5E-2" (Json.Float (-0.015));
  (* beyond int range falls back to float instead of failing *)
  match Json.of_string "123456789012345678901234567890" with
  | Ok (Json.Float _) -> ()
  | Ok _ -> Alcotest.fail "expected float fallback"
  | Error e -> Alcotest.failf "overflow number rejected: %s" e

let test_json_float_roundtrip () =
  (* Floats must come back bit-identical: checksums cross the wire
     through this printer and are compared exactly on the far side. *)
  List.iter
    (fun f ->
      match Json.of_string (Json.to_string (Json.Float f)) with
      | Ok (Json.Float f') ->
          Alcotest.(check bool)
            (Printf.sprintf "%h survives the wire" f)
            true
            (Int64.bits_of_float f = Int64.bits_of_float f')
      | Ok _ -> Alcotest.failf "%h did not decode as a float" f
      | Error e -> Alcotest.failf "%h: %s" f e)
    [
      15666.036171870055;
      5371.5394522635124;
      0.1;
      1.0 /. 3.0;
      Float.max_float;
      Float.min_float;
      epsilon_float;
      -2.5e-7;
    ]

let test_json_escapes () =
  match Json.of_string {|"aA\né\t"|} with
  | Ok (Json.String s) -> Alcotest.(check string) "escapes decode" "aA\n\xc3\xa9\t" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_json_errors () =
  let rejected s =
    match Json.of_string s with Ok _ -> Alcotest.failf "%S accepted" s | Error _ -> ()
  in
  rejected "";
  rejected "{";
  rejected "[1,]";
  rejected "{\"a\" 1}";
  rejected "nul";
  rejected "\"unterminated";
  rejected "1 2";
  rejected "{} trailing";
  (* errors carry a position *)
  match Json.of_string "{\"a\": }" with
  | Error msg ->
      Alcotest.(check bool) "position in message" true
        (String.length msg >= 4 && String.sub msg 0 4 = "line")
  | Ok _ -> Alcotest.fail "bad object accepted"

let test_json_accessors () =
  let j = Json.Obj [ ("i", Json.Int 3); ("f", Json.Float 1.5); ("s", Json.String "x") ] in
  Alcotest.(check (option int)) "member+int" (Some 3) (Option.bind (Json.member "i" j) Json.to_int_opt);
  Alcotest.(check (option (float 0.0))) "int widens" (Some 3.0)
    (Option.bind (Json.member "i" j) Json.to_float_opt);
  Alcotest.(check (option string)) "string" (Some "x")
    (Option.bind (Json.member "s" j) Json.to_string_opt);
  Alcotest.(check (option int)) "missing member" None
    (Option.bind (Json.member "zz" j) Json.to_int_opt);
  Alcotest.(check (option int)) "member of non-obj" None
    (Option.bind (Json.member "i" (Json.Int 1)) Json.to_int_opt)

(* ------------------------------------------------------------------ *)
(* Plan cache *)

let xeon = Machine.xeon
let blur = Registry.find_exn "blur"

let test_fingerprint_stable () =
  let fp () = Plan_cache.fingerprint ~app:"blur" ~scale:32 ~scheduler:Scheduler.Dp ~machine:xeon in
  Alcotest.(check string) "same bindings, same fingerprint" (fp ()) (fp ())

let test_fingerprint_sensitivity () =
  let base = Plan_cache.fingerprint ~app:"blur" ~scale:32 ~scheduler:Scheduler.Dp ~machine:xeon in
  let differs name fp = Alcotest.(check bool) name true (fp <> base) in
  differs "app changes it"
    (Plan_cache.fingerprint ~app:"unsharp" ~scale:32 ~scheduler:Scheduler.Dp ~machine:xeon);
  differs "scale changes it"
    (Plan_cache.fingerprint ~app:"blur" ~scale:16 ~scheduler:Scheduler.Dp ~machine:xeon);
  differs "scheduler changes it"
    (Plan_cache.fingerprint ~app:"blur" ~scale:32 ~scheduler:Scheduler.Greedy ~machine:xeon);
  differs "machine changes it"
    (Plan_cache.fingerprint ~app:"blur" ~scale:32 ~scheduler:Scheduler.Dp
       ~machine:Machine.opteron)

let test_cache_hit_miss () =
  let cache = Plan_cache.create () in
  (match Plan_cache.get cache ~app:blur ~scale:32 ~scheduler:Scheduler.Dp ~machine:xeon () with
  | Ok (_, `Miss) -> ()
  | Ok (_, (`Hit | `Loaded)) -> Alcotest.fail "first get must miss"
  | Error e -> Alcotest.failf "compile failed: %s" (Pmdp_error.to_string e));
  (match Plan_cache.get cache ~app:blur ~scale:32 ~scheduler:Scheduler.Dp ~machine:xeon () with
  | Ok (_, `Hit) -> ()
  | Ok (_, (`Miss | `Loaded)) -> Alcotest.fail "second get must hit"
  | Error e -> Alcotest.failf "cached get failed: %s" (Pmdp_error.to_string e));
  let s = Plan_cache.stats cache in
  Alcotest.(check int) "one compile" 1 s.Plan_cache.compiles;
  Alcotest.(check int) "one hit" 1 s.Plan_cache.hits;
  Alcotest.(check int) "one miss" 1 s.Plan_cache.misses;
  (* a different binding is a different key *)
  (match Plan_cache.get cache ~app:blur ~scale:16 ~scheduler:Scheduler.Dp ~machine:xeon () with
  | Ok (_, `Miss) -> ()
  | Ok (_, (`Hit | `Loaded)) -> Alcotest.fail "changed scale must recompile"
  | Error e -> Alcotest.failf "compile failed: %s" (Pmdp_error.to_string e));
  Alcotest.(check int) "two compiles" 2 (Plan_cache.stats cache).Plan_cache.compiles;
  Alcotest.(check int) "two entries" 2 (Plan_cache.stats cache).Plan_cache.entries

let test_cache_one_compile_per_key () =
  (* The invariant under load: N domains racing on one key produce
     exactly one compilation; everyone gets the same entry. *)
  let cache = Plan_cache.create () in
  let n = 8 in
  let fetchers =
    Array.init n (fun _ ->
        Domain.spawn (fun () ->
            Plan_cache.get cache ~app:blur ~scale:32 ~scheduler:Scheduler.Dp ~machine:xeon ()))
  in
  let results = Array.map Domain.join fetchers in
  let fps =
    Array.to_list results
    |> List.map (function
         | Ok (e, _) -> e.Plan_cache.fingerprint
         | Error e -> Alcotest.failf "racing get failed: %s" (Pmdp_error.to_string e))
  in
  Alcotest.(check int) "everyone answered" n (List.length fps);
  Alcotest.(check int) "one distinct fingerprint" 1 (List.length (List.sort_uniq compare fps));
  let s = Plan_cache.stats cache in
  Alcotest.(check int) "exactly one compile" 1 s.Plan_cache.compiles;
  Alcotest.(check int) "exactly one miss" 1 s.Plan_cache.misses;
  Alcotest.(check int) "everyone else hit" (n - 1) s.Plan_cache.hits

let test_cache_failure_cached () =
  (* scale=0 dies inside the app builder; the typed error must come
     back every time while compiling only once. *)
  let cache = Plan_cache.create () in
  let get () = Plan_cache.get cache ~app:blur ~scale:0 ~scheduler:Scheduler.Dp ~machine:xeon () in
  (match get () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "scale 0 must fail");
  (match get () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "cached failure must stay failed");
  Alcotest.(check int) "failure compiled once" 1 (Plan_cache.stats cache).Plan_cache.compiles

(* ------------------------------------------------------------------ *)
(* Transport endpoints *)

let test_transport_endpoint_parse () =
  let parses s expected =
    match Transport.of_string s with
    | Ok e -> Alcotest.(check bool) (s ^ " parses") true (e = expected)
    | Error m -> Alcotest.failf "%s rejected: %s" s m
  in
  parses "unix:///run/pmdp.sock" (Transport.Uds "/run/pmdp.sock");
  parses "tcp://127.0.0.1:9900" (Transport.Tcp ("127.0.0.1", 9900));
  parses "tcp://localhost:0" (Transport.Tcp ("localhost", 0));
  (* a bare path is a Unix-domain socket *)
  parses "/tmp/pmdp.sock" (Transport.Uds "/tmp/pmdp.sock");
  List.iter
    (fun e ->
      match Transport.of_string (Transport.to_string e) with
      | Ok e' ->
          Alcotest.(check bool) (Transport.to_string e ^ " round trips") true (e = e')
      | Error m -> Alcotest.failf "round trip rejected: %s" m)
    [ Transport.Uds "/x/y.sock"; Transport.Tcp ("example.org", 80) ];
  let rejected s =
    match Transport.of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%S accepted" s
  in
  rejected "";
  rejected "unix://";
  rejected "tcp://:9900";
  rejected "tcp://nohost";
  rejected "tcp://host:";
  rejected "tcp://host:notaport";
  rejected "tcp://host:-1";
  rejected "tcp://host:65536";
  rejected "ftp://host:1"

(* ------------------------------------------------------------------ *)
(* Consistent-hash ring *)

let test_ring_routing () =
  let fps = List.init 64 (fun i -> Digest.to_hex (Digest.string (Printf.sprintf "fp-%d" i))) in
  let ring = Service.Ring.create ~shards:4 in
  let ring' = Service.Ring.create ~shards:4 in
  List.iter
    (fun fp ->
      let s = Service.Ring.route ring fp in
      Alcotest.(check bool) "shard in range" true (s >= 0 && s < 4);
      (* a rebuilt ring — a restarted process — routes identically *)
      Alcotest.(check int) "routing deterministic" s (Service.Ring.route ring' fp))
    fps;
  (* 64 virtual nodes per shard spread well enough that every shard
     takes traffic from 64 distinct fingerprints *)
  let hit = Array.make 4 false in
  List.iter (fun fp -> hit.(Service.Ring.route ring fp) <- true) fps;
  Alcotest.(check bool) "every shard takes traffic" true (Array.for_all Fun.id hit);
  let one = Service.Ring.create ~shards:1 in
  List.iter
    (fun fp -> Alcotest.(check int) "single shard gets everything" 0 (Service.Ring.route one fp))
    fps

(* ------------------------------------------------------------------ *)
(* Disk cache *)

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let rm_rf dir =
  Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

let compiled_blur_entry () =
  let cache = Plan_cache.create () in
  match Plan_cache.get cache ~app:blur ~scale:32 ~scheduler:Scheduler.Dp ~machine:xeon () with
  | Ok (entry, _) -> entry
  | Error e -> Alcotest.failf "compile failed: %s" (Pmdp_error.to_string e)

let test_disk_cache_roundtrip () =
  let dir = temp_dir "pmdp-disk" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let dc = Disk_cache.create ~dir () in
  let entry = compiled_blur_entry () in
  let fp = entry.Plan_cache.fingerprint in
  let meta =
    Disk_cache.meta_of_request ~app:"blur" ~scale:32 ~scheduler:Scheduler.Dp ~machine:xeon
  in
  Disk_cache.store dc meta ~fingerprint:fp ~ir:entry.Plan_cache.ir;
  (match Disk_cache.load dc ~fingerprint:fp with
  | Some (ir, claimed) ->
      Alcotest.(check string) "claimed digest survives" entry.Plan_cache.digest claimed;
      Alcotest.(check string) "content digest survives" entry.Plan_cache.digest (Plan.digest ir)
  | None -> Alcotest.fail "stored plan not loadable");
  Alcotest.(check bool) "absent fingerprint misses" true
    (Disk_cache.load dc ~fingerprint:(String.make 32 '0') = None);
  (match Disk_cache.scan dc with
  | [ (fp', m) ] ->
      Alcotest.(check string) "scan finds the fingerprint" fp fp';
      Alcotest.(check string) "scan recovers the app" "blur" m.Disk_cache.app;
      Alcotest.(check int) "scan recovers the scale" 32 m.Disk_cache.scale;
      Alcotest.(check string) "scan recovers the machine" xeon.Machine.name m.Disk_cache.machine
  | l -> Alcotest.failf "scan found %d entries, wanted 1" (List.length l));
  let s = Disk_cache.stats dc in
  Alcotest.(check int) "one store" 1 s.Disk_cache.stores;
  Alcotest.(check int) "no store failures" 0 s.Disk_cache.store_failures;
  Alcotest.(check int) "one load hit" 1 s.Disk_cache.hits;
  Alcotest.(check int) "one load miss" 1 s.Disk_cache.misses

let total_cache (service : Service.t) = (Service.stats service).Service.total.Service.cache

let test_disk_cache_warm_restart () =
  let dir = temp_dir "pmdp-warm" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  (* cold service: the first request compiles and persists the plan *)
  let s1 = Service.create ~workers:2 ~cache_dir:dir ~machine:xeon () in
  (match Service.submit s1 (Service.request ~scale:32 "blur") with
  | Ok r -> Alcotest.(check bool) "cold first request compiles" false r.Service.cache_hit
  | Error e -> Alcotest.failf "cold submit failed: %s" (Pmdp_error.to_string e));
  Alcotest.(check int) "cold service compiled" 1 (total_cache s1).Plan_cache.compiles;
  Service.shutdown s1;
  (* restarted service: the plan is warm-loaded through the admission
     gate at startup, so the first request is already a cache hit *)
  let s2 = Service.create ~workers:2 ~cache_dir:dir ~machine:xeon () in
  Alcotest.(check int) "restart admits the stored plan" 1 (total_cache s2).Plan_cache.loads;
  (match Service.submit s2 (Service.request ~scale:32 "blur") with
  | Ok r -> Alcotest.(check bool) "warm first request hits" true r.Service.cache_hit
  | Error e -> Alcotest.failf "warm submit failed: %s" (Pmdp_error.to_string e));
  Alcotest.(check int) "no compiles after restart" 0 (total_cache s2).Plan_cache.compiles;
  Service.shutdown s2

let test_disk_cache_tamper_recompile () =
  let dir = temp_dir "pmdp-tamper" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let s1 = Service.create ~workers:2 ~cache_dir:dir ~machine:xeon () in
  (match Service.submit s1 (Service.request ~scale:32 "blur") with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "submit failed: %s" (Pmdp_error.to_string e));
  Service.shutdown s1;
  (* corrupt the stored envelope: the claimed digest no longer matches
     the plan content *)
  (match Sys.readdir dir with
  | [| f |] -> (
      let file = Filename.concat dir f in
      match Json.of_file file with
      | Ok (Json.Obj members) ->
          Json.to_file file
            (Json.Obj
               (List.map
                  (fun (k, v) ->
                    if k = "digest" then (k, Json.String (String.make 32 'f')) else (k, v))
                  members))
      | Ok _ | Error _ -> Alcotest.fail "cached plan file unreadable")
  | files -> Alcotest.failf "expected one cached plan, found %d files" (Array.length files));
  let s2 = Service.create ~workers:2 ~cache_dir:dir ~machine:xeon () in
  let c0 = total_cache s2 in
  Alcotest.(check int) "tampered plan rejected at warm-load" 0 c0.Plan_cache.loads;
  Alcotest.(check bool) "rejection counted" true (c0.Plan_cache.load_rejects >= 1);
  (* the slot was left empty, not poisoned: the request recompiles *)
  (match Service.submit s2 (Service.request ~scale:32 "blur") with
  | Ok r -> Alcotest.(check bool) "served by a fresh compile" false r.Service.cache_hit
  | Error e -> Alcotest.failf "recompile submit failed: %s" (Pmdp_error.to_string e));
  Alcotest.(check int) "recompiled once" 1 (total_cache s2).Plan_cache.compiles;
  Service.shutdown s2

(* One directory for both stores: the plan store's scan must not take
   the kernel store's <kernel_digest>.json for a broken envelope and
   quarantine it, or every restart recompiles its kernels. *)
let test_disk_cache_shared_dir () =
  let dir = temp_dir "pmdp-shared" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let create () = Service.create ~workers:2 ~cache_dir:dir ~kernel_cache_dir:dir ~machine:xeon () in
  let s1 = create () in
  (match Service.submit s1 (Service.request ~scale:32 "blur") with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "cold submit failed: %s" (Pmdp_error.to_string e));
  Alcotest.(check (option int)) "cold service compiled the kernel" (Some 1)
    (Option.map (fun k -> k.Pmdp_kernel.Native_exec.compiles) (Service.kernel_stats s1));
  Service.shutdown s1;
  let s2 = create () in
  Fun.protect ~finally:(fun () -> Service.shutdown s2) @@ fun () ->
  (match Service.submit s2 (Service.request ~scale:32 "blur") with
  | Ok r -> Alcotest.(check bool) "warm first request hits the plan cache" true r.Service.cache_hit
  | Error e -> Alcotest.failf "warm submit failed: %s" (Pmdp_error.to_string e));
  (match Service.kernel_stats s2 with
  | Some k ->
      Alcotest.(check int) "warm service compiles no kernel" 0 k.Pmdp_kernel.Native_exec.compiles;
      Alcotest.(check int) "kernel served from disk" 1 k.Pmdp_kernel.Native_exec.disk_hits
  | None -> Alcotest.fail "kernel stats missing");
  Alcotest.(check (list string)) "nothing quarantined" []
    (Sys.readdir dir |> Array.to_list |> List.filter (fun f -> Filename.check_suffix f ".bad"))

(* A put nested in another put's writer, for the same entry: each
   must write its own temp file, so the entry ends up holding exactly
   one writer's bytes, both puts count as stores, and no temp file is
   left behind. *)
let test_store_nested_put () =
  let dir = temp_dir "pmdp-store" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let store = Store.create ~dir () in
  let outer = String.make 100 'A' and inner = String.make 300 'B' in
  Store.put store
    [
      ( "entry",
        fun oc ->
          output_string oc outer;
          Store.put store [ ("entry", fun oc -> output_string oc inner) ] );
    ];
  let got = In_channel.with_open_bin (Filename.concat dir "entry") In_channel.input_all in
  Alcotest.(check bool) "entry holds one writer's bytes" true (got = outer || got = inner);
  let s = Store.stats store in
  Alcotest.(check int) "both puts stored" 2 s.Store.stores;
  Alcotest.(check int) "no store failures" 0 s.Store.store_failures;
  Alcotest.(check (list string)) "no temp file left" [ "entry" ] (Array.to_list (Sys.readdir dir))

(* ------------------------------------------------------------------ *)
(* Service *)

let with_service ?(workers = 2) ?mem_budget ?max_inflight ?batch_window ?validate ?shards
    ?queue_limit ?cache_dir ?fault ?breaker_threshold ?breaker_cooldown f =
  let service =
    Service.create ~workers ?mem_budget ?max_inflight ?batch_window ?validate ?shards
      ?queue_limit ?cache_dir ?fault ?breaker_threshold ?breaker_cooldown ~machine:xeon ()
  in
  Fun.protect ~finally:(fun () -> Service.shutdown service) (fun () -> f service)

let fault_of_spec s =
  match Fault.parse s with
  | Ok specs -> Fault.create specs
  | Error m -> Alcotest.failf "fault spec %S rejected: %s" s m

let ok_id = function
  | Ok id -> id
  | Error e -> Alcotest.failf "submit rejected: %s" (Pmdp_error.to_string e)

let test_service_submit () =
  with_service ~validate:true (fun service ->
      match Service.submit service (Service.request ~scale:32 "blur") with
      | Error e -> Alcotest.failf "submit failed: %s" (Pmdp_error.to_string e)
      | Ok r ->
          Alcotest.(check bool) "first request misses the cache" false r.Service.cache_hit;
          Alcotest.(check bool) "has results" true (r.Service.results <> []);
          Alcotest.(check bool) "not degraded" false r.Service.degraded;
          Alcotest.(check (option (float 0.0))) "bitwise equal to reference" (Some 0.0)
            r.Service.max_abs_diff;
          (match Service.submit service (Service.request ~scale:32 "blur") with
          | Error e -> Alcotest.failf "second submit failed: %s" (Pmdp_error.to_string e)
          | Ok r2 ->
              Alcotest.(check bool) "second request hits the cache" true r2.Service.cache_hit;
              Alcotest.(check (float 0.0)) "same checksum" r.Service.checksum r2.Service.checksum);
          let s = Service.stats service in
          Alcotest.(check int) "two completed" 2 s.Service.total.Service.completed;
          Alcotest.(check int) "one compile" 1 s.Service.total.Service.cache.Plan_cache.compiles)

let test_service_unknown_app () =
  with_service (fun service ->
      (match Service.submit service (Service.request "no-such-pipeline") with
      | Error (Pmdp_error.Unresolved_external _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Pmdp_error.to_string e)
      | Ok _ -> Alcotest.fail "unknown app accepted");
      Alcotest.(check int) "counted as rejected" 1
        (Service.stats service).Service.total.Service.rejected)

let test_service_over_budget () =
  (* A one-byte budget rejects at admission with the typed
     Scratch_over_budget carrying both sides of the comparison. *)
  with_service ~mem_budget:1 (fun service ->
      match Service.submit service (Service.request ~scale:32 "blur") with
      | Error (Pmdp_error.Scratch_over_budget { required_bytes; budget_bytes; _ }) ->
          Alcotest.(check int) "budget echoed" 1 budget_bytes;
          Alcotest.(check bool) "demand computed" true (required_bytes > 1)
      | Error e -> Alcotest.failf "wrong error: %s" (Pmdp_error.to_string e)
      | Ok _ -> Alcotest.fail "over-budget request admitted")

let test_service_queue_full () =
  (* max_inflight=1: the second submit_async while the first is still
     unfinished must be rejected with Cancelled.  The batch window
     keeps the first request in flight long enough to observe it. *)
  with_service ~max_inflight:1 ~batch_window:0.3 (fun service ->
      match Service.submit_async service (Service.request ~scale:32 "blur") with
      | Error e -> Alcotest.failf "first submit rejected: %s" (Pmdp_error.to_string e)
      | Ok id -> (
          (match Service.submit_async service (Service.request ~scale:32 "blur") with
          | Error (Pmdp_error.Cancelled _) -> ()
          | Error e -> Alcotest.failf "wrong error: %s" (Pmdp_error.to_string e)
          | Ok _ -> Alcotest.fail "admitted past max_inflight");
          match Service.await service id with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "first request failed: %s" (Pmdp_error.to_string e)))

let test_service_batching () =
  (* Identical requests inside one batch window share one execution. *)
  with_service ~batch_window:0.15 (fun service ->
      let ids =
        List.init 6 (fun _ ->
            match Service.submit_async service (Service.request ~scale:32 "blur") with
            | Ok id -> id
            | Error e -> Alcotest.failf "submit rejected: %s" (Pmdp_error.to_string e))
      in
      let responses =
        List.map
          (fun id ->
            match Service.await service id with
            | Ok r -> r
            | Error e -> Alcotest.failf "request failed: %s" (Pmdp_error.to_string e))
          ids
      in
      Alcotest.(check bool) "some response was batched" true
        (List.exists (fun r -> r.Service.batch_size > 1) responses);
      let checksums = List.sort_uniq compare (List.map (fun r -> r.Service.checksum) responses) in
      Alcotest.(check int) "all checksums identical" 1 (List.length checksums);
      let s = (Service.stats service).Service.total in
      Alcotest.(check bool) "fewer executions than requests" true (s.Service.executions < 6);
      Alcotest.(check bool) "batches observed" true (s.Service.batches >= 1);
      Alcotest.(check int) "all completed" 6 s.Service.completed)

let test_service_await_semantics () =
  with_service (fun service ->
      (match Service.await service 424242 with
      | Error (Pmdp_error.Plan_invalid _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Pmdp_error.to_string e)
      | Ok _ -> Alcotest.fail "await of unknown id succeeded");
      match Service.submit_async service (Service.request ~scale:32 "blur") with
      | Error e -> Alcotest.failf "submit rejected: %s" (Pmdp_error.to_string e)
      | Ok id -> (
          (match Service.await service id with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "await failed: %s" (Pmdp_error.to_string e));
          Alcotest.(check (option bool)) "collected id is forgotten" None
            (Option.map (fun _ -> true) (Service.status service id));
          match Service.await service id with
          | Error (Pmdp_error.Plan_invalid _) -> ()
          | Error e -> Alcotest.failf "wrong error: %s" (Pmdp_error.to_string e)
          | Ok _ -> Alcotest.fail "second await succeeded"))

let test_service_shutdown () =
  (* Shutdown fails whatever is still queued with Cancelled, and
     rejects later submits with Pool_shutdown.  A long batch window on
     the running request keeps the second one queued. *)
  let service = Service.create ~workers:2 ~batch_window:0.4 ~machine:xeon () in
  let id1 =
    match Service.submit_async service (Service.request ~scale:32 "blur") with
    | Ok id -> id
    | Error e -> Alcotest.failf "submit rejected: %s" (Pmdp_error.to_string e)
  in
  Thread.delay 0.05;
  (* different seed = different batch key: stays queued behind id1 *)
  let id2 =
    match Service.submit_async service (Service.request ~scale:32 ~seed:2 "unsharp") with
    | Ok id -> id
    | Error e -> Alcotest.failf "submit rejected: %s" (Pmdp_error.to_string e)
  in
  Service.shutdown service;
  (match Service.await service id1 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "in-flight request failed: %s" (Pmdp_error.to_string e));
  (match Service.await service id2 with
  | Error (Pmdp_error.Cancelled _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Pmdp_error.to_string e)
  | Ok _ -> Alcotest.fail "queued request survived shutdown");
  (match Service.submit_async service (Service.request "blur") with
  | Error (Pmdp_error.Pool_shutdown _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Pmdp_error.to_string e)
  | Ok _ -> Alcotest.fail "submit after shutdown admitted");
  (* idempotent *)
  Service.shutdown service

let test_service_concurrent_submits () =
  (* Submits racing from several domains: every request completes,
     the cache compiled each distinct key once. *)
  with_service (fun service ->
      let domains =
        Array.init 4 (fun d ->
            Domain.spawn (fun () ->
                List.init 5 (fun i ->
                    let app = if (d + i) mod 2 = 0 then "blur" else "unsharp" in
                    Service.submit service (Service.request ~scale:32 app))))
      in
      let results = Array.to_list domains |> List.concat_map Domain.join in
      List.iter
        (function
          | Ok _ -> ()
          | Error e -> Alcotest.failf "concurrent submit failed: %s" (Pmdp_error.to_string e))
        results;
      let s = (Service.stats service).Service.total in
      Alcotest.(check int) "all completed" 20 s.Service.completed;
      Alcotest.(check int) "one compile per distinct key" 2 s.Service.cache.Plan_cache.compiles)

let test_service_shed_priority () =
  (* Graduated backpressure: a full shard queue sheds the
     lowest-priority queued request when the incoming one outranks it,
     and refuses the incoming one when nothing does.  A long batch
     window keeps the dispatcher lingering on the first request so the
     queue actually fills. *)
  with_service ~batch_window:0.4 ~queue_limit:2 (fun service ->
      (* warm the plan cache so the submits below admit instantly *)
      (match Service.submit service (Service.request ~scale:32 "blur") with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "warm-up failed: %s" (Pmdp_error.to_string e));
      let submit ~seed ~priority =
        Service.submit_async service (Service.request ~scale:32 ~seed ~priority "blur")
      in
      let a = ok_id (submit ~seed:11 ~priority:0) in
      Thread.delay 0.05;
      (* dispatcher is lingering on seed 11; these two fill the queue *)
      let b = ok_id (submit ~seed:12 ~priority:0) in
      let c = ok_id (submit ~seed:13 ~priority:1) in
      (* a priority-5 request evicts the priority-0 one *)
      let d = ok_id (submit ~seed:14 ~priority:5) in
      (* an equal-priority request finds nothing to outrank *)
      (match submit ~seed:15 ~priority:0 with
      | Error (Pmdp_error.Overloaded { limit; depth; _ }) ->
          Alcotest.(check int) "limit echoed" 2 limit;
          Alcotest.(check bool) "depth at limit" true (depth >= limit)
      | Error e -> Alcotest.failf "wrong error: %s" (Pmdp_error.to_string e)
      | Ok _ -> Alcotest.fail "admitted past the full queue");
      (match Service.await service b with
      | Error (Pmdp_error.Overloaded _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Pmdp_error.to_string e)
      | Ok _ -> Alcotest.fail "the shed victim completed anyway");
      List.iter
        (fun id ->
          match Service.await service id with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "surviving request failed: %s" (Pmdp_error.to_string e))
        [ a; c; d ];
      let s = (Service.stats service).Service.total in
      Alcotest.(check int) "one shed" 1 s.Service.shed;
      Alcotest.(check bool) "refusal counted as rejected" true (s.Service.rejected >= 1);
      Alcotest.(check bool) "shed victim not counted failed" true (s.Service.failed = 0))

let test_service_deadline_expiry () =
  (* A request whose deadline passes while queued is dropped with the
     typed Deadline_exceeded instead of executed. *)
  with_service ~batch_window:0.3 (fun service ->
      (match Service.submit service (Service.request ~scale:32 "blur") with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "warm-up failed: %s" (Pmdp_error.to_string e));
      let a =
        ok_id (Service.submit_async service (Service.request ~scale:32 ~seed:21 "blur"))
      in
      Thread.delay 0.05;
      (* different seed = different batch key; expires inside the
         window the dispatcher spends lingering on seed 21 *)
      let b =
        ok_id
          (Service.submit_async service
             (Service.request ~scale:32 ~seed:22 ~deadline:0.05 "blur"))
      in
      (match Service.await service b with
      | Error (Pmdp_error.Deadline_exceeded { deadline; waited; _ }) ->
          Alcotest.(check (float 0.0)) "deadline echoed" 0.05 deadline;
          Alcotest.(check bool) "waited past the deadline" true (waited >= deadline)
      | Error e -> Alcotest.failf "wrong error: %s" (Pmdp_error.to_string e)
      | Ok _ -> Alcotest.fail "expired request executed anyway");
      (match Service.await service a with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "live request failed: %s" (Pmdp_error.to_string e));
      let s = (Service.stats service).Service.total in
      Alcotest.(check int) "expiry counted" 1 s.Service.expired;
      Alcotest.(check bool) "expiry not counted failed" true (s.Service.failed = 0))

let test_service_sharded_submits () =
  (* A multi-shard fleet: routing is deterministic, every request
     completes, per-shard ledgers sum to the rollup, and each distinct
     plan compiled on exactly one shard. *)
  with_service ~shards:3 (fun service ->
      Alcotest.(check int) "three shards" 3 (Service.shard_count service);
      let fp = Plan_cache.fingerprint ~app:"blur" ~scale:32 ~scheduler:Scheduler.Dp ~machine:xeon in
      let s0 = Service.shard_of_fingerprint service fp in
      Alcotest.(check bool) "route in range" true (s0 >= 0 && s0 < 3);
      Alcotest.(check int) "route stable" s0 (Service.shard_of_fingerprint service fp);
      let results =
        List.init 12 (fun i ->
            let app = if i mod 2 = 0 then "blur" else "unsharp" in
            Service.submit service (Service.request ~scale:32 ~seed:(1 + (i mod 3)) app))
      in
      List.iter
        (function
          | Ok _ -> ()
          | Error e -> Alcotest.failf "sharded submit failed: %s" (Pmdp_error.to_string e))
        results;
      let s = Service.stats service in
      Alcotest.(check int) "one ledger per shard" 3 (Array.length s.Service.shards);
      Alcotest.(check int) "totals roll up completions" 12 s.Service.total.Service.completed;
      let sum field = Array.fold_left (fun acc c -> acc + field c) 0 s.Service.shards in
      Alcotest.(check int) "per-shard ledgers sum to the total" 12
        (sum (fun c -> c.Service.completed));
      Alcotest.(check int) "one compile per distinct plan across the fleet" 2
        (sum (fun c -> c.Service.cache.Plan_cache.compiles));
      Alcotest.(check bool) "no disk cache unless configured" true (s.Service.disk = None))

(* ------------------------------------------------------------------ *)
(* Circuit breaker *)

let test_breaker_lifecycle () =
  let b = Breaker.create ~threshold:2 ~cooldown:0.05 () in
  Alcotest.(check bool) "fresh circuit proceeds" true (Breaker.check b "fp" = `Proceed);
  Breaker.failure b "fp";
  Alcotest.(check bool) "below threshold still proceeds" true (Breaker.check b "fp" = `Proceed);
  Breaker.failure b "fp";
  (match Breaker.check b "fp" with
  | `Reject (failures, retry_after) ->
      Alcotest.(check int) "failure streak reported" 2 failures;
      Alcotest.(check bool) "retry_after positive" true (retry_after > 0.0)
  | `Proceed | `Probe -> Alcotest.fail "tripped circuit must reject");
  Alcotest.(check bool) "other fingerprints unaffected" true (Breaker.check b "other" = `Proceed);
  Thread.delay 0.08;
  Alcotest.(check bool) "cooled circuit admits one probe" true (Breaker.check b "fp" = `Probe);
  Alcotest.(check bool) "second request during the probe rejected" true
    (match Breaker.check b "fp" with `Reject _ -> true | _ -> false);
  Breaker.success b "fp";
  Alcotest.(check bool) "probe success closes the circuit" true (Breaker.check b "fp" = `Proceed);
  let c = Breaker.counters b in
  Alcotest.(check int) "one trip" 1 c.Breaker.trips;
  Alcotest.(check int) "one close" 1 c.Breaker.closes;
  Alcotest.(check bool) "probe counted" true (c.Breaker.probes >= 1);
  Alcotest.(check bool) "rejects counted" true (c.Breaker.rejects >= 2);
  Alcotest.(check int) "nothing open after the close" 0 c.Breaker.open_now

let test_breaker_probe_failure_retrips () =
  let b = Breaker.create ~threshold:1 ~cooldown:0.03 () in
  Breaker.failure b "fp";
  (match Breaker.check b "fp" with
  | `Reject _ -> ()
  | _ -> Alcotest.fail "threshold 1 must trip on the first failure");
  (match Breaker.snapshot b with
  | [ s ] ->
      Alcotest.(check bool) "snapshot shows the circuit open" true (s.Breaker.state = Breaker.Open)
  | l -> Alcotest.failf "snapshot has %d entries, wanted 1" (List.length l));
  Thread.delay 0.05;
  (match Breaker.check b "fp" with
  | `Probe -> ()
  | _ -> Alcotest.fail "cooled circuit must admit a probe");
  Breaker.failure b "fp";
  (match Breaker.check b "fp" with
  | `Reject _ -> ()
  | _ -> Alcotest.fail "failed probe must re-trip the circuit");
  Alcotest.(check int) "re-trip counted" 2 (Breaker.counters b).Breaker.trips

let test_service_breaker_trips () =
  (* scale=0 dies inside the app builder; the cached compile failure
     feeds the breaker on every submit, so after [threshold] submits
     the fingerprint's circuit is open and admission refuses with the
     typed Circuit_open — without touching the plan cache or queue. *)
  with_service ~breaker_threshold:2 ~breaker_cooldown:0.2 (fun service ->
      let poison () = Service.submit service (Service.request ~scale:0 "blur") in
      (match poison () with
      | Error (Pmdp_error.Circuit_open _) -> Alcotest.fail "tripped before threshold"
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "scale 0 must fail");
      (match poison () with
      | Error (Pmdp_error.Circuit_open _) -> Alcotest.fail "tripped before threshold"
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "scale 0 must fail");
      (match poison () with
      | Error (Pmdp_error.Circuit_open { failures; retry_after; _ }) ->
          Alcotest.(check int) "failure streak echoed" 2 failures;
          Alcotest.(check bool) "retry_after positive" true (retry_after > 0.0);
          Alcotest.(check bool) "circuit-open is retryable" true
            (Client.Retry_policy.retryable
               (Pmdp_error.Circuit_open { fingerprint = "x"; failures; retry_after; context = "" }))
      | Error e -> Alcotest.failf "wrong error: %s" (Pmdp_error.to_string e)
      | Ok _ -> Alcotest.fail "open circuit admitted the request");
      (* the poison plan's circuit does not affect healthy plans *)
      (match Service.submit service (Service.request ~scale:32 "blur") with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "healthy plan refused: %s" (Pmdp_error.to_string e));
      let h = Service.health service in
      (match h.Service.circuits with
      | [ s ] ->
          Alcotest.(check bool) "health lists the open circuit" true
            (s.Breaker.state = Breaker.Open);
          Alcotest.(check int) "with its failure streak" 2 s.Breaker.failures
      | l -> Alcotest.failf "health lists %d circuits, wanted 1" (List.length l));
      let c = (Service.stats service).Service.breaker in
      Alcotest.(check int) "one trip in the stats rollup" 1 c.Breaker.trips;
      Alcotest.(check bool) "the refusal counted as a reject" true (c.Breaker.rejects >= 1);
      (* after the cooldown, one probe is admitted; its failure
         re-trips the circuit rather than resetting the streak *)
      Thread.delay 0.3;
      (match poison () with
      | Error (Pmdp_error.Circuit_open _) -> Alcotest.fail "cooled circuit refused the probe"
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "scale 0 must fail");
      (match poison () with
      | Error (Pmdp_error.Circuit_open _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Pmdp_error.to_string e)
      | Ok _ -> Alcotest.fail "re-tripped circuit admitted the request");
      Alcotest.(check int) "re-trip counted" 2
        (Service.stats service).Service.breaker.Breaker.trips)

(* ------------------------------------------------------------------ *)
(* Supervision, drain, health *)

let test_service_health_baseline () =
  with_service ~shards:2 (fun service ->
      let h = Service.health service in
      Alcotest.(check bool) "not draining" false h.Service.draining;
      Alcotest.(check int) "one entry per shard" 2 (Array.length h.Service.shards);
      Array.iteri
        (fun i (sh : Service.shard_health) ->
          Alcotest.(check int) "tagged with its index" i sh.Service.shard;
          Alcotest.(check bool) "dispatcher alive" true sh.Service.alive;
          Alcotest.(check int) "no restarts" 0 sh.Service.restarts;
          Alcotest.(check int) "queue empty" 0 sh.Service.queue_depth)
        h.Service.shards;
      Alcotest.(check bool) "no open circuits" true (h.Service.circuits = []))

let test_service_supervisor_respawn () =
  (* shardkill@0 raises inside the dispatcher at its first batch: the
     supervisor must settle the in-flight request with a retryable
     typed error, respawn the dispatcher, and serve the retry. *)
  let fault = fault_of_spec "shardkill@0" in
  with_service ~fault (fun service ->
      (match Service.submit service (Service.request ~scale:32 "blur") with
      | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "settled with a retryable error (%s)" (Pmdp_error.kind e))
            true
            (Client.Retry_policy.retryable e)
      | Ok _ -> Alcotest.fail "request served by a killed dispatcher");
      (* the respawn backoff is tens of milliseconds; retry until the
         dispatcher is back (bounded, so a broken supervisor fails the
         test instead of hanging it) *)
      let rec retry n =
        if n = 0 then Alcotest.fail "dispatcher never came back"
        else
          match Service.submit service (Service.request ~scale:32 "blur") with
          | Ok _ -> ()
          | Error e when Client.Retry_policy.retryable e ->
              Thread.delay 0.05;
              retry (n - 1)
          | Error e -> Alcotest.failf "unexpected error: %s" (Pmdp_error.to_string e)
      in
      retry 40;
      let h = Service.health service in
      Alcotest.(check bool) "every dispatcher alive after recovery" true
        (Array.for_all (fun (sh : Service.shard_health) -> sh.Service.alive) h.Service.shards);
      let restarts =
        Array.fold_left (fun acc (sh : Service.shard_health) -> acc + sh.Service.restarts) 0
          h.Service.shards
      in
      Alcotest.(check bool) "the respawn is on the ledger" true (restarts >= 1);
      Alcotest.(check bool) "stats roll restarts up" true
        ((Service.stats service).Service.total.Service.restarts >= 1))

let test_service_pool_self_heal_under_load () =
  (* kill@0 takes a pool worker domain down inside the first service
     execution; the resilient driver must self-heal and the response
     must still be bitwise correct (validated against the reference
     executor), only flagged degraded. *)
  let fault = fault_of_spec "kill@0" in
  with_service ~fault ~validate:true (fun service ->
      match Service.submit service (Service.request ~scale:32 "blur") with
      | Error e -> Alcotest.failf "self-heal failed: %s" (Pmdp_error.to_string e)
      | Ok r ->
          Alcotest.(check bool) "response flagged degraded" true r.Service.degraded;
          Alcotest.(check (option (float 0.0))) "bitwise equal to the reference" (Some 0.0)
            r.Service.max_abs_diff)

let test_service_drain_refuses_new_work () =
  with_service ~batch_window:0.3 (fun service ->
      let id1 = ok_id (Service.submit_async service (Service.request ~scale:32 "blur")) in
      let drainer = Thread.create (fun () -> Service.drain ~timeout:5.0 service) () in
      Thread.delay 0.05;
      Alcotest.(check bool) "health reports draining" true
        (Service.health service).Service.draining;
      (match Service.submit_async service (Service.request ~scale:32 ~seed:2 "blur") with
      | Error (Pmdp_error.Overloaded _ as e) ->
          Alcotest.(check bool) "drain refusal is retryable" true
            (Client.Retry_policy.retryable e)
      | Error e -> Alcotest.failf "wrong error: %s" (Pmdp_error.to_string e)
      | Ok _ -> Alcotest.fail "admitted during drain");
      (match Service.await service id1 with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "in-flight request failed during drain: %s"
            (Pmdp_error.to_string e));
      Thread.join drainer;
      match Service.submit_async service (Service.request ~scale:32 "blur") with
      | Error (Pmdp_error.Pool_shutdown _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Pmdp_error.to_string e)
      | Ok _ -> Alcotest.fail "submit after drain admitted")

let test_service_drain_timeout_retryable () =
  (* A request still queued when the drain deadline passes settles as
     retryable Overloaded — not Cancelled — so a retrying client
     resubmits against the replacement server instead of failing. *)
  let service = Service.create ~workers:2 ~batch_window:0.4 ~machine:xeon () in
  let id1 = ok_id (Service.submit_async service (Service.request ~scale:32 "blur")) in
  Thread.delay 0.05;
  (* different seed = different batch key: stays queued behind id1 *)
  let id2 = ok_id (Service.submit_async service (Service.request ~scale:32 ~seed:2 "blur")) in
  Service.drain ~timeout:0.0 service;
  (match Service.await service id1 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "in-flight request failed: %s" (Pmdp_error.to_string e));
  (match Service.await service id2 with
  | Error (Pmdp_error.Overloaded _ as e) ->
      Alcotest.(check bool) "drained-out request is retryable" true
        (Client.Retry_policy.retryable e)
  | Error e -> Alcotest.failf "wrong error: %s" (Pmdp_error.to_string e)
  | Ok _ -> Alcotest.fail "queued request survived a zero-timeout drain");
  Service.shutdown service

(* ------------------------------------------------------------------ *)
(* Disk-cache chaos: torn/corrupt stores and quarantine recovery *)

let bad_files dir =
  Sys.readdir dir |> Array.to_list |> List.filter (fun f -> Filename.check_suffix f ".bad")

let test_service_quarantine_recovery () =
  let dir = temp_dir "pmdp-quarantine" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  (* torn@0 persists only a prefix of the first envelope; corrupt@1
     persists the second with a wrong digest.  Both submits still
     succeed — the disk cache is write-behind, never load-bearing. *)
  let fault = fault_of_spec "torn@0,corrupt@1" in
  let s1 = Service.create ~workers:2 ~cache_dir:dir ~fault ~machine:xeon () in
  (match Service.submit s1 (Service.request ~scale:32 "blur") with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "submit under torn write failed: %s" (Pmdp_error.to_string e));
  (match Service.submit s1 (Service.request ~scale:32 "unsharp") with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "submit under corrupt write failed: %s" (Pmdp_error.to_string e));
  Service.shutdown s1;
  (* restart clean: the torn file is unparseable (quarantined at scan),
     the corrupt one fails the admission gate's digest check
     (quarantined at warm-load); neither poisons the cache *)
  let s2 = Service.create ~workers:2 ~cache_dir:dir ~machine:xeon () in
  Fun.protect ~finally:(fun () -> Service.shutdown s2) @@ fun () ->
  Alcotest.(check int) "nothing warm-loaded from damaged envelopes" 0
    (total_cache s2).Plan_cache.loads;
  (match (Service.stats s2).Service.disk with
  | Some d -> Alcotest.(check int) "both envelopes quarantined" 2 d.Disk_cache.quarantined
  | None -> Alcotest.fail "disk stats missing");
  Alcotest.(check int) "quarantine files on disk" 2 (List.length (bad_files dir));
  (* both plans recompile cleanly and re-persist *)
  List.iter
    (fun app ->
      match Service.submit s2 (Service.request ~scale:32 app) with
      | Ok r ->
          Alcotest.(check bool) (app ^ " recompiled, not served stale") false r.Service.cache_hit
      | Error e -> Alcotest.failf "%s recompile failed: %s" app (Pmdp_error.to_string e))
    [ "blur"; "unsharp" ];
  Alcotest.(check int) "recompiled both" 2 (total_cache s2).Plan_cache.compiles;
  Service.shutdown s2;
  (* third generation warm-loads the repaired envelopes *)
  let s3 = Service.create ~workers:2 ~cache_dir:dir ~machine:xeon () in
  Fun.protect ~finally:(fun () -> Service.shutdown s3) @@ fun () ->
  Alcotest.(check int) "repaired envelopes warm-load" 2 (total_cache s3).Plan_cache.loads;
  match Service.submit s3 (Service.request ~scale:32 "blur") with
  | Ok r -> Alcotest.(check bool) "served warm after repair" true r.Service.cache_hit
  | Error e -> Alcotest.failf "warm submit failed: %s" (Pmdp_error.to_string e)

(* A full disk never fails a request: the store's temp path is a
   symlink to /dev/full, so the envelope write hits ENOSPC on its last
   flush.  The failure is counted, the first submit is answered, and a
   second submit for the same plan is too (the plan-cache slot is not
   left Building). *)
let test_service_full_disk () =
  if Sys.file_exists "/dev/full" then begin
    let dir = temp_dir "pmdp-full" in
    Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
    let fp = Plan_cache.fingerprint ~app:"blur" ~scale:32 ~scheduler:Scheduler.Dp ~machine:xeon in
    Unix.symlink "/dev/full"
      (Printf.sprintf "%s.tmp.%d" (Filename.concat dir (fp ^ ".plan")) (Unix.getpid ()));
    with_service ~cache_dir:dir (fun service ->
        List.iter
          (fun label ->
            match Service.submit service (Service.request ~scale:32 "blur") with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "%s submit on a full disk: %s" label (Pmdp_error.to_string e))
          [ "first"; "second" ];
        match (Service.stats service).Service.disk with
        | Some d ->
            Alcotest.(check int) "failed write counted" 1 d.Disk_cache.store_failures;
            Alcotest.(check int) "nothing stored" 0 d.Disk_cache.stores
        | None -> Alcotest.fail "disk stats missing")
  end

(* ------------------------------------------------------------------ *)
(* Protocol codecs *)

let test_protocol_request_codec () =
  let r = Service.request ~scale:16 ~scheduler:Scheduler.Greedy ~seed:3 "unsharp" in
  (match Protocol.request_of_json (Protocol.json_of_request r) with
  | Ok r' -> Alcotest.(check bool) "request round trip" true (r = r')
  | Error e -> Alcotest.failf "decode failed: %s" (Pmdp_error.to_string e));
  (* defaults apply for missing optional fields *)
  (match Protocol.request_of_json (Json.Obj [ ("app", Json.String "blur") ]) with
  | Ok r' -> Alcotest.(check bool) "defaults" true (r' = Service.request "blur")
  | Error e -> Alcotest.failf "decode failed: %s" (Pmdp_error.to_string e));
  (* missing app and ill-typed fields are rejected *)
  let rejected j =
    match Protocol.request_of_json j with
    | Error (Pmdp_error.Plan_invalid _) -> ()
    | Error e -> Alcotest.failf "wrong error: %s" (Pmdp_error.to_string e)
    | Ok _ -> Alcotest.fail "bad request decoded"
  in
  rejected (Json.Obj [ ("op", Json.String "submit") ]);
  rejected (Json.Obj [ ("app", Json.String "blur"); ("scale", Json.String "big") ]);
  rejected (Json.Obj [ ("app", Json.String "blur"); ("scheduler", Json.String "nope") ]);
  rejected (Json.Obj [ ("app", Json.String "blur"); ("scale", Json.Int 0) ]);
  (* v2 fields: priority and deadline round trip, bad values rejected *)
  let r2 = Service.request ~scale:16 ~seed:2 ~priority:3 ~deadline:1.5 "blur" in
  (match Protocol.request_of_json (Protocol.json_of_request r2) with
  | Ok r' -> Alcotest.(check bool) "priority/deadline round trip" true (r2 = r')
  | Error e -> Alcotest.failf "decode failed: %s" (Pmdp_error.to_string e));
  rejected (Json.Obj [ ("app", Json.String "blur"); ("priority", Json.String "high") ]);
  rejected (Json.Obj [ ("app", Json.String "blur"); ("deadline", Json.Float 0.0) ]);
  rejected (Json.Obj [ ("app", Json.String "blur"); ("deadline", Json.Float (-1.0)) ])

let test_protocol_error_codec () =
  let errors =
    [
      Pmdp_error.Plan_invalid { context = "c"; reason = "r" };
      Pmdp_error.Arity_mismatch { context = "c"; expected = 2; got = 3 };
      Pmdp_error.Unresolved_external { name = "n"; context = "c" };
      Pmdp_error.Scratch_over_budget { required_bytes = 10; budget_bytes = 5; context = "c" };
      Pmdp_error.Worker_crash { worker = 1; detail = "d" };
      Pmdp_error.Timeout { seconds = 1.5; context = "c" };
      Pmdp_error.Cancelled { reason = "r" };
      Pmdp_error.Pool_shutdown { context = "c" };
      Pmdp_error.Overloaded { shard = 2; depth = 9; limit = 8; context = "c" };
      Pmdp_error.Deadline_exceeded { deadline = 0.5; waited = 0.75; context = "c" };
      Pmdp_error.Circuit_open
        { fingerprint = "0123abcd"; failures = 3; retry_after = 1.5; context = "c" };
      Pmdp_error.Kernel_unavailable { reason = "r"; context = "c" };
    ]
  in
  List.iter
    (fun e ->
      let e' = Protocol.error_of_json (Protocol.json_of_error e) in
      Alcotest.(check bool)
        (Printf.sprintf "%s round trips" (Pmdp_error.kind e))
        true (e = e'))
    errors;
  (* unknown kinds decode to something typed instead of raising *)
  match Protocol.error_of_json (Json.Obj [ ("kind", Json.String "martian") ]) with
  | Pmdp_error.Plan_invalid _ -> ()
  | e -> Alcotest.failf "unexpected decode: %s" (Pmdp_error.to_string e)

(* The member names of a JSON object, sorted; [] for anything else. *)
let keys = function Some (Json.Obj m) -> List.sort compare (List.map fst m) | _ -> []

let counter_keys =
  [
    "batched_requests"; "batches"; "cache"; "completed"; "executions"; "expired"; "failed";
    "inflight_bytes"; "queue_depth"; "rejected"; "restarts"; "shed"; "submitted";
  ]

let test_protocol_stats_json () =
  (* The v2 sharded stats document: one counters object per shard
     (tagged with its index), a field-wise rollup, and the disk-cache
     member (null without --cache-dir).  Key sets are pinned exactly:
     clients read them by name (perfbench's restart check reads
     totals.cache.compiles). *)
  with_service ~shards:2 (fun service ->
      (match Service.submit service (Service.request ~scale:32 "blur") with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "submit failed: %s" (Pmdp_error.to_string e));
      let j = Protocol.json_of_stats (Service.stats service) in
      match Json.of_string (Json.to_string j) with
      | Error e -> Alcotest.failf "stats JSON unparseable: %s" e
      | Ok doc ->
          let shards =
            Option.value ~default:[]
              (Option.bind (Json.member "shards" doc) Json.to_list_opt)
          in
          Alcotest.(check (list string)) "document members"
            [ "breaker"; "disk"; "retune"; "shards"; "totals" ]
            (keys (Some doc));
          Alcotest.(check int) "one counters object per shard" 2 (List.length shards);
          List.iteri
            (fun i s ->
              Alcotest.(check (option int))
                (Printf.sprintf "shard %d tagged with its index" i)
                (Some i)
                (Option.bind (Json.member "shard" s) Json.to_int_opt);
              Alcotest.(check (list string))
                (Printf.sprintf "shard %d members" i)
                (List.sort compare ("shard" :: counter_keys))
                (keys (Some s)))
            shards;
          Alcotest.(check (list string)) "totals members" counter_keys
            (keys (Json.member "totals" doc));
          Alcotest.(check (list string)) "breaker members"
            [ "closes"; "open_now"; "probes"; "rejects"; "tracked"; "trips" ]
            (keys (Json.member "breaker" doc));
          let totals_member name =
            Option.bind
              (Option.bind (Json.member "totals" doc) (Json.member name))
              Json.to_int_opt
          in
          Alcotest.(check (option int)) "totals roll up completions" (Some 1)
            (totals_member "completed");
          Alcotest.(check bool) "totals carry the shed counter" true
            (totals_member "shed" <> None);
          let cache =
            Option.bind (Json.member "totals" doc) (Json.member "cache")
          in
          Alcotest.(check (option int)) "cache rollup carries loads" (Some 0)
            (Option.bind (Option.bind cache (Json.member "loads")) Json.to_int_opt);
          Alcotest.(check (list string)) "cache rollup members"
            [ "compiles"; "entries"; "hits"; "load_rejects"; "loads"; "misses" ]
            (keys cache);
          Alcotest.(check bool) "disk is null without --cache-dir" true
            (Json.member "disk" doc = Some Json.Null));
  let dir = temp_dir "pmdp-stats" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  with_service ~cache_dir:dir (fun service ->
      Alcotest.(check (list string)) "disk members with --cache-dir"
        [ "hits"; "misses"; "quarantined"; "store_failures"; "stores" ]
        (keys (Json.member "disk" (Protocol.json_of_stats (Service.stats service)))))

let test_protocol_health_codec () =
  let h =
    {
      Service.draining = true;
      shards =
        [|
          { Service.shard = 0; alive = true; queue_depth = 2; running = 1; restarts = 0 };
          { Service.shard = 1; alive = false; queue_depth = 0; running = 0; restarts = 3 };
        |];
      breaker =
        { Breaker.trips = 2; rejects = 5; probes = 1; closes = 1; open_now = 1; tracked = 2 };
      circuits =
        [
          { Breaker.fingerprint = "abcd"; state = Breaker.Open; failures = 4; trips = 2 };
          { Breaker.fingerprint = "ef01"; state = Breaker.Half_open; failures = 3; trips = 1 };
        ];
    }
  in
  (match Option.bind (Json.member "shards" (Protocol.json_of_health h)) Json.to_list_opt with
  | Some (row :: _) ->
      Alcotest.(check (list string)) "shard row members"
        [ "alive"; "queue_depth"; "restarts"; "running"; "shard" ]
        (keys (Some row))
  | _ -> Alcotest.fail "encoded health has no shard rows");
  (match Protocol.health_of_json (Protocol.json_of_health h) with
  | Ok h' ->
      Alcotest.(check bool) "draining survives" true h'.Service.draining;
      Alcotest.(check bool) "shards survive" true (h'.Service.shards = h.Service.shards);
      Alcotest.(check bool) "breaker counters survive" true
        (h'.Service.breaker = h.Service.breaker);
      Alcotest.(check bool) "circuits survive" true (h'.Service.circuits = h.Service.circuits)
  | Error e -> Alcotest.failf "health decode failed: %s" (Pmdp_error.to_string e));
  (* malformed frames come back typed, not as exceptions *)
  match Protocol.health_of_json (Json.String "nope") with
  | Error (Pmdp_error.Plan_invalid _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Pmdp_error.to_string e)
  | Ok _ -> Alcotest.fail "malformed health frame decoded"

(* ------------------------------------------------------------------ *)
(* Load generator (in-process) *)

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let test_load_inproc () =
  let service = Service.create ~workers:2 ~machine:xeon () in
  let cfg = Load.config ~clients:3 ~requests:30 ~apps:[ "blur" ] ~scale:32 () in
  let report = Load.run_inproc service cfg in
  Service.shutdown service;
  Alcotest.(check int) "all succeed" 30 report.Load.succeeded;
  Alcotest.(check int) "none fail" 0 report.Load.failed;
  Alcotest.(check bool) "throughput positive" true (report.Load.throughput_rps > 0.0);
  Alcotest.(check bool) "p50 <= p95 <= p99" true
    (report.Load.p50_ms <= report.Load.p95_ms && report.Load.p95_ms <= report.Load.p99_ms);
  Alcotest.(check bool) "cache hits observed" true (report.Load.cache_hits > 0);
  Alcotest.(check int) "one attempt per request (no-retry policy)" 30
    report.Load.retry.Client.attempts;
  Alcotest.(check int) "nothing retried" 0 report.Load.retry.Client.retried;
  (* the report document parses back and carries the percentiles *)
  match Json.of_string (Json.to_string (Load.to_json report)) with
  | Error e -> Alcotest.failf "report JSON unparseable: %s" e
  | Ok doc ->
      List.iter
        (fun key ->
          Alcotest.(check bool) (key ^ " present") true
            (Option.bind (Json.member key doc) Json.to_float_opt <> None))
        [ "throughput_rps"; "p50_ms"; "p95_ms"; "p99_ms" ];
      Alcotest.(check (option int)) "schema version stamped" (Some Load.schema_version)
        (Option.bind (Json.member "schema_version" doc) Json.to_int_opt);
      Alcotest.(check (option int)) "retry totals in the document" (Some 30)
        (Option.bind
           (Option.bind (Json.member "retry" doc) (Json.member "attempts"))
           Json.to_int_opt)

let test_load_inproc_retries_through_faults () =
  (* One dispatcher kill mid-run: the affected requests settle with a
     retryable error, the load generator's retry loop resubmits them,
     and the run still ends with every request succeeding. *)
  let fault = fault_of_spec "shardkill@1" in
  let service = Service.create ~workers:2 ~fault ~machine:xeon () in
  let retry = Client.Retry_policy.create ~max_attempts:6 ~base_delay:0.02 () in
  let cfg = Load.config ~clients:2 ~requests:12 ~apps:[ "blur" ] ~scale:32 ~retry () in
  let report = Load.run_inproc service cfg in
  Service.shutdown service;
  Alcotest.(check int) "every request eventually succeeds" 12 report.Load.succeeded;
  Alcotest.(check int) "none failed for good" 0 report.Load.failed;
  Alcotest.(check bool) "the kill forced at least one retry" true
    (report.Load.retry.Client.retried >= 1);
  Alcotest.(check bool) "attempts exceed requests" true
    (report.Load.retry.Client.attempts > 12);
  Alcotest.(check int) "nothing gave up" 0 report.Load.retry.Client.gave_up

let test_load_write_json_schema () =
  let dir = temp_dir "pmdp-load-json" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let service = Service.create ~workers:2 ~machine:xeon () in
  let report =
    Load.run_inproc service (Load.config ~clients:2 ~requests:4 ~apps:[ "blur" ] ~scale:32 ())
  in
  Service.shutdown service;
  let path = Filename.concat dir "LOAD_test.json" in
  (* fresh file: fine *)
  (match Load.write_json ~path report with
  | Ok () -> ()
  | Error e -> Alcotest.failf "fresh write failed: %s" (Pmdp_error.to_string e));
  (* replacing a same-schema report: fine *)
  (match Load.write_json ~path report with
  | Ok () -> ()
  | Error e -> Alcotest.failf "same-schema rewrite failed: %s" (Pmdp_error.to_string e));
  let refused what content =
    write_file path content;
    match Load.write_json ~path report with
    | Error (Pmdp_error.Plan_invalid _) -> ()
    | Error e -> Alcotest.failf "%s: wrong error: %s" what (Pmdp_error.to_string e)
    | Ok () -> Alcotest.failf "%s overwritten anyway" what
  in
  (* wrong schema version, missing version, foreign document, garbage:
     all refused with the typed Plan_invalid *)
  refused "older-schema report" {|{"kind": "pmdp-load", "schema_version": 1}|};
  refused "versionless report" {|{"kind": "pmdp-load"}|};
  refused "foreign document"
    (Printf.sprintf {|{"kind": "pmdp-bench", "schema_version": %d}|} Load.schema_version);
  refused "unparseable file" "{not json"

(* ------------------------------------------------------------------ *)
(* Bench schema validation (shares the JSON parser) *)

(* A bench case's members, its profile's, and a profile group's are
   pinned exactly: the calibration corpus and the merge read them by
   name, and schema_version 3 promises them. *)
let test_bench_case_keys () =
  let p = blur.Registry.build ~scale:32 in
  let inputs = blur.Registry.inputs ~seed:1 p in
  let reference = Pmdp_exec.Reference.run p ~inputs in
  let spec =
    Pmdp_baselines.Schedulers.schedule Scheduler.Dp (Pmdp_core.Cost_model.default_config xeon) p
  in
  let outcomes =
    Pmdp_bench.Runner.run_spec ~reps:1 ~machine:xeon ~workers:[ 1 ] ~scheduler:Scheduler.Dp
      ~inputs ~reference spec
  in
  match
    Json.of_string
      (Json.to_string (Pmdp_bench.Runner.to_json ~machine:xeon ~scale:32 ~reps:1 outcomes))
  with
  | Error e -> Alcotest.failf "bench JSON unparseable: %s" e
  | Ok doc ->
      let first name j =
        match Option.bind (Json.member name j) Json.to_list_opt with
        | Some (x :: _) -> Some x
        | _ -> None
      in
      let case = first "cases" doc in
      let profile = Option.bind case (Json.member "profile") in
      Alcotest.(check (list string)) "document members"
        [ "cases"; "host_cores"; "machine"; "reps"; "scale"; "schema_version" ]
        (keys (Some doc));
      Alcotest.(check (list string)) "case members"
        [
          "app"; "backend"; "degraded"; "failure"; "group_costs"; "host_wall_seconds";
          "max_abs_diff"; "median_seconds"; "min_seconds"; "n_groups"; "n_tiles"; "profile";
          "resolved_scheduler"; "scheduler"; "simulated"; "valid"; "wall_seconds"; "workers";
        ]
        (keys case);
      Alcotest.(check (list string)) "profile members"
        [ "counters"; "degraded"; "groups"; "pipeline"; "resilience"; "total_seconds"; "workers" ]
        (keys profile);
      Alcotest.(check (list string)) "profile group members"
        [
          "copy_out_bytes"; "group"; "occupancy"; "predicted_cost"; "scratch_bytes"; "stages";
          "tiles"; "wall_seconds";
        ]
        (keys (Option.bind profile (first "groups")));
      Alcotest.(check (list string)) "resilience step members" [ "error"; "step" ]
        (keys (Option.bind profile (first "resilience")))

(* Under tracing, each case's counters cover its own reps only.  The
   sequential timed runs behind the group costs are traced as well, but
   outside every case's counter window. *)
let test_bench_traced_counters () =
  let module Trace = Pmdp_trace.Trace in
  let p = blur.Registry.build ~scale:32 in
  let inputs = blur.Registry.inputs ~seed:1 p in
  let reference = Pmdp_exec.Reference.run p ~inputs in
  let spec =
    Pmdp_baselines.Schedulers.schedule Scheduler.Dp (Pmdp_core.Cost_model.default_config xeon) p
  in
  let reps = 2 in
  Trace.set_enabled true;
  Trace.reset ();
  let outcomes, totals =
    Fun.protect
      ~finally:(fun () ->
        Trace.set_enabled false;
        Trace.reset ())
      (fun () ->
        let outcomes =
          Pmdp_bench.Runner.run_spec ~reps ~machine:xeon ~workers:[ 1; 2 ]
            ~scheduler:Scheduler.Dp ~inputs ~reference spec
        in
        (outcomes, Trace.counter_totals ()))
  in
  let n_tiles = (List.hd outcomes).Pmdp_bench.Runner.n_tiles in
  List.iter
    (fun (o : Pmdp_bench.Runner.outcome) ->
      Alcotest.(check (option int))
        (Printf.sprintf "%d workers: tiles of its own reps" o.workers)
        (Some (reps * n_tiles))
        (List.assoc_opt "tiles" o.counters))
    outcomes;
  Alcotest.(check (option int)) "trace total adds the timed reps"
    (Some ((2 + 1) * reps * n_tiles))
    (List.assoc_opt "tiles" totals)

let test_bench_merge_schema () =
  let dir = Filename.temp_file "pmdp-bench" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "BENCH_test.json" in
  let write () = Pmdp_bench.Runner.write_json ~path ~machine:xeon ~scale:32 ~reps:1 [] in
  (* fresh file: fine *)
  (match write () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "fresh write failed: %s" (Pmdp_error.to_string e));
  (* merging into a valid current-schema file: fine, old cases survive *)
  write_file path
    (Printf.sprintf
       {|{"schema_version": %d, "cases": [{"app": "old", "scheduler": "dp", "workers": 1}]}|}
       Pmdp_bench.Runner.schema_version);
  (match write () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "merge write failed: %s" (Pmdp_error.to_string e));
  (match Json.of_file path with
  | Ok doc ->
      let cases =
        Option.value ~default:[] (Option.bind (Json.member "cases" doc) Json.to_list_opt)
      in
      Alcotest.(check int) "old case survived the merge" 1 (List.length cases)
  | Error e -> Alcotest.failf "merged file unparseable: %s" e);
  (* wrong schema version: typed refusal *)
  write_file path {|{"schema_version": 1, "cases": []}|};
  (match write () with
  | Error (Pmdp_error.Plan_invalid { reason; _ }) ->
      Alcotest.(check bool) "reason names the version" true
        (String.length reason > 0)
  | Error e -> Alcotest.failf "wrong error: %s" (Pmdp_error.to_string e)
  | Ok () -> Alcotest.fail "schema mismatch merged anyway");
  (* missing schema version: typed refusal *)
  write_file path {|{"cases": []}|};
  (match write () with
  | Error (Pmdp_error.Plan_invalid _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Pmdp_error.to_string e)
  | Ok () -> Alcotest.fail "versionless file merged anyway");
  (* unparseable JSON: typed refusal, not an exception *)
  write_file path "{not json";
  (match write () with
  | Error (Pmdp_error.Plan_invalid _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Pmdp_error.to_string e)
  | Ok () -> Alcotest.fail "garbage file merged anyway");
  Sys.remove path;
  Unix.rmdir dir

let () =
  Alcotest.run "pmdp_service"
    [
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick test_json_roundtrip;
          Alcotest.test_case "pretty round trip" `Quick test_json_roundtrip_pretty;
          Alcotest.test_case "numbers" `Quick test_json_numbers;
          Alcotest.test_case "float round trip" `Quick test_json_float_roundtrip;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
          Alcotest.test_case "errors" `Quick test_json_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "plan-cache",
        [
          Alcotest.test_case "fingerprint stable" `Quick test_fingerprint_stable;
          Alcotest.test_case "fingerprint sensitivity" `Quick test_fingerprint_sensitivity;
          Alcotest.test_case "hit/miss accounting" `Quick test_cache_hit_miss;
          Alcotest.test_case "one compile per key" `Quick test_cache_one_compile_per_key;
          Alcotest.test_case "failure cached" `Quick test_cache_failure_cached;
        ] );
      ( "transport",
        [ Alcotest.test_case "endpoint parsing" `Quick test_transport_endpoint_parse ] );
      ( "ring",
        [ Alcotest.test_case "deterministic routing" `Quick test_ring_routing ] );
      ( "disk-cache",
        [
          Alcotest.test_case "envelope round trip" `Quick test_disk_cache_roundtrip;
          Alcotest.test_case "warm restart skips compiles" `Quick test_disk_cache_warm_restart;
          Alcotest.test_case "tampered envelope recompiles" `Quick
            test_disk_cache_tamper_recompile;
          Alcotest.test_case "shares a directory with the kernel store" `Quick
            test_disk_cache_shared_dir;
          Alcotest.test_case "nested puts keep one writer's bytes" `Quick test_store_nested_put;
        ] );
      ( "service",
        [
          Alcotest.test_case "submit + cache hit" `Quick test_service_submit;
          Alcotest.test_case "unknown app" `Quick test_service_unknown_app;
          Alcotest.test_case "over budget" `Quick test_service_over_budget;
          Alcotest.test_case "queue full" `Quick test_service_queue_full;
          Alcotest.test_case "batching" `Quick test_service_batching;
          Alcotest.test_case "await semantics" `Quick test_service_await_semantics;
          Alcotest.test_case "shutdown" `Quick test_service_shutdown;
          Alcotest.test_case "concurrent submits" `Quick test_service_concurrent_submits;
          Alcotest.test_case "backpressure sheds by priority" `Quick test_service_shed_priority;
          Alcotest.test_case "deadline expiry" `Quick test_service_deadline_expiry;
          Alcotest.test_case "sharded submits" `Quick test_service_sharded_submits;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "trip, probe, close" `Quick test_breaker_lifecycle;
          Alcotest.test_case "failed probe re-trips" `Quick test_breaker_probe_failure_retrips;
          Alcotest.test_case "poison plan trips the service" `Quick test_service_breaker_trips;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "health baseline" `Quick test_service_health_baseline;
          Alcotest.test_case "dispatcher respawn" `Quick test_service_supervisor_respawn;
          Alcotest.test_case "pool self-heal under load" `Quick
            test_service_pool_self_heal_under_load;
          Alcotest.test_case "drain refuses new work" `Quick test_service_drain_refuses_new_work;
          Alcotest.test_case "drain timeout is retryable" `Quick
            test_service_drain_timeout_retryable;
          Alcotest.test_case "quarantine recovery" `Quick test_service_quarantine_recovery;
          Alcotest.test_case "full disk never fails a request" `Quick test_service_full_disk;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "request codec" `Quick test_protocol_request_codec;
          Alcotest.test_case "error codec" `Quick test_protocol_error_codec;
          Alcotest.test_case "stats document" `Quick test_protocol_stats_json;
          Alcotest.test_case "health codec" `Quick test_protocol_health_codec;
        ] );
      ( "load",
        [
          Alcotest.test_case "in-process run" `Quick test_load_inproc;
          Alcotest.test_case "retries through faults" `Quick
            test_load_inproc_retries_through_faults;
          Alcotest.test_case "report schema guard" `Quick test_load_write_json_schema;
        ] );
      ( "bench-merge",
        [ Alcotest.test_case "schema validation" `Quick test_bench_merge_schema ] );
      ( "bench-json",
        [
          Alcotest.test_case "case and profile keys" `Quick test_bench_case_keys;
          Alcotest.test_case "traced case counters" `Quick test_bench_traced_counters;
        ] );
    ]

module Scheduler = Pmdp_core.Scheduler
module Machine = Pmdp_machine.Machine
module Registry = Pmdp_apps.Registry
module Tiled_exec = Pmdp_exec.Tiled_exec
module Pmdp_error = Pmdp_util.Pmdp_error
module Trace = Pmdp_trace.Trace

type entry = {
  fingerprint : string;
  resolved : Scheduler.t;
  spec : Pmdp_core.Schedule_spec.t option;
  plan : Tiled_exec.plan;
  ir : Pmdp_plan.t;
  digest : string;
}

(* [Building] is claimed by exactly one requester; everyone else for
   the same key waits on [built] until the slot becomes [Ready].  A
   ready slot keeps the request bindings it was built for, which is
   what a persisted envelope records. *)
type slot = Building | Ready of Disk_cache.meta * (entry, Pmdp_error.t) result

type t = {
  disk : Disk_cache.t option;
  lock : Mutex.t;
  built : Condition.t;
  table : (string, slot) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable compiles : int;
  mutable loads : int;
  mutable load_rejects : int;
}

type stats = {
  hits : int;
  misses : int;
  compiles : int;
  loads : int;
  load_rejects : int;
  entries : int;
}

let create ?disk () =
  {
    disk;
    lock = Mutex.create ();
    built = Condition.create ();
    table = Hashtbl.create 32;
    hits = 0;
    misses = 0;
    compiles = 0;
    loads = 0;
    load_rejects = 0;
  }

let fingerprint ~app ~scale ~scheduler ~(machine : Machine.t) =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "pmdp-plan-v1|app=%s|scale=%d|scheduler=%s|machine=%s|cores=%d" app scale
          (Scheduler.to_string scheduler) machine.Machine.name machine.Machine.cores))

(* Instantiate a plan IR for [pipeline] with the gate every path into
   a Ready slot shares: the claimed digest must match the IR's content
   (tamper/corruption), and the whole-plan static analyzer must pass
   (soundness) — both before any closure is handed out. *)
let admit_ir ~pipeline ~(ir : Pmdp_plan.t) ~digest:claimed =
  let actual = Pmdp_plan.digest ir in
  if actual <> claimed then
    Error
      (Pmdp_error.Plan_invalid
         {
           context = "plan-cache: digest";
           reason =
             Printf.sprintf "plan claims digest %s but its content digests to %s" claimed actual;
         })
  else
    match Pmdp_verify.Verify.check_plan_result pipeline ir with
    | Error e -> Error e
    | Ok () -> Tiled_exec.instantiate_result pipeline ir

let wrap_raises ~context f =
  try f () with
  | Pmdp_error.Error e -> Error e
  | Invalid_argument reason -> Error (Pmdp_error.Plan_invalid { context; reason })
  | e -> Error (Pmdp_error.Plan_invalid { context; reason = Printexc.to_string e })

let build_pipeline (app : Registry.app) ~scale =
  wrap_raises ~context:("plan-cache: " ^ app.Registry.name) (fun () ->
      Ok (app.Registry.build ~scale))

(* Full scheduling + lowering, with every raising boundary folded into
   the typed taxonomy: a cache must return errors, not leak them. *)
let compile ?calib ~fp ~(app : Registry.app) ~pipeline ~scheduler ~machine () =
  wrap_raises ~context:("plan-cache: " ^ app.Registry.name) (fun () ->
      let resolved = Scheduler.for_pipeline scheduler pipeline in
      let spec =
        Pmdp_baselines.Schedulers.schedule resolved
          (Pmdp_core.Cost_model.config_of_machine ?calib machine)
          pipeline
      in
      match Pmdp_plan.of_spec_result spec with
      | Error e -> Error e
      | Ok ir -> (
          let digest = Pmdp_plan.digest ir in
          match admit_ir ~pipeline ~ir ~digest with
          | Error e -> Error e
          | Ok plan -> Ok { fingerprint = fp; resolved; spec = Some spec; plan; ir; digest }))

(* An entry admitted from an externally supplied IR: the gate ran, but
   nothing was scheduled in this process, so there is no spec. *)
let admit_loaded ~fp ~(app : Registry.app) ~pipeline ~scheduler ~ir ~digest =
  wrap_raises ~context:("plan-cache: " ^ app.Registry.name) (fun () ->
      match admit_ir ~pipeline ~ir ~digest with
      | Error e -> Error e
      | Ok plan ->
          let resolved = Scheduler.for_pipeline scheduler pipeline in
          Ok { fingerprint = fp; resolved; spec = None; plan; ir; digest })

let load ~pipeline ~ir ~digest = admit_ir ~pipeline ~ir ~digest

let persist t meta ~fingerprint ~ir =
  Option.iter (fun d -> Disk_cache.store d meta ~fingerprint ~ir) t.disk

(* The persisted plan for [fp] through the gate: [None] when the disk
   holds nothing usable, [Some (Error _)] when it held a plan the gate
   refused — quarantined so it stops shadowing the re-store. *)
let load_persisted t ~fp ~app ~pipeline ~scheduler =
  match t.disk with
  | None -> None
  | Some d ->
      Option.map
        (fun (ir, digest) ->
          let r = admit_loaded ~fp ~app ~pipeline ~scheduler ~ir ~digest in
          if Result.is_error r then
            Disk_cache.quarantine d ~fingerprint:fp ~reason:"plan cache rejected the envelope";
          r)
        (Disk_cache.load d ~fingerprint:fp)

let get t ?calib ~(app : Registry.app) ~scale ~scheduler ~machine () =
  let fp = fingerprint ~app:app.Registry.name ~scale ~scheduler ~machine in
  Mutex.lock t.lock;
  let rec obtain () =
    match Hashtbl.find_opt t.table fp with
    | Some (Ready (_, r)) ->
        t.hits <- t.hits + 1;
        Mutex.unlock t.lock;
        if Trace.on () then Trace.count "service.cache.hit" 1;
        Result.map (fun e -> (e, `Hit)) r
    | Some Building ->
        Condition.wait t.built t.lock;
        obtain ()
    | None ->
        t.misses <- t.misses + 1;
        Hashtbl.replace t.table fp Building;
        Mutex.unlock t.lock;
        if Trace.on () then Trace.count "service.cache.miss" 1;
        (* Outside the lock: try the persisted plan first (one that
           passes the gate skips scheduling entirely), fall back to a
           compile — which is persisted in turn. *)
        let meta = Disk_cache.meta_of_request ~app:app.Registry.name ~scale ~scheduler ~machine in
        let outcome, rejected, r =
          match build_pipeline app ~scale with
          | Error e -> (`Miss, false, Error e)
          | Ok pipeline -> (
              match load_persisted t ~fp ~app ~pipeline ~scheduler with
              | Some (Ok e) -> (`Loaded, false, Ok e)
              | loaded ->
                  let r = compile ?calib ~fp ~app ~pipeline ~scheduler ~machine () in
                  Result.iter (fun e -> persist t meta ~fingerprint:fp ~ir:e.ir) r;
                  (`Miss, Option.is_some loaded, r))
        in
        Mutex.lock t.lock;
        (match outcome with
        | `Loaded -> t.loads <- t.loads + 1
        | `Miss -> t.compiles <- t.compiles + 1);
        if rejected then t.load_rejects <- t.load_rejects + 1;
        Hashtbl.replace t.table fp (Ready (meta, r));
        Condition.broadcast t.built;
        Mutex.unlock t.lock;
        Result.map (fun e -> (e, (outcome :> [ `Hit | `Miss | `Loaded ]))) r
  in
  obtain ()

let preload t ~(app : Registry.app) ~scale ~scheduler ~machine =
  let meta = Disk_cache.meta_of_request ~app:app.Registry.name ~scale ~scheduler ~machine in
  let fp = fingerprint ~app:app.Registry.name ~scale ~scheduler ~machine in
  Mutex.lock t.lock;
  if Hashtbl.mem t.table fp then Mutex.unlock t.lock
  else begin
    Hashtbl.replace t.table fp Building;
    Mutex.unlock t.lock;
    let r =
      match build_pipeline app ~scale with
      | Error e -> Some (Error e)
      | Ok pipeline -> load_persisted t ~fp ~app ~pipeline ~scheduler
    in
    Mutex.lock t.lock;
    (* A rejected warm-load must not poison the slot: leave it empty
       so the first request compiles fresh. *)
    (match r with
    | Some (Ok entry) ->
        t.loads <- t.loads + 1;
        Hashtbl.replace t.table fp (Ready (meta, Ok entry))
    | Some (Error _) ->
        t.load_rejects <- t.load_rejects + 1;
        Hashtbl.remove t.table fp
    | None -> Hashtbl.remove t.table fp);
    Condition.broadcast t.built;
    Mutex.unlock t.lock
  end

(* Atomically replace a Ready slot — the online retuner's swap.  Only
   an existing, successfully built entry may be replaced (a Building
   slot has a requester waiting on it; an absent one means the
   fingerprint was never served here), so a racing eviction or a
   late-arriving tuner loses cleanly.  A swapped plan is persisted
   under the bindings its slot recorded, so it survives a restart. *)
let swap t ~fingerprint ~entry =
  Mutex.lock t.lock;
  let swapped =
    match Hashtbl.find_opt t.table fingerprint with
    | Some (Ready (meta, Ok _)) ->
        Hashtbl.replace t.table fingerprint (Ready (meta, Ok entry));
        Some meta
    | _ -> None
  in
  Mutex.unlock t.lock;
  Option.iter (fun meta -> persist t meta ~fingerprint ~ir:entry.ir) swapped;
  swapped <> None

let stats t =
  Mutex.lock t.lock;
  let entries =
    Hashtbl.fold (fun _ slot acc -> match slot with Ready _ -> acc + 1 | Building -> acc) t.table 0
  in
  let s =
    {
      hits = t.hits;
      misses = t.misses;
      compiles = t.compiles;
      loads = t.loads;
      load_rejects = t.load_rejects;
      entries;
    }
  in
  Mutex.unlock t.lock;
  s

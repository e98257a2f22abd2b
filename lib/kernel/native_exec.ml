module Pipeline = Pmdp_dsl.Pipeline
module Stage = Pmdp_dsl.Stage
module C_emit = Pmdp_codegen.C_emit
module Tiled_exec = Pmdp_exec.Tiled_exec
module Buffer = Pmdp_exec.Buffer
module Reference = Pmdp_exec.Reference
module Resilient = Pmdp_exec.Resilient
module Fault = Pmdp_runtime.Fault
module Pmdp_error = Pmdp_util.Pmdp_error
module Rng = Pmdp_util.Rng
module Trace = Pmdp_trace.Trace

external dl_open : string -> nativeint = "pmdp_dl_open"
external dl_sym : nativeint -> string -> nativeint = "pmdp_dl_sym"

external call_kernel : nativeint -> float array array -> int -> unit = "pmdp_call_kernel"
external alloc_liveout : int -> float array = "pmdp_alloc_liveout"
external charge_major : int -> unit = "pmdp_charge_major"

type kernel = {
  handle : nativeint;
  group_fns : nativeint array;  (* one per plan group, execution order *)
  slots : string list;  (* inputs then live-outs; the bufs vector order *)
}

(* Plans already resolved to an admitted kernel, by identity, so a
   steady run does not re-serialize its plan IR to find the digest.
   Weak in the plan: a dropped plan leaves the memo. *)
module Plan_memo = Ephemeron.K1.Make (struct
  type t = Tiled_exec.plan

  let equal = ( == )
  let hash plan = Hashtbl.hash (Tiled_exec.pipeline plan).Pipeline.name
end)

type stats = {
  compiles : int;
  compile_failures : int;
  validations : int;
  validation_failures : int;
  disk_hits : int;
  runs : int;
  unavailable : int;
}

type t = {
  toolchain : Toolchain.t option;
  cache : Kernel_cache.t option;
  fault : Fault.t option;
  table : (string, kernel) Hashtbl.t;
  plans : kernel Plan_memo.t;
  failed : (string, Pmdp_error.t) Hashtbl.t;
  lock : Mutex.t;
  mutable compiles : int;
  mutable compile_failures : int;
  mutable validations : int;
  mutable validation_failures : int;
  mutable disk_hits : int;
  mutable runs : int;
  mutable unavailable : int;
}

let create ?fault ?cache_dir ?cc () =
  {
    toolchain = Toolchain.probe ?cc ();
    cache = Option.map (fun dir -> Kernel_cache.create ~dir ()) cache_dir;
    fault;
    table = Hashtbl.create 16;
    plans = Plan_memo.create 16;
    failed = Hashtbl.create 16;
    lock = Mutex.create ();
    compiles = 0;
    compile_failures = 0;
    validations = 0;
    validation_failures = 0;
    disk_hits = 0;
    runs = 0;
    unavailable = 0;
  }

let toolchain t = t.toolchain
let cache_stats t = Option.map Kernel_cache.stats t.cache

let stats t =
  Mutex.lock t.lock;
  let s =
    {
      compiles = t.compiles;
      compile_failures = t.compile_failures;
      validations = t.validations;
      validation_failures = t.validation_failures;
      disk_hits = t.disk_hits;
      runs = t.runs;
      unavailable = t.unavailable;
    }
  in
  Mutex.unlock t.lock;
  s

let bump t f =
  Mutex.lock t.lock;
  f t;
  Mutex.unlock t.lock

(* ---- raw execution -------------------------------------------------- *)

(* Run the compiled groups in place on the buffers' float arrays:
   inputs are read through const pointers, live-outs are fresh
   zero-filled arrays (every domain point is covered by some tile's
   copy-out, but zeroing keeps the failure mode of a short write
   deterministic) that the kernels write and the caller receives.

   A run allocates a few large blocks and next to nothing else, so the
   major GC, paced by allocation, falls behind on the short-lived
   live-outs.  Each run charges the bytes of every slot to its pace,
   as an out-of-heap Bigarray per slot would be charged.  On a 2-vCPU
   host the peak RSS of a paper-s8 restart read 96-112 MB so, and
   swung between 100 and 139 MB with only the live-outs charged. *)
let exec_kernel kernel plan ~workers ~inputs =
  let p = Tiled_exec.pipeline plan in
  Reference.check_inputs p inputs;
  let outs = ref [] in
  let bufs =
    Array.of_list
      (List.map
         (fun name ->
           match List.assoc_opt name inputs with
           | Some (b : Buffer.t) -> b.Buffer.data
           | None ->
               let s = Pipeline.stage p (Pipeline.stage_id p name) in
               let b = Buffer.with_data name s.Stage.dims (alloc_liveout (Stage.domain_points s)) in
               outs := (name, b) :: !outs;
               b.Buffer.data)
         kernel.slots)
  in
  charge_major (Array.fold_left (fun acc data -> acc + (8 * Array.length data)) 0 bufs);
  Array.iter (fun fn -> call_kernel fn bufs workers) kernel.group_fns;
  List.rev !outs

(* ---- the validation gate -------------------------------------------- *)

let validation_inputs (p : Pipeline.t) =
  Array.to_list
    (Array.map
       (fun (i : Pipeline.input) ->
         let b = Buffer.create i.Pipeline.in_name i.Pipeline.in_dims in
         let rng = Rng.create (Hashtbl.hash i.Pipeline.in_name) in
         for k = 0 to Array.length b.Buffer.data - 1 do
           b.Buffer.data.(k) <- Rng.float rng 1.0
         done;
         (i.Pipeline.in_name, b))
       p.Pipeline.inputs)

(* Admission: the kernel's live-outs on deterministic inputs must be
   bitwise equal to {!Reference.run}.  Anything else is rejected. *)
let validate t kernel plan =
  bump t (fun t -> t.validations <- t.validations + 1);
  let p = Tiled_exec.pipeline plan in
  let inputs = validation_inputs p in
  let native = exec_kernel kernel plan ~workers:1 ~inputs in
  let worst = Reference.max_abs_diff ~reference:(Reference.run p ~inputs) native in
  if worst = 0.0 then Ok ()
  else begin
    bump t (fun t -> t.validation_failures <- t.validation_failures + 1);
    Error (Printf.sprintf "validation failed: max |native - reference| = %g, not bitwise" worst)
  end

(* ---- admission ------------------------------------------------------ *)

let dlopen_kernel ~n_groups ~slots so_path =
  let handle = dl_open so_path in
  let group_fns = Array.init n_groups (fun gi -> dl_sym handle (C_emit.kernel_symbol gi)) in
  { handle; group_fns; slots }

let try_disk t plan ~kd ~n_groups ~slots =
  match t.cache with
  | None -> None
  | Some cache -> (
      match Kernel_cache.load cache ~kernel_digest:kd ~abi:Pmdp_plan.kernel_abi_version with
      | None -> None
      | Some (so_path, _meta) -> (
          match dlopen_kernel ~n_groups ~slots so_path with
          | exception Failure reason ->
              Kernel_cache.quarantine cache ~kernel_digest:kd ~reason;
              None
          | kernel -> (
              (* Checksummed or not, nothing reaches the executor
                 without passing the gate in this process. *)
              match validate t kernel plan with
              | Ok () ->
                  bump t (fun t -> t.disk_hits <- t.disk_hits + 1);
                  Some kernel
              | Error reason ->
                  Kernel_cache.quarantine cache ~kernel_digest:kd ~reason;
                  None)))

let compile_fresh t plan ~kd ~n_groups ~slots =
  match t.toolchain with
  | None -> Error "no working C compiler (tried $PMDP_CC, cc, gcc, clang)"
  | Some tc -> (
      let p = Tiled_exec.pipeline plan in
      let ir = Tiled_exec.ir plan in
      bump t (fun t -> t.compiles <- t.compiles + 1);
      let src = Filename.temp_file ("pmdp_kernel_" ^ kd) ".c" in
      let so = Filename.temp_file ("pmdp_kernel_" ^ kd) ".so" in
      (* Both are scratch files, removed on every way out from the
         first write on (a stored kernel is a copy in the cache). *)
      Fun.protect ~finally:(fun () ->
          List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ src; so ])
      @@ fun () ->
      Out_channel.with_open_text src (fun oc ->
          output_string oc (C_emit.emit_kernels p ir);
          close_out oc);
      match Toolchain.compile ?fault:t.fault tc ~src ~out:so with
      | Error reason ->
          bump t (fun t -> t.compile_failures <- t.compile_failures + 1);
          Error ("compile failed: " ^ reason)
      | exception Fault.Injected reason ->
          bump t (fun t -> t.compile_failures <- t.compile_failures + 1);
          Error reason
      | Ok () -> (
          match dlopen_kernel ~n_groups ~slots so with
          | exception Failure reason -> Error ("dlopen failed: " ^ reason)
          | kernel -> (
              match validate t kernel plan with
              | Error reason -> Error reason
              | Ok () ->
                  Option.iter
                    (fun cache ->
                      Kernel_cache.store cache ~kernel_digest:kd
                        {
                          Kernel_cache.pipeline = p.Pipeline.name;
                          plan_digest = Pmdp_plan.digest ir;
                          abi = Pmdp_plan.kernel_abi_version;
                          so_md5 = Digest.to_hex (Digest.file so);
                          compiler = tc.Toolchain.version;
                          openmp = tc.Toolchain.openmp;
                          validation = "bitwise";
                          max_abs_diff = 0.0;
                        }
                        ~so_src:so)
                    t.cache;
                  Ok kernel)))

let resolve t plan =
  let ir = Tiled_exec.ir plan in
  let kd = Pmdp_plan.kernel_digest ir in
  Mutex.lock t.lock;
  let hit = Hashtbl.find_opt t.table kd in
  let dead = Hashtbl.find_opt t.failed kd in
  Mutex.unlock t.lock;
  match (hit, dead) with
  | Some k, _ -> Ok k
  | None, Some e -> Error e
  | None, None -> (
      let p = Tiled_exec.pipeline plan in
      let slots = C_emit.kernel_slots p ir in
      let n_groups = Pmdp_plan.n_groups ir in
      let admit () =
        match try_disk t plan ~kd ~n_groups ~slots with
        | Some kernel -> Ok kernel
        | None -> compile_fresh t plan ~kd ~n_groups ~slots
      in
      match (try admit () with e -> Error (Printexc.to_string e)) with
      | Ok kernel ->
          bump t (fun t -> Hashtbl.replace t.table kd kernel);
          if Trace.on () then
            Trace.instant ~cat:"kernel"
              ~args:
                [ ("kernel", Trace.Str kd); ("pipeline", Trace.Str p.Pipeline.name) ]
              "kernel.admitted";
          Ok kernel
      | Error reason ->
          let e = Pmdp_error.Kernel_unavailable { reason; context = "Native_exec" } in
          bump t (fun t ->
              Hashtbl.replace t.failed kd e;
              t.unavailable <- t.unavailable + 1);
          if Trace.on () then
            Trace.instant ~cat:"kernel"
              ~args:[ ("kernel", Trace.Str kd); ("reason", Trace.Str reason) ]
              "kernel.unavailable";
          Error e)

let acquire t plan =
  Mutex.lock t.lock;
  let memo = Plan_memo.find_opt t.plans plan in
  Mutex.unlock t.lock;
  match memo with
  | Some kernel -> Ok kernel
  | None ->
      let r = resolve t plan in
      Result.iter (fun kernel -> bump t (fun t -> Plan_memo.replace t.plans plan kernel)) r;
      r

let run t plan ~workers ~inputs =
  match acquire t plan with
  | Error e -> Pmdp_error.raise_ e
  | Ok kernel ->
      bump t (fun t -> t.runs <- t.runs + 1);
      let body () = exec_kernel kernel plan ~workers ~inputs in
      if not (Trace.on ()) then body ()
      else begin
        Trace.count "kernel.native.runs" 1;
        Trace.with_span ~cat:"kernel"
          ~args:
            [
              ("pipeline", Trace.Str (Tiled_exec.pipeline plan).Pipeline.name);
              ("workers", Trace.Int workers);
            ]
          "kernel.run" body
      end

let install t = Resilient.set_native_runner (Some (fun ~plan ~workers ~inputs -> run t plan ~workers ~inputs))
let uninstall () = Resilient.set_native_runner None

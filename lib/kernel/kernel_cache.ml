module Json = Pmdp_report.Json
module Trace = Pmdp_trace.Trace

type meta = {
  pipeline : string;
  plan_digest : string;
  abi : int;
  so_md5 : string;
  compiler : string;
  openmp : bool;
  validation : string;
  max_abs_diff : float;
}

type stats = {
  stores : int;
  store_failures : int;
  hits : int;
  misses : int;
  quarantined : int;
}

type t = {
  dir : string;
  lock : Mutex.t;
  mutable stores : int;
  mutable store_failures : int;
  mutable hits : int;
  mutable misses : int;
  mutable quarantined : int;
}

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (EEXIST, _, _) -> ()
  end

let default_dir () =
  let base =
    match Sys.getenv_opt "XDG_CACHE_HOME" with
    | Some d when d <> "" -> d
    | _ -> (
        match Sys.getenv_opt "HOME" with
        | Some h when h <> "" -> Filename.concat h ".cache"
        | _ -> Filename.concat (Filename.get_temp_dir_name ()) "pmdp-cache")
  in
  Filename.concat (Filename.concat base "pmdp") "kernels"

let create ~dir () =
  mkdir_p dir;
  if not (Sys.is_directory dir) then
    invalid_arg (Printf.sprintf "Kernel_cache.create: %s is not a directory" dir);
  { dir; lock = Mutex.create (); stores = 0; store_failures = 0; hits = 0; misses = 0;
    quarantined = 0 }

let dir t = t.dir
let so_path t kd = Filename.concat t.dir (kd ^ ".so")
let meta_path t kd = Filename.concat t.dir (kd ^ ".json")

let bump t f =
  Mutex.lock t.lock;
  f t;
  Mutex.unlock t.lock

let json_of_meta m =
  Json.Obj
    [
      ("schema_version", Json.Int 1);
      ("pipeline", Json.String m.pipeline);
      ("plan_digest", Json.String m.plan_digest);
      ("abi", Json.Int m.abi);
      ("so_md5", Json.String m.so_md5);
      ("compiler", Json.String m.compiler);
      ("openmp", Json.Bool m.openmp);
      ("validation", Json.String m.validation);
      ("max_abs_diff", Json.Float m.max_abs_diff);
    ]

let meta_of_json j =
  let str name = Option.bind (Json.member name j) Json.to_string_opt in
  let int name = Option.bind (Json.member name j) Json.to_int_opt in
  let boolean name = Option.bind (Json.member name j) Json.to_bool_opt in
  let flt name = Option.bind (Json.member name j) Json.to_float_opt in
  match
    ( str "pipeline", str "plan_digest", int "abi", str "so_md5", str "compiler",
      boolean "openmp", str "validation" )
  with
  | Some pipeline, Some plan_digest, Some abi, Some so_md5, Some compiler, Some openmp,
    Some validation ->
      Some
        {
          pipeline;
          plan_digest;
          abi;
          so_md5;
          compiler;
          openmp;
          validation;
          max_abs_diff = Option.value (flt "max_abs_diff") ~default:0.0;
        }
  | _ -> None

(* Rename both halves of an entry out of the lookup namespace but keep
   them on disk for inspection — the same .bad convention as
   {!Pmdp_service.Disk_cache}. *)
let quarantine t ~kernel_digest ~reason =
  let moved = ref false in
  List.iter
    (fun path ->
      if Sys.file_exists path then
        match Unix.rename path (path ^ ".bad") with
        | () -> moved := true
        | exception Unix.Unix_error _ -> ())
    [ so_path t kernel_digest; meta_path t kernel_digest ];
  if !moved then begin
    bump t (fun t -> t.quarantined <- t.quarantined + 1);
    if Trace.on () then
      Trace.instant ~cat:"kernel"
        ~args:[ ("kernel", Trace.Str kernel_digest); ("reason", Trace.Str reason) ]
        "kernel_cache.quarantine"
  end

let copy_file src dst =
  In_channel.with_open_bin src (fun ic ->
      let oc = open_out_bin dst in
      let buf = Bytes.create 65536 in
      let rec loop () =
        let n = input ic buf 0 (Bytes.length buf) in
        if n > 0 then begin
          output oc buf 0 n;
          loop ()
        end
      in
      match
        loop ();
        close_out oc
      with
      | () -> ()
      | exception e ->
          close_out_noerr oc;
          raise e)

(* Atomic and best-effort, like every persistent store in the repo:
   temp file + rename for each half, .so first so a crash between the
   two renames leaves a .so without meta — an unusable (and therefore
   harmless) orphan that the next load quarantines. *)
let store t ~kernel_digest meta ~so_src =
  let so_final = so_path t kernel_digest in
  let meta_final = meta_path t kernel_digest in
  let so_tmp = Printf.sprintf "%s.tmp.%d" so_final (Unix.getpid ()) in
  let meta_tmp = Printf.sprintf "%s.tmp.%d" meta_final (Unix.getpid ()) in
  match
    copy_file so_src so_tmp;
    Unix.rename so_tmp so_final;
    Json.to_file meta_tmp (json_of_meta meta);
    Unix.rename meta_tmp meta_final
  with
  | () -> bump t (fun t -> t.stores <- t.stores + 1)
  | exception _ ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ so_tmp; meta_tmp ];
      bump t (fun t -> t.store_failures <- t.store_failures + 1)

let load t ~kernel_digest ~abi =
  let so = so_path t kernel_digest in
  let mp = meta_path t kernel_digest in
  let miss () =
    bump t (fun t -> t.misses <- t.misses + 1);
    None
  in
  let reject reason =
    quarantine t ~kernel_digest ~reason;
    miss ()
  in
  if not (Sys.file_exists mp) then
    if Sys.file_exists so then reject "shared object without metadata" else miss ()
  else if not (Sys.file_exists so) then reject "metadata without shared object"
  else
    match Json.of_file mp with
    | Error e -> reject ("unparseable metadata: " ^ e)
    | Ok j -> (
        match meta_of_json j with
        | None -> reject "metadata missing required fields"
        | Some meta ->
            if meta.abi <> abi then reject (Printf.sprintf "stale ABI %d (want %d)" meta.abi abi)
            else
              let md5 = try Digest.to_hex (Digest.file so) with _ -> "" in
              if md5 <> meta.so_md5 then
                reject
                  (Printf.sprintf "shared object checksum %s does not match recorded %s"
                     (if md5 = "" then "<unreadable>" else md5)
                     meta.so_md5)
              else begin
                bump t (fun t -> t.hits <- t.hits + 1);
                Some (so, meta)
              end)

let stats t =
  Mutex.lock t.lock;
  let s =
    {
      stores = t.stores;
      store_failures = t.store_failures;
      hits = t.hits;
      misses = t.misses;
      quarantined = t.quarantined;
    }
  in
  Mutex.unlock t.lock;
  s

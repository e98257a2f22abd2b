module Trace = Pmdp_trace.Trace

type stats = {
  stores : int;
  store_failures : int;
  hits : int;
  misses : int;
  quarantined : int;
}

type t = { dir : string; lock : Mutex.t; mutable stats : stats }

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (EEXIST, _, _) -> ()
  end

let create ~dir () =
  mkdir_p dir;
  if not (Sys.is_directory dir) then
    invalid_arg (Printf.sprintf "Store.create: %s is not a directory" dir);
  {
    dir;
    lock = Mutex.create ();
    stats = { stores = 0; store_failures = 0; hits = 0; misses = 0; quarantined = 0 };
  }

let path t name = Filename.concat t.dir name
let count t f = Mutex.protect t.lock (fun () -> t.stats <- f t.stats)
let stats t = Mutex.protect t.lock (fun () -> t.stats)

(* Temp paths held by the puts running in this process.  A put takes
   [<name>.tmp.<pid>], or [<name>.tmp.<pid>.<k>] with the least free
   [k] while another put of the same file is still writing (a put
   nested in a writer, two stores on one directory): two puts sharing
   a temp file would truncate each other's bytes and rename a mix of
   both into place. *)
let writing = Hashtbl.create 8
let writing_lock = Mutex.create ()

let claim base =
  Mutex.protect writing_lock (fun () ->
      let rec free k =
        let tmp = if k = 0 then base else Printf.sprintf "%s.%d" base k in
        if Hashtbl.mem writing tmp then free (k + 1)
        else begin
          Hashtbl.add writing tmp ();
          tmp
        end
      in
      free 0)

(* Each file is renamed into place only after its channel closed
   cleanly, so no reader ever sees a partial file under a final name.
   [close_out] runs in the body, where a failed last flush (ENOSPC)
   raises the plain [Sys_error] counted below; the finally only
   releases the descriptor on that path. *)
let put t files =
  let files =
    List.map
      (fun (name, fill) ->
        (name, fill, claim (Printf.sprintf "%s.tmp.%d" (path t name) (Unix.getpid ()))))
      files
  in
  let write (name, fill, tmp) =
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        fill oc;
        close_out oc);
    Unix.rename tmp (path t name)
  in
  let release () =
    Mutex.protect writing_lock (fun () ->
        List.iter (fun (_, _, tmp) -> Hashtbl.remove writing tmp) files)
  in
  Fun.protect ~finally:release (fun () ->
      match List.iter write files with
      | () -> count t (fun s -> { s with stores = s.stores + 1 })
      | exception (Sys_error _ | Unix.Unix_error _) ->
          List.iter (fun (_, _, tmp) -> try Sys.remove tmp with Sys_error _ -> ()) files;
          count t (fun s -> { s with store_failures = s.store_failures + 1 }))

let quarantine t names ~reason =
  let moved =
    List.filter
      (fun name ->
        let file = path t name in
        Sys.file_exists file
        &&
        try
          Unix.rename file (file ^ ".bad");
          true
        with Unix.Unix_error _ -> false)
      names
  in
  if moved <> [] then begin
    count t (fun s -> { s with quarantined = s.quarantined + 1 });
    if Trace.on () then begin
      Trace.count "store.quarantine" 1;
      Trace.instant ~cat:"store"
        ~args:[ ("files", Trace.Str (String.concat " " moved)); ("reason", Trace.Str reason) ]
        "store.quarantine"
    end
  end

let tally t found =
  count t (fun s ->
      if Option.is_some found then { s with hits = s.hits + 1 }
      else { s with misses = s.misses + 1 });
  found

let list t ~suffix =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter_map (fun name ->
             if Filename.check_suffix name suffix then Some (Filename.chop_suffix name suffix)
             else None)
      |> List.sort compare

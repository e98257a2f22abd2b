module Fault = Pmdp_runtime.Fault

type t = { cc : string; openmp : bool; version : string }

(* One flag set everywhere: -ffp-contract=off forbids fused
   multiply-adds, which would otherwise round differently from the
   interpreter's one-operation-at-a-time double arithmetic and break
   the bitwise validation gate. *)
let base_flags = "-O2 -shared -fPIC -ffp-contract=off"

let flags t = base_flags ^ if t.openmp then " -fopenmp" else ""

let first_line_of cmd =
  try
    let ic = Unix.open_process_in (cmd ^ " 2>/dev/null") in
    let line = try input_line ic with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    line
  with _ -> ""

let probe_one cc =
  if Sys.command (Printf.sprintf "command -v %s > /dev/null 2>&1" (Filename.quote cc)) <> 0
  then None
  else begin
    let src = Filename.temp_file "pmdp_probe" ".c" in
    let so = Filename.temp_file "pmdp_probe" ".so" in
    let oc = open_out src in
    output_string oc "int pmdp_probe(void) { return 42; }\n";
    close_out oc;
    let ok extra =
      Sys.command
        (Printf.sprintf "%s %s%s %s -o %s > /dev/null 2>&1" (Filename.quote cc) base_flags
           extra (Filename.quote src) (Filename.quote so))
      = 0
    in
    let works = ok "" in
    let openmp = works && ok " -fopenmp" in
    (try Sys.remove src with Sys_error _ -> ());
    (try Sys.remove so with Sys_error _ -> ());
    if works then
      Some { cc; openmp; version = first_line_of (Filename.quote cc ^ " --version") }
    else None
  end

let probe ?cc () =
  let candidates =
    match cc with
    | Some c -> [ c ]
    | None -> (
        (match Sys.getenv_opt "PMDP_CC" with Some c when c <> "" -> [ c ] | _ -> [])
        @ [ "cc"; "gcc"; "clang" ])
  in
  List.find_map probe_one candidates

let read_all path =
  try
    let ic = open_in_bin path in
    let n = min (in_channel_length ic) 2000 in
    let s = really_input_string ic n in
    close_in ic;
    s
  with _ -> ""

let compile ?fault t ~src ~out =
  Option.iter Fault.kernel_tick fault;
  let err = Filename.temp_file "pmdp_cc" ".err" in
  let rc =
    Sys.command
      (Printf.sprintf "%s %s %s -o %s -lm 2> %s" (Filename.quote t.cc) (flags t)
         (Filename.quote src) (Filename.quote out) (Filename.quote err))
  in
  let diagnostics = String.trim (read_all err) in
  (try Sys.remove err with Sys_error _ -> ());
  if rc = 0 then Ok ()
  else
    Error
      (Printf.sprintf "%s exited with %d%s" t.cc rc
         (if diagnostics = "" then "" else ": " ^ diagnostics))

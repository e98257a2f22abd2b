module Json = Pmdp_report.Json
module Store = Pmdp_runtime.Store

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

type stats = Store.stats = {
  stores : int;
  store_failures : int;
  hits : int;
  misses : int;
  quarantined : int;
}

type t = Store.t

let create ~dir () = Store.create ~dir ()
let so_file kd = kd ^ ".so"
let meta_file kd = kd ^ ".json"

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

let quarantine t ~kernel_digest ~reason =
  Store.quarantine t [ so_file kernel_digest; meta_file kernel_digest ] ~reason

(* The .so goes first, so a crash or a failed metadata write after its
   rename leaves a .so without metadata — an unusable (and therefore
   harmless) orphan that the next load quarantines. *)
let store t ~kernel_digest meta ~so_src =
  Store.put t
    [
      ( so_file kernel_digest,
        fun oc -> output_string oc (In_channel.with_open_bin so_src In_channel.input_all) );
      ( meta_file kernel_digest,
        fun oc -> output_string oc (Json.to_string_pretty (json_of_meta meta)) );
    ]

let load t ~kernel_digest ~abi =
  let so = Store.path t (so_file kernel_digest) in
  let mp = Store.path t (meta_file kernel_digest) in
  let reject reason =
    quarantine t ~kernel_digest ~reason;
    None
  in
  Store.tally t
    (if not (Sys.file_exists mp) then
       if Sys.file_exists so then reject "shared object without metadata" else None
     else if not (Sys.file_exists so) then reject "metadata without shared object"
     else
       match Json.of_file mp with
       | Error e -> reject ("unparseable metadata: " ^ e)
       | Ok j -> (
           match meta_of_json j with
           | None -> reject "metadata missing required fields"
           | Some meta ->
               if meta.abi <> abi then
                 reject (Printf.sprintf "stale ABI %d (want %d)" meta.abi abi)
               else
                 let md5 = try Digest.to_hex (Digest.file so) with _ -> "" in
                 if md5 <> meta.so_md5 then
                   reject
                     (Printf.sprintf "shared object checksum %s does not match recorded %s"
                        (if md5 = "" then "<unreadable>" else md5)
                        meta.so_md5)
                 else Some (so, meta)))

let stats = Store.stats

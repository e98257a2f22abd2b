module Json = Pmdp_report.Json
module Scheduler = Pmdp_core.Scheduler
module Machine = Pmdp_machine.Machine
module Fault = Pmdp_runtime.Fault
module Store = Pmdp_runtime.Store

type meta = {
  app : string;
  scale : int;
  scheduler : Scheduler.t;
  machine : string;
  cores : int;
}

type stats = Store.stats = {
  stores : int;
  store_failures : int;
  hits : int;
  misses : int;
  quarantined : int;
}

type t = { store : Store.t; fault : Fault.t option }

let create ?fault ~dir () = { store = Store.create ~dir (); fault }

(* The kernel store's metadata is <kernel_digest>.json; a suffix of
   our own keeps the two stores' files apart in a shared directory. *)
let suffix = ".plan"
let file fingerprint = fingerprint ^ suffix

let meta_of_request ~app ~scale ~scheduler ~(machine : Machine.t) =
  { app; scale; scheduler; machine = machine.Machine.name; cores = machine.Machine.cores }

let json_of_meta m =
  Json.Obj
    [
      ("app", Json.String m.app);
      ("scale", Json.Int m.scale);
      ("scheduler", Json.String (Scheduler.to_string m.scheduler));
      ("machine", Json.String m.machine);
      ("cores", Json.Int m.cores);
    ]

let meta_of_json j =
  let int name = Option.bind (Json.member name j) Json.to_int_opt in
  let str name = Option.bind (Json.member name j) Json.to_string_opt in
  match (str "app", int "scale", str "scheduler", str "machine", int "cores") with
  | Some app, Some scale, Some sch, Some machine, Some cores -> (
      match Scheduler.of_string sch with
      | Some scheduler -> Some { app; scale; scheduler; machine; cores }
      | None -> None)
  | _ -> None

(* The file is the PR 6 plan envelope — {schema_version, digest, plan},
   the format Pmdp_plan.read parses — extended with a "request" member
   recording the bindings the fingerprint was computed from, so a
   restarted server can re-derive the pipeline to admit the plan
   against. *)
let store t meta ~fingerprint ~(ir : Pmdp_plan.t) =
  (* Chaos hooks model the two silent ways a write goes bad: a torn
     write persists only a prefix (power cut between write and fsync),
     a corrupt write persists well-formed JSON whose claimed digest is
     wrong (bit rot, buggy serializer).  Both count as stores — the
     writer believed it succeeded; detection is the reader's job. *)
  let directive = match t.fault with Some f -> Fault.store_tick f | None -> `Pass in
  let digest =
    match directive with
    | `Corrupt -> "corrupt-" ^ Pmdp_plan.digest ir
    | `Pass | `Torn -> Pmdp_plan.digest ir
  in
  let doc =
    Json.Obj
      [
        ("schema_version", Json.Int 1);
        ("digest", Json.String digest);
        ("request", json_of_meta meta);
        ("plan", Pmdp_plan.to_json ir);
      ]
  in
  Store.put t.store
    [
      ( file fingerprint,
        fun oc ->
          match directive with
          | `Pass | `Corrupt -> output_string oc (Json.to_string_pretty doc)
          | `Torn ->
              let s = Json.to_string doc in
              output_string oc (String.sub s 0 (String.length s / 2)) );
    ]

let quarantine t ~fingerprint ~reason = Store.quarantine t.store [ file fingerprint ] ~reason

let parse_file file =
  match Json.of_file file with
  | Error e -> Error e
  | Ok j -> (
      match
        ( Option.bind (Json.member "digest" j) Json.to_string_opt,
          Option.map Pmdp_plan.of_json (Json.member "plan" j),
          Option.bind (Json.member "request" j) meta_of_json )
      with
      | Some digest, Some (Ok ir), Some meta -> Ok (ir, digest, meta)
      | Some _, Some (Error e), _ -> Error e
      | _ -> Error "expected an envelope with digest, plan, and request members")

let load t ~fingerprint =
  let path = Store.path t.store (file fingerprint) in
  Store.tally t.store
    (if not (Sys.file_exists path) then None
     else
       match parse_file path with
       | Ok (ir, digest, _) -> Some (ir, digest)
       | Error _ ->
           (* Unparseable is indistinguishable from absent for the caller
              (the plan cache falls back to compiling), but the file is
              quarantined so the next store is not shadowed by it. *)
           quarantine t ~fingerprint ~reason:"load: unparseable envelope";
           None)

let scan t =
  Store.list t.store ~suffix
  |> List.filter_map (fun fingerprint ->
         match parse_file (Store.path t.store (file fingerprint)) with
         | Ok (_, _, meta) -> Some (fingerprint, meta)
         | Error _ ->
             quarantine t ~fingerprint ~reason:"scan: unparseable envelope";
             None)

let stats t = Store.stats t.store

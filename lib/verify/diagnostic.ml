type pass = Legality | Bounds | Race | Lint | Plan
type severity = Error | Warning

type t = {
  pass : pass;
  severity : severity;
  kind : string;
  group : int option;
  stage : string option;
  dim : int option;
  detail : string;
}

let make pass severity ~kind ?group ?stage ?dim detail =
  { pass; severity; kind; group; stage; dim; detail }

let pass_name = function
  | Legality -> "legality"
  | Bounds -> "bounds"
  | Race -> "race"
  | Lint -> "lint"
  | Plan -> "plan"

let severity_name = function Error -> "error" | Warning -> "warning"
let errors ds = List.filter (fun d -> d.severity = Error) ds
let warnings ds = List.filter (fun d -> d.severity = Warning) ds

let pp ppf d =
  Format.fprintf ppf "%s %s/%s" (severity_name d.severity) (pass_name d.pass) d.kind;
  Option.iter (fun g -> Format.fprintf ppf " group=%d" g) d.group;
  Option.iter (fun s -> Format.fprintf ppf " stage=%s" s) d.stage;
  Option.iter (fun k -> Format.fprintf ppf " dim=%d" k) d.dim;
  Format.fprintf ppf ": %s" d.detail

let to_string d = Format.asprintf "%a" pp d

let summary ds =
  Printf.sprintf "%d error(s), %d warning(s)" (List.length (errors ds))
    (List.length (warnings ds))

let to_json d =
  let module J = Pmdp_report.Json in
  let opt f = function Some v -> f v | None -> J.Null in
  J.Obj
    [
      ("severity", J.String (severity_name d.severity));
      ("pass", J.String (pass_name d.pass));
      ("failure_kind", J.String d.kind);
      ("group", opt (fun g -> J.Int g) d.group);
      ("stage", opt (fun s -> J.String s) d.stage);
      ("dim", opt (fun k -> J.Int k) d.dim);
      ("detail", J.String d.detail);
    ]

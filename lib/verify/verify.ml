let check_pipeline = Lint.check_pipeline

let check_schedule spec =
  Legality.check spec @ Bounds.check spec @ Race.check spec @ Lint.check_schedule spec

let errors = Diagnostic.errors
let is_clean ds = errors ds = []

let check_legality spec =
  match errors (Legality.check spec @ Race.check spec) with
  | [] -> Ok ()
  | d :: _ -> Error d

let check_plan = Plan_check.check

let check_plan_result ?budget ?workers p ir =
  match errors (check_plan ?budget ?workers p ir) with
  | [] -> Ok ()
  | d :: _ as errs ->
      Error
        (Pmdp_util.Pmdp_error.Plan_invalid
           {
             context = Printf.sprintf "Verify.check_plan (%d error(s))" (List.length errs);
             reason = Diagnostic.to_string d;
           })

type t = Dp | Dp_inc | Greedy | Autotune | Halide | Manual

let all = [ Dp; Dp_inc; Greedy; Autotune; Halide; Manual ]

let to_string = function
  | Dp -> "dp"
  | Dp_inc -> "dp-inc"
  | Greedy -> "greedy"
  | Autotune -> "autotune"
  | Halide -> "halide"
  | Manual -> "manual"

let of_string s =
  let s = String.lowercase_ascii (String.trim s) in
  List.find_opt (fun sch -> to_string sch = s) all

let names () = String.concat ", " (List.map to_string all)

let for_pipeline sch p =
  match sch with
  | Dp when Pmdp_dsl.Pipeline.n_stages p >= 30 -> Dp_inc
  | sch -> sch

let schedule sch config p =
  match for_pipeline sch p with
  | Dp -> fst (Schedule_spec.dp config p)
  | Dp_inc ->
      let inc = Inc_grouping.run ~initial_limit:8 ~config p in
      Schedule_spec.of_grouping config p inc.Inc_grouping.groups
  | Greedy | Autotune | Halide | Manual ->
      invalid_arg
        ("Scheduler.schedule: " ^ to_string sch
       ^ " is a baseline; dispatch through Pmdp_baselines.Schedulers.schedule")

module Pipeline = Pmdp_dsl.Pipeline
module Dag = Pmdp_dag.Dag
module Group_analysis = Pmdp_analysis.Group_analysis
module Footprint = Pmdp_analysis.Footprint

type group = { stages : int list; tile_sizes : int array }
type t = { pipeline : Pipeline.t; groups : group list }

let check_partition p groups =
  let all = List.sort compare (List.concat groups) in
  if all <> List.init (Pipeline.n_stages p) Fun.id then
    invalid_arg "Schedule_spec: grouping is not a partition of the pipeline stages"

(* Order groups topologically (producers before consumers). *)
let topo_groups p (groups : group list) =
  let arr = Array.of_list groups in
  let color = Array.make (Pipeline.n_stages p) 0 in
  Array.iteri (fun gi g -> List.iter (fun s -> color.(s) <- gi) g.stages) arr;
  let qdag, _ = Dag.quotient p.Pipeline.dag color in
  let order = Dag.topo_sort qdag in
  List.map (fun gi -> arr.(gi)) order

let default_tiles_for config p stages =
  let v = Cost_model.cost config p stages in
  if v.Cost_model.cost < infinity then Some v.Cost_model.tile_sizes else None

let rec assign config p stages =
  match default_tiles_for config p stages with
  | Some tiles -> [ { stages; tile_sizes = tiles } ]
  | None -> (
      match stages with
      | [ _ ] ->
          (* A singleton is always analyzable; if the cost model ever
             returns infinity here it is a bug upstream. *)
          invalid_arg "Schedule_spec: singleton stage deemed unfusable"
      | _ -> List.concat_map (fun s -> assign config p [ s ]) stages)

let of_grouping config p grouping =
  check_partition p grouping;
  let groups = List.concat_map (fun g -> assign config p g) grouping in
  { pipeline = p; groups = topo_groups p groups }

let fit_tiles (ga : Group_analysis.t) tiles =
  let n = ga.Group_analysis.n_dims in
  let fitted =
    Array.init n (fun g ->
        let from_end = n - 1 - g in
        let src = Array.length tiles - 1 - from_end in
        if src >= 0 then tiles.(src) else Group_analysis.dim_extent ga g)
  in
  Footprint.clamp_tile ga fitted

let rec with_tiles_group p (stages, tiles) =
  match Group_analysis.analyze p stages with
  | Ok ga -> [ { stages; tile_sizes = fit_tiles ga tiles } ]
  | Error _ -> (
      match stages with
      | [ _ ] -> invalid_arg "Schedule_spec: singleton stage failed analysis"
      | _ -> List.concat_map (fun s -> with_tiles_group p ([ s ], tiles)) stages)

let with_tiles p specs =
  check_partition p (List.map fst specs);
  let groups = List.concat_map (with_tiles_group p) specs in
  { pipeline = p; groups = topo_groups p groups }

let dp config p =
  let outcome = Dp_grouping.run ~config p in
  (of_grouping config p outcome.Dp_grouping.groups, outcome)

let n_groups t = List.length t.groups

let validate t =
  check_partition t.pipeline (List.map (fun g -> g.stages) t.groups);
  List.iter
    (fun g ->
      if g.stages <> [] && Array.length g.tile_sizes = 0 then
        invalid_arg "Schedule_spec.validate: empty tile-size array for nonempty group";
      Array.iter
        (fun ts ->
          if ts <= 0 then
            invalid_arg
              (Printf.sprintf "Schedule_spec.validate: non-positive tile size %d" ts))
        g.tile_sizes)
    t.groups;
  (* Groups must appear in topological order. *)
  let seen = Array.make (Pipeline.n_stages t.pipeline) false in
  List.iter
    (fun g ->
      List.iter
        (fun s ->
          List.iter
            (fun prod ->
              if (not seen.(prod)) && not (List.mem prod g.stages) then
                invalid_arg "Schedule_spec.validate: group order violates dependences")
            (Pipeline.producers t.pipeline s))
        g.stages;
      List.iter (fun s -> seen.(s) <- true) g.stages)
    t.groups

let pp ppf t =
  Format.fprintf ppf "@[<v>schedule for %s (%d groups)@," t.pipeline.Pipeline.name
    (List.length t.groups);
  List.iteri
    (fun i g ->
      Format.fprintf ppf "  group %d: {%s} tiles=[%s]@," i
        (String.concat ","
           (List.map
              (fun s -> (Pipeline.stage t.pipeline s).Pmdp_dsl.Stage.name)
              g.stages))
        (String.concat "x" (Array.to_list (Array.map string_of_int g.tile_sizes))))
    t.groups;
  Format.fprintf ppf "@]"

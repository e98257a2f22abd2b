module Pipeline = Pmdp_dsl.Pipeline
module Stage = Pmdp_dsl.Stage
module Dag = Pmdp_dag.Dag

let check_inputs (p : Pipeline.t) inputs =
  Array.iter
    (fun (i : Pipeline.input) ->
      match List.assoc_opt i.Pipeline.in_name inputs with
      | None -> invalid_arg ("Reference.run: missing input " ^ i.Pipeline.in_name)
      | Some b ->
          if
            Array.length b.Buffer.dims <> Array.length i.Pipeline.in_dims
            || not
                 (Array.for_all2
                    (fun (a : Stage.dim) (c : Stage.dim) ->
                      a.Stage.extent = c.Stage.extent && a.Stage.lo = c.Stage.lo)
                    b.Buffer.dims i.Pipeline.in_dims)
          then invalid_arg ("Reference.run: input shape mismatch for " ^ i.Pipeline.in_name))
    p.Pipeline.inputs

(* Iterate a stage's full domain (plus reduction domain) evaluating
   its compiled body; shared by all sequential executors. *)
let compute_stage_full (stage : Stage.t) env compiled (out : Buffer.t) =
  let nd = Stage.ndims stage in
  let vars = Array.make (Stage.n_iter_vars stage) 0 in
  match stage.Stage.def with
  | Stage.Pointwise _ ->
      let rec go d off =
        if d = nd then out.Buffer.data.(off) <- compiled env vars
        else
          let dim = stage.Stage.dims.(d) in
          for x = dim.Stage.lo to dim.Stage.lo + dim.Stage.extent - 1 do
            vars.(d) <- x;
            go (d + 1) (off + ((x - dim.Stage.lo) * out.Buffer.stride.(d)))
          done
      in
      go 0 0
  | Stage.Reduction { op; init; rdom; _ } ->
      let nr = Array.length rdom in
      let fold =
        match op with
        | Stage.Rsum -> ( +. )
        | Stage.Rmax -> Float.max
        | Stage.Rmin -> Float.min
      in
      let rec red r acc =
        if r = nr then fold acc (compiled env vars)
        else begin
          let lo, ext = rdom.(r) in
          let acc = ref acc in
          for x = lo to lo + ext - 1 do
            vars.(nd + r) <- x;
            acc := red (r + 1) !acc
          done;
          !acc
        end
      in
      let rec go d off =
        if d = nd then out.Buffer.data.(off) <- red 0 init
        else
          let dim = stage.Stage.dims.(d) in
          for x = dim.Stage.lo to dim.Stage.lo + dim.Stage.extent - 1 do
            vars.(d) <- x;
            go (d + 1) (off + ((x - dim.Stage.lo) * out.Buffer.stride.(d)))
          done
      in
      go 0 0

let run (p : Pipeline.t) ~inputs =
  check_inputs p inputs;
  let results : (string, Buffer.t) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun (name, b) -> Hashtbl.replace results name b) inputs;
  let order = Dag.topo_sort p.Pipeline.dag in
  List.iter
    (fun sid ->
      let stage = Pipeline.stage p sid in
      let slots, compiled = Compile.compile_stage stage in
      let env =
        Array.map
          (fun name ->
            match Hashtbl.find_opt results name with
            | Some b -> Compile.view_of_buffer b
            | None -> invalid_arg ("Reference.run: unresolved name " ^ name))
          slots
      in
      let out = Buffer.of_stage stage in
      compute_stage_full stage env compiled out;
      Hashtbl.replace results stage.Stage.name out)
    order;
  Array.to_list
    (Array.map
       (fun (s : Stage.t) -> (s.Stage.name, Hashtbl.find results s.Stage.name))
       p.Pipeline.stages)

let outputs_only (p : Pipeline.t) results =
  List.filter_map
    (fun sid ->
      let name = (Pipeline.stage p sid).Stage.name in
      Option.map (fun b -> (name, b)) (List.assoc_opt name results))
    p.Pipeline.outputs

let max_abs_diff ~reference results =
  List.fold_left
    (fun acc (name, b) ->
      match List.assoc_opt name reference with
      | Some r -> Float.max acc (Buffer.max_abs_diff b r)
      | None -> acc)
    0.0 results

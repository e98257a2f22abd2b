module Pipeline = Pmdp_dsl.Pipeline
module Stage = Pmdp_dsl.Stage
module Expr = Pmdp_dsl.Expr
module Rational = Pmdp_util.Rational
module Footprint = Pmdp_analysis.Footprint
module Schedule_spec = Pmdp_core.Schedule_spec

let bytes_per_elem = Footprint.bytes_per_elem
let ceil_div a b = if a >= 0 then (a + b - 1) / b else -((-a) / b)
let floor_div a b = if a >= 0 then a / b else -(((-a) + b - 1) / b)

(* A named address range with row-major strides over a box. *)
type region = {
  base : int;  (* byte address of box origin *)
  lo : int array;
  hi : int array;
  stride : int array;  (* element strides *)
}

let region_of_dims base (dims : Stage.dim array) =
  let n = Array.length dims in
  let stride = Array.make n 1 in
  for d = n - 2 downto 0 do
    stride.(d) <- stride.(d + 1) * dims.(d + 1).Stage.extent
  done;
  {
    base;
    lo = Array.map (fun d -> d.Stage.lo) dims;
    hi = Array.map (fun d -> d.Stage.lo + d.Stage.extent - 1) dims;
    stride;
  }

let addr_of region idx =
  let off = ref 0 in
  for d = 0 to Array.length region.stride - 1 do
    let x = idx.(d) in
    let x = if x < region.lo.(d) then region.lo.(d) else if x > region.hi.(d) then region.hi.(d) else x in
    off := !off + ((x - region.lo.(d)) * region.stride.(d))
  done;
  region.base + (!off * bytes_per_elem)

let dims_size (dims : Stage.dim array) =
  Array.fold_left (fun acc d -> acc * d.Stage.extent) 1 dims

(* Evaluate a coordinate for the trace: exact for affine coords,
   producer-dimension midpoint for data-dependent ones. *)
let eval_coord coord vars mid =
  match coord with
  | Expr.Cvar { var; scale; offset } ->
      let p = scale.Rational.num * offset.Rational.den in
      let q = offset.Rational.num * scale.Rational.den in
      let r = scale.Rational.den * offset.Rational.den in
      floor_div ((p * vars.(var)) + q) r
  | Expr.Cdyn _ -> mid

let run ?max_tiles (spec : Schedule_spec.t) ~hierarchy =
  let p = spec.Schedule_spec.pipeline in
  let ir = Pmdp_plan.of_spec spec in
  (* Assign full-buffer address ranges: inputs first, then each
     group's live-outs in schedule order. *)
  let next = ref 0 in
  let alloc bytes =
    let base = !next in
    next := (!next + bytes + 63) / 64 * 64;
    base
  in
  let full : (string, region) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun (i : Pipeline.input) ->
      Hashtbl.replace full i.Pipeline.in_name
        (region_of_dims (alloc (dims_size i.Pipeline.in_dims * bytes_per_elem)) i.Pipeline.in_dims))
    p.Pipeline.inputs;
  Array.iter
    (fun (g : Pmdp_plan.group) ->
      Array.iter
        (fun (m : Pmdp_plan.member) ->
          if m.Pmdp_plan.liveout then begin
            let stage = Pipeline.stage p m.Pmdp_plan.sid in
            Hashtbl.replace full stage.Stage.name
              (region_of_dims (alloc (dims_size stage.Stage.dims * bytes_per_elem)) stage.Stage.dims)
          end)
        g.Pmdp_plan.members)
    ir.Pmdp_plan.groups;
  (* Trace each group. *)
  Array.iter
    (fun (g : Pmdp_plan.group) ->
      let nd = g.Pmdp_plan.n_dims in
      let tile = g.Pmdp_plan.tile in
      let members = g.Pmdp_plan.members in
      let n_members = Array.length members in
      let stages = Array.map (fun (m : Pmdp_plan.member) -> Pipeline.stage p m.Pmdp_plan.sid) members in
      let member_of_name name =
        let rec go m =
          if m = n_members then None
          else if stages.(m).Stage.name = name then Some m
          else go (m + 1)
        in
        go 0
      in
      (* Scratch arenas (reused across tiles), sized as the executor
         sizes them, for each non-live-out member. *)
      let arena_base =
        Array.map
          (fun (m : Pmdp_plan.member) ->
            if m.Pmdp_plan.liveout then 0 else alloc (m.Pmdp_plan.max_scratch * bytes_per_elem))
          members
      in
      (* Per-member loads with pre-resolved targets. *)
      let loads =
        Array.map
          (fun (stage : Stage.t) ->
            List.rev
              (Expr.fold_loads (fun acc name coords -> (name, coords) :: acc) []
                 (Stage.body_expr stage)))
          stages
      in
      let tiles_per_dim = g.Pmdp_plan.tiles_per_dim in
      let n_tiles = g.Pmdp_plan.n_tiles in
      let n_trace = match max_tiles with None -> n_tiles | Some m -> min m n_tiles in
      let regions : region array = Array.make n_members { base = 0; lo = [||]; hi = [||]; stride = [||] } in
      for t = 0 to n_trace - 1 do
        (* Tile box. *)
        let tlo = Array.make nd 0 and thi = Array.make nd 0 in
        let rem = ref t in
        for d = nd - 1 downto 0 do
          let tc = !rem mod tiles_per_dim.(d) in
          rem := !rem / tiles_per_dim.(d);
          tlo.(d) <- g.Pmdp_plan.dim_lo.(d) + (tc * tile.(d));
          thi.(d) <- min (tlo.(d) + tile.(d) - 1) g.Pmdp_plan.dim_hi.(d)
        done;
        for m = 0 to n_members - 1 do
          let stage = stages.(m) in
          let own_nd = Stage.ndims stage in
          let own_lo = Array.make own_nd 0 and own_hi = Array.make own_nd 0 in
          for k = 0 to own_nd - 1 do
            let d = g.Pmdp_plan.dim_of_stage.(m).(k) in
            let s = g.Pmdp_plan.scales.(m).(d) in
            let elo, ehi = g.Pmdp_plan.expansions.(m).(d) in
            let dim = stage.Stage.dims.(k) in
            let dlo = dim.Stage.lo and dhi = dim.Stage.lo + dim.Stage.extent - 1 in
            let clamp x = if x < dlo then dlo else if x > dhi then dhi else x in
            own_lo.(k) <- clamp (floor_div (tlo.(d) - elo) s);
            own_hi.(k) <- clamp (ceil_div (thi.(d) + ehi) s)
          done;
          let region =
            if members.(m).Pmdp_plan.liveout then
              (* live-outs write the full buffer; reads by in-group
                 consumers hit the same addresses *)
              Hashtbl.find full stage.Stage.name
            else begin
              let exts = Array.init own_nd (fun k -> own_hi.(k) - own_lo.(k) + 1) in
              let stride = Array.make own_nd 1 in
              for k = own_nd - 2 downto 0 do
                stride.(k) <- stride.(k + 1) * exts.(k + 1)
              done;
              { base = arena_base.(m); lo = own_lo; hi = own_hi; stride }
            end
          in
          regions.(m) <- region;
          (* Resolve load targets once per member per tile. *)
          let targets =
            List.map
              (fun (name, coords) ->
                let target =
                  match member_of_name name with
                  | Some m' -> regions.(m')
                  | None -> Hashtbl.find full name
                in
                let mids =
                  Array.mapi (fun d _ -> (target.lo.(d) + target.hi.(d)) / 2) coords
                in
                (target, coords, mids))
              loads.(m)
          in
          let vars = Array.make (Stage.n_iter_vars stage) 0 in
          let idx_scratch = Array.make 8 0 in
          let do_point () =
            List.iter
              (fun (target, coords, mids) ->
                let arity = Array.length coords in
                for d = 0 to arity - 1 do
                  idx_scratch.(d) <- eval_coord coords.(d) vars mids.(d)
                done;
                Hierarchy.access hierarchy (addr_of target (Array.sub idx_scratch 0 arity)))
              targets;
            Hierarchy.access hierarchy (addr_of region (Array.sub vars 0 own_nd))
          in
          let body () =
            match stage.Stage.def with
            | Stage.Pointwise _ -> do_point ()
            | Stage.Reduction { rdom; _ } ->
                let nr = Array.length rdom in
                let rec red r =
                  if r = nr then do_point ()
                  else
                    let lo, ext = rdom.(r) in
                    for x = lo to lo + ext - 1 do
                      vars.(own_nd + r) <- x;
                      red (r + 1)
                    done
                in
                red 0
          in
          let rec go k =
            if k = own_nd then body ()
            else
              for x = own_lo.(k) to own_hi.(k) do
                vars.(k) <- x;
                go (k + 1)
              done
          in
          go 0
        done
      done)
    ir.Pmdp_plan.groups

module Expr = Pmdp_dsl.Expr
module Stage = Pmdp_dsl.Stage
module Pipeline = Pmdp_dsl.Pipeline
module Rational = Pmdp_util.Rational

let bytes_per_elem = 4

let stage_of (ga : Group_analysis.t) m = Pipeline.stage ga.pipeline ga.members.(m)

let liveouts_bytes (ga : Group_analysis.t) =
  let acc = ref 0.0 in
  Array.iteri
    (fun m _ ->
      if ga.liveouts.(m) then
        acc := !acc +. float_of_int (Stage.domain_points (stage_of ga m) * bytes_per_elem))
    ga.members;
  !acc

let intermediates_bytes (ga : Group_analysis.t) =
  let acc = ref 0.0 in
  Array.iteri
    (fun m _ ->
      if not ga.liveouts.(m) then
        acc := !acc +. float_of_int (Stage.domain_points (stage_of ga m) * bytes_per_elem))
    ga.members;
  !acc

let n_buffers (ga : Group_analysis.t) = Array.length ga.members

(* Own-resolution points of member [m] within a scaled-space box of
   width [w.(g)] per dimension (interior tile, analytic).
   [floor_one] models the executor, which always computes at least one
   point of every member per tile; without it the count is the true
   average density (used for the useful-work volume, so that the
   difference — the overlap — charges the forced recomputation of
   coarse members correctly). *)
let member_points ?(floor_one = true) (ga : Group_analysis.t) m w =
  let stage = stage_of ga m in
  let pts = ref 1.0 in
  Array.iteri
    (fun k (d : Stage.dim) ->
      let g = ga.dim_of_stage.(m).(k) in
      let s = float_of_int ga.scales.(m).(g) in
      let scaled_extent = float_of_int (ga.scaled_hi.(m).(g) - ga.scaled_lo.(m).(g) + 1) in
      let width = Float.min w.(g) scaled_extent in
      let own = Float.min (width /. s) (float_of_int d.Stage.extent) in
      let own = if floor_one then Float.max 1.0 own else Float.max 0.01 own in
      pts := !pts *. own)
    stage.Stage.dims;
  !pts


let exact_widths (ga : Group_analysis.t) ~tile =
  Array.init ga.n_dims (fun g -> float_of_int tile.(g))

let expanded_widths (ga : Group_analysis.t) m ~tile =
  Array.init ga.n_dims (fun g ->
      let lo, hi = ga.expansions.(m).(g) in
      float_of_int (tile.(g) + lo + hi))

let tile_compute_volume (ga : Group_analysis.t) ~tile =
  let w = exact_widths ga ~tile in
  let acc = ref 0.0 in
  for m = 0 to Array.length ga.members - 1 do
    acc := !acc +. member_points ga m w
  done;
  !acc

let overlap_points (ga : Group_analysis.t) ~tile =
  let w = exact_widths ga ~tile in
  let acc = ref 0.0 in
  for m = 0 to Array.length ga.members - 1 do
    let we = expanded_widths ga m ~tile in
    (* expanded regions are what the executor computes (>= 1 point per
       member); the useful part is the true per-tile density *)
    acc := !acc +. (member_points ga m we -. member_points ~floor_one:false ga m w)
  done;
  !acc

(* Per-tile bytes read from one external producer (input or
   out-of-group stage) by member [m], given the accesses' coordinate
   vectors and the producer's dimension extents. *)
let external_region_bytes (ga : Group_analysis.t) m ~tile accesses (pdims : Stage.dim array) =
  let cdims = Stage.ndims (stage_of ga m) in
  let bytes = ref (float_of_int bytes_per_elem) in
  Array.iteri
    (fun d (pd : Stage.dim) ->
      (* Hull of access widths along producer dim [d]. *)
      let full = float_of_int pd.Stage.extent in
      let width =
        List.fold_left
          (fun acc (coords : Expr.coord array) ->
            match coords.(d) with
            | Expr.Cvar { var; scale; _ } when var < cdims ->
                let g = ga.dim_of_stage.(m).(var) in
                let elo, ehi = ga.expansions.(m).(g) in
                let w_scaled = float_of_int (tile.(g) + elo + ehi) in
                let w_own = w_scaled /. float_of_int ga.scales.(m).(g) in
                Float.max acc (Float.min full ((Rational.to_float scale *. w_own) +. 1.0))
            | Expr.Cvar _ | Expr.Cdyn _ -> full)
          1.0 accesses
      in
      (* Offset spread across accesses widens the region slightly. *)
      let offsets =
        List.filter_map
          (fun (coords : Expr.coord array) ->
            match coords.(d) with
            | Expr.Cvar { offset; _ } -> Some (Rational.to_float offset)
            | Expr.Cdyn _ -> None)
          accesses
      in
      let spread =
        match offsets with
        | [] -> 0.0
        | o :: rest ->
            let lo = List.fold_left Float.min o rest and hi = List.fold_left Float.max o rest in
            hi -. lo
      in
      bytes := !bytes *. Float.min full (width +. spread))
    pdims;
  !bytes

let livein_tile_bytes (ga : Group_analysis.t) ~tile =
  let p = ga.pipeline in
  let in_group sid = Array.exists (fun x -> x = sid) ga.members in
  let acc = ref 0.0 in
  Array.iteri
    (fun m sid ->
      (* Inputs. *)
      let by_name = Hashtbl.create 8 in
      List.iter
        (fun (name, coords) ->
          Hashtbl.replace by_name name
            (coords :: Option.value ~default:[] (Hashtbl.find_opt by_name name)))
        (Pipeline.input_loads p sid);
      Hashtbl.iter
        (fun name accesses ->
          let input = Pipeline.find_input p name in
          acc := !acc +. external_region_bytes ga m ~tile accesses input.Pipeline.in_dims)
        by_name;
      (* Out-of-group producer stages. *)
      List.iter
        (fun prod ->
          if not (in_group prod) then begin
            let accesses = Pipeline.loads_between p ~consumer:sid ~producer:prod in
            let pstage = Pipeline.stage p prod in
            acc := !acc +. external_region_bytes ga m ~tile accesses pstage.Stage.dims
          end)
        (Pipeline.producers p sid))
    ga.members;
  !acc

let liveout_tile_bytes (ga : Group_analysis.t) ~tile =
  let w = exact_widths ga ~tile in
  let acc = ref 0.0 in
  Array.iteri
    (fun m _ ->
      if ga.liveouts.(m) then
        acc := !acc +. (member_points ga m w *. float_of_int bytes_per_elem))
    ga.members;
  !acc

let n_tiles (ga : Group_analysis.t) ~tile =
  let count = ref 1 in
  for g = 0 to ga.n_dims - 1 do
    let extent = Group_analysis.dim_extent ga g in
    count := !count * ((extent + tile.(g) - 1) / tile.(g))
  done;
  !count

let clamp_tile (ga : Group_analysis.t) tile =
  Array.mapi
    (fun g t -> max 1 (min t (Group_analysis.dim_extent ga g)))
    (Array.sub tile 0 ga.n_dims)

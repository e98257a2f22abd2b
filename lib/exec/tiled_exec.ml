module Pipeline = Pmdp_dsl.Pipeline
module Stage = Pmdp_dsl.Stage
module Group_analysis = Pmdp_analysis.Group_analysis
module Footprint = Pmdp_analysis.Footprint
module Schedule_spec = Pmdp_core.Schedule_spec
module Pool = Pmdp_runtime.Pool
module Fault = Pmdp_runtime.Fault
module Pmdp_error = Pmdp_util.Pmdp_error
module Trace = Pmdp_trace.Trace

type slot = In_group of int | External of string

type member_plan = {
  sid : int;
  stage : Stage.t;
  liveout : bool;
  direct : bool;
      (* live-out whose region is always exactly the tile box: writes
         go straight to the full buffer *)
  max_scratch : int;  (* arena size covering any tile's region *)
  slots : slot array;
  compiled : Compile.compiled;
}

type group_plan = {
  ga : Group_analysis.t;
  tile : int array;
  tiles_per_dim : int array;
  n_tiles : int;
  members : member_plan array;
}

type plan = {
  pipeline : Pipeline.t;
  groups : group_plan array;
  liveouts : string list;
  ir : Pmdp_plan.t;
}

let member_scratch_extents = Pmdp_plan.member_scratch_extents

(* Instantiation: IR -> closures.  All the analysis already happened in
   Pmdp_plan.of_spec (or the IR came from disk); what remains is
   compiling member bodies, resolving load slots, and re-deriving the
   executor-safety quantities (tiles_per_dim, direct, max_scratch) from
   the reconstructed analysis rather than trusting the IR's claims —
   the static checker reports IR/formula disagreements, but the
   executor must stay sound even on an unchecked plan. *)
let instantiate p (ir : Pmdp_plan.t) =
  if ir.Pmdp_plan.pipeline <> p.Pipeline.name || ir.Pmdp_plan.n_stages <> Pipeline.n_stages p
  then
    Pmdp_error.raise_
      (Pmdp_error.Plan_invalid
         {
           context = "Tiled_exec.instantiate";
           reason =
             Printf.sprintf "plan is for pipeline %s with %d stages, not %s with %d stages"
               ir.Pmdp_plan.pipeline ir.Pmdp_plan.n_stages p.Pipeline.name (Pipeline.n_stages p);
         });
  let groups =
    Array.map
      (fun (g : Pmdp_plan.group) ->
        let ga = Pmdp_plan.group_analysis p g in
        let tile = g.Pmdp_plan.tile in
        let tiles_per_dim =
          Array.init ga.Group_analysis.n_dims (fun d ->
              let extent = Group_analysis.dim_extent ga d in
              (extent + tile.(d) - 1) / tile.(d))
        in
        let n_tiles = Array.fold_left ( * ) 1 tiles_per_dim in
        let in_group name =
          Array.fold_left
            (fun acc (m, sid) ->
              match acc with
              | Some _ -> acc
              | None ->
                  if (Pipeline.stage p sid).Stage.name = name then Some m else None)
            None
            (Array.mapi (fun m sid -> (m, sid)) ga.Group_analysis.members)
        in
        let members =
          Array.mapi
            (fun m sid ->
              let stage = Pipeline.stage p sid in
              let names, compiled = Compile.compile_stage stage in
              let slots =
                Array.map
                  (fun name ->
                    match in_group name with
                    | Some m -> In_group m
                    | None -> External name)
                  names
              in
              let liveout = ga.Group_analysis.liveouts.(m) in
              let own_nd = Stage.ndims stage in
              let direct = ref liveout in
              for k = 0 to own_nd - 1 do
                let g = ga.Group_analysis.dim_of_stage.(m).(k) in
                let s = ga.Group_analysis.scales.(m).(g) in
                let elo, ehi = ga.Group_analysis.expansions.(m).(g) in
                if
                  (elo, ehi) <> (0, 0) || s <> 1
                  || ga.Group_analysis.scaled_lo.(m).(g) <> ga.Group_analysis.dim_lo.(g)
                  || ga.Group_analysis.scaled_hi.(m).(g) <> ga.Group_analysis.dim_hi.(g)
                then direct := false
              done;
              let max_scratch =
                Array.fold_left ( * ) 1 (member_scratch_extents ga ~member:m ~tile)
              in
              for g = 0 to ga.Group_analysis.n_dims - 1 do
                if ga.Group_analysis.expansions.(m).(g) <> (0, 0) then direct := false
              done;
              {
                sid;
                stage;
                liveout;
                direct = !direct;
                max_scratch = (if !direct then 0 else max_scratch);
                slots;
                compiled;
              })
            ga.Group_analysis.members
        in
        { ga; tile; tiles_per_dim; n_tiles; members })
      ir.Pmdp_plan.groups
  in
  let liveouts =
    List.concat_map
      (fun gp ->
        List.filter_map
          (fun (mp : member_plan) -> if mp.liveout then Some mp.stage.Stage.name else None)
          (Array.to_list gp.members))
      (Array.to_list groups)
  in
  { pipeline = p; groups; liveouts; ir }

let instantiate_result p ir =
  match instantiate p ir with
  | plan -> Ok plan
  | exception Pmdp_error.Error e -> Error e

let plan (spec : Schedule_spec.t) =
  instantiate spec.Schedule_spec.pipeline (Pmdp_plan.of_spec spec)

let plan_result spec =
  match plan spec with
  | p -> Ok p
  | exception Pmdp_error.Error e -> Error e
  | exception Invalid_argument reason ->
      Error (Pmdp_error.Plan_invalid { context = "Schedule_spec.validate"; reason })

let ir plan = plan.ir

let pipeline plan = plan.pipeline
let total_tiles plan = Array.fold_left (fun acc g -> acc + g.n_tiles) 0 plan.groups

let ceil_div a b = if a >= 0 then (a + b - 1) / b else -((-a) / b)
let floor_div a b = if a >= 0 then a / b else -(((-a) + b - 1) / b)

(* A per-worker scratch arena: one reusable buffer per non-direct
   member, sized for the largest possible tile region. *)
let make_arena gp =
  Array.map
    (fun (mp : member_plan) ->
      if mp.direct then [||] else Array.make mp.max_scratch 0.0)
    gp.members

(* Execute one tile of one group.  [externals] maps each member to its
   pre-resolved external views (lazily shared across tiles); [arena]
   is this worker's reusable scratch store. *)
let run_tile ?fault ?cancel gp (buffers : (string, Buffer.t) Hashtbl.t) externals arena tile_index =
  (match cancel with
  | Some tk when Fault.is_cancelled tk ->
      Pmdp_error.raise_
        (Pmdp_error.Cancelled { reason = "Tiled_exec: cooperative cancellation before tile" })
  | _ -> ());
  (match fault with Some f -> Fault.tile_tick f | None -> ());
  let ga = gp.ga in
  let nd = ga.Group_analysis.n_dims in
  (* Decompose the linear tile index, row-major over tiles_per_dim. *)
  let tlo = Array.make nd 0 and thi = Array.make nd 0 in
  let rem = ref tile_index in
  for d = nd - 1 downto 0 do
    let tc = !rem mod gp.tiles_per_dim.(d) in
    rem := !rem / gp.tiles_per_dim.(d);
    tlo.(d) <- ga.Group_analysis.dim_lo.(d) + (tc * gp.tile.(d));
    thi.(d) <- min (tlo.(d) + gp.tile.(d) - 1) ga.Group_analysis.dim_hi.(d)
  done;
  let n_members = Array.length gp.members in
  let views : Compile.view option array = Array.make n_members None in
  for mi = 0 to n_members - 1 do
    let mp = gp.members.(mi) in
    let stage = mp.stage in
    let own_nd = Stage.ndims stage in
    (* Region of this member in its own coordinates: the tile box
       expanded by the member's overlap expansion, clamped into the
       member's domain but kept nonempty so boundary clamping matches
       the reference executor. *)
    let own_lo = Array.make own_nd 0 and own_hi = Array.make own_nd 0 in
    for k = 0 to own_nd - 1 do
      let g = ga.Group_analysis.dim_of_stage.(mi).(k) in
      let s = ga.Group_analysis.scales.(mi).(g) in
      let elo, ehi = ga.Group_analysis.expansions.(mi).(g) in
      let dim = stage.Stage.dims.(k) in
      let dlo = dim.Stage.lo and dhi = dim.Stage.lo + dim.Stage.extent - 1 in
      let clamp x = if x < dlo then dlo else if x > dhi then dhi else x in
      own_lo.(k) <- clamp (floor_div (tlo.(g) - elo) s);
      own_hi.(k) <- clamp (ceil_div (thi.(g) + ehi) s)
    done;
    let env =
      Array.map
        (function
          | In_group m -> (
              match views.(m) with
              | Some v -> v
              | None ->
                  Pmdp_error.raise_
                    (Pmdp_error.Plan_invalid
                       {
                         context = "Tiled_exec.run_tile";
                         reason = "producer region missing (member ordering invariant broken)";
                       }))
          | External name -> List.assoc name externals.(mi))
        mp.slots
    in
    let exts = Array.init own_nd (fun k -> own_hi.(k) - own_lo.(k) + 1) in
    let stride = Array.make own_nd 1 in
    for k = own_nd - 2 downto 0 do
      stride.(k) <- stride.(k + 1) * exts.(k + 1)
    done;
    let direct = mp.direct in
    let dest_data, dest_stride, dest_base =
      if direct then begin
        let buf = Hashtbl.find buffers stage.Stage.name in
        let base = ref 0 in
        Array.iteri
          (fun k (d : Stage.dim) -> base := !base - (d.Stage.lo * buf.Buffer.stride.(k)))
          buf.Buffer.dims;
        (buf.Buffer.data, buf.Buffer.stride, !base)
      end
      else begin
        let data = arena.(mi) in
        assert (Array.fold_left ( * ) 1 exts <= Array.length data);
        let base = ref 0 in
        for k = 0 to own_nd - 1 do
          base := !base - (own_lo.(k) * stride.(k))
        done;
        (data, stride, !base)
      end
    in
    (* Compute the region. *)
    let vars = Array.make (Stage.n_iter_vars stage) 0 in
    (match stage.Stage.def with
    | Stage.Pointwise _ ->
        let rec go k off =
          if k = own_nd then dest_data.(off) <- mp.compiled env vars
          else
            for x = own_lo.(k) to own_hi.(k) do
              vars.(k) <- x;
              go (k + 1) (off + (x * dest_stride.(k)))
            done
        in
        go 0 dest_base
    | Stage.Reduction { op; init; rdom; _ } ->
        let nr = Array.length rdom in
        let fold =
          match op with
          | Stage.Rsum -> ( +. )
          | Stage.Rmax -> Float.max
          | Stage.Rmin -> Float.min
        in
        let rec red r acc =
          if r = nr then fold acc (mp.compiled env vars)
          else begin
            let lo, ext = rdom.(r) in
            let acc = ref acc in
            for x = lo to lo + ext - 1 do
              vars.(own_nd + r) <- x;
              acc := red (r + 1) !acc
            done;
            !acc
          end
        in
        let rec go k off =
          if k = own_nd then dest_data.(off) <- red 0 init
          else
            for x = own_lo.(k) to own_hi.(k) do
              vars.(k) <- x;
              go (k + 1) (off + (x * dest_stride.(k)))
            done
        in
        go 0 dest_base);
    views.(mi) <-
      Some
        {
          Compile.data = dest_data;
          lo = own_lo;
          hi = own_hi;
          stride = dest_stride;
          base = dest_base;
        };
    (* Live-outs computed in scratch copy their exact tile box out. *)
    if mp.liveout && not direct then begin
      let buf = Hashtbl.find buffers stage.Stage.name in
      (* Intersection of the member's own points with this tile: the
         only points this tile legitimately owns.  May be empty, and
         then the copy loop below runs no iteration. *)
      let exact_lo = Array.make own_nd 0 and exact_hi = Array.make own_nd 0 in
      for k = 0 to own_nd - 1 do
        let g = ga.Group_analysis.dim_of_stage.(mi).(k) in
        let s = ga.Group_analysis.scales.(mi).(g) in
        let dim = stage.Stage.dims.(k) in
        let dlo = dim.Stage.lo and dhi = dim.Stage.lo + dim.Stage.extent - 1 in
        exact_lo.(k) <- max dlo (ceil_div tlo.(g) s);
        exact_hi.(k) <- min dhi (floor_div thi.(g) s)
      done;
      let idx = Array.copy exact_lo in
      let rec copy k src_off =
        if k = own_nd then begin
          let dst = ref 0 in
          for d = 0 to own_nd - 1 do
            dst := !dst + ((idx.(d) - buf.Buffer.dims.(d).Stage.lo) * buf.Buffer.stride.(d))
          done;
          buf.Buffer.data.(!dst) <- dest_data.(src_off)
        end
        else
          for x = exact_lo.(k) to exact_hi.(k) do
            idx.(k) <- x;
            copy (k + 1) (src_off + (x * dest_stride.(k)))
          done
      in
      copy 0 dest_base
    end
  done

(* External views must be resolved per group, after earlier groups
   have allocated their live-out buffers. *)
let externals_for gp buffers =
  Array.map
    (fun (mp : member_plan) ->
      Array.to_list
        (Array.map
           (fun slot ->
             match slot with
             | In_group _ -> ("", Compile.view_of_buffer (Buffer.create "unused" [| { Stage.dim_name = "d"; lo = 0; extent = 1 } |]))
             | External name -> (
                 match Hashtbl.find_opt buffers name with
                 | Some b -> (name, Compile.view_of_buffer b)
                 | None ->
                     Pmdp_error.raise_
                       (Pmdp_error.Unresolved_external
                          { name; context = "Tiled_exec: stage " ^ mp.stage.Stage.name })))
           mp.slots))
    gp.members

let arena_bytes gp =
  Array.fold_left
    (fun acc (mp : member_plan) -> if mp.direct then acc else acc + (mp.max_scratch * 8))
    0 gp.members

(* Pre-flight resource-guard inputs: the scratch a single worker's
   arena costs in the worst group, and the bytes of full (live-out)
   buffers the plan must keep resident. *)
let scratch_bytes_per_worker plan =
  Array.fold_left (fun acc gp -> max acc (arena_bytes gp)) 0 plan.groups

let working_set_bytes plan =
  Array.fold_left
    (fun acc gp ->
      Array.fold_left
        (fun acc (mp : member_plan) ->
          if mp.liveout then acc + (Stage.domain_points mp.stage * 8) else acc)
        acc gp.members)
    0 plan.groups

(* Tile-space coordinates of a linear tile index, for trace span
   arguments: "2,5" means third tile along dim 0, sixth along dim 1. *)
let tile_coords gp tile_index =
  let nd = Array.length gp.tiles_per_dim in
  let parts = Array.make nd "" in
  let rem = ref tile_index in
  for d = nd - 1 downto 0 do
    parts.(d) <- string_of_int (!rem mod gp.tiles_per_dim.(d));
    rem := !rem / gp.tiles_per_dim.(d)
  done;
  String.concat "," (Array.to_list parts)

type group_stats = {
  index : int;
  stages : string list;
  tiles : int;
  occupancy : int;
  scratch_bytes : int;
  copy_out_bytes : int;
  wall_seconds : float;
  tile_seconds : float array;
}

let stage_names gp =
  Array.to_list (Array.map (fun (mp : member_plan) -> mp.stage.Stage.name) gp.members)

(* Bytes the live-outs computed in scratch copy out over one run of the
   group.  The tiles' exact boxes partition each such buffer (the race
   pass of Verify.check_legality proves it for every dispatched
   schedule), so the total is the buffers' size. *)
let copy_out_bytes gp =
  Array.fold_left
    (fun acc (mp : member_plan) ->
      if mp.liveout && not mp.direct then acc + (Stage.domain_points mp.stage * 8) else acc)
    0 gp.members

let run_group ?pool ?sched ?fault ?cancel ~index gp buffers =
  let externals = externals_for gp buffers in
  let arenas = Atomic.make 0 in
  let make_arena_checked () =
    (match fault with Some f -> Fault.alloc_tick f | None -> ());
    Atomic.incr arenas;
    make_arena gp
  in
  (* each tile writes only its own entry, whichever worker runs it *)
  let tile_seconds = Array.make gp.n_tiles 0.0 in
  let exec_tile arena t =
    let t0 = Unix.gettimeofday () in
    run_tile ?fault ?cancel gp buffers externals arena t;
    tile_seconds.(t) <- Unix.gettimeofday () -. t0
  in
  let exec_tile arena t =
    if not (Trace.on ()) then exec_tile arena t
    else
      Trace.with_span ~cat:"exec"
        ~args:
          [
            ("group", Trace.Int index);
            ("tile", Trace.Int t);
            ("at", Trace.Str (tile_coords gp t));
          ]
        "tile"
        (fun () -> exec_tile arena t)
  in
  let ts_group = if Trace.on () then Trace.now () else Float.nan in
  let t0 = Unix.gettimeofday () in
  let occupancy =
    match pool with
    | Some pool when gp.n_tiles > 1 ->
        Pool.parallel_for_init ?sched pool ~n:gp.n_tiles ~init:make_arena_checked exec_tile;
        Pool.last_occupancy pool
    | _ ->
        let arena = make_arena_checked () in
        for t = 0 to gp.n_tiles - 1 do
          exec_tile arena t
        done;
        1
  in
  let stats =
    {
      index;
      stages = stage_names gp;
      tiles = gp.n_tiles;
      occupancy;
      scratch_bytes = Atomic.get arenas * arena_bytes gp;
      copy_out_bytes = copy_out_bytes gp;
      wall_seconds = Unix.gettimeofday () -. t0;
      tile_seconds;
    }
  in
  if Trace.on () && not (Float.is_nan ts_group) then begin
    Trace.complete ~cat:"exec"
      ~args:
        [
          ("group", Trace.Int index);
          ("stages", Trace.Str (String.concat "," stats.stages));
          ("tiles", Trace.Int stats.tiles);
          ("occupancy", Trace.Int stats.occupancy);
          ("scratch_bytes", Trace.Int stats.scratch_bytes);
          ("copy_out_bytes", Trace.Int stats.copy_out_bytes);
        ]
      ~name:"group" ~ts:ts_group ();
    Trace.count "tiles" stats.tiles;
    Trace.count "scratch_bytes" stats.scratch_bytes;
    (* a group with nothing to copy out never touched this counter *)
    if stats.copy_out_bytes > 0 then Trace.count "copy_out_bytes" stats.copy_out_bytes
  end;
  (* A tile sleeping through a watchdog deadline returns normally; the
     group boundary is the last place to refuse to report success for
     work that was cancelled mid-flight. *)
  (match cancel with
  | Some tk when Fault.is_cancelled tk ->
      Pmdp_error.raise_
        (Pmdp_error.Cancelled { reason = "Tiled_exec: cooperative cancellation after group" })
  | _ -> ());
  stats

let run ?pool ?sched ?fault ?cancel ?(reuse_buffers = false) plan ~inputs =
  let p = plan.pipeline in
  Reference.check_inputs p inputs;
  let buffers : (string, Buffer.t) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun (name, b) -> Hashtbl.replace buffers name b) inputs;
  (* Each live-out's full buffer is its Storage slot: its own, or with
     [reuse_buffers] a dead live-out's (the paper's §6.2 storage
     optimization).  A slot is allocated by the first group using it. *)
  let { Storage.slot; capacity } = Storage.slots ~reuse:reuse_buffers p plan.ir in
  let store = Array.map (fun n -> lazy (Array.make n 0.0)) capacity in
  let stats =
    Array.mapi
      (fun gi gp ->
        Array.iter
          (fun (mp : member_plan) ->
            if mp.liveout then
              let { Stage.name; dims; _ } = mp.stage in
              Hashtbl.replace buffers name
                (Buffer.with_data name dims (Lazy.force store.(slot.(mp.sid)))))
          gp.members;
        run_group ?pool ?sched ?fault ?cancel ~index:gi gp buffers)
      plan.groups
  in
  (* recycled slots hold later buffers, so only outputs are returned *)
  let names =
    if reuse_buffers then List.map (fun sid -> (Pipeline.stage p sid).Stage.name) p.Pipeline.outputs
    else plan.liveouts
  in
  (List.map (fun name -> (name, Hashtbl.find buffers name)) names, Array.to_list stats)

let pp ppf plan =
  Format.fprintf ppf "@[<v>plan for %s: %d groups, %d tiles@," plan.pipeline.Pipeline.name
    (Array.length plan.groups) (total_tiles plan);
  Array.iteri
    (fun i gp ->
      Format.fprintf ppf "  group %d: {%s} tile=[%s] tiles=%d@," i
        (String.concat "," (stage_names gp))
        (String.concat "x" (Array.to_list (Array.map string_of_int gp.tile)))
        gp.n_tiles)
    plan.groups;
  Format.fprintf ppf "@]"

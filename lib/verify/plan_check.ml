module Pipeline = Pmdp_dsl.Pipeline
module Stage = Pmdp_dsl.Stage
module GA = Pmdp_analysis.Group_analysis
module Pmdp_error = Pmdp_util.Pmdp_error
module D = Diagnostic

let err = D.make D.Plan D.Error
let warn = D.make D.Plan D.Warning
let ceil_div a b = if a >= 0 then (a + b - 1) / b else -((-a) / b)
let floor_div a b = if a >= 0 then a / b else -(((-a) + b - 1) / b)

(* --- plan/pipeline fit + partition --------------------------------- *)

let structure_diags p (ir : Pmdp_plan.t) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  if ir.Pmdp_plan.pipeline <> p.Pipeline.name then
    add
      (err ~kind:"pipeline-mismatch"
         (Printf.sprintf "plan is for pipeline %S, checking against %S" ir.Pmdp_plan.pipeline
            p.Pipeline.name));
  let n = Pipeline.n_stages p in
  if ir.Pmdp_plan.n_stages <> n then
    add
      (err ~kind:"pipeline-mismatch"
         (Printf.sprintf "plan claims %d stages, pipeline has %d" ir.Pmdp_plan.n_stages n));
  let count = Array.make n 0 in
  Array.iteri
    (fun gi (g : Pmdp_plan.group) ->
      Array.iter
        (fun (m : Pmdp_plan.member) ->
          if m.Pmdp_plan.sid < 0 || m.Pmdp_plan.sid >= n then
            add
              (err ~kind:"partition" ~group:gi
                 (Printf.sprintf "stage id %d out of range [0, %d)" m.Pmdp_plan.sid n))
          else count.(m.Pmdp_plan.sid) <- count.(m.Pmdp_plan.sid) + 1)
        g.Pmdp_plan.members)
    ir.Pmdp_plan.groups;
  Array.iteri
    (fun sid c ->
      let name = (Pipeline.stage p sid).Stage.name in
      if c = 0 then add (err ~kind:"partition" ~stage:name "stage missing from the plan")
      else if c > 1 then
        add (err ~kind:"partition" ~stage:name (Printf.sprintf "stage appears in %d groups" c)))
    count;
  (* The liveouts list is what the executor returns and the service
     reports; it must agree with the member flags, and every pipeline
     output must be materialized somewhere. *)
  let from_members =
    List.concat_map
      (fun (g : Pmdp_plan.group) ->
        List.filter_map
          (fun (m : Pmdp_plan.member) ->
            if m.Pmdp_plan.liveout then Some m.Pmdp_plan.name else None)
          (Array.to_list g.Pmdp_plan.members))
      (Array.to_list ir.Pmdp_plan.groups)
  in
  if from_members <> ir.Pmdp_plan.liveouts then
    add
      (err ~kind:"liveout-list"
         (Printf.sprintf "plan lists live-outs [%s] but member flags give [%s]"
            (String.concat "; " ir.Pmdp_plan.liveouts)
            (String.concat "; " from_members)));
  List.iter
    (fun o ->
      let name = (Pipeline.stage p o).Stage.name in
      if not (List.mem name from_members) then
        add (err ~kind:"output-not-liveout" ~stage:name "pipeline output is not materialized"))
    p.Pipeline.outputs;
  List.rev !diags

(* --- per-group checks over a reconstructed analysis ----------------- *)

(* Tile-coverage and bounds soundness: the tile grid must cover the
   group's scaled hull, and — since copy-out writes each member's
   exact per-tile box [ceil(tlo/s), floor(thi/s)] — the hull's image
   under that rounding must cover every member's own domain.  Tiles
   are disjoint contiguous intervals, so their rounded images are
   disjoint too: together these prove every output point is written
   exactly once. *)
let coverage_diags gi (g : Pmdp_plan.group) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  for d = 0 to g.Pmdp_plan.n_dims - 1 do
    let extent = g.Pmdp_plan.dim_hi.(d) - g.Pmdp_plan.dim_lo.(d) + 1 in
    let expect = (extent + g.Pmdp_plan.tile.(d) - 1) / g.Pmdp_plan.tile.(d) in
    if g.Pmdp_plan.tiles_per_dim.(d) <> expect then
      add
        (err ~kind:"tile-count" ~group:gi ~dim:d
           (Printf.sprintf "%d tiles of width %d over extent %d; %d needed"
              g.Pmdp_plan.tiles_per_dim.(d) g.Pmdp_plan.tile.(d) extent expect))
  done;
  let n_tiles = Array.fold_left ( * ) 1 g.Pmdp_plan.tiles_per_dim in
  if g.Pmdp_plan.n_tiles <> n_tiles then
    add
      (err ~kind:"tile-count" ~group:gi
         (Printf.sprintf "plan claims %d tiles, tile grid has %d" g.Pmdp_plan.n_tiles n_tiles));
  Array.iteri
    (fun m (mir : Pmdp_plan.member) ->
      (* hull envelope: group dims must span every member's scaled domain *)
      for d = 0 to g.Pmdp_plan.n_dims - 1 do
        if
          g.Pmdp_plan.scaled_lo.(m).(d) < g.Pmdp_plan.dim_lo.(d)
          || g.Pmdp_plan.scaled_hi.(m).(d) > g.Pmdp_plan.dim_hi.(d)
        then
          add
            (err ~kind:"hull" ~group:gi ~stage:mir.Pmdp_plan.name ~dim:d
               (Printf.sprintf "member's scaled domain [%d, %d] escapes group hull [%d, %d]"
                  g.Pmdp_plan.scaled_lo.(m).(d) g.Pmdp_plan.scaled_hi.(m).(d)
                  g.Pmdp_plan.dim_lo.(d) g.Pmdp_plan.dim_hi.(d)))
      done;
      if mir.Pmdp_plan.liveout then
        Array.iteri
          (fun k (lo, extent) ->
            let d = g.Pmdp_plan.dim_of_stage.(m).(k) in
            let s = g.Pmdp_plan.scales.(m).(d) in
            let covered_lo = ceil_div g.Pmdp_plan.dim_lo.(d) s
            and covered_hi = floor_div g.Pmdp_plan.dim_hi.(d) s in
            if covered_lo > lo || covered_hi < lo + extent - 1 then
              add
                (err ~kind:"coverage-gap" ~group:gi ~stage:mir.Pmdp_plan.name ~dim:k
                   (Printf.sprintf
                      "tiles copy out points [%d, %d] of a live-out whose domain is [%d, %d]"
                      covered_lo covered_hi lo (lo + extent - 1))))
          mir.Pmdp_plan.dims)
    g.Pmdp_plan.members;
  List.rev !diags

(* Scratch-extent consistency: the IR's claimed extents must equal the
   interpreter's arena-sizing formula and dominate the C backend's
   per-thread heap arena, and the claimed arena sizes must follow. *)
let scratch_diags gi (g : Pmdp_plan.group) (ga : GA.t) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let tile = g.Pmdp_plan.tile in
  Array.iteri
    (fun m (mir : Pmdp_plan.member) ->
      let interp = Pmdp_exec.Tiled_exec.member_scratch_extents ga ~member:m ~tile in
      if mir.Pmdp_plan.scratch_extents <> interp then
        add
          (err ~kind:"scratch-extent" ~group:gi ~stage:mir.Pmdp_plan.name
             (Printf.sprintf "plan claims scratch extents [%s], executor formula gives [%s]"
                (String.concat "x"
                   (Array.to_list (Array.map string_of_int mir.Pmdp_plan.scratch_extents)))
                (String.concat "x" (Array.to_list (Array.map string_of_int interp)))));
      let cgen = Pmdp_codegen.C_emit.scratch_alloc_extents ga ~member:m ~tile in
      Array.iteri
        (fun k c ->
          if k < Array.length mir.Pmdp_plan.scratch_extents && c > mir.Pmdp_plan.scratch_extents.(k)
          then
            add
              (err ~kind:"scratch-extent" ~group:gi ~stage:mir.Pmdp_plan.name ~dim:k
                 (Printf.sprintf
                    "C backend allocates %d elements along dim %d, plan claims only %d" c k
                    mir.Pmdp_plan.scratch_extents.(k))))
        cgen;
      (* re-derive the direct flag the way the executor does *)
      let stage = Pipeline.stage ga.GA.pipeline mir.Pmdp_plan.sid in
      let direct = ref mir.Pmdp_plan.liveout in
      for k = 0 to Stage.ndims stage - 1 do
        let d = ga.GA.dim_of_stage.(m).(k) in
        let s = ga.GA.scales.(m).(d) in
        if
          ga.GA.expansions.(m).(d) <> (0, 0)
          || s <> 1
          || ga.GA.scaled_lo.(m).(d) <> ga.GA.dim_lo.(d)
          || ga.GA.scaled_hi.(m).(d) <> ga.GA.dim_hi.(d)
        then direct := false
      done;
      for d = 0 to ga.GA.n_dims - 1 do
        if ga.GA.expansions.(m).(d) <> (0, 0) then direct := false
      done;
      if mir.Pmdp_plan.direct <> !direct then
        add
          (err ~kind:"direct-flag" ~group:gi ~stage:mir.Pmdp_plan.name
             (Printf.sprintf "plan marks the member direct=%b, executor derives %b"
                mir.Pmdp_plan.direct !direct));
      let expect =
        if mir.Pmdp_plan.direct then 0
        else Array.fold_left ( * ) 1 mir.Pmdp_plan.scratch_extents
      in
      if mir.Pmdp_plan.max_scratch <> expect then
        add
          (err ~kind:"scratch-size" ~group:gi ~stage:mir.Pmdp_plan.name
             (Printf.sprintf "plan claims a %d-element arena, extents give %d"
                mir.Pmdp_plan.max_scratch expect)))
    g.Pmdp_plan.members;
  List.rev !diags

(* Dependence/race audit at the lowered level: within a group, every
   producer edge must point forward in member order (scratch is filled
   before it is read); across groups, producers must run in an earlier
   group and be materialized. *)
let dependence_diags p group_of liveout_of gi (g : Pmdp_plan.group) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let n = Array.length g.Pmdp_plan.members in
  Array.iter
    (fun (e : Pmdp_plan.edge) ->
      if e.Pmdp_plan.e_producer >= e.Pmdp_plan.e_consumer then
        add
          (err ~kind:"dependence" ~group:gi
             ~stage:g.Pmdp_plan.members.(min e.Pmdp_plan.e_consumer (n - 1)).Pmdp_plan.name
             (Printf.sprintf
                "edge %d -> %d does not point forward in member order: consumer would read \
                 unwritten scratch"
                e.Pmdp_plan.e_producer e.Pmdp_plan.e_consumer));
      Array.iteri
        (fun d (lo, hi) ->
          if lo > hi then
            add
              (err ~kind:"hull" ~group:gi ~dim:d
                 (Printf.sprintf "edge %d -> %d has empty dependence hull [%d, %d]"
                    e.Pmdp_plan.e_producer e.Pmdp_plan.e_consumer lo hi)))
        e.Pmdp_plan.hull)
    g.Pmdp_plan.edges;
  Array.iteri
    (fun ci (mir : Pmdp_plan.member) ->
      List.iter
        (fun prod ->
          match group_of.(prod) with
          | None -> () (* already a partition error *)
          | Some gp when gp = gi ->
              let pi =
                let r = ref (-1) in
                Array.iteri
                  (fun m (x : Pmdp_plan.member) -> if x.Pmdp_plan.sid = prod then r := m)
                  g.Pmdp_plan.members;
                !r
              in
              if
                pi >= 0
                && not
                     (Array.exists
                        (fun (e : Pmdp_plan.edge) ->
                          e.Pmdp_plan.e_producer = pi && e.Pmdp_plan.e_consumer = ci)
                        g.Pmdp_plan.edges)
              then
                add
                  (err ~kind:"dependence" ~group:gi ~stage:mir.Pmdp_plan.name
                     (Printf.sprintf "no dependence edge for in-group producer %s"
                        (Pipeline.stage p prod).Stage.name))
          | Some gp ->
              let pname = (Pipeline.stage p prod).Stage.name in
              if gp > gi then
                add
                  (err ~kind:"group-order" ~group:gi ~stage:mir.Pmdp_plan.name
                     (Printf.sprintf "consumes %s, scheduled in later group %d" pname gp));
              if not liveout_of.(prod) then
                add
                  (err ~kind:"not-materialized" ~group:gi ~stage:mir.Pmdp_plan.name
                     (Printf.sprintf
                        "consumes %s from group %d, which never materializes it" pname gp)))
        (Pipeline.producers p mir.Pmdp_plan.sid))
    g.Pmdp_plan.members;
  List.rev !diags

(* Static memory-budget audit: recompute the two admission inputs from
   first principles and, when a budget is given, apply the service's
   admission formula (working set + per-worker scratch x workers). *)
let budget_diags ?budget ?(workers = 1) (ir : Pmdp_plan.t) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let ws =
    Array.fold_left
      (fun acc (g : Pmdp_plan.group) ->
        Array.fold_left
          (fun acc (m : Pmdp_plan.member) ->
            if m.Pmdp_plan.liveout then
              acc + (Array.fold_left (fun n (_, e) -> n * e) 1 m.Pmdp_plan.dims * 8)
            else acc)
          acc g.Pmdp_plan.members)
      0 ir.Pmdp_plan.groups
  in
  if ir.Pmdp_plan.working_set_bytes <> ws then
    add
      (err ~kind:"working-set"
         (Printf.sprintf "plan claims %d working-set bytes, live-out buffers total %d"
            ir.Pmdp_plan.working_set_bytes ws));
  let scratch =
    Array.fold_left
      (fun acc (g : Pmdp_plan.group) ->
        max acc
          (Array.fold_left
             (fun acc (m : Pmdp_plan.member) ->
               if m.Pmdp_plan.direct then acc else acc + (m.Pmdp_plan.max_scratch * 8))
             0 g.Pmdp_plan.members))
      0 ir.Pmdp_plan.groups
  in
  if ir.Pmdp_plan.scratch_bytes_per_worker <> scratch then
    add
      (err ~kind:"scratch-budget"
         (Printf.sprintf "plan claims %d scratch bytes per worker, arenas total %d"
            ir.Pmdp_plan.scratch_bytes_per_worker scratch));
  (match budget with
  | None -> ()
  | Some b ->
      let est = ws + (scratch * workers) in
      if est > b then
        add
          (err ~kind:"over-budget"
             (Printf.sprintf
                "estimated footprint %d bytes (%d working set + %d scratch x %d workers) \
                 exceeds budget %d"
                est ws scratch workers b)));
  List.rev !diags

(* Lints: performance pathologies that execute correctly. *)
let lint_diags gi (g : Pmdp_plan.group) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let nd = g.Pmdp_plan.n_dims in
  for d = 0 to nd - 1 do
    let extent = g.Pmdp_plan.dim_hi.(d) - g.Pmdp_plan.dim_lo.(d) + 1 in
    if d = nd - 1 && g.Pmdp_plan.tile.(d) = 1 && extent > 1 then
      add
        (warn ~kind:"one-wide-innermost" ~group:gi ~dim:d
           (Printf.sprintf
              "tile is 1 wide along the innermost dimension (extent %d): no spatial locality \
               or vectorization"
              extent));
    if g.Pmdp_plan.tile.(d) > extent then
      add
        (warn ~kind:"tile-oversized" ~group:gi ~dim:d
           (Printf.sprintf "tile size %d exceeds iteration extent %d" g.Pmdp_plan.tile.(d) extent))
  done;
  (* Dead scratch: a non-live-out member no in-group edge consumes
     fills an arena nothing ever reads. *)
  Array.iteri
    (fun m (mir : Pmdp_plan.member) ->
      if
        (not mir.Pmdp_plan.liveout)
        && not
             (Array.exists
                (fun (e : Pmdp_plan.edge) -> e.Pmdp_plan.e_producer = m)
                g.Pmdp_plan.edges)
      then
        add
          (warn ~kind:"dead-scratch" ~group:gi ~stage:mir.Pmdp_plan.name
             "scratch member has no in-group consumer; its arena is written but never read"))
    g.Pmdp_plan.members;
  List.rev !diags

let check ?budget ?workers p (ir : Pmdp_plan.t) =
  let structure = structure_diags p ir in
  let n = Pipeline.n_stages p in
  let group_of = Array.make n None and liveout_of = Array.make n false in
  Array.iteri
    (fun gi (g : Pmdp_plan.group) ->
      Array.iter
        (fun (m : Pmdp_plan.member) ->
          if m.Pmdp_plan.sid >= 0 && m.Pmdp_plan.sid < n then begin
            group_of.(m.Pmdp_plan.sid) <- Some gi;
            if m.Pmdp_plan.liveout then liveout_of.(m.Pmdp_plan.sid) <- true
          end)
        g.Pmdp_plan.members)
    ir.Pmdp_plan.groups;
  let per_group =
    List.concat
      (List.mapi
         (fun gi (g : Pmdp_plan.group) ->
           match Pmdp_plan.group_analysis p g with
           | exception Pmdp_error.Error (Pmdp_error.Plan_invalid { reason; _ }) ->
               [ err ~kind:"structure" ~group:gi reason ]
           | ga ->
               coverage_diags gi g
               @ scratch_diags gi g ga
               @ dependence_diags p group_of liveout_of gi g
               @ lint_diags gi g)
         (Array.to_list ir.Pmdp_plan.groups))
  in
  structure @ per_group @ budget_diags ?budget ?workers ir

module Pipeline = Pmdp_dsl.Pipeline
module Stage = Pmdp_dsl.Stage
module Expr = Pmdp_dsl.Expr
module Rational = Pmdp_util.Rational
module Group_analysis = Pmdp_analysis.Group_analysis

let spf = Printf.sprintf

(* C identifier for a buffer. *)
let buf name = "buf_" ^ name
let scratch name = "scr_" ^ name

(* A C double literal: "%.17g" round-trips every finite double, and a
   bare integer rendering ("4") is already an exact double in C. *)
let double_lit f = spf "%.17g" f

type ctx = {
  p : Pipeline.t;
  in_group : string -> bool;  (* is the named stage a member of this group? *)
}

(* Bounds of a stage's own domain, as C constants. *)
let dim_bounds (d : Stage.dim) = (d.Stage.lo, d.Stage.lo + d.Stage.extent - 1)

(* Row-major strides of a full buffer over these dims. *)
let strides (dims : Stage.dim array) =
  let n = Array.length dims in
  let stride = Array.make n 1 in
  for d = n - 2 downto 0 do
    stride.(d) <- stride.(d + 1) * dims.(d + 1).Stage.extent
  done;
  stride

let var_name i = spf "v%d" i

(* Arithmetic mirrors the interpreter ([Pmdp_exec.Compile]) operation
   for operation, so a kernel compiled with -ffp-contract=off is
   bitwise-comparable against [Pmdp_exec.Reference]. *)
let rec coord_to_c ctx (c : Expr.coord) =
  match c with
  | Expr.Cvar { var; scale; offset } ->
      if Rational.equal scale Rational.one && Rational.equal offset Rational.zero then
        var_name var
      else if Rational.equal scale Rational.one && Rational.is_integer offset then
        spf "(%s + %d)" (var_name var) (Rational.to_int_exn offset)
      else begin
        let p = scale.Rational.num * offset.Rational.den in
        let q = offset.Rational.num * scale.Rational.den in
        let r = scale.Rational.den * offset.Rational.den in
        spf "FDIV(%d * %s + %d, %d)" p (var_name var) q r
      end
  | Expr.Cdyn e -> spf "(int) floor(%s)" (expr_to_c ctx e)

(* A load: clamp each coordinate into the producer's box, then index.
   In-group non-live-out producers use the tile-local scratch buffer
   and region-relative strides; everything else uses the full buffer. *)
and load_to_c ctx name coords =
  let coord_strs = Array.map (coord_to_c ctx) coords in
  if ctx.in_group name then begin
    (* In-group producers are always read from the tile-local scratch
       region (live-outs compute into scratch too and copy their exact
       tile part out afterwards — direct full-buffer reads would race
       with neighboring tiles at region edges). *)
    let parts =
      Array.mapi
        (fun d cs ->
          spf "(CLAMPI(%s, %s_lo%d, %s_hi%d) - %s_lo%d) * %s_st%d" cs (scratch name) d
            (scratch name) d (scratch name) d (scratch name) d)
        coord_strs
    in
    spf "%s[%s]" (scratch name) (String.concat " + " (Array.to_list parts))
  end
  else begin
    let dims =
      match
        Array.find_opt
          (fun (i : Pipeline.input) -> i.Pipeline.in_name = name)
          ctx.p.Pipeline.inputs
      with
      | Some i -> i.Pipeline.in_dims
      | None -> (Pipeline.stage ctx.p (Pipeline.stage_id ctx.p name)).Stage.dims
    in
    let stride = strides dims in
    let parts =
      Array.mapi
        (fun d cs ->
          let lo, hi = dim_bounds dims.(d) in
          spf "(CLAMPI(%s, %d, %d) - %d) * %d" cs lo hi lo stride.(d))
        coord_strs
    in
    spf "%s[%s]" (buf name) (String.concat " + " (Array.to_list parts))
  end

and expr_to_c ctx (e : Expr.t) =
  match e with
  | Expr.Const f -> double_lit f
  | Expr.Var i -> spf "(double) %s" (var_name i)
  | Expr.Load (name, coords) -> load_to_c ctx name coords
  | Expr.Binop (op, a, b) -> (
      let ca = expr_to_c ctx a and cb = expr_to_c ctx b in
      match op with
      | Expr.Add -> spf "(%s + %s)" ca cb
      | Expr.Sub -> spf "(%s - %s)" ca cb
      | Expr.Mul -> spf "(%s * %s)" ca cb
      | Expr.Div -> spf "(%s / %s)" ca cb
      | Expr.Min -> spf "fmin(%s, %s)" ca cb
      | Expr.Max -> spf "fmax(%s, %s)" ca cb
      | Expr.Mod -> spf "(double) ((int) (%s) %% (int) (%s))" ca cb)
  | Expr.Unop (op, a) -> (
      let ca = expr_to_c ctx a in
      match op with
      | Expr.Neg -> spf "(-%s)" ca
      | Expr.Abs -> spf "fabs(%s)" ca
      | Expr.Sqrt -> spf "sqrt(%s)" ca
      | Expr.Exp -> spf "exp(%s)" ca
      | Expr.Log -> spf "log(%s)" ca
      | Expr.Floor ->
          (* The interpreter rounds through int ([Float.of_int
             (int_of_float (Float.floor x))]). *)
          spf "(double) (int) floor(%s)" ca
      | Expr.Sin -> spf "sin(%s)" ca
      | Expr.Cos -> spf "cos(%s)" ca)
  | Expr.Select (c, a, b) ->
      spf "(%s ? %s : %s)" (cond_to_c ctx c) (expr_to_c ctx a) (expr_to_c ctx b)

and cond_to_c ctx (c : Expr.cond) =
  match c with
  | Expr.Cmp (op, a, b) ->
      let s = match op with
        | Expr.Lt -> "<" | Expr.Le -> "<=" | Expr.Gt -> ">"
        | Expr.Ge -> ">=" | Expr.Eq -> "==" | Expr.Ne -> "!="
      in
      spf "(%s %s %s)" (expr_to_c ctx a) s (expr_to_c ctx b)
  | Expr.And (a, b) -> spf "(%s && %s)" (cond_to_c ctx a) (cond_to_c ctx b)
  | Expr.Or (a, b) -> spf "(%s || %s)" (cond_to_c ctx a) (cond_to_c ctx b)
  | Expr.Not a -> spf "(!%s)" (cond_to_c ctx a)

let scratch_alloc_extents (ga : Group_analysis.t) ~member:m ~tile =
  let stage = Pipeline.stage ga.Group_analysis.pipeline ga.Group_analysis.members.(m) in
  Array.init (Stage.ndims stage) (fun k ->
      let g = ga.Group_analysis.dim_of_stage.(m).(k) in
      let s = ga.Group_analysis.scales.(m).(g) in
      let elo, ehi = ga.Group_analysis.expansions.(m).(g) in
      min stage.Stage.dims.(k).Stage.extent (((tile.(g) + elo + ehi) / s) + 2))

let kernel_abi_version = Pmdp_plan.kernel_abi_version
let kernel_symbol gi = spf "pmdp_kernel_group_%d" gi

let kernel_slots (p : Pipeline.t) (ir : Pmdp_plan.t) =
  Array.to_list
    (Array.map (fun (i : Pipeline.input) -> i.Pipeline.in_name) p.Pipeline.inputs)
  @ ir.Pmdp_plan.liveouts

let emit_kernels (p : Pipeline.t) (ir : Pmdp_plan.t) =
  if ir.Pmdp_plan.pipeline <> p.Pipeline.name then
    invalid_arg
      (spf "C_emit.emit_kernels: plan is for pipeline %S, not %S" ir.Pmdp_plan.pipeline
         p.Pipeline.name);
  let b = Buffer.create (64 * 1024) in
  let out fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  out "// pmdp native kernels (double precision); pipeline: %s; abi %d" p.Pipeline.name
    kernel_abi_version;
  out "// plan digest: %s" (Pmdp_plan.digest ir);
  out "#include <math.h>";
  out "#include <stdlib.h>";
  out "#define CLAMPI(x, lo, hi) ((x) < (lo) ? (lo) : ((x) > (hi) ? (hi) : (x)))";
  out "#define FDIV(a, b) ((a) >= 0 ? (a) / (b) : -((-(a) + (b) - 1) / (b)))";
  out "#define CDIV(a, b) ((a) >= 0 ? ((a) + (b) - 1) / (b) : -((-(a)) / (b)))";
  out "";
  let slots = kernel_slots p ir in
  let n_inputs = Array.length p.Pipeline.inputs in
  Array.iteri
    (fun gi (group : Pmdp_plan.group) ->
      let ga = Pmdp_plan.group_analysis p group in
      let tile = group.Pmdp_plan.tile in
      let nd = ga.Group_analysis.n_dims in
      let names =
        String.concat ", "
          (Array.to_list
             (Array.map (fun sid -> (Pipeline.stage p sid).Stage.name) ga.Group_analysis.members))
      in
      out "// ---- group %d: {%s}, tile [%s]" gi names
        (String.concat " x " (Array.to_list (Array.map string_of_int tile)));
      out "void %s(double **bufs, int n_threads) {" (kernel_symbol gi);
      List.iteri
        (fun i name ->
          if i < n_inputs then out "  const double *%s = bufs[%d]; (void) %s;" (buf name) i (buf name)
          else out "  double *%s = bufs[%d]; (void) %s;" (buf name) i (buf name))
        slots;
      out "  (void) n_threads;";
      let tiles_per_dim =
        Array.init nd (fun d ->
            let e = Group_analysis.dim_extent ga d in
            (e + tile.(d) - 1) / tile.(d))
      in
      let in_group name =
        Array.exists (fun sid -> (Pipeline.stage p sid).Stage.name = name) ga.Group_analysis.members
      in
      let ctx = { p; in_group } in
      (* Per-thread scratch arenas live on the heap (per-tile regions
         of the larger apps overflow a thread stack), allocated once
         per thread for the whole tile sweep.  Without OpenMP the
         pragmas are ignored and the block runs once, serially. *)
      out "#pragma omp parallel num_threads(n_threads)";
      out "  {";
      Array.iteri
        (fun m _sid ->
          let stage = Pipeline.stage p ga.Group_analysis.members.(m) in
          let allocs = scratch_alloc_extents ga ~member:m ~tile in
          let max_ext = Array.fold_left ( * ) 1 allocs in
          out "  double *%s = (double *) malloc(%d * sizeof(double));" (scratch stage.Stage.name)
            max_ext)
        ga.Group_analysis.members;
      out "#pragma omp for schedule(static) collapse(%d)" (min 2 nd);
      for d = 0 to nd - 1 do
        out "  %sfor (int t%d = 0; t%d < %d; t%d++) {" (String.make (2 * d) ' ') d d
          tiles_per_dim.(d) d
      done;
      let ind = String.make (2 * (nd + 1)) ' ' in
      for d = 0 to nd - 1 do
        out "  %sint tlo%d = %d + t%d * %d;" ind d ga.Group_analysis.dim_lo.(d) d tile.(d);
        out "  %sint thi%d = tlo%d + %d - 1; if (thi%d > %d) thi%d = %d;" ind d d tile.(d) d
          ga.Group_analysis.dim_hi.(d) d ga.Group_analysis.dim_hi.(d)
      done;
      Array.iteri
        (fun m sid ->
          let stage = Pipeline.stage p sid in
          let sname = stage.Stage.name in
          let own_nd = Stage.ndims stage in
          out "  %s// tile of function %s" ind sname;
          for k = 0 to own_nd - 1 do
            let g = ga.Group_analysis.dim_of_stage.(m).(k) in
            let s = ga.Group_analysis.scales.(m).(g) in
            let elo, ehi = ga.Group_analysis.expansions.(m).(g) in
            let lo, hi = dim_bounds stage.Stage.dims.(k) in
            out "  %sint %s_lo%d = CLAMPI(FDIV(tlo%d - %d, %d), %d, %d);" ind (scratch sname) k g
              elo s lo hi;
            out "  %sint %s_hi%d = CLAMPI(CDIV(thi%d + %d, %d), %d, %d);" ind (scratch sname) k g
              ehi s lo hi
          done;
          let liveout = ga.Group_analysis.liveouts.(m) in
          for k = own_nd - 1 downto 0 do
            if k = own_nd - 1 then out "  %sint %s_st%d = 1;" ind (scratch sname) k
            else
              out "  %sint %s_st%d = %s_st%d * (%s_hi%d - %s_lo%d + 1);" ind (scratch sname) k
                (scratch sname) (k + 1) (scratch sname) (k + 1) (scratch sname) (k + 1)
          done;
          for k = 0 to own_nd - 1 do
            if k = own_nd - 1 then out "%s" "#pragma ivdep";
            out "  %s%sfor (int %s = %s_lo%d; %s <= %s_hi%d; %s++) {" ind
              (String.make (2 * k) ' ') (var_name k) (scratch sname) k (var_name k)
              (scratch sname) k (var_name k)
          done;
          let inner_ind = ind ^ String.make (2 * own_nd) ' ' in
          let dest =
            let idx =
              List.init own_nd (fun d ->
                  spf "(%s - %s_lo%d) * %s_st%d" (var_name d) (scratch sname) d (scratch sname) d)
            in
            spf "%s[%s]" (scratch sname) (String.concat " + " idx)
          in
          (match stage.Stage.def with
          | Stage.Pointwise body -> out "  %s%s = %s;" inner_ind dest (expr_to_c ctx body)
          | Stage.Reduction { op; init; rdom; body } ->
              out "  %sdouble acc = %s;" inner_ind (double_lit init);
              Array.iteri
                (fun r (lo, ext) ->
                  out "  %sfor (int %s = %d; %s < %d; %s++) {" inner_ind
                    (var_name (own_nd + r)) lo (var_name (own_nd + r)) (lo + ext)
                    (var_name (own_nd + r)))
                rdom;
              let acc_op =
                match op with
                | Stage.Rsum -> spf "acc += %s;" (expr_to_c ctx body)
                | Stage.Rmax -> spf "acc = fmax(acc, %s);" (expr_to_c ctx body)
                | Stage.Rmin -> spf "acc = fmin(acc, %s);" (expr_to_c ctx body)
              in
              out "  %s  %s" inner_ind acc_op;
              Array.iteri (fun _ _ -> out "  %s}" inner_ind) rdom;
              out "  %s%s = acc;" inner_ind dest);
          for k = own_nd - 1 downto 0 do
            out "  %s%s}" ind (String.make (2 * k) ' ')
          done;
          if liveout then begin
            out "  %s// copy exact tile of %s to its full buffer" ind sname;
            for k = 0 to own_nd - 1 do
              let g = ga.Group_analysis.dim_of_stage.(m).(k) in
              let s = ga.Group_analysis.scales.(m).(g) in
              let dlo, dhi = dim_bounds stage.Stage.dims.(k) in
              out "  %sint cp_%s_lo%d = CDIV(tlo%d, %d); if (cp_%s_lo%d < %d) cp_%s_lo%d = %d;"
                ind sname k g s sname k dlo sname k dlo;
              out "  %sint cp_%s_hi%d = FDIV(thi%d, %d); if (cp_%s_hi%d > %d) cp_%s_hi%d = %d;"
                ind sname k g s sname k dhi sname k dhi
            done;
            let dims = stage.Stage.dims in
            let stride = strides dims in
            for k = 0 to own_nd - 1 do
              out "  %s%sfor (int %s = cp_%s_lo%d; %s <= cp_%s_hi%d; %s++) {" ind
                (String.make (2 * k) ' ') (var_name k) sname k (var_name k) sname k (var_name k)
            done;
            let buf_idx =
              String.concat " + "
                (List.init own_nd (fun d ->
                     spf "(%s - %d) * %d" (var_name d) dims.(d).Stage.lo stride.(d)))
            in
            out "  %s%s[%s] = %s;" inner_ind (buf sname) buf_idx dest;
            for k = own_nd - 1 downto 0 do
              out "  %s%s}" ind (String.make (2 * k) ' ')
            done
          end)
        ga.Group_analysis.members;
      for d = nd - 1 downto 0 do
        out "  %s}  // tile-space loop t%d" (String.make (2 * d) ' ') d
      done;
      Array.iter
        (fun sid -> out "  free(%s);" (scratch (Pipeline.stage p sid).Stage.name))
        ga.Group_analysis.members;
      out "  }  // omp parallel";
      out "}";
      out "")
    ir.Pmdp_plan.groups;
  Buffer.contents b

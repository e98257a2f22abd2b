module Stage = Pmdp_dsl.Stage

type t = {
  name : string;
  dims : Stage.dim array;
  stride : int array;
  data : float array;
}

let strides_of dims =
  let n = Array.length dims in
  let stride = Array.make n 1 in
  for d = n - 2 downto 0 do
    stride.(d) <- stride.(d + 1) * dims.(d + 1).Stage.extent
  done;
  stride

let create name dims =
  let size = Array.fold_left (fun acc d -> acc * d.Stage.extent) 1 dims in
  { name; dims; stride = strides_of dims; data = Array.make size 0.0 }

let of_stage (s : Stage.t) = create s.Stage.name s.Stage.dims

let with_data name dims data =
  let size = Array.fold_left (fun acc d -> acc * d.Stage.extent) 1 dims in
  if Array.length data < size then
    Pmdp_util.Pmdp_error.(
      raise_
        (Plan_invalid
           {
             context = "Buffer.with_data: " ^ name;
             reason =
               Printf.sprintf "recycled storage holds %d elements, stage needs %d"
                 (Array.length data) size;
           }));
  { name; dims; stride = strides_of dims; data }
let size t = Array.length t.data

let get_clamped t idx =
  let off = ref 0 in
  for d = 0 to Array.length t.dims - 1 do
    let dim = t.dims.(d) in
    let x = idx.(d) in
    let x = if x < dim.Stage.lo then dim.Stage.lo else x in
    let hi = dim.Stage.lo + dim.Stage.extent - 1 in
    let x = if x > hi then hi else x in
    off := !off + ((x - dim.Stage.lo) * t.stride.(d))
  done;
  t.data.(!off)

let offset_exn t idx =
  let off = ref 0 in
  for d = 0 to Array.length t.dims - 1 do
    let dim = t.dims.(d) in
    let x = idx.(d) in
    if x < dim.Stage.lo || x >= dim.Stage.lo + dim.Stage.extent then
      invalid_arg (Printf.sprintf "Buffer.set: %s index %d out of dim %d" t.name x d);
    off := !off + ((x - dim.Stage.lo) * t.stride.(d))
  done;
  !off

let set t idx v = t.data.(offset_exn t idx) <- v

let fill t f =
  let n = Array.length t.dims in
  let idx = Array.map (fun d -> d.Stage.lo) t.dims in
  let rec go d =
    if d = n then t.data.(offset_exn t idx) <- f idx
    else
      let dim = t.dims.(d) in
      for x = dim.Stage.lo to dim.Stage.lo + dim.Stage.extent - 1 do
        idx.(d) <- x;
        go (d + 1)
      done
  in
  go 0

let max_abs_diff a b =
  if Array.length a.data <> Array.length b.data then
    invalid_arg "Buffer.max_abs_diff: shape mismatch";
  let worst = ref 0.0 in
  Array.iteri
    (fun i x ->
      let y = b.data.(i) in
      (* NaN against NaN is equal; Float.max propagates a NaN met on
         one side only. *)
      if x <> y && (x = x || y = y) then worst := Float.max !worst (Float.abs (x -. y)))
    a.data;
  !worst

let checksum t = Array.fold_left ( +. ) 0.0 t.data

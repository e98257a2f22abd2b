module Pipeline = Pmdp_dsl.Pipeline

type lifetime = { stage : string; bytes : int; born : int; dies : int }

type report = {
  lifetimes : lifetime list;
  peak_naive_bytes : int;
  peak_reuse_bytes : int;
}

type slots = { slot : int array; capacity : int array }

(* Every live-out of the plan with its stage id, in group order. *)
let liveouts p (ir : Pmdp_plan.t) =
  let group_of_stage = Array.make (Pipeline.n_stages p) (-1) in
  Array.iteri
    (fun gi (g : Pmdp_plan.group) ->
      Array.iter (fun (m : Pmdp_plan.member) -> group_of_stage.(m.sid) <- gi) g.members)
    ir.groups;
  List.concat
    (List.mapi
       (fun born (g : Pmdp_plan.group) ->
         List.filter_map
           (fun (m : Pmdp_plan.member) ->
             if not m.liveout then None
             else
               let dies =
                 if Pipeline.is_output p m.sid then max_int
                 else
                   List.fold_left
                     (fun acc c -> max acc group_of_stage.(c))
                     born (Pipeline.consumers p m.sid)
               in
               let points = Array.fold_left (fun n (_, extent) -> n * extent) 1 m.dims in
               Some (m.sid, { stage = m.name; bytes = points * 8; born; dies }))
           (Array.to_list g.members))
       (Array.to_list ir.groups))

let lifetimes p ir = List.map snd (liveouts p ir)

let slots ~reuse p ir =
  let live = liveouts p ir in
  let slot = Array.make (Pipeline.n_stages p) (-1) in
  (* per slot: its length, and the last group that reads its buffer *)
  let capacity = Array.make (List.length live) 0 in
  let busy_until = Array.make (List.length live) max_int in
  let n = ref 0 in
  List.iter
    (fun (sid, l) ->
      let points = l.bytes / 8 in
      let best = ref (-1) in
      if reuse && l.dies <> max_int then
        for s = 0 to !n - 1 do
          if
            busy_until.(s) < l.born
            && capacity.(s) >= points
            && (!best < 0 || capacity.(s) < capacity.(!best))
          then best := s
        done;
      if !best < 0 then begin
        best := !n;
        capacity.(!n) <- points;
        incr n
      end;
      slot.(sid) <- !best;
      busy_until.(!best) <- l.dies)
    live;
  { slot; capacity = Array.sub capacity 0 !n }

let report p ir =
  let bytes ~reuse = 8 * Array.fold_left ( + ) 0 (slots ~reuse p ir).capacity in
  {
    lifetimes = lifetimes p ir;
    peak_naive_bytes = bytes ~reuse:false;
    peak_reuse_bytes = bytes ~reuse:true;
  }

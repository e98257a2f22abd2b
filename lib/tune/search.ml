module Rng = Pmdp_util.Rng
module Cost_model = Pmdp_core.Cost_model
module Schedule_spec = Pmdp_core.Schedule_spec

(* Seeded, budgeted hill-climb over per-group tile sizes.  A move
   doubles or halves one dimension of one group's tile; candidates the
   evaluator rejects (illegal schedule, failed admission, execution
   error) score [None] and are skipped.  Deterministic for a given
   seed, budget, and evaluator: the only randomness is the move
   stream. *)

type stats = {
  evaluated : int;  (* distinct candidates scored, initial point included *)
  accepted : int;  (* moves that improved the best score *)
  rejected : int;  (* candidates the evaluator refused *)
}

type result = { tiles : int array array; score : float; stats : stats }

let copy_tiles t = Array.map Array.copy t

let signature tiles =
  String.concat ";"
    (Array.to_list
       (Array.map
          (fun row ->
            String.concat "," (Array.to_list (Array.map string_of_int row)))
          tiles))

let run ~seed ~budget ~init ~evaluate =
  if budget < 1 then invalid_arg "Search.run: budget < 1";
  let rng = Rng.create seed in
  let seen = Hashtbl.create 64 in
  let evaluated = ref 0 and accepted = ref 0 and rejected = ref 0 in
  let score tiles =
    Hashtbl.add seen (signature tiles) ();
    incr evaluated;
    match evaluate (copy_tiles tiles) with
    | Some s when Float.is_finite s -> Some s
    | _ ->
        incr rejected;
        None
  in
  let best = ref (copy_tiles init) in
  let best_score =
    match score init with
    | Some s -> ref s
    | None -> invalid_arg "Search.run: the initial point does not evaluate"
  in
  (* Up to [moves_per_eval] proposals per spent evaluation keeps the
     walk from stalling on duplicate/degenerate moves without making
     the budget unbounded. *)
  let proposals = ref 0 in
  let max_proposals = budget * 8 in
  while !evaluated < budget && !proposals < max_proposals do
    incr proposals;
    let ngroups = Array.length !best in
    if ngroups = 0 then proposals := max_proposals
    else begin
      let g = Rng.int rng ngroups in
      let nd = Array.length !best.(g) in
      if nd > 0 then begin
        let d = Rng.int rng nd in
        let t = !best.(g).(d) in
        let t' = if Rng.bool rng then t * 2 else max 1 (t / 2) in
        if t' <> t then begin
          let cand = copy_tiles !best in
          cand.(g).(d) <- t';
          if not (Hashtbl.mem seen (signature cand)) then
            match score cand with
            | Some s when s < !best_score ->
                best := cand;
                best_score := s;
                incr accepted
            | _ -> ()
        end
      end
    end
  done;
  {
    tiles = !best;
    score = !best_score;
    stats = { evaluated = !evaluated; accepted = !accepted; rejected = !rejected };
  }

(* ------------------------------------------------------------------ *)
(* Schedule-spec adapter: tiles <-> Schedule_spec groups, with the
   spec validator and the static legality check as the gate before
   the caller's evaluator sees a candidate. *)

let tiles_of_spec (spec : Schedule_spec.t) =
  Array.of_list
    (List.map
       (fun (g : Schedule_spec.group) -> Array.copy g.Schedule_spec.tile_sizes)
       spec.Schedule_spec.groups)

let spec_with_tiles (spec : Schedule_spec.t) tiles =
  let groups =
    List.mapi
      (fun i (g : Schedule_spec.group) ->
        { g with Schedule_spec.tile_sizes = Array.copy tiles.(i) })
      spec.Schedule_spec.groups
  in
  { spec with Schedule_spec.groups }

let tune_spec ~seed ~budget ~evaluate (spec : Schedule_spec.t) =
  let init = tiles_of_spec spec in
  let eval tiles =
    let cand = spec_with_tiles spec tiles in
    match Schedule_spec.validate cand with
    | () -> if Result.is_ok (Pmdp_verify.Verify.check_legality cand) then evaluate cand else None
    | exception Invalid_argument _ -> None
  in
  let r = run ~seed ~budget ~init ~evaluate:eval in
  (spec_with_tiles spec r.tiles, r)

(* Sum of predicted per-group costs under [config], over (stages,
   tile) pairs in group order; [None] when any group fails to analyze. *)
let predicted_cost config pipeline groups =
  List.fold_left
    (fun acc (stages, tile) ->
      match acc with
      | None -> None
      | Some total -> (
          match Cost_model.group_features config pipeline ~stages ~tile with
          | None -> None
          | Some f -> Some (total +. Cost_model.predict config f)))
    (Some 0.0) groups

(* Model-cost evaluator: deterministic and execution-free, so it
   drives both the service's background retuner and reproducible
   tests. *)
let model_evaluate config (spec : Schedule_spec.t) =
  predicted_cost config spec.Schedule_spec.pipeline
    (List.map
       (fun (g : Schedule_spec.group) -> (g.Schedule_spec.stages, g.Schedule_spec.tile_sizes))
       spec.Schedule_spec.groups)

(* IR adapter for the online retuner: score candidate tile matrices
   for an already-lowered plan without re-lowering (features come
   straight from the IR's stage lists), then [Pmdp_plan.retile] only
   the winner. *)
let tune_ir ~seed ~budget ~config ~pipeline (ir : Pmdp_plan.t) =
  let stages_of_group (g : Pmdp_plan.group) =
    Array.to_list (Array.map (fun (m : Pmdp_plan.member) -> m.Pmdp_plan.sid) g.Pmdp_plan.members)
  in
  let groups = Array.to_list (Array.map stages_of_group ir.Pmdp_plan.groups) in
  let init =
    Array.map (fun (g : Pmdp_plan.group) -> Array.copy g.Pmdp_plan.tile) ir.Pmdp_plan.groups
  in
  let eval tiles = predicted_cost config pipeline (List.combine groups (Array.to_list tiles)) in
  let r = run ~seed ~budget ~init ~evaluate:eval in
  (r.tiles, r)

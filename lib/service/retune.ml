module Machine = Pmdp_machine.Machine
module Registry = Pmdp_apps.Registry
module Cost_model = Pmdp_core.Cost_model
module Tiled_exec = Pmdp_exec.Tiled_exec
module Resilient = Pmdp_exec.Resilient
module Stats = Pmdp_util.Stats
module Trace = Pmdp_trace.Trace
module Search = Pmdp_tune.Search

(* Online re-optimization: per-fingerprint latency EWMAs fed by the
   shard dispatchers, a background tuner thread that searches for
   better tiles under the (calibrated) cost model, and a guarded A/B
   gate so a cached plan is only ever swapped for a candidate that
   measurably wins.  A winner is committed with Plan_cache.swap on the
   owning shard's cache, which also persists it. *)

type config = {
  hot_threshold : int;
  margin : float;
  ab_reps : int;
  budget : int;
  seed : int;
  propose : (Pmdp_plan.t -> int array array option) option;
}

let default_config =
  { hot_threshold = 8; margin = 0.05; ab_reps = 3; budget = 48; seed = 0x7e5e; propose = None }

type job = {
  fingerprint : string;
  app : Registry.app;
  input_seed : int;
  cache : Plan_cache.t;
  entry : Plan_cache.entry;
}

type counters = {
  observed : int;
  hot : int;
  started : int;
  wins : int;
  losses : int;
  swaps : int;
}

(* Per-fingerprint latency state.  [attempted] makes retuning
   at-most-once per fingerprint per process: a plan that already went
   through the A/B gate (win or lose) is left alone. *)
type fp_state = { mutable ewma : float; mutable count : int; mutable attempted : bool }

type t = {
  config : config;
  machine : Machine.t;
  calib : Cost_model.calibration option;
  lock : Mutex.t;
  work_ready : Condition.t;
  states : (string, fp_state) Hashtbl.t;
  queue : job Queue.t;
  mutable stop : bool;
  mutable tuner : Thread.t option;
  mutable observed : int;
  mutable hot : int;
  mutable started : int;
  mutable wins : int;
  mutable losses : int;
  mutable swaps : int;
}

(* EWMA smoothing factor: recent executions dominate, but one outlier
   does not flip a fingerprint hot. *)
let alpha = 0.3

let observe t ~fingerprint ~wall ~job =
  Mutex.lock t.lock;
  if not t.stop then begin
    t.observed <- t.observed + 1;
    let st =
      match Hashtbl.find_opt t.states fingerprint with
      | Some st -> st
      | None ->
          let st = { ewma = wall; count = 0; attempted = false } in
          Hashtbl.add t.states fingerprint st;
          st
    in
    st.ewma <- (alpha *. wall) +. ((1.0 -. alpha) *. st.ewma);
    st.count <- st.count + 1;
    if st.count >= t.config.hot_threshold && not st.attempted then begin
      st.attempted <- true;
      t.hot <- t.hot + 1;
      Queue.add (job ()) t.queue;
      Condition.signal t.work_ready
    end
  end;
  Mutex.unlock t.lock

(* ------------------------------------------------------------------ *)
(* The tuner thread *)

let median_wall plan ~machine ~inputs ~reps =
  let walls =
    Array.init reps (fun _ ->
        let start = Unix.gettimeofday () in
        match Resilient.run_plan ~machine plan ~inputs with
        | Ok _ -> Unix.gettimeofday () -. start
        | Error _ -> Float.infinity)
  in
  Stats.median walls

let lose t =
  Mutex.lock t.lock;
  t.losses <- t.losses + 1;
  Mutex.unlock t.lock;
  if Trace.on () then Trace.count "service.retune.lose" 1

(* One retune attempt: propose tiles (model-guided search, or the test
   hook), retile the IR, pass it through the full admission gate, then
   A/B both plans on the request's own inputs.  The swap happens only
   when the candidate beats the incumbent by the configured margin. *)
let process t (j : job) =
  Mutex.lock t.lock;
  t.started <- t.started + 1;
  Mutex.unlock t.lock;
  if Trace.on () then Trace.count "service.retune.start" 1;
  let ir = j.entry.Plan_cache.ir in
  let pipeline = Tiled_exec.pipeline j.entry.Plan_cache.plan in
  let proposal =
    match t.config.propose with
    | Some f -> ( try f ir with _ -> None)
    | None ->
        let config = Cost_model.config_of_machine ?calib:t.calib t.machine in
        let tiles, _ =
          Search.tune_ir ~seed:t.config.seed ~budget:t.config.budget ~config ~pipeline ir
        in
        Some tiles
  in
  match proposal with
  | None -> lose t
  | Some tiles -> (
      match Pmdp_plan.retile_result pipeline ir tiles with
      | Error _ -> lose t
      | Ok cand_ir -> (
          let digest = Pmdp_plan.digest cand_ir in
          if digest = j.entry.Plan_cache.digest then lose t (* search kept the tiles *)
          else
            (* Same gate as every other path into a cache slot:
               digest + whole-plan analyzer + instantiation. *)
            match Plan_cache.load ~pipeline ~ir:cand_ir ~digest with
            | Error _ -> lose t
            | Ok cand_plan ->
                let inputs = j.app.Registry.inputs ~seed:j.input_seed pipeline in
                let t_cur =
                  median_wall j.entry.Plan_cache.plan ~machine:t.machine ~inputs
                    ~reps:t.config.ab_reps
                in
                let t_cand =
                  median_wall cand_plan ~machine:t.machine ~inputs ~reps:t.config.ab_reps
                in
                if Float.is_finite t_cand && t_cand < t_cur *. (1.0 -. t.config.margin)
                then begin
                  Mutex.lock t.lock;
                  t.wins <- t.wins + 1;
                  Mutex.unlock t.lock;
                  if Trace.on () then Trace.count "service.retune.win" 1;
                  let entry =
                    {
                      j.entry with
                      Plan_cache.spec = None;
                      plan = cand_plan;
                      ir = cand_ir;
                      digest;
                    }
                  in
                  if Plan_cache.swap j.cache ~fingerprint:j.fingerprint ~entry then begin
                    Mutex.lock t.lock;
                    t.swaps <- t.swaps + 1;
                    Mutex.unlock t.lock;
                    if Trace.on () then Trace.count "service.retune.swap" 1
                  end
                end
                else lose t))

let run_tuner t =
  let continue = ref true in
  while !continue do
    Mutex.lock t.lock;
    while Queue.is_empty t.queue && not t.stop do
      Condition.wait t.work_ready t.lock
    done;
    if t.stop then begin
      Mutex.unlock t.lock;
      continue := false
    end
    else begin
      let j = Queue.pop t.queue in
      Mutex.unlock t.lock;
      (* A tuner crash must never take the service down: fold any
         escaped exception into a loss and keep serving. *)
      try process t j with _ -> lose t
    end
  done

let create ?calib ~config ~machine () =
  if config.hot_threshold < 1 then invalid_arg "Retune.create: hot_threshold < 1";
  if config.ab_reps < 1 then invalid_arg "Retune.create: ab_reps < 1";
  if config.budget < 1 then invalid_arg "Retune.create: budget < 1";
  if not (config.margin >= 0.0 && config.margin < 1.0) then
    invalid_arg "Retune.create: margin outside [0, 1)";
  let t =
    {
      config;
      machine;
      calib;
      lock = Mutex.create ();
      work_ready = Condition.create ();
      states = Hashtbl.create 16;
      queue = Queue.create ();
      stop = false;
      tuner = None;
      observed = 0;
      hot = 0;
      started = 0;
      wins = 0;
      losses = 0;
      swaps = 0;
    }
  in
  t.tuner <- Some (Thread.create run_tuner t);
  t

let counters t =
  Mutex.lock t.lock;
  let c =
    {
      observed = t.observed;
      hot = t.hot;
      started = t.started;
      wins = t.wins;
      losses = t.losses;
      swaps = t.swaps;
    }
  in
  Mutex.unlock t.lock;
  c

let shutdown t =
  Mutex.lock t.lock;
  if t.stop then Mutex.unlock t.lock
  else begin
    t.stop <- true;
    Queue.clear t.queue;
    Condition.signal t.work_ready;
    Mutex.unlock t.lock;
    Option.iter Thread.join t.tuner;
    t.tuner <- None
  end

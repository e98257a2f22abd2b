module Pool = Pmdp_runtime.Pool
module Fault = Pmdp_runtime.Fault
module Machine = Pmdp_machine.Machine
module Pmdp_error = Pmdp_util.Pmdp_error
module Trace = Pmdp_trace.Trace

type step = Plan_step | Native | Tiled_parallel | Tiled_serial | Reference_fallback

let step_name = function
  | Plan_step -> "plan"
  | Native -> "native"
  | Tiled_parallel -> "tiled-parallel"
  | Tiled_serial -> "tiled-serial"
  | Reference_fallback -> "reference"

type native_runner =
  plan:Tiled_exec.plan ->
  workers:int ->
  inputs:(string * Buffer.t) list ->
  (string * Buffer.t) list

(* Installed by [Pmdp_kernel.Native_exec.install]; a hook (rather than
   a direct dependency) because pmdp_kernel sits above pmdp_exec in
   the library graph.  When no backend is installed the native step
   is not attempted (and not recorded), so interpreter-only runs stay
   undegraded. *)
let native_hook : native_runner option ref = ref None
let set_native_runner r = native_hook := r

type outcome = {
  results : (string * Buffer.t) list;
  degraded : bool;
  attempts : (step * Pmdp_error.t option) list;
  groups : Tiled_exec.group_stats list;
}

(* Fold any exception an attempt lets escape into the taxonomy; an
   unrecognized exception is a crash of whatever was executing. *)
let classify context = function
  | Pmdp_error.Error e -> e
  | Invalid_argument reason -> Pmdp_error.Plan_invalid { context; reason }
  | Not_found ->
      Pmdp_error.Unresolved_external { name = "<unknown>"; context = context ^ ": Not_found" }
  | Fault.Injected detail -> Pmdp_error.Worker_crash { worker = -1; detail }
  | e -> Pmdp_error.Worker_crash { worker = -1; detail = context ^ ": " ^ Printexc.to_string e }

(* Run [f] with a watchdog that flips [cancel] after [timeout]
   seconds.  Tiles observe the token cooperatively, so the cancelled
   attempt unwinds through the normal error path; the Cancelled it
   raises is upgraded to a Timeout here, where the deadline is
   known.  The watchdog is a helper thread and must not record trace
   events itself (per-domain buffers are single-writer); the
   [watchdog.fired] instant is recorded by the caller when it observes
   the expiry. *)
let with_watchdog ?timeout ~cancel context f =
  match timeout with
  | None -> f ()
  | Some limit ->
      let finished = Atomic.make false in
      let fired = Atomic.make false in
      let dog =
        Thread.create
          (fun () ->
            let deadline = Unix.gettimeofday () +. limit in
            while (not (Atomic.get finished)) && Unix.gettimeofday () < deadline do
              Thread.yield ();
              Unix.sleepf 0.002
            done;
            if not (Atomic.get finished) then begin
              Atomic.set fired true;
              Fault.cancel cancel
            end)
          ()
      in
      Fun.protect
        ~finally:(fun () ->
          Atomic.set finished true;
          Thread.join dog)
        (fun () ->
          try f ()
          with _ when Atomic.get fired ->
            if Trace.on () then
              Trace.instant ~cat:"resilient"
                ~args:[ ("context", Trace.Str context); ("seconds", Trace.Float limit) ]
                "watchdog.fired";
            Pmdp_error.raise_ (Pmdp_error.Timeout { seconds = limit; context }))

(* The fallback chain shared by {!run} (plans itself) and {!run_plan}
   (caller supplies the plan).  [planned] carries the plan or the
   typed error planning produced. *)
let run_chain ?pool ?sched ?machine ?mem_budget ?fault ?timeout ~planned ~pipeline
    ~inputs () =
  let machine = Option.value machine ~default:Machine.xeon in
  let budget =
    match mem_budget with Some b -> b | None -> Machine.default_mem_budget machine
  in
  let attempts = ref [] in
  let record st err =
    attempts := (st, err) :: !attempts;
    if Trace.on () then
      Trace.instant ~cat:"resilient"
        ~args:
          (("step", Trace.Str (step_name st))
          ::
          (match err with
          | None -> [ ("ok", Trace.Bool true) ]
          | Some e -> [ ("error", Trace.Str (Pmdp_error.to_string e)) ]))
        "resilient.step"
  in
  let finish (results, groups) =
    let degraded = List.exists (fun (_, e) -> e <> None) !attempts in
    Ok { results; degraded; attempts = List.rev !attempts; groups }
  in
  let input_bytes =
    List.fold_left (fun acc (_, b) -> acc + (Buffer.size b * 8)) 0 inputs
  in
  (* One strategy of the chain: returns [Some (results, groups)] to
     stop, [None] to continue down the chain. *)
  let attempt st f =
    let cancel = Fault.new_token () in
    let body () =
      if not (Trace.on ()) then f ~cancel
      else
        Trace.with_span ~cat:"resilient"
          ~args:[ ("step", Trace.Str (step_name st)) ]
          (step_name st)
          (fun () -> f ~cancel)
    in
    match with_watchdog ?timeout ~cancel (step_name st) body with
    | results ->
        record st None;
        Some results
    | exception e ->
        record st (Some (classify (step_name st) e));
        None
  in
  let reference () =
    attempt Reference_fallback (fun ~cancel:_ -> (Reference.run pipeline ~inputs, []))
  in
  match planned with
  | Error e -> (
      (* The schedule cannot be lowered at all; the reference executor
         needs no plan, so degrade straight to it. *)
      record Plan_step (Some e);
      match reference () with Some r -> finish r | None -> Error e)
  | Ok plan -> (
      Option.iter (fun f -> Fault.resolve f ~n:(Tiled_exec.total_tiles plan)) fault;
      record Plan_step None;
      let resident = input_bytes + Tiled_exec.working_set_bytes plan in
      let scratch = Tiled_exec.scratch_bytes_per_worker plan in
      if resident > budget then
        (* Even the serial/reference backstops need the full buffers
           resident: nothing can run under this budget. *)
        Error
          (Pmdp_error.Scratch_over_budget
             {
               required_bytes = resident;
               budget_bytes = budget;
               context = "Resilient: working set (inputs + live-out buffers)";
             })
      else begin
        let over_budget st required =
          if Trace.on () then
            Trace.instant ~cat:"resilient"
              ~args:
                [
                  ("step", Trace.Str (step_name st));
                  ("required_bytes", Trace.Int required);
                  ("budget_bytes", Trace.Int budget);
                ]
              "budget.skip";
          record st
            (Some
               (Pmdp_error.Scratch_over_budget
                  {
                    required_bytes = required;
                    budget_bytes = budget;
                    context = step_name st ^ ": working set + scratch arenas";
                  }))
        in
        let tiled ~use_pool =
          match (use_pool, pool) with
          | true, Some pool ->
              attempt Tiled_parallel (fun ~cancel ->
                  (* Worker-kill injections fire from the pool's job
                     hook, where a raise takes the domain down. *)
                  let hook =
                    Option.map (fun f w -> Fault.job_tick f ~worker:w) fault
                  in
                  Pool.set_job_hook pool hook;
                  Fun.protect
                    ~finally:(fun () -> Pool.set_job_hook pool None)
                    (fun () ->
                      Tiled_exec.run ~pool ?sched ?fault ~cancel plan ~inputs))
          | _ -> attempt Tiled_serial (fun ~cancel ->
                     Tiled_exec.run ?sched ?fault ~cancel plan ~inputs)
        in
        let try_parallel () =
          match pool with
          | None -> None
          | Some p ->
              let required = resident + (scratch * Pool.n_workers p) in
              if required > budget then begin
                over_budget Tiled_parallel required;
                None
              end
              else tiled ~use_pool:true
        in
        let try_serial () =
          let required = resident + scratch in
          if required > budget then begin
            over_budget Tiled_serial required;
            None
          end
          else tiled ~use_pool:false
        in
        let try_native () =
          match !native_hook with
          | None -> None
          | Some runner ->
              (* The kernels run in place on the inputs' and live-outs'
                 storage, plus one scratch arena per OpenMP thread.
                 The arenas are sized by C_emit.scratch_alloc_extents,
                 not by the interpreter's figure used here, so this
                 stays an estimate. *)
              let workers = match pool with Some p -> Pool.n_workers p | None -> 1 in
              let required = resident + (scratch * workers) in
              if required > budget then begin
                over_budget Native required;
                None
              end
              else attempt Native (fun ~cancel:_ -> (runner ~plan ~workers ~inputs, []))
        in
        match try_native () with
        | Some r -> finish r
        | None -> (
        match try_parallel () with
        | Some r -> finish r
        | None -> (
            match try_serial () with
            | Some r -> finish r
            | None -> (
                match reference () with
                | Some r -> finish r
                | None -> (
                    (* every strategy failed: surface the last error *)
                    match !attempts with
                    | (_, Some e) :: _ -> Error e
                    | _ ->
                        Error
                          (Pmdp_error.Plan_invalid
                             { context = "Resilient"; reason = "no strategy available" })))))
      end)

let run ?pool ?sched ?machine ?mem_budget ?fault ?timeout spec ~inputs =
  run_chain ?pool ?sched ?machine ?mem_budget ?fault ?timeout
    ~planned:(Tiled_exec.plan_result spec)
    ~pipeline:spec.Pmdp_core.Schedule_spec.pipeline ~inputs ()

let run_plan ?pool ?sched ?machine ?mem_budget ?fault ?timeout plan ~inputs =
  run_chain ?pool ?sched ?machine ?mem_budget ?fault ?timeout ~planned:(Ok plan)
    ~pipeline:(Tiled_exec.pipeline plan) ~inputs ()

(* Fault-injection matrix: every registry pipeline x an injected fault
   (worker kill, tile crash, scratch over budget, slow tile, invalid
   plan), executed through the resilient driver.  Each case must
   (a) survive — the process neither crashes nor hangs,
   (b) produce live-out buffers bitwise identical to the reference
       executor, and
   (c) record the degradation in the outcome's fallback chain, and
   (d) return one group record per plan group from the tiled step
       that answered, none from the reference.
   Run directly or via `dune build @faultcheck` / `dune runtest`. *)

module Machine = Pmdp_machine.Machine
module Scheduler = Pmdp_core.Scheduler
module Schedule_spec = Pmdp_core.Schedule_spec
module Tiled_exec = Pmdp_exec.Tiled_exec
module Resilient = Pmdp_exec.Resilient
module Reference = Pmdp_exec.Reference
module Buffer = Pmdp_exec.Buffer
module Pool = Pmdp_runtime.Pool
module Fault = Pmdp_runtime.Fault
module Pmdp_error = Pmdp_util.Pmdp_error
module Registry = Pmdp_apps.Registry

let failed = ref false

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      failed := true;
      Printf.printf "  FAIL %s\n%!" msg)
    fmt

(* One resilient run that must recover: Ok outcome, bitwise-equal
   live-outs, a degraded outcome with a failed step on its chain, and
   the group records of the answering attempt only. *)
let expect_recovery ~app ~case ?pool ?mem_budget ?fault ?timeout spec ~inputs ~reference =
  match Resilient.run ?pool ~machine:Machine.xeon ?mem_budget ?fault ?timeout spec ~inputs with
  | exception e -> fail "%s/%s: escaped exception %s" app case (Printexc.to_string e)
  | Error e -> fail "%s/%s: hard error %s" app case (Pmdp_error.to_string e)
  | Ok { Resilient.results; degraded; attempts; groups } ->
      if not degraded then fail "%s/%s: fault did not degrade the run" app case;
      List.iter
        (fun (n, b) ->
          match List.assoc_opt n reference with
          | None -> ()
          | Some r ->
              let d = Buffer.max_abs_diff b r in
              if d <> 0.0 then fail "%s/%s: %s differs from reference by %g" app case n d)
        results;
      let n_err = List.length (List.filter (fun (_, e) -> e <> None) attempts) in
      if n_err = 0 then fail "%s/%s: no failed step recorded in the outcome" app case;
      let answered = match List.rev attempts with (st, None) :: _ -> Some st | _ -> None in
      let expected =
        match answered with
        | Some (Resilient.Tiled_parallel | Resilient.Tiled_serial) -> Schedule_spec.n_groups spec
        | _ -> 0
      in
      if List.map (fun (g : Tiled_exec.group_stats) -> g.index) groups <> List.init expected Fun.id
      then
        fail "%s/%s: %d group records, expected groups 0..%d once each" app case
          (List.length groups) (expected - 1);
      Printf.printf "  ok   %-20s %d attempt(s) failed, recovered via %s\n%!" case n_err
        (match answered with Some st -> Resilient.step_name st | None -> "?")

let input_bytes inputs = List.fold_left (fun acc (_, b) -> acc + (Buffer.size b * 8)) 0 inputs

let () =
  let scale = try int_of_string Sys.argv.(1) with _ -> 32 in
  let config = Pmdp_core.Cost_model.default_config Machine.xeon in
  List.iter
    (fun (app : Registry.app) ->
      let p = app.build ~scale in
      let inputs = app.inputs ~seed:1 p in
      let reference = Reference.run p ~inputs in
      let scheduler = Scheduler.for_pipeline Scheduler.Dp p in
      let spec = Scheduler.schedule scheduler config p in
      Printf.printf "%s (%s):\n%!" app.name (Scheduler.to_string scheduler);
      let plan =
        match Tiled_exec.plan_result spec with
        | Ok plan -> plan
        | Error e ->
            fail "%s: plan failed: %s" app.name (Pmdp_error.to_string e);
            exit 1
      in
      let resident = input_bytes inputs + Tiled_exec.working_set_bytes plan in
      let scratch = Tiled_exec.scratch_bytes_per_worker plan in

      (* worker-crash: a Kill spec fires from the pool's job hook and
         takes a worker domain down mid-run; the parallel attempt
         surfaces Worker_crash and the serial retry must be clean. *)
      Pool.with_pool 3 (fun pool ->
          expect_recovery ~app:app.name ~case:"worker-crash" ~pool
            ~fault:(Fault.create [ { Fault.action = Fault.Kill; at = 1 } ])
            spec ~inputs ~reference;
          (* the crashed domain must not poison the pool: the next
             dispatch heals it back to full width and full coverage *)
          let hits = Array.init 100 (fun _ -> Atomic.make 0) in
          Pool.parallel_for pool ~n:100 (fun i -> Atomic.incr hits.(i));
          Array.iteri
            (fun i a ->
              if Atomic.get a <> 1 then
                fail "%s/worker-crash: post-heal index %d ran %d times" app.name i
                  (Atomic.get a))
            hits;
          if Pool.alive_workers pool <> 3 then
            fail "%s/worker-crash: pool healed to %d of 3 workers" app.name
              (Pool.alive_workers pool));

      (* tile-crash at a seeded random tick, serial: falls back to the
         reference executor. *)
      expect_recovery ~app:app.name ~case:"tile-crash@r"
        ~fault:(Fault.create ~seed:11 [ { Fault.action = Fault.Crash; at = -1 } ])
        spec ~inputs ~reference;

      (* scratch-over-budget: a budget the serial arena fits but three
         parallel arenas do not forces degrade-to-serial; when the plan
         needs no scratch at all, a budget under the working set is a
         hard typed error instead. *)
      if scratch > 0 then
        Pool.with_pool 3 (fun pool ->
            expect_recovery ~app:app.name ~case:"scratch-over-budget" ~pool
              ~mem_budget:(resident + scratch) spec ~inputs ~reference)
      else begin
        let case = "working-set-over-budget" in
        match
          Resilient.run ~machine:Machine.xeon ~mem_budget:(max 0 (resident - 1)) spec ~inputs
        with
        | Error (Pmdp_error.Scratch_over_budget _) -> Printf.printf "  ok   %-20s hard typed error\n%!" case
        | Error e -> fail "%s/%s: wrong error %s" app.name case (Pmdp_error.to_string e)
        | Ok _ -> fail "%s/%s: ran despite impossible budget" app.name case
        | exception e -> fail "%s/%s: escaped exception %s" app.name case (Printexc.to_string e)
      end;

      (* slow tile: the first tile sleeps past the watchdog deadline;
         cooperative cancellation turns the attempt into a typed
         Timeout and the chain continues (the fire-once spec is spent,
         so the fallback run is clean). *)
      expect_recovery ~app:app.name ~case:"slow-tile"
        ~fault:(Fault.create [ { Fault.action = Fault.Sleep 0.25; at = 0 } ])
        ~timeout:0.05 spec ~inputs ~reference;

      (* alloc-fail: the first scratch-arena allocation fails; with no
         scratch the spec never fires, so only run it where it can. *)
      if scratch > 0 then
        expect_recovery ~app:app.name ~case:"alloc-fail"
          ~fault:(Fault.create [ { Fault.action = Fault.Alloc_fail; at = 0 } ])
          spec ~inputs ~reference;

      (* invalid plan: a zero tile size fails Schedule_spec.validate;
         the driver records the typed Plan_invalid and degrades
         straight to the reference executor. *)
      let broken =
        {
          spec with
          Schedule_spec.groups =
            List.map
              (fun (g : Schedule_spec.group) ->
                { g with Schedule_spec.tile_sizes = Array.map (fun _ -> 0) g.tile_sizes })
              spec.Schedule_spec.groups;
        }
      in
      expect_recovery ~app:app.name ~case:"invalid-plan" broken ~inputs ~reference)
    Registry.all;
  if !failed then begin
    print_endline "test_fault: FAILED";
    exit 1
  end;
  print_endline "all injected faults recovered or surfaced as typed errors"

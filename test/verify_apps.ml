(* Static-verification sweep: every registry pipeline x every
   non-executing scheduler, on both machine models, must check with
   zero errors.  Run directly or via `dune runtest`.

   Every case runs even when an earlier one fails — a scheduler that
   raises on one app must not mask results for the rest — and the
   sweep ends with one PASS/FAIL summary line per app. *)

module Scheduler = Pmdp_core.Scheduler

let () =
  let scale = try int_of_string Sys.argv.(1) with _ -> 32 in
  let app_failures = ref [] in
  List.iter
    (fun (app : Pmdp_apps.Registry.app) ->
      let failures = ref 0 in
      (match app.build ~scale with
      | exception e ->
          incr failures;
          Printf.printf "%-14s build raised: %s\n%!" app.name (Printexc.to_string e)
      | p ->
          List.iter
            (fun machine ->
              let config = Pmdp_core.Cost_model.default_config machine in
              List.iter
                (fun scheduler ->
                  let case_header summary =
                    Printf.printf "%-14s %-8s %-8s %s\n%!" app.name
                      machine.Pmdp_machine.Machine.name
                      (Scheduler.to_string scheduler) summary
                  in
                  match
                    Pmdp_baselines.Schedulers.schedule
                      (Scheduler.for_pipeline scheduler p)
                      config p
                  with
                  | exception e ->
                      incr failures;
                      case_header ("scheduler raised: " ^ Printexc.to_string e)
                  | sched ->
                      let ds = Pmdp_verify.Verify.check_schedule sched in
                      let errs = Pmdp_verify.Verify.errors ds in
                      case_header (Pmdp_verify.Diagnostic.summary ds);
                      if errs <> [] then begin
                        incr failures;
                        List.iter
                          (fun d ->
                            Printf.printf "  %s\n%!" (Pmdp_verify.Diagnostic.to_string d))
                          errs
                      end)
                Scheduler.[ Dp; Greedy; Halide; Manual ])
            [ Pmdp_machine.Machine.xeon; Pmdp_machine.Machine.opteron ]);
      app_failures := (app.name, !failures) :: !app_failures)
    Pmdp_apps.Registry.all;
  let per_app = List.rev !app_failures in
  print_newline ();
  List.iter
    (fun (name, n) ->
      if n = 0 then Printf.printf "PASS %s\n%!" name
      else Printf.printf "FAIL %s (%d failing case(s))\n%!" name n)
    per_app;
  if List.exists (fun (_, n) -> n > 0) per_app then begin
    print_endline "verify_apps: FAILED";
    exit 1
  end;
  print_endline "all schedules verified"

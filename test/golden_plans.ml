(* Golden-plan regression corpus: one serialized plan IR per registry
   app x non-executing scheduler (scale 32, xeon).  `--check DIR`
   (the @plancheck alias) re-lowers every case, round-trips it through
   JSON, runs the whole-plan static analyzer, and compares content
   digests against the committed corpus — so a DP-model or lowering
   change that alters any plan turns into a test failure without
   executing a single tile.  It also compares the MD5 of each plan's
   kernel C ([C_emit.emit_kernels]) against [DIR/kernel_c.md5], so an
   emitter change shows up as drift too (regenerate it together with a
   decision on [C_emit.kernel_abi_version]).  `--write DIR` regenerates
   the corpus and the list (run from the repo root after an
   intentional change, then commit the diff). *)

module Scheduler = Pmdp_core.Scheduler
module Machine = Pmdp_machine.Machine
module Plan = Pmdp_plan
module Verify = Pmdp_verify.Verify
module C_emit = Pmdp_codegen.C_emit

let schedulers = Scheduler.[ Dp; Greedy; Halide; Manual ]
let scale = 32

let cases () =
  let config = Pmdp_core.Cost_model.default_config Machine.xeon in
  List.concat_map
    (fun (app : Pmdp_apps.Registry.app) ->
      let p = app.build ~scale in
      List.map
        (fun scheduler ->
          let name = Printf.sprintf "%s_%s" app.name (Scheduler.to_string scheduler) in
          let resolved = Scheduler.for_pipeline scheduler p in
          (name, p, lazy (Pmdp_baselines.Schedulers.schedule resolved config p)))
        schedulers)
    Pmdp_apps.Registry.all

let kernel_md5 p ir = Digest.to_hex (Digest.string (C_emit.emit_kernels p ir))
let kernel_list dir = Filename.concat dir "kernel_c.md5"

(* One "<name> <md5>" line per case. *)
let read_kernel_list path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' line with
         | [ name; md5 ] -> Some (name, md5)
         | _ -> None)

let () =
  let mode, dir =
    match Array.to_list Sys.argv with
    | [ _; "--write"; dir ] -> (`Write, dir)
    | [ _; "--check"; dir ] -> (`Check, dir)
    | [ _ ] -> (`Check, "golden_plans")
    | _ ->
        prerr_endline "usage: golden_plans [--write DIR | --check DIR]";
        exit 2
  in
  let failures = ref 0 in
  let fail name fmt =
    Printf.ksprintf
      (fun msg ->
        incr failures;
        Printf.printf "FAIL %-24s %s\n%!" name msg)
      fmt
  in
  let golden_kernels =
    match mode with
    | `Write -> []
    | `Check -> (
        try read_kernel_list (kernel_list dir)
        with Sys_error e ->
          fail "kernel_c.md5" "unreadable kernel-C list: %s" e;
          [])
  in
  let kernels = ref [] in
  List.iter
    (fun (name, p, spec) ->
      let ir = Plan.of_spec (Lazy.force spec) in
      let path = Filename.concat dir (name ^ ".json") in
      let md5 = kernel_md5 p ir in
      kernels := (name, md5) :: !kernels;
      match mode with
      | `Write ->
          Plan.write path ir;
          Printf.printf "wrote %-24s digest %s\n%!" name (Plan.digest ir)
      | `Check -> (
          (* the kernel C must match the committed digest list *)
          (match List.assoc_opt name golden_kernels with
          | None -> fail name "no kernel-C digest in %s" (kernel_list dir)
          | Some golden when golden <> md5 ->
              fail name "kernel C drift: emitted md5 %s, golden %s" md5 golden
          | Some _ -> ());
          (* round-trip: the codec must be the identity up to digest *)
          (match Plan.of_json (Plan.to_json ir) with
          | Error e -> fail name "round-trip parse failed: %s" e
          | Ok ir' ->
              if Plan.digest ir' <> Plan.digest ir then
                fail name "round-trip changed the digest");
          (* the analyzer must accept every in-tree plan *)
          let errs = Verify.errors (Verify.check_plan p ir) in
          List.iter
            (fun d -> fail name "analyzer: %s" (Pmdp_verify.Diagnostic.to_string d))
            errs;
          (* digest must match the committed corpus *)
          match Plan.read path with
          | Error e -> fail name "unreadable golden plan: %s" e
          | Ok (golden, claimed) ->
              if Plan.digest golden <> claimed then
                fail name "golden file tampered: claimed digest %s, content %s" claimed
                  (Plan.digest golden)
              else if Plan.digest ir <> claimed then
                fail name
                  "plan drift: lowered digest %s, golden %s (regenerate with --write if \
                   intentional)"
                  (Plan.digest ir) claimed
              else Printf.printf "ok   %-24s %s\n%!" name claimed))
    (cases ());
  match mode with
  | `Write ->
      let oc = open_out (kernel_list dir) in
      List.iter (fun (name, md5) -> Printf.fprintf oc "%s %s\n" name md5) (List.rev !kernels);
      close_out oc;
      Printf.printf "wrote %s\n%!" (kernel_list dir)
  | `Check ->
      if !failures > 0 then begin
        Printf.printf "golden_plans: %d failure(s)\n%!" !failures;
        exit 1
      end;
      print_endline "golden_plans: all plans verified"

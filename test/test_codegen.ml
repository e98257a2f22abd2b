(* Tests for the C/OpenMP kernel emitter, including a compile check
   with the system g++ when one is available. *)

module C_emit = Pmdp_codegen.C_emit
module Schedule_spec = Pmdp_core.Schedule_spec
module Cost_model = Pmdp_core.Cost_model
module Machine = Pmdp_machine.Machine

let config = Cost_model.default_config Machine.xeon

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let kernels (sched : Schedule_spec.t) =
  C_emit.emit_kernels sched.Schedule_spec.pipeline (Pmdp_plan.of_spec sched)

let blur_code () =
  let p = Pmdp_apps.Blur.build ~rows:62 ~cols:64 () in
  kernels (fst (Schedule_spec.dp config p))

let test_structure () =
  let code = blur_code () in
  List.iter
    (fun marker ->
      Alcotest.(check bool) ("contains " ^ marker) true (contains code marker))
    [
      "#pragma omp parallel num_threads(n_threads)";
      "#pragma omp for schedule(static)";
      "#pragma ivdep";
      "tile of function blurx";
      "tile of function blury";
      "double *scr_blurx = (double *) malloc(";
      "void pmdp_kernel_group_0(double **bufs, int n_threads)";
      "const double *buf_img = bufs[0];";
      "double *buf_blury = bufs[1];";
      "CLAMPI";
    ]

let test_liveouts_copy_out () =
  let code = blur_code () in
  (* live-outs compute into scratch and copy their exact tile part *)
  Alcotest.(check bool) "blury scratch exists" true (contains code "double *scr_blury =");
  Alcotest.(check bool) "copy-out loop" true (contains code "copy exact tile of blury")

let test_unfused_schedule_code () =
  let p = Pmdp_apps.Blur.build ~rows:32 ~cols:32 () in
  let sched = Schedule_spec.with_tiles p [ ([ 0 ], [| 3; 16; 16 |]); ([ 1 ], [| 3; 16; 16 |]) ] in
  let code = kernels sched in
  (* both stages become live-outs with buffer slots, one function each *)
  Alcotest.(check bool) "blurx buffer slot" true (contains code "double *buf_blurx = bufs[1];");
  Alcotest.(check bool) "blury buffer slot" true (contains code "double *buf_blury = bufs[2];");
  Alcotest.(check bool) "second group function" true
    (contains code "void pmdp_kernel_group_1(double **bufs, int n_threads)")

let test_reduction_codegen () =
  let p = Pmdp_apps.Bilateral_grid.build ~scale:32 () in
  let code = kernels (fst (Schedule_spec.dp config p)) in
  Alcotest.(check bool) "accumulator loop" true (contains code "acc +=")

let gpp_available () = Sys.command "which g++ > /dev/null 2>&1" = 0

let compile_with_gpp code name =
  let path = Filename.temp_file ("pmdp_" ^ name) ".cpp" in
  let oc = open_out path in
  output_string oc code;
  close_out oc;
  let rc =
    Sys.command
      (Printf.sprintf "g++ -fsyntax-only -fopenmp -Wno-unknown-pragmas %s 2>/dev/null" path)
  in
  Sys.remove path;
  rc = 0

let test_gpp_compiles_all_apps () =
  if not (gpp_available ()) then ()
  else
    List.iter
      (fun (app : Pmdp_apps.Registry.app) ->
        let p = app.Pmdp_apps.Registry.build ~scale:32 in
        let sched = Pmdp_core.Scheduler.schedule Pmdp_core.Scheduler.Dp config p in
        let code = kernels sched in
        Alcotest.(check bool)
          (app.Pmdp_apps.Registry.name ^ " compiles with g++")
          true
          (compile_with_gpp code app.Pmdp_apps.Registry.name))
      Pmdp_apps.Registry.all

let () =
  Alcotest.run "pmdp_codegen"
    [
      ( "emit",
        [
          Alcotest.test_case "structure markers" `Quick test_structure;
          Alcotest.test_case "live-out copy-out" `Quick test_liveouts_copy_out;
          Alcotest.test_case "unfused schedule" `Quick test_unfused_schedule_code;
          Alcotest.test_case "reduction" `Quick test_reduction_codegen;
          Alcotest.test_case "g++ compiles all apps" `Slow test_gpp_compiles_all_apps;
        ] );
    ]

(* Differential test: build the emitted kernels plus a small [main()]
   with g++, run the binary, and compare every live-out against the
   OCaml reference executor.

   The kernels compute in double precision and mirror the interpreter
   operation for operation, so the comparison is the native admission
   gate's rule: bitwise equality, every live-out. *)

open Pmdp_dsl
module Buffer_ = Pmdp_exec.Buffer
module C_emit = Pmdp_codegen.C_emit
module Schedule_spec = Pmdp_core.Schedule_spec
module Cost_model = Pmdp_core.Cost_model
module Machine = Pmdp_machine.Machine

let config = Cost_model.default_config Machine.xeon
let gpp_available () = Sys.command "which g++ > /dev/null 2>&1" = 0

(* Raw little-endian float64, row-major: the layout of [Buffer_.data]. *)
let write_f64 path (b : Buffer_.t) =
  let bytes = Bytes.create (8 * Buffer_.size b) in
  Array.iteri (fun i v -> Bytes.set_int64_le bytes (8 * i) (Int64.bits_of_float v)) b.Buffer_.data;
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc bytes)

let read_f64 path n =
  let s = In_channel.with_open_bin path In_channel.input_all in
  Alcotest.(check int) (path ^ " length") (8 * n) (String.length s);
  Array.init n (fun i -> Int64.float_of_bits (String.get_int64_le s (8 * i)))

(* The kernels plus a [main()] that reads every input slot from
   <name>.bin, zeroes every live-out, runs each group on 2 threads in
   plan order, and writes every live-out to <name>.out.bin. *)
let harness p ir size =
  let slots = C_emit.kernel_slots p ir in
  let n_inputs = Array.length p.Pipeline.inputs in
  let b = Buffer.create (64 * 1024) in
  let out fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  Buffer.add_string b (C_emit.emit_kernels p ir);
  out "#include <stdio.h>";
  out "static double *get(const char *path, long n) {";
  out "  double *d = (double *) malloc(n * sizeof(double));";
  out "  FILE *f = fopen(path, \"rb\");";
  out "  if (!f || fread(d, sizeof(double), n, f) != (size_t) n) exit(2);";
  out "  fclose(f);";
  out "  return d;";
  out "}";
  out "static void put(const char *path, const double *d, long n) {";
  out "  FILE *f = fopen(path, \"wb\");";
  out "  if (!f || fwrite(d, sizeof(double), n, f) != (size_t) n) exit(3);";
  out "  fclose(f);";
  out "}";
  out "int main(void) {";
  out "  double *bufs[%d];" (List.length slots);
  List.iteri
    (fun i name ->
      if i < n_inputs then out "  bufs[%d] = get(\"%s.bin\", %d);" i name (size name)
      else out "  bufs[%d] = (double *) calloc(%d, sizeof(double));" i (size name))
    slots;
  for gi = 0 to Pmdp_plan.n_groups ir - 1 do
    out "  %s(bufs, 2);" (C_emit.kernel_symbol gi)
  done;
  List.iteri
    (fun i name -> if i >= n_inputs then out "  put(\"%s.out.bin\", bufs[%d], %d);" name i (size name))
    slots;
  out "  return 0;";
  out "}";
  Buffer.contents b

let run_diff (app : Pmdp_apps.Registry.app) scale =
  let name = app.Pmdp_apps.Registry.name in
  let p = app.Pmdp_apps.Registry.build ~scale in
  let inputs = app.Pmdp_apps.Registry.inputs ~seed:21 p in
  let sched = Pmdp_core.Scheduler.schedule Pmdp_core.Scheduler.Dp config p in
  let ir = Pmdp_plan.of_spec sched in
  let reference = Pmdp_exec.Reference.run p ~inputs in
  let size name =
    match List.assoc_opt name inputs with
    | Some b -> Buffer_.size b
    | None -> Buffer_.size (List.assoc name reference)
  in
  let dir = Filename.temp_file "pmdp_diff" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let src = Filename.concat dir "gen.cpp" in
  let exe = Filename.concat dir "gen.exe" in
  Out_channel.with_open_text src (fun oc -> output_string oc (harness p ir size));
  List.iter (fun (input, buf) -> write_f64 (Filename.concat dir (input ^ ".bin")) buf) inputs;
  let compile =
    Printf.sprintf "g++ -O1 -fopenmp -ffp-contract=off -Wno-unknown-pragmas -o %s %s 2>/dev/null"
      exe src
  in
  Alcotest.(check int) (name ^ " compiles") 0 (Sys.command compile);
  Alcotest.(check int) (name ^ " runs") 0 (Sys.command (Printf.sprintf "cd %s && %s" dir exe));
  List.iter
    (fun liveout ->
      let expected = List.assoc liveout reference in
      let data = read_f64 (Filename.concat dir (liveout ^ ".out.bin")) (Buffer_.size expected) in
      let got = Buffer_.with_data expected.Buffer_.name expected.Buffer_.dims data in
      let diff = Buffer_.max_abs_diff got expected in
      Alcotest.(check bool)
        (Printf.sprintf "%s live-out %s bitwise (max |diff| %g)" name liveout diff)
        true (diff = 0.0))
    ir.Pmdp_plan.liveouts;
  ignore (Sys.command ("rm -rf " ^ Filename.quote dir))

let diff_test name =
  Alcotest.test_case name `Slow (fun () ->
      if gpp_available () then run_diff (Pmdp_apps.Registry.find_exn name) 16)

let () =
  Alcotest.run "pmdp_codegen_diff"
    [
      ( "c++-vs-ocaml",
        List.map diff_test
          [
            "blur";
            "unsharp";
            "harris";
            "bilateral_grid";
            "camera_pipe";
            "pyramid_blend";
            "interpolate";
            "local_laplacian";
            "morphology";
          ] );
    ]

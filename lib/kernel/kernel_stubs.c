/* dlopen/dlsym FFI and the kernel call shim for the native backend.
 *
 * The repository deliberately carries no ctypes dependency; these few
 * stubs are the entire foreign surface.  Handles and function
 * pointers cross into OCaml as nativeint — they are opaque tokens the
 * OCaml side only stores and passes back.
 */

#include <caml/alloc.h>
#include <caml/bigarray.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/threads.h>
#include <dlfcn.h>

CAMLprim value pmdp_dl_open(value path)
{
  CAMLparam1(path);
  void *h = dlopen(String_val(path), RTLD_NOW | RTLD_LOCAL);
  if (h == NULL) {
    const char *e = dlerror();
    caml_failwith(e ? e : "dlopen failed");
  }
  CAMLreturn(caml_copy_nativeint((intnat) h));
}

CAMLprim value pmdp_dl_sym(value handle, value name)
{
  CAMLparam2(handle, name);
  void *h = (void *) Nativeint_val(handle);
  dlerror(); /* clear, so a NULL result can be told from an error */
  void *s = dlsym(h, String_val(name));
  if (s == NULL) {
    const char *e = dlerror();
    caml_failwith(e ? e : "dlsym: symbol resolved to NULL");
  }
  CAMLreturn(caml_copy_nativeint((intnat) s));
}

/* Call void kernel(double **bufs, int n_threads) with the data
 * pointers of an array of 1-D float64 bigarrays.  The pointers are
 * collected while the runtime lock is still held; bigarray data lives
 * outside the OCaml heap, so they stay valid after the lock is
 * released for the (possibly long, OpenMP-parallel) kernel call. */
#define PMDP_MAX_BUFS 256

CAMLprim value pmdp_call_kernel(value fn, value bufs, value nt)
{
  CAMLparam3(fn, bufs, nt);
  void (*kernel)(double **, int) = (void (*)(double **, int)) Nativeint_val(fn);
  mlsize_t n = Wosize_val(bufs);
  double *argv[PMDP_MAX_BUFS];
  if (n > PMDP_MAX_BUFS)
    caml_invalid_argument("pmdp_call_kernel: too many buffers");
  for (mlsize_t i = 0; i < n; i++)
    argv[i] = (double *) Caml_ba_data_val(Field(bufs, i));
  int threads = Int_val(nt);
  caml_release_runtime_system();
  kernel(argv, threads);
  caml_acquire_runtime_system();
  CAMLreturn(Val_unit);
}

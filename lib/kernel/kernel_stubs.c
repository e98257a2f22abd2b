/* dlopen/dlsym FFI and the kernel call shim for the native backend.
 *
 * The repository deliberately carries no ctypes dependency; these few
 * stubs are the entire foreign surface.  Handles and function
 * pointers cross into OCaml as nativeint — they are opaque tokens the
 * OCaml side only stores and passes back.
 */

#include <caml/address_class.h>
#include <caml/alloc.h>
#include <caml/custom.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/minor_gc.h>
#include <caml/mlvalues.h>
#include <caml/threads.h>
#include <dlfcn.h>
#include <string.h>

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

/* A zero-filled float array of [n] elements for a kernel live-out.
 * It goes straight to the major heap, so it never needs promoting
 * before a call. */
CAMLprim value pmdp_alloc_liveout(value vn)
{
  mlsize_t n = Long_val(vn);
  if (n == 0)
    return caml_alloc_float_array(0);
  value v = caml_alloc_shr(n * Double_wosize, Double_array_tag);
  memset((double *) v, 0, n * sizeof(double));
  return v;
}

/* Charge [bytes] to the major GC's pace the way an out-of-heap
 * Bigarray of that size is charged when it is allocated. */
CAMLprim value pmdp_charge_major(value bytes)
{
  caml_adjust_gc_speed(Long_val(bytes), caml_custom_get_max_major());
  return Val_unit;
}

/* Call void kernel(double **bufs, int n_threads) with the storage of
 * an array of flat float arrays, in place: the kernels read the input
 * slots through const pointers and write the live-out slots.  The
 * pointers must stay valid after the runtime lock is released for the
 * (possibly long, OpenMP-parallel) call, while other threads run the
 * GC:
 *
 *   - a block in the minor heap moves when it is promoted, so if any
 *     slot is young, one minor collection promotes them all first;
 *   - a block in the major heap must not move during the call.  That
 *     holds on OCaml 5.1, which never compacts; from 5.2 only
 *     Gc.compact moves blocks, and it must not run concurrently.
 *
 * The slots stay reachable through [bufs], a registered root. */
#define PMDP_MAX_BUFS 256

CAMLprim value pmdp_call_kernel(value fn, value bufs, value nt)
{
  CAMLparam3(fn, bufs, nt);
  void (*kernel)(double **, int) = (void (*)(double **, int)) Nativeint_val(fn);
  mlsize_t n = Wosize_val(bufs);
  double *argv[PMDP_MAX_BUFS];
  int young = 0;
  if (n > PMDP_MAX_BUFS)
    caml_invalid_argument("pmdp_call_kernel: too many buffers");
  for (mlsize_t i = 0; i < n; i++) {
    value b = Field(bufs, i);
    if (Wosize_val(b) != 0 && Tag_val(b) != Double_array_tag)
      caml_invalid_argument("pmdp_call_kernel: slot is not a flat float array");
    young |= Is_young(b);
  }
  if (young)
    caml_minor_collection();
  for (mlsize_t i = 0; i < n; i++) {
    value b = Field(bufs, i);
    argv[i] = Wosize_val(b) == 0 ? NULL : (double *) b;
  }
  int threads = Int_val(nt);
  caml_release_runtime_system();
  kernel(argv, threads);
  caml_acquire_runtime_system();
  CAMLreturn(Val_unit);
}

(** C toolchain probing and kernel compilation.

    The native backend never assumes a compiler exists: {!probe} runs
    at backend creation, test-compiles a one-function shared object
    with each candidate, and separately checks whether [-fopenmp] is
    accepted.  A host without any working compiler simply yields
    [None] — the backend then reports every plan as
    [Kernel_unavailable] and the resilient chain stays on the
    interpreter. *)

type t = {
  cc : string;  (** compiler command that passed the probe *)
  openmp : bool;  (** [-fopenmp] accepted (kernels are serial-correct without it) *)
  version : string;  (** first line of [cc --version], for cache metadata *)
}

val flags : t -> string
(** ["-O2 -shared -fPIC -ffp-contract=off"] — contraction is disabled
    so kernel arithmetic rounds exactly like the interpreter's — plus
    [-fopenmp] when the probe accepted it. *)

val probe : ?cc:string -> unit -> t option
(** Find a working compiler by test-compiling a shared object.
    Candidates, in order: [cc] when given (and nothing else — the
    forced-toolchain hook tests use), else [$PMDP_CC], then [cc],
    [gcc], [clang]. *)

val compile : ?fault:Pmdp_runtime.Fault.t -> t -> src:string -> out:string -> (unit, string) result
(** Compile [src] to the shared object [out] ([cc <flags> src -o out
    -lm]); the error carries the compiler's (truncated) diagnostics.
    [fault] arms {!Pmdp_runtime.Fault.kernel_tick} before the
    invocation, so a seeded [kernel@K] spec raises
    [Fault.Injected] here — the deterministic stand-in for a broken
    toolchain. *)

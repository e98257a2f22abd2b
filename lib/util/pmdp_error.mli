(** Typed error taxonomy for the execution stack.

    Every failure mode an executor, planner, or pool can hit is a
    variant with a structured payload, so callers can match on the
    failure kind instead of parsing [Invalid_argument] strings, and
    reports can render the payload as JSON.  The {!Error} exception is
    the raising form used at boundaries that cannot return a
    [result]; the catching side matches [Error e] to recover the typed
    value. *)

type t =
  | Plan_invalid of { context : string; reason : string }
      (** A schedule could not be lowered to an executable plan
          (failed group analysis, validation, or an internal planner
          invariant). *)
  | Arity_mismatch of { context : string; expected : int; got : int }
      (** A tile-size vector (or similar indexed payload) has the
          wrong number of entries. *)
  | Unresolved_external of { name : string; context : string }
      (** A stage body loads from [name], but no buffer or producer
          with that name is in scope. *)
  | Scratch_over_budget of { required_bytes : int; budget_bytes : int; context : string }
      (** The pre-flight resource guard rejected an allocation: the
          plan needs [required_bytes] against a budget of
          [budget_bytes]. *)
  | Worker_crash of { worker : int; detail : string }
      (** A pool worker domain died (or an uncategorized exception
          escaped a tile body); [worker = -1] when the crashing worker
          is unknown. *)
  | Timeout of { seconds : float; context : string }
      (** A watchdog expired and cancelled the work. *)
  | Cancelled of { reason : string }
      (** Work observed its cooperative-cancellation token. *)
  | Pool_shutdown of { context : string }
      (** A [parallel_for] was issued on a pool whose domains have
          been joined. *)
  | Overloaded of { shard : int; depth : int; limit : int; context : string }
      (** Graduated backpressure: a dispatcher shard's bounded queue
          is full and the request's priority did not beat any queued
          request's, so it was refused (or a queued lower-priority
          request was shed to make room — the shed request fails with
          this too). *)
  | Deadline_exceeded of { deadline : float; waited : float; context : string }
      (** The request carried a deadline (seconds from submit) and was
          still queued when it passed; it was dropped without
          executing. *)
  | Circuit_open of { fingerprint : string; failures : int; retry_after : float; context : string }
      (** The per-fingerprint circuit breaker is open: this plan has
          failed [failures] times in a row, so the service refuses the
          request without compiling or queueing it.  [retry_after] is
          the remaining cooldown in seconds before a half-open probe
          will be admitted. *)
  | Kernel_unavailable of { reason : string; context : string }
      (** The native kernel backend could not produce or load a
          compiled kernel for this plan — no C toolchain on the host,
          a failed compile or [dlopen], or a kernel that failed the
          validation gate against the reference executor.  Always
          recoverable: the resilient chain records it and falls back
          to the interpreter. *)

exception Error of t

val kind : t -> string
(** Stable kebab-case slug of the variant ("plan-invalid",
    "worker-crash", ...); the machine-readable half of a rendering. *)

val message : t -> string
(** Human-readable description of the payload, without the kind. *)

val pp : Format.formatter -> t -> unit
(** ["kind: message"]. *)

val to_string : t -> string

type field = Int of int | Float of float | Str of string

val fields : t -> (string * field) list
(** Structured payload as named fields (for JSON emitters that do not
    depend on this library's rendering). *)

val raise_ : t -> 'a
(** [raise_ e] is [raise (Error e)]. *)

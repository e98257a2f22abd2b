(** Per-fingerprint circuit breaker for the execution service.

    A poison plan — one whose compile error is replayed from the plan
    cache on every submit, or whose execution fails every time —
    should stop consuming queue slots and pool time.  After
    [threshold] consecutive failures the fingerprint's circuit trips
    {e open}: admission refuses further requests for that plan with a
    typed [Pmdp_error.Circuit_open], which is retryable (the plan may
    recover) but instantaneous (nothing is compiled or queued).
    After [cooldown] seconds the next request is admitted as a
    {e half-open} probe; its success closes the circuit, its failure
    re-trips it.  A probe that never reports back (shed, expired,
    client gone) ages out after one more cooldown, so the circuit
    cannot wedge half-open.

    Thread-safe; every operation takes one leaf mutex.  Transitions
    emit [service.breaker.trip] / [reject] / [probe] / [close] trace
    counters when tracing is on. *)

type t

val create : ?threshold:int -> ?cooldown:float -> unit -> t
(** [threshold] (default 3, clamped to >= 1) consecutive failures trip
    the circuit; [cooldown] (default 5s) is the open->half-open
    delay. *)

val check : t -> string -> [ `Proceed | `Probe | `Reject of int * float ]
(** Admission decision for one fingerprint.  [`Reject (failures,
    retry_after)] means refuse without queueing; [`Probe] means this
    request is the half-open probe (admit it and make sure its outcome
    is reported); [`Proceed] is the normal closed-circuit path. *)

val success : t -> string -> unit
(** Report a successful execution: resets the failure streak and
    closes an open/half-open circuit. *)

val failure : t -> string -> unit
(** Report a compile or execution failure.  Sheds, expiries, and
    admission rejections are not plan failures — do not report
    them. *)

type counters = {
  trips : int;  (** circuits gone open (including re-trips) *)
  rejects : int;  (** requests refused while open/half-open *)
  probes : int;  (** half-open probes admitted *)
  closes : int;  (** circuits closed by a success *)
  open_now : int;  (** fingerprints currently open or half-open *)
  tracked : int;  (** fingerprints with a live failure streak *)
}

val counters : t -> counters

type state = Closed | Open | Half_open

type snapshot = { fingerprint : string; state : state; failures : int; trips : int }

val snapshot : t -> snapshot list
(** Per-fingerprint view (sorted by fingerprint) for the [health]
    op. *)

val state_to_string : state -> string
(** ["closed" | "open" | "half-open"]. *)

val state_of_string : string -> state option
(** Inverse of {!state_to_string} (used by the protocol codec). *)

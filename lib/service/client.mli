(** Client side of the {!Protocol}: one connection to a [pmdp serve]
    endpoint (Unix-domain or TCP), with typed retries.

    A connection carries one request at a time (the server replies in
    order); for concurrent load, open one client per in-flight
    request — {!Load} does exactly that.  Not thread-safe: share a
    client between threads only with external locking.

    Every transport failure (refused connection, dropped or short
    frame, garbage reply) is folded into a typed retryable
    [Pmdp_error.Worker_crash { worker = -1; _ }]; nothing raises.
    When a {!Retry_policy} allows more than one attempt, the client
    reconnects and re-sends retryable failures itself, sleeping an
    exponentially growing, seeded-jittered delay between attempts.
    Requests are pure, deterministic computations, so a re-send after
    a lost reply frame at worst recomputes (or hits the server's plan
    cache). *)

(** Cumulative per-client retry accounting, surfaced by {!Load}. *)
type retry_stats = {
  attempts : int;  (** wire attempts, including first sends *)
  retried : int;  (** requests that needed more than one attempt *)
  gave_up : int;  (** requests that still failed retryably at the end *)
}

val zero_retry_stats : retry_stats
val add_retry_stats : retry_stats -> retry_stats -> retry_stats

(** When and how to retry, derived from the [Pmdp_error] taxonomy. *)
module Retry_policy : sig
  type t = {
    max_attempts : int;  (** total attempts, including the first (>= 1) *)
    base_delay : float;  (** seconds before the first retry *)
    max_delay : float;  (** backoff ceiling, seconds *)
    multiplier : float;  (** exponential growth factor (>= 1) *)
    seed : int;  (** drives the jitter stream *)
  }

  val none : t
  (** One attempt, no retries — the pre-PR-8 behavior. *)

  val create :
    ?max_attempts:int ->
    ?base_delay:float ->
    ?max_delay:float ->
    ?multiplier:float ->
    ?seed:int ->
    unit ->
    t

  val retryable : Pmdp_util.Pmdp_error.t -> bool
  (** Transient failures retry: [Overloaded], [Deadline_exceeded],
      [Timeout], [Worker_crash] (which covers every client transport
      failure and supervisor-settled request), [Cancelled],
      [Circuit_open].  Permanent ones do not: [Plan_invalid],
      [Arity_mismatch], [Unresolved_external], [Scratch_over_budget],
      [Pool_shutdown]. *)

  val delay : t -> rng:Pmdp_util.Rng.t -> attempt:int -> float
  (** Sleep before retry number [attempt] (1-based): uniform in
      [d/2, d] where [d = min max_delay (base * multiplier^(attempt-1))]. *)

  val run :
    t ->
    rng:Pmdp_util.Rng.t ->
    stats:retry_stats ref ->
    (unit -> ('a, Pmdp_util.Pmdp_error.t) result) ->
    ('a, Pmdp_util.Pmdp_error.t) result
  (** The retry loop: call the attempt until it succeeds, fails with
      an error that is not {!retryable}, or [max_attempts] run out,
      sleeping {!delay} before each retry.  Adds every attempt to
      [stats], one [retried] when the request needed a second
      attempt, and one [gave_up] when it still failed retryably. *)
end

type t

(** What a submit returns over the wire — the scalar half of
    {!Service.response}; buffers stay in the server. *)
type remote_response = {
  id : int;
  fingerprint : string;
  cache_hit : bool;
  batch_size : int;
  degraded : bool;
  wall_seconds : float;
  queue_seconds : float;
  checksum : float;
  outputs : (string * float) list;  (** live-out name, checksum *)
  max_abs_diff : float option;
}

val connect :
  ?retry:Retry_policy.t -> endpoint:Transport.endpoint -> unit -> (t, Pmdp_util.Pmdp_error.t) result
(** Connect (no handshake: the first frame on the connection is the
    first request).  A refused/missing endpoint is a typed, retryable
    error naming the endpoint — never a raw [Unix.Unix_error] — and is
    itself retried under [retry] (default {!Retry_policy.none}).  The
    policy is remembered and applied to every subsequent {!submit}. *)

val retry_stats : t -> retry_stats

val submit : t -> Service.request -> (remote_response, Pmdp_util.Pmdp_error.t) result
(** Round-trip one submit, retrying and reconnecting per the policy
    given at {!connect}.  Transport and protocol failures are folded
    into typed errors, never raised. *)

val stats : t -> (Pmdp_report.Json.t, Pmdp_util.Pmdp_error.t) result
(** The server's stats object, as JSON (see {!Protocol.json_of_stats}
    for the fields).  Retries per the policy. *)

val health : t -> (Service.health, Pmdp_util.Pmdp_error.t) result
(** Per-shard liveness, queue depth, restarts, and circuit-breaker
    state.  Retries per the policy. *)

val shutdown_server : t -> (unit, Pmdp_util.Pmdp_error.t) result
(** Ask the server to drain and stop; returns once acknowledged.
    Never retried: re-sending after a lost ack could take down a
    freshly restarted server. *)

val close : t -> unit
(** Idempotent. *)

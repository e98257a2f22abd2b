(** Wire protocol of [pmdp serve]: length-prefixed JSON frames over a
    Unix-domain or TCP stream ({!Transport}).

    Each frame is a 4-byte big-endian payload length followed by that
    many bytes of UTF-8 JSON (one value per frame).  The client sends
    one request frame and reads one response frame; connections are
    persistent, so a client can issue any number of requests before
    closing.  Every client is in-tree, so there is one dialect and no
    version negotiation.

    {2 Operations}

    Every request object carries an ["op"] field:

    - [{"op": "submit", "app": ..., "scale": ..., "scheduler": ...,
      "seed": ..., "priority": ..., "deadline": ...}] — run a
      pipeline (all fields but [app] optional, with
      {!Service.request} defaults).  The server replies
      [{"ok": true, "response": {...}}] with the scalar half of the
      {!Service.response} — id, fingerprint, cache_hit, batch_size,
      degraded, wall_seconds, queue_seconds, checksum, per-output
      checksums, max_abs_diff — never the buffers.
    - [{"op": "status", "id": N}] — phase of a live request:
      [{"ok": true, "status": "queued" | "running" | "done" |
      "failed" | "unknown"}].
    - [{"op": "stats"}] — [{"ok": true, "stats": {"shards": [...],
      "totals": {...}, "breaker": {...}, "disk": ...}}]: one counters
      object per dispatcher shard (each tagged with its ["shard"]
      index), their field-wise sum, the circuit-breaker ledger, and
      the disk-cache counters (or [null] when no [--cache-dir] is
      configured).
    - [{"op": "health"}] — [{"ok": true, "health": {"draining":
      ..., "shards": [...], "breaker": {...}, "circuits": [...]}}]:
      per-shard dispatcher liveness, queue depth, in-flight count and
      supervisor restarts, plus every non-closed circuit.
    - [{"op": "shutdown"}] — drain and stop the server; acknowledged
      with [{"ok": true}] before the listener exits.

    Failures reply [{"ok": false, "error": {"kind": ..., "message":
    ..., <payload fields>}}] with the typed
    {!Pmdp_util.Pmdp_error.t} rendering; an unknown or missing ["op"]
    is a [Plan_invalid] error naming it. *)

exception Closed
(** Peer hung up mid-frame (a clean EOF at a frame boundary reads as
    [None] instead). *)

val write_frame : Unix.file_descr -> Pmdp_report.Json.t -> unit
(** Serialize compactly and send one frame.
    @raise Closed on a broken pipe. *)

val read_frame : Unix.file_descr -> Pmdp_report.Json.t option
(** Read one frame; [None] on clean EOF before any byte of a frame.
    @raise Closed on EOF mid-frame.
    @raise Failure on an oversized frame or unparseable payload. *)

(** {2 Chaos writers}

    Wire-level misbehaviour injected by the server under a
    {!Pmdp_runtime.Fault} plan — the failure modes a resilient client
    must survive. *)

val write_truncated : Unix.file_descr -> Pmdp_report.Json.t -> unit
(** Send the length header but only half the payload (the caller then
    closes the socket): a mid-frame connection loss, which the reader
    surfaces as {!Closed}. *)

val write_garbage : Unix.file_descr -> unit
(** Send a correctly length-prefixed frame whose payload is not JSON:
    the reader surfaces it as [Failure]. *)

(** {2 Codecs} *)

val request_of_json :
  Pmdp_report.Json.t -> (Service.request, Pmdp_util.Pmdp_error.t) result
(** Decode a submit operation's fields.  Missing optional fields take
    the {!Service.request} defaults; a missing ["app"], an unknown
    scheduler name, a non-positive deadline, or ill-typed fields are
    [Plan_invalid]. *)

val json_of_request : Service.request -> Pmdp_report.Json.t
(** The submit operation for a request (includes ["op"]; [deadline]
    is omitted when [None]). *)

val json_of_error : Pmdp_util.Pmdp_error.t -> Pmdp_report.Json.t
(** [{"kind": ..., "message": ..., <structured payload fields>}]. *)

val error_of_json : Pmdp_report.Json.t -> Pmdp_util.Pmdp_error.t
(** Best-effort inverse of {!json_of_error} for the client side: the
    kind and message survive the round trip; unknown kinds decode as
    [Plan_invalid]. *)

val json_of_response : Service.response -> Pmdp_report.Json.t
(** Scalar fields plus per-output checksums; buffers stay
    server-side. *)

val json_of_stats : Service.stats -> Pmdp_report.Json.t
(** The sharded shape: [{"shards": [...], "totals": {...},
    "breaker": {...}, "disk": ...}]. *)

val json_of_health : Service.health -> Pmdp_report.Json.t
(** The v3 health shape: [{"draining": ..., "shards": [...],
    "breaker": {...}, "circuits": [...]}]. *)

val health_of_json :
  Pmdp_report.Json.t -> (Service.health, Pmdp_util.Pmdp_error.t) result
(** Inverse of {!json_of_health} for the client side; a frame without
    the required members is [Plan_invalid]. *)

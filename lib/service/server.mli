(** Socket front end of a {!Service}: the engine behind [pmdp serve].
    Listens on any {!Transport.endpoint} — Unix-domain or TCP — with
    the same framing and operations.

    One listener thread accepts connections; each connection gets its
    own thread running a read-frame → dispatch → write-frame loop over
    the {!Protocol} (connections are persistent — any number of
    requests per connection).  Submits block their connection thread until the service finishes
    the request, so client-side concurrency maps one connection per
    in-flight request.

    A client ["shutdown"] operation — or {!stop} — closes the
    listener, unblocks and joins every connection, shuts the
    underlying service down (draining per {!Service.shutdown}
    semantics), and removes a Unix socket file. *)

type t

val start :
  ?backlog:int ->
  ?fault:Pmdp_runtime.Fault.t ->
  service:Service.t ->
  endpoint:Transport.endpoint ->
  unit ->
  t
(** Bind the endpoint (a stale Unix socket file is replaced; [backlog]
    defaults to 16) and start accepting.  A TCP port of 0 binds a
    kernel-chosen port — read it back from {!endpoint}.  [fault]
    enables wire-level chaos at the reply-write site: a firing
    [Frame_drop] kills the connection instead of replying,
    [Frame_truncate] sends half a frame then kills it, [Frame_garbage]
    sends a well-framed non-JSON payload, [Frame_delay] sleeps before
    replying — the transport failures a retrying {!Client} must
    survive.
    @raise Unix.Unix_error when the endpoint cannot be bound. *)

val endpoint : t -> Transport.endpoint
(** The endpoint actually being served — for TCP, the real port even
    if {!start} was given port 0. *)

val wait : t -> unit
(** Block until the server has stopped (via {!stop} or a client
    shutdown operation) and every connection is joined. *)

val stopped : t -> bool
(** [true] once the server has fully stopped ({!wait} would return
    immediately).  Non-blocking — lets a driver poll for shutdown
    while staying at an OCaml safepoint, which a thread parked in
    {!wait}'s condition wait is not: signal handlers cannot run if
    every thread is blocked in C. *)

val stop : t -> unit
(** Stop accepting, disconnect clients, join all threads, shut the
    service down, clean up the endpoint.  Idempotent; also safe from
    a connection thread (the join skips the calling thread). *)

val drain : ?timeout:float -> t -> unit
(** Graceful shutdown (the SIGTERM path of [pmdp serve]): refuse new
    connections — existing ones keep their replies flowing — wait up
    to [timeout] (default 5s, see {!Service.drain}) for in-flight
    requests to settle, then {!stop}.  A concurrent second call just
    waits for the first to finish. *)

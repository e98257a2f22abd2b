(** Transport abstraction under {!Server} and {!Client}: where the
    length-prefixed {!Protocol} frames flow.  The same wire format runs
    over a Unix-domain socket ([Uds]) or a TCP connection ([Tcp]); only
    the address family, the socket options (TCP gets [TCP_NODELAY] and
    [SO_REUSEADDR]), and the teardown (a UDS file is unlinked) differ. *)

type endpoint =
  | Uds of string  (** Unix-domain socket path *)
  | Tcp of string * int  (** host (name or dotted quad), port *)

val of_string : string -> (endpoint, string) result
(** Parse ["unix:///run/pmdp.sock"], ["tcp://127.0.0.1:9900"], or a
    bare path (treated as [Uds]).
    Unknown [scheme://] prefixes, empty hosts/paths, and out-of-range
    ports are errors. *)

val to_string : endpoint -> string
(** Canonical rendering: ["unix://<path>"] / ["tcp://<host>:<port>"]. *)

val listen : ?backlog:int -> endpoint -> Unix.file_descr
(** Bind and listen ([backlog] defaults to 16).  For [Uds], a stale
    socket file at the path is replaced (a non-socket is not — bind
    fails).  For [Tcp], the socket gets [SO_REUSEADDR], and port [0]
    lets the kernel pick ({!bound_endpoint} reports the choice).
    @raise Unix.Unix_error when the endpoint cannot be bound or the
    host cannot be resolved. *)

val bound_endpoint : endpoint -> Unix.file_descr -> endpoint
(** The endpoint a {!listen}-ed socket actually answers on — identical
    to the input except that a TCP port of 0 is replaced by the
    kernel-assigned port. *)

val connect : endpoint -> Unix.file_descr
(** Connect a fresh stream socket ([TCP_NODELAY] set on TCP).
    @raise Unix.Unix_error when nothing is listening there. *)

val nodelay : Unix.file_descr -> unit
(** Set [TCP_NODELAY], ignoring failures — servers call it on accepted
    TCP connections; harmless on a UDS descriptor. *)

val cleanup : endpoint -> unit
(** Remove what {!listen} left in the filesystem: unlink a [Uds]
    path (ignoring errors); nothing for [Tcp]. *)

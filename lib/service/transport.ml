(* Endpoint abstraction under Server/Client: the same length-prefixed
   frames flow over a Unix-domain socket or a TCP connection; only the
   address family and the socket options differ. *)

type endpoint = Uds of string | Tcp of string * int

let to_string = function
  | Uds path -> "unix://" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp://%s:%d" host port

let strip_prefix ~prefix s =
  let np = String.length prefix and ns = String.length s in
  if ns >= np && String.sub s 0 np = prefix then Some (String.sub s np (ns - np)) else None

let of_string s =
  match strip_prefix ~prefix:"unix://" s with
  | Some "" -> Error "unix:// endpoint needs a socket path"
  | Some path -> Ok (Uds path)
  | None -> (
      match strip_prefix ~prefix:"tcp://" s with
      | Some rest -> (
          (* host:port, split at the last colon so IPv6-ish hosts with
             colons still parse; the port must be a whole number. *)
          match String.rindex_opt rest ':' with
          | None -> Error (Printf.sprintf "tcp:// endpoint %S needs host:port" rest)
          | Some i -> (
              let host = String.sub rest 0 i in
              let port_s = String.sub rest (i + 1) (String.length rest - i - 1) in
              match int_of_string_opt port_s with
              | _ when host = "" -> Error "tcp:// endpoint needs a host"
              | None -> Error (Printf.sprintf "tcp:// port %S is not a number" port_s)
              | Some p when p < 0 || p > 65535 ->
                  Error (Printf.sprintf "tcp:// port %d outside [0, 65535]" p)
              | Some p -> Ok (Tcp (host, p))))
      | None ->
          if String.length s = 0 then Error "empty endpoint"
          else
            (* A scheme we do not speak is an error; anything else is a
               bare Unix-socket path. *)
            let has_scheme =
              match String.index_opt s ':' with
              | Some i ->
                  i + 2 < String.length s && s.[i + 1] = '/' && s.[i + 2] = '/'
              | None -> false
            in
            if has_scheme then
              Error (Printf.sprintf "unknown endpoint scheme in %S (unix:// or tcp://)" s)
            else Ok (Uds s))

let resolve_host host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
          raise (Unix.Unix_error (Unix.EHOSTUNREACH, "gethostbyname", host))
      | { Unix.h_addr_list; _ } -> h_addr_list.(0))

let sockaddr = function
  | Uds path -> Unix.ADDR_UNIX path
  | Tcp (host, port) -> Unix.ADDR_INET (resolve_host host, port)

let domain = function Uds _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET

(* Nagle batches our small frames behind the previous ACK; a
   request/response protocol wants them on the wire immediately. *)
let nodelay fd =
  try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ | Invalid_argument _ -> ()

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let listen ?(backlog = 16) ep =
  (match ep with
  | Uds path -> (
      (* Replace only what is provably a stale socket; anything else is
         not ours — let bind fail with EADDRINUSE/EEXIST. *)
      match Unix.lstat path with
      | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
      | _ -> ()
      | exception Unix.Unix_error (ENOENT, _, _) -> ())
  | Tcp _ -> ());
  let fd = Unix.socket (domain ep) Unix.SOCK_STREAM 0 in
  (try
     (match ep with
     | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
     | Uds _ -> ());
     Unix.bind fd (sockaddr ep);
     Unix.listen fd backlog
   with e ->
     close_quietly fd;
     raise e);
  fd

let bound_endpoint ep fd =
  match ep with
  | Uds _ -> ep
  | Tcp (host, _) -> (
      (* Port 0 asks the kernel to pick; report what it picked so
         clients (and tests) can connect to the real port. *)
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, port) -> Tcp (host, port)
      | Unix.ADDR_UNIX _ | (exception Unix.Unix_error _) -> ep)

let connect ep =
  let fd = Unix.socket (domain ep) Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (sockaddr ep)
   with e ->
     close_quietly fd;
     raise e);
  (match ep with Tcp _ -> nodelay fd | Uds _ -> ());
  fd

let cleanup = function
  | Uds path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ()

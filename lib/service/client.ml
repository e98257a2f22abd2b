module Json = Pmdp_report.Json
module Pmdp_error = Pmdp_util.Pmdp_error
module Rng = Pmdp_util.Rng

type retry_stats = { attempts : int; retried : int; gave_up : int }

let zero_retry_stats = { attempts = 0; retried = 0; gave_up = 0 }

let add_retry_stats a b =
  {
    attempts = a.attempts + b.attempts;
    retried = a.retried + b.retried;
    gave_up = a.gave_up + b.gave_up;
  }

module Retry_policy = struct
  type t = {
    max_attempts : int;
    base_delay : float;
    max_delay : float;
    multiplier : float;
    seed : int;
  }

  let none = { max_attempts = 1; base_delay = 0.0; max_delay = 0.0; multiplier = 1.0; seed = 0 }

  let create ?(max_attempts = 4) ?(base_delay = 0.005) ?(max_delay = 0.5) ?(multiplier = 2.0)
      ?(seed = 0) () =
    {
      max_attempts = max 1 max_attempts;
      base_delay = Float.max 0.0 base_delay;
      max_delay = Float.max 0.0 max_delay;
      multiplier = Float.max 1.0 multiplier;
      seed;
    }

  (* Which failures are worth a retry?  Transient conditions — a full
     queue, a missed deadline, a crashed worker or dropped connection,
     an open circuit that will cool down — may clear; a plan that does
     not lower, a wrong arity, or an unknown input never will. *)
  let retryable = function
    | Pmdp_error.Overloaded _ | Pmdp_error.Deadline_exceeded _ | Pmdp_error.Timeout _
    | Pmdp_error.Worker_crash _ | Pmdp_error.Cancelled _ | Pmdp_error.Circuit_open _ ->
        true
    | Pmdp_error.Plan_invalid _ | Pmdp_error.Arity_mismatch _ | Pmdp_error.Unresolved_external _
    | Pmdp_error.Scratch_over_budget _ | Pmdp_error.Pool_shutdown _
    (* a missing toolchain or unloadable kernel is deterministic —
       and the server falls back to the interpreter anyway, so this
       should never surface to a client *)
    | Pmdp_error.Kernel_unavailable _ ->
        false

  (* Full-jitter-ish exponential backoff: the k-th retry sleeps in
     [d/2, d] with d = min(max_delay, base * multiplier^(k-1)), drawn
     from the policy's seeded stream so a given load run backs off
     identically every time. *)
  let delay p ~rng ~attempt =
    let d = Float.min p.max_delay (p.base_delay *. (p.multiplier ** float_of_int (attempt - 1))) in
    if d <= 0.0 then 0.0 else d *. (0.5 +. Rng.float rng 0.5)

  (* The retry loop.  Requests are pure, deterministic computations, so
     re-sending after a lost reply frame at worst recomputes (or hits
     the plan cache); there is no at-most-once hazard. *)
  let run p ~rng ~stats f =
    let add a r g = stats := add_retry_stats !stats { attempts = a; retried = r; gave_up = g } in
    let rec go attempt =
      add 1 0 0;
      match f () with
      | Ok _ as ok -> ok
      | Error e when attempt < p.max_attempts && retryable e ->
          if attempt = 1 then add 0 1 0;
          Unix.sleepf (delay p ~rng ~attempt);
          go (attempt + 1)
      | Error e ->
          if retryable e then add 0 0 1;
          Error e
    in
    go 1
end

type t = {
  endpoint : Transport.endpoint;
  retry : Retry_policy.t;
  rng : Rng.t;
  mutable conn : Unix.file_descr option;
  mutable closed : bool;
  retries : retry_stats ref;
}

type remote_response = {
  id : int;
  fingerprint : string;
  cache_hit : bool;
  batch_size : int;
  degraded : bool;
  wall_seconds : float;
  queue_seconds : float;
  checksum : float;
  outputs : (string * float) list;
  max_abs_diff : float option;
}

let transport_error detail = Pmdp_error.Worker_crash { worker = -1; detail = "client: " ^ detail }

let connect_error endpoint e =
  Pmdp_error.Worker_crash
    {
      worker = -1;
      detail =
        Printf.sprintf "client: connect %s: %s" (Transport.to_string endpoint)
          (Unix.error_message e);
    }

let dial t =
  match Transport.connect t.endpoint with
  | fd ->
      t.conn <- Some fd;
      Ok fd
  | exception Unix.Unix_error (e, _, _) -> Error (connect_error t.endpoint e)

let drop_conn t =
  match t.conn with
  | None -> ()
  | Some fd ->
      t.conn <- None;
      (try Unix.close fd with Unix.Unix_error _ -> ())

let connect ?(retry = Retry_policy.none) ~endpoint () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let t =
    {
      endpoint;
      retry;
      rng = Rng.create retry.Retry_policy.seed;
      conn = None;
      closed = false;
      retries = ref zero_retry_stats;
    }
  in
  (* Connect attempts are not request attempts: they stay out of the
     client's retry ledger. *)
  Result.map
    (fun _ -> t)
    (Retry_policy.run retry ~rng:t.rng ~stats:(ref zero_retry_stats) (fun () -> dial t))

let retry_stats t = !(t.retries)

let close t =
  if not t.closed then begin
    t.closed <- true;
    drop_conn t
  end

(* One request frame out, one reply frame back, with every transport
   failure mode folded into a typed error. *)
let round_trip fd req =
  match
    Protocol.write_frame fd req;
    Protocol.read_frame fd
  with
  | None -> Error (transport_error "server closed the connection")
  | Some reply -> Ok reply
  | exception Protocol.Closed -> Error (transport_error "connection dropped mid-frame")
  | exception Failure reason -> Error (transport_error reason)
  | exception Unix.Unix_error (e, _, _) -> Error (transport_error (Unix.error_message e))

(* One attempt: (re)connect if needed, round-trip, unwrap the
   {"ok": ...} envelope.  [`Transport] failures poison the connection
   (the stream may hold a half-written frame), [`Typed] ones come from
   a healthy server and keep it. *)
let attempt_once t req =
  match (match t.conn with Some fd -> Ok fd | None -> dial t) with
  | Error e -> `Transport e
  | Ok fd -> (
      match round_trip fd req with
      | Error e -> `Transport e
      | Ok reply -> (
          match Option.bind (Json.member "ok" reply) Json.to_bool_opt with
          | Some true -> `Ok reply
          | Some false -> (
              match Json.member "error" reply with
              | Some e -> `Typed (Protocol.error_of_json e)
              | None -> `Transport (transport_error "error reply without an error object"))
          | None -> `Transport (transport_error "reply without an \"ok\" field")))

let request t req =
  if t.closed then Error (transport_error "connection already closed")
  else
    Retry_policy.run t.retry ~rng:t.rng ~stats:t.retries (fun () ->
        match attempt_once t req with
        | `Ok reply -> Ok reply
        | `Transport e ->
            drop_conn t;
            Error e
        | `Typed e -> Error e)

let remote_response_of_json j =
  let int name = Option.bind (Json.member name j) Json.to_int_opt in
  let float name = Option.bind (Json.member name j) Json.to_float_opt in
  let bool name = Option.bind (Json.member name j) Json.to_bool_opt in
  match (int "id", Json.member "fingerprint" j) with
  | Some id, Some (Json.String fingerprint) ->
      Ok
        {
          id;
          fingerprint;
          cache_hit = Option.value ~default:false (bool "cache_hit");
          batch_size = Option.value ~default:1 (int "batch_size");
          degraded = Option.value ~default:false (bool "degraded");
          wall_seconds = Option.value ~default:0.0 (float "wall_seconds");
          queue_seconds = Option.value ~default:0.0 (float "queue_seconds");
          checksum = Option.value ~default:Float.nan (float "checksum");
          outputs =
            (match Option.bind (Json.member "outputs" j) Json.to_list_opt with
            | None -> []
            | Some l ->
                List.filter_map
                  (fun o ->
                    match
                      ( Option.bind (Json.member "name" o) Json.to_string_opt,
                        Option.bind (Json.member "checksum" o) Json.to_float_opt )
                    with
                    | Some n, Some c -> Some (n, c)
                    | _ -> None)
                  l);
          max_abs_diff = Option.bind (Json.member "max_abs_diff" j) Json.to_float_opt;
        }
  | _ -> Error (transport_error "response frame lacks id/fingerprint")

let submit t r =
  match request t (Protocol.json_of_request r) with
  | Error _ as e -> e
  | Ok reply -> (
      match Json.member "response" reply with
      | None -> Error (transport_error "ok reply without a response object")
      | Some resp -> remote_response_of_json resp)

let stats t =
  match request t (Json.Obj [ ("op", Json.String "stats") ]) with
  | Error _ as e -> e
  | Ok reply -> (
      match Json.member "stats" reply with
      | None -> Error (transport_error "ok reply without a stats object")
      | Some s -> Ok s)

let health t =
  match request t (Json.Obj [ ("op", Json.String "health") ]) with
  | Error _ as e -> e
  | Ok reply -> (
      match Json.member "health" reply with
      | None -> Error (transport_error "ok reply without a health object")
      | Some h -> Protocol.health_of_json h)

(* Single attempt, deliberately outside the retry loop: re-sending a
   shutdown after a lost ack could take down a freshly restarted
   server. *)
let shutdown_server t =
  if t.closed then Error (transport_error "connection already closed")
  else
    match attempt_once t (Json.Obj [ ("op", Json.String "shutdown") ]) with
    | `Ok _ -> Ok ()
    | `Typed e -> Error e
    | `Transport e ->
        drop_conn t;
        Error e

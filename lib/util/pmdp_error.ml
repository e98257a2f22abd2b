type t =
  | Plan_invalid of { context : string; reason : string }
  | Arity_mismatch of { context : string; expected : int; got : int }
  | Unresolved_external of { name : string; context : string }
  | Scratch_over_budget of { required_bytes : int; budget_bytes : int; context : string }
  | Worker_crash of { worker : int; detail : string }
  | Timeout of { seconds : float; context : string }
  | Cancelled of { reason : string }
  | Pool_shutdown of { context : string }
  | Overloaded of { shard : int; depth : int; limit : int; context : string }
  | Deadline_exceeded of { deadline : float; waited : float; context : string }
  | Circuit_open of { fingerprint : string; failures : int; retry_after : float; context : string }
  | Kernel_unavailable of { reason : string; context : string }

exception Error of t

let kind = function
  | Plan_invalid _ -> "plan-invalid"
  | Arity_mismatch _ -> "arity-mismatch"
  | Unresolved_external _ -> "unresolved-external"
  | Scratch_over_budget _ -> "scratch-over-budget"
  | Worker_crash _ -> "worker-crash"
  | Timeout _ -> "timeout"
  | Cancelled _ -> "cancelled"
  | Pool_shutdown _ -> "pool-shutdown"
  | Overloaded _ -> "overloaded"
  | Deadline_exceeded _ -> "deadline-exceeded"
  | Circuit_open _ -> "circuit-open"
  | Kernel_unavailable _ -> "kernel-unavailable"

let message = function
  | Plan_invalid { context; reason } -> Printf.sprintf "%s: %s" context reason
  | Arity_mismatch { context; expected; got } ->
      Printf.sprintf "%s: expected %d entries, got %d" context expected got
  | Unresolved_external { name; context } ->
      Printf.sprintf "%s: no buffer or producer named %S is in scope" context name
  | Scratch_over_budget { required_bytes; budget_bytes; context } ->
      Printf.sprintf "%s: needs %d bytes but the memory budget is %d bytes" context
        required_bytes budget_bytes
  | Worker_crash { worker; detail } ->
      if worker < 0 then detail else Printf.sprintf "worker %d: %s" worker detail
  | Timeout { seconds; context } -> Printf.sprintf "%s: watchdog expired after %gs" context seconds
  | Cancelled { reason } -> reason
  | Pool_shutdown { context } -> Printf.sprintf "%s: pool has been shut down" context
  | Overloaded { shard; depth; limit; context } ->
      Printf.sprintf "%s: shard %d queue holds %d of at most %d requests" context shard depth
        limit
  | Deadline_exceeded { deadline; waited; context } ->
      Printf.sprintf "%s: deadline was %gs but the request waited %gs" context deadline waited
  | Circuit_open { fingerprint; failures; retry_after; context } ->
      Printf.sprintf "%s: circuit for plan %s is open after %d failures, retry in %gs" context
        fingerprint failures retry_after
  | Kernel_unavailable { reason; context } ->
      Printf.sprintf "%s: native kernel unavailable (%s)" context reason

let pp ppf e = Format.fprintf ppf "%s: %s" (kind e) (message e)
let to_string e = Format.asprintf "%a" pp e

type field = Int of int | Float of float | Str of string

let fields = function
  | Plan_invalid { context; reason } -> [ ("context", Str context); ("reason", Str reason) ]
  | Arity_mismatch { context; expected; got } ->
      [ ("context", Str context); ("expected", Int expected); ("got", Int got) ]
  | Unresolved_external { name; context } -> [ ("name", Str name); ("context", Str context) ]
  | Scratch_over_budget { required_bytes; budget_bytes; context } ->
      [
        ("required_bytes", Int required_bytes);
        ("budget_bytes", Int budget_bytes);
        ("context", Str context);
      ]
  | Worker_crash { worker; detail } -> [ ("worker", Int worker); ("detail", Str detail) ]
  | Timeout { seconds; context } -> [ ("seconds", Float seconds); ("context", Str context) ]
  | Cancelled { reason } -> [ ("reason", Str reason) ]
  | Pool_shutdown { context } -> [ ("context", Str context) ]
  | Overloaded { shard; depth; limit; context } ->
      [ ("shard", Int shard); ("depth", Int depth); ("limit", Int limit); ("context", Str context) ]
  | Deadline_exceeded { deadline; waited; context } ->
      [ ("deadline", Float deadline); ("waited", Float waited); ("context", Str context) ]
  | Circuit_open { fingerprint; failures; retry_after; context } ->
      [
        ("fingerprint", Str fingerprint);
        ("failures", Int failures);
        ("retry_after", Float retry_after);
        ("context", Str context);
      ]
  | Kernel_unavailable { reason; context } ->
      [ ("reason", Str reason); ("context", Str context) ]

let raise_ e = raise (Error e)

let () =
  Printexc.register_printer (function Error e -> Some ("Pmdp_error: " ^ to_string e) | _ -> None)

(* Per-fingerprint circuit breaker.

   A plan that keeps failing — a compile error replayed from the plan
   cache, or an execution that dies every time — burns queue slots,
   batch windows, and pool time on every retry.  The breaker sits in
   front of admission: after [threshold] consecutive failures for one
   fingerprint the circuit trips open and further requests for that
   plan are refused immediately with a typed [Circuit_open] error
   (cheap for the service, retryable for the client).  After
   [cooldown] seconds one probe request is admitted (half-open); its
   outcome closes the circuit or re-trips it.

   Successes and failures are reported per batch execution by the
   shard dispatcher, and per compile by admission; sheds and expiries
   are load-management outcomes, not plan failures, and must not be
   reported here.

   All state lives behind one mutex; every call is O(1) on a hashtable
   keyed by fingerprint.  The mutex is a leaf lock: no callback runs
   under it. *)

module Trace = Pmdp_trace.Trace

type state = Closed | Open | Half_open

type cell = {
  mutable failures : int;  (* consecutive failures *)
  mutable trips : int;  (* times this circuit went open *)
  mutable st : st;
}

and st =
  | S_closed
  | S_open of float  (* absolute time the cooldown ends *)
  | S_half_open of float  (* when the probe was admitted *)

type t = {
  threshold : int;
  cooldown : float;
  lock : Mutex.t;
  cells : (string, cell) Hashtbl.t;
  mutable trips : int;
  mutable rejects : int;
  mutable probes : int;
  mutable closes : int;
}

let create ?(threshold = 3) ?(cooldown = 5.0) () =
  {
    threshold = max 1 threshold;
    cooldown = max 0.0 cooldown;
    lock = Mutex.create ();
    cells = Hashtbl.create 16;
    trips = 0;
    rejects = 0;
    probes = 0;
    closes = 0;
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let cell_of t fp =
  match Hashtbl.find_opt t.cells fp with
  | Some c -> c
  | None ->
      let c = { failures = 0; trips = 0; st = S_closed } in
      Hashtbl.add t.cells fp c;
      c

(* [`Probe] admits exactly one request through an open-but-cooled
   circuit; a probe that never reports back (shed before executing,
   client gone) must not wedge the circuit, so a half-open cell older
   than one cooldown admits a fresh probe. *)
let check t fp =
  let now = Unix.gettimeofday () in
  let decision =
    with_lock t (fun () ->
        match Hashtbl.find_opt t.cells fp with
        | None -> `Proceed
        | Some c -> (
            match c.st with
            | S_closed -> `Proceed
            | S_open until when now >= until ->
                c.st <- S_half_open now;
                t.probes <- t.probes + 1;
                `Probe
            | S_open until ->
                t.rejects <- t.rejects + 1;
                `Reject (c.failures, until -. now)
            | S_half_open since when now -. since > t.cooldown ->
                c.st <- S_half_open now;
                t.probes <- t.probes + 1;
                `Probe
            | S_half_open _ ->
                t.rejects <- t.rejects + 1;
                `Reject (c.failures, t.cooldown)))
  in
  (match decision with
  | `Probe -> Trace.count "service.breaker.probe" 1
  | `Reject _ -> Trace.count "service.breaker.reject" 1
  | `Proceed -> ());
  decision

let success t fp =
  let closed =
    with_lock t (fun () ->
        match Hashtbl.find_opt t.cells fp with
        | None -> false
        | Some c ->
            let was_open = c.st <> S_closed in
            Hashtbl.remove t.cells fp;
            if was_open then t.closes <- t.closes + 1;
            was_open)
  in
  if closed then Trace.count "service.breaker.close" 1

let failure t fp =
  let now = Unix.gettimeofday () in
  let tripped =
    with_lock t (fun () ->
        let c = cell_of t fp in
        c.failures <- c.failures + 1;
        let trip () =
          c.st <- S_open (now +. t.cooldown);
          c.trips <- c.trips + 1;
          t.trips <- t.trips + 1;
          true
        in
        match c.st with
        | S_half_open _ -> trip ()  (* probe failed: straight back open *)
        | S_closed when c.failures >= t.threshold -> trip ()
        | S_closed -> false
        | S_open _ -> false (* in-flight stragglers while already open *))
  in
  if tripped then Trace.count "service.breaker.trip" 1

type counters = {
  trips : int;
  rejects : int;
  probes : int;
  closes : int;
  open_now : int;
  tracked : int;
}

let counters t =
  with_lock t (fun () ->
      let open_now =
        Hashtbl.fold (fun _ c n -> if c.st <> S_closed then n + 1 else n) t.cells 0
      in
      {
        trips = t.trips;
        rejects = t.rejects;
        probes = t.probes;
        closes = t.closes;
        open_now;
        tracked = Hashtbl.length t.cells;
      })

type snapshot = { fingerprint : string; state : state; failures : int; trips : int }

let snapshot t =
  with_lock t (fun () ->
      Hashtbl.fold
        (fun fp c acc ->
          let state =
            match c.st with S_closed -> Closed | S_open _ -> Open | S_half_open _ -> Half_open
          in
          { fingerprint = fp; state; failures = c.failures; trips = c.trips } :: acc)
        t.cells [])
  |> List.sort (fun a b -> compare a.fingerprint b.fingerprint)

let state_to_string = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

let state_of_string = function
  | "closed" -> Some Closed
  | "open" -> Some Open
  | "half-open" -> Some Half_open
  | _ -> None

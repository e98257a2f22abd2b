(** Low-overhead structured execution tracing and metrics.

    The runtime layers ({!Pmdp_exec.Tiled_exec}, {!Pmdp_runtime.Pool},
    {!Pmdp_exec.Resilient}, {!Pmdp_bench.Runner}) carry instrumentation
    sites that record {e spans} (named intervals with a start
    timestamp, a duration, the recording domain, and typed arguments),
    {e instants} (point events), and {e counters} (accumulating deltas
    or sampled gauge levels) into per-domain buffers.  The whole
    recording surface is gated on one global flag: when tracing is
    disabled — the default — a site costs a single atomic load and
    allocates nothing.

    Recorded data exports two ways: {!export}/{!write} produce Chrome
    trace-event JSON (open it at https://ui.perfetto.dev or in
    [chrome://tracing]), and {!pp_summary} renders a plain-text digest
    (per-name span histograms, the slowest tile spans, per-domain
    utilization).  [docs/observability.md] documents the event model,
    every instrumentation point, and the [pmdp trace] / [pmdp run
    --trace] CLI that drives this module.

    Buffers are per-domain and appended to only by their owning
    domain's main execution context (lock-free); a global registry
    gathers them at export.  Helper {e threads} must not record — see
    the watchdog note in [lib/exec/resilient.ml]. *)

type arg = Int of int | Float of float | Str of string | Bool of bool

type event =
  | Span of {
      name : string;
      cat : string;
      ts : float;  (** seconds since the trace epoch *)
      dur : float;  (** seconds *)
      args : (string * arg) list;
    }
  | Instant of { name : string; cat : string; ts : float; args : (string * arg) list }
  | Counter of {
      name : string;
      ts : float;
      value : int;
      cum : bool;  (** [true]: an accumulating delta; [false]: a gauge sample *)
    }

val set_enabled : bool -> unit
(** Enabling (re)starts the trace epoch; events recorded before are
    kept (use {!reset} to drop them). *)

val on : unit -> bool
(** The gate every site checks first: one atomic load, nothing else.
    All recording functions below are no-ops returning immediately
    when it is [false]. *)

val reset : unit -> unit
(** Drop all recorded events and counter totals and restart the trace
    epoch.  Call only while no traced work is in flight. *)

val now : unit -> float
(** Seconds since the trace epoch (wall clock).  Only meaningful — and
    only worth calling — when {!on}. *)

val complete : ?cat:string -> ?args:(string * arg) list -> name:string -> ts:float -> unit -> unit
(** Record a span that started at [ts] (a prior {!now}) and ends now.
    The begin/end pair is folded into one event, so spans recorded by
    one domain nest by construction. *)

val with_span : ?cat:string -> ?args:(string * arg) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a span; the span is recorded
    whether [f] returns or raises.  When tracing is off this is just
    [f ()]. *)

val instant : ?cat:string -> ?args:(string * arg) list -> string -> unit

val count : string -> int -> unit
(** Accumulate a delta under a counter name.  Exported as a cumulative
    Chrome counter track; {!counter_totals} sums the deltas. *)

val gauge : string -> int -> unit
(** Sample a level (e.g. pool occupancy).  Exported as its own counter
    track; not included in {!counter_totals}. *)

val counter_totals : unit -> (string * int) list
(** Per-name sums of all {!count} deltas recorded since the last
    {!reset}, sorted by name.  Cheap snapshot; [pmdp run --profile]
    prints it and the bench JSON carries each case's delta. *)

val dump : unit -> (int * event list) list
(** All recorded events, grouped by recording domain id, each group
    sorted by start timestamp.  For tests and the summary. *)

val export : unit -> Pmdp_report.Json.t
(** The Chrome trace-event object: [{"traceEvents": [...],
    "displayTimeUnit": "ms"}].  Spans become ["ph":"X"] complete
    events (microsecond [ts]/[dur]), instants ["ph":"i"], counters
    ["ph":"C"] (accumulating counters as running totals, gauges as
    sampled levels). *)

val write : string -> unit
(** {!export} serialized compactly to a file. *)

val pp_summary : ?top:int -> Format.formatter -> unit -> unit
(** Plain-text digest of the recorded trace: per-name span statistics
    (count, total, mean, p50, p90, max), the [top] (default 10)
    slowest ["tile"] spans with their arguments, and per-domain busy
    time / utilization over the traced interval. *)

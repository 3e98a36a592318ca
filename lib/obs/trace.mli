(** Span-based phase tracing for the analysis pipeline.

    Spans nest: [with_span "taint.solve" f] records one span whose
    parent is whatever span is open on this thread of execution when it
    starts.  The recorded tree can be exported as

    - Chrome [trace_event] JSON ({!to_chrome_json}) — load the file in
      [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto};
    - a plain-text tree summary ({!summary}) with per-span durations;
    - per-phase aggregate durations ({!aggregate}) for stats JSON.

    Per-name totals are always kept.  The span tree behind {!spans} and
    the exports is recorded only once {!reset} has been called, so a
    long-lived process that never exports a trace keeps a bounded
    store.  Timestamps are wall-clock, relative to the first span after
    the last {!reset}.

    Domain-safety: each domain records into its own store (hot path is
    lock-free); read-outs merge all stores in worker order, and the
    Chrome export labels each span with its worker's tid so parallel
    app runs render as separate tracks. *)

type span = {
  sp_name : string;
  sp_start : float;  (** seconds since the trace epoch *)
  sp_dur : float;  (** seconds; 0. while still open *)
  sp_depth : int;  (** nesting depth, 0 = top level *)
  sp_parent : int;  (** index of the parent span, -1 at top level *)
}

val begin_span : string -> unit
val end_span : unit -> unit
(** @raise Invalid_argument when no span is open *)

val with_span : string -> (unit -> 'a) -> 'a
(** [with_span name f] brackets [f] in a span; the span is closed even
    when [f] raises. *)

val depth : unit -> int
(** number of currently open spans *)

val spans : unit -> span list
(** completed and open spans recorded since the last {!reset}, in
    start order; empty if {!reset} was never called *)

val aggregate : unit -> (string * float * int) list
(** [(name, total_seconds, count)] per distinct span name over the
    spans closed since the last {!reset} (since start-up if there was
    none), sorted by name.  Nested spans count toward their own name
    only. *)

val reset : unit -> unit
(** drop all recorded spans and totals, re-arm the epoch, and record
    the span tree from now on; open spans are discarded *)

val to_chrome_json : unit -> Json.t
(** the ["traceEvents"] document: one complete ("ph":"X") event per
    span, timestamps in microseconds *)

val to_chrome_string : unit -> string

val summary : unit -> string
(** indented text tree: one line per span with duration and the share
    of its parent *)

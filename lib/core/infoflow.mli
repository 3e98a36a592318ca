(** The analysis driver: Figure 4's pipeline.

    [parse manifest] → [parse layout XMLs] → [parse code] →
    [source/sink/entry-point detection] → [generate dummy main] →
    [build call graph] → [perform taint analysis].

    {!analyze_apk} runs the full Android pipeline; {!analyze_plain}
    analyses ordinary Java-style programs with explicit entry points
    (SecuriBench Micro, the paper's listings — RQ4). *)

open Fd_callgraph

type stats = {
  st_time : float;  (** analysis wall time, seconds *)
  st_reachable : int;  (** reachable methods in the final call graph *)
  st_cg_edges : int;
  st_propagations : int;  (** path-edge propagations of both solvers *)
  st_outcome : Fd_resilience.Outcome.t;
      (** typed termination state; anything but [Complete] means the
          findings are a partial under-approximation *)
  st_metrics : Fd_obs.Metrics.snapshot;
      (** registry snapshot taken when the run finished: the [ifds.*],
          [bidi.*], [cg.*], [frontend.*], [lifecycle.*] and
          [resilience.*] series.  Counters are process-cumulative;
          call {!Fd_obs.Metrics.reset} before the run for per-run
          numbers. *)
}

type result = {
  r_findings : Bidi.finding list;
  r_entries : Mkey.t list;
  r_stats : stats;
  r_engine : Bidi.t;  (** for inspection (per-node taints) *)
  r_icfg : Icfg.t;
  r_diags : Fd_resilience.Diag.t list;
      (** frontend diagnostics (lenient-mode skips); [[]] in strict
          mode *)
  r_icc : Icc.report option;
      (** the ICC resolver's report when the {!Config.t.icc} tier ran
          (its findings are already merged into [r_findings]) *)
}

type phase_hook = string -> unit
(** called with a phase name as the pipeline advances (used by the
    pipeline-trace example) *)

val no_hook : phase_hook

val log_src : Logs.src
(** The [Logs] source the pipeline reports through ([flowdroid]):
    phase progress at debug level, budget exhaustion at warning
    level. *)

val analyze_apk :
  ?config:Config.t ->
  ?defs:Fd_frontend.Sourcesink.t ->
  ?wrappers:Fd_frontend.Rules.t ->
  ?natives:Fd_frontend.Rules.t ->
  ?phase:phase_hook ->
  ?mode:Fd_frontend.Apk.mode ->
  ?budget:Fd_resilience.Budget.t ->
  Fd_frontend.Apk.t ->
  result
(** [analyze_apk apk] runs the full pipeline from an APK bundle.
    [mode] selects strict (default) or lenient frontend parsing;
    [budget] overrides the config-derived work/deadline budget.
    @raise Fd_frontend.Apk.Load_error on malformed inputs (strict
    mode). *)

val analyze_loaded :
  ?config:Config.t ->
  ?defs:Fd_frontend.Sourcesink.t ->
  ?wrappers:Fd_frontend.Rules.t ->
  ?natives:Fd_frontend.Rules.t ->
  ?phase:phase_hook ->
  ?budget:Fd_resilience.Budget.t ->
  Fd_frontend.Apk.loaded ->
  result
(** [analyze_loaded loaded] analyses an already-loaded APK. *)

val analyze_merged :
  ?config:Config.t ->
  ?defs:Fd_frontend.Sourcesink.t ->
  ?wrappers:Fd_frontend.Rules.t ->
  ?natives:Fd_frontend.Rules.t ->
  ?phase:phase_hook ->
  ?budget:Fd_resilience.Budget.t ->
  Fd_frontend.Apk.merged ->
  result
(** [analyze_merged m] analyses several apps sharing one merged Scene
    — the inter-app setting.  With the {!Config.t.icc} tier on, the
    resolver consults the per-app manifests, applies the exported gate
    across app boundaries, and stitches collusion flows. *)

val analyze_pair :
  ?config:Config.t ->
  ?defs:Fd_frontend.Sourcesink.t ->
  ?wrappers:Fd_frontend.Rules.t ->
  ?natives:Fd_frontend.Rules.t ->
  ?phase:phase_hook ->
  ?mode:Fd_frontend.Apk.mode ->
  ?budget:Fd_resilience.Budget.t ->
  Fd_frontend.Apk.t ->
  Fd_frontend.Apk.t ->
  result
(** [analyze_pair a b] loads two apps into one merged scene and
    analyses them together — the two-app collusion setting.
    @raise Fd_frontend.Apk.Load_error on clashes (strict mode). *)

val analyze_plain :
  ?config:Config.t ->
  ?synthetic_main:bool ->
  classes:Fd_ir.Jclass.t list ->
  entries:Mkey.t list ->
  ?defs:Fd_frontend.Sourcesink.t ->
  ?wrappers:Fd_frontend.Rules.t ->
  ?natives:Fd_frontend.Rules.t ->
  unit ->
  result
(** [analyze_plain ~classes ~entries ()] analyses a plain (non-Android)
    program with explicitly given entry points and manually supplied
    sources/sinks.  With [~synthetic_main:true], the entry points are
    wrapped in a generated main in which they can run in any sequential
    order (FlowDroid's default entry-point creator) — required when
    flows stage data in static state between entry points. *)

val restrict_findings :
  icfg:Icfg.t -> patterns:string list -> Bidi.finding list -> Bidi.finding list
(** keep the findings whose sink invoke site matches one of the
    [--targeted] patterns — exactly the projection targeted mode
    applies to its own output.  Exported so the verdict-identity gate
    can apply the same projection to a full-mode run before
    comparing. *)

val warm_templates : unit -> unit
(** Force every lazily-built shared template the pipeline clones per
    run — the framework-skeleton scene ({!Fd_frontend.Framework}) and
    the default source/sink, taint-wrapper and native rule sets — so a
    long-lived server (the serve daemon) pays their construction once
    at startup instead of on its first request.  Idempotent. *)

(** {1 Degradation ladder}

    When a run exhausts its budget (propagation cap or wall-clock
    deadline) or crashes, {!analyze_with_fallback} retries it under
    progressively cheaper configurations
    ({!Config.degradation_ladder}) so a hostile app still yields a
    terminating, tagged result — precision is traded for termination
    the way FlowDroid trades it under timeouts. *)

type attempt = {
  at_label : string;  (** ladder rung, e.g. ["full"], ["k=3"] *)
  at_outcome : Fd_resilience.Outcome.t;
  at_findings : int;
  at_time : float;  (** wall-clock seconds spent on this rung *)
}

type completeness =
  | Precise  (** the first rung completed: full-precision results *)
  | Degraded of string  (** completed at the named cheaper rung *)
  | Partial of string
      (** no rung completed; results are the named rung's partial
          under-approximation *)

type fallback = {
  fb_result : result;
  fb_attempts : attempt list;  (** in execution order *)
  fb_completeness : completeness;
}

exception Fallback_failed of attempt list
(** every ladder rung crashed without producing any result *)

val string_of_completeness : completeness -> string
(** [precise], [degraded(label)] or [partial(label)] *)

val with_fallback :
  config:Config.t -> (label:string -> Config.t -> result) -> fallback
(** [with_fallback ~config run] drives [run] down the degradation
    ladder until a rung completes; crashes are caught by an exception
    barrier and count as failed rungs.
    @raise Fallback_failed when every rung crashed. *)

val analyze_with_fallback :
  ?config:Config.t ->
  ?defs:Fd_frontend.Sourcesink.t ->
  ?wrappers:Fd_frontend.Rules.t ->
  ?natives:Fd_frontend.Rules.t ->
  ?phase:phase_hook ->
  ?mode:Fd_frontend.Apk.mode ->
  ?chaos:Fd_resilience.Chaos.t ->
  Fd_frontend.Apk.t ->
  fallback
(** {!analyze_apk} under the ladder.  [chaos] attaches a fault
    harness to each rung's budget (solver-step faults, for the
    resilience tests).
    @raise Fd_frontend.Apk.Load_error on strict-mode frontend
    rejection;
    @raise Fallback_failed when every rung crashed. *)

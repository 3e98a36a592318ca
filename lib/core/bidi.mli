(** The bidirectional taint solver: Algorithms 1 and 2 of the paper.

    A forward IFDS taint solver interleaved with an on-demand backward
    alias solver, with the paper's two precision mechanisms:
    {e context injection} (a spawned backward edge inherits the forward
    path edge's context [⟨sp, d1⟩], so no facts arise along
    unrealizable paths — Figure 3) and {e activation statements}
    (aliases are born inactive and only activate once the forward
    analysis carries them across the heap write that taints them — or
    across a call whose call tree contains it — Listing 3).

    Both mechanisms, and the alias search itself, can be disabled
    through {!Config.t} for the ablation benchmarks. *)

open Fd_ir
open Fd_callgraph

(** One step of a provenance witness: a program point the derivation
    visited, its statement text, the solver fact holding there, and
    the flow-function kind that derived it from the previous step
    (["seed"], ["source"], ["normal"], ["call"], ["return"],
    ["call-to-return"], ["alias"], ["backward"], ["inject"]). *)
type witness_step = {
  ws_node : Icfg.node;
  ws_stmt : string;
  ws_fact : string;
  ws_kind : string;
}

type finding = {
  f_source : Taint.source_info;
  f_sink_node : Icfg.node;
  f_sink_tag : string option;
  f_sink_cat : Fd_frontend.Sourcesink.category;
  f_path : Icfg.node list;  (** full propagation path, source first *)
  f_witness : witness_step list;
      (** shortest source-to-sink derivation reconstructed from
          provenance edges, source step first and sink step last;
          [[]] unless {!Config.t.provenance} was on *)
}

type t

val create :
  ?budget:Fd_resilience.Budget.t ->
  ?store:Summary.hooks ->
  ?in_slice:(Fd_callgraph.Mkey.t -> bool) ->
  config:Config.t ->
  icfg:Icfg.t ->
  scene:Scene.t ->
  mgr:Srcsink_mgr.t ->
  wrappers:Fd_frontend.Rules.t ->
  natives:Fd_frontend.Rules.t ->
  unit ->
  t
(** [create ~config … ()] builds an engine.  Without [?budget] one is
    derived from the config ([max_propagations] plus [deadline_s]);
    pass an explicit budget to share a deadline across phases or to
    enable cooperative cancellation / chaos injection.  [?store]
    connects the persistent summary store (see {!Summary.make_hooks}):
    stored callee summaries are injected in place of descents, and
    freshly solved contexts are persisted write-behind after a
    complete solve.  Absent hooks ⇒ behaviour and output are
    byte-identical to a store-free build.  [?in_slice] is the targeted
    mode's membership predicate: both worklist loops (and the clinit /
    reflection descents) skip callees outside it; the default accepts
    everything and takes no new code path. *)

val run : t -> entries:Mkey.t list -> unit
(** [run t ~entries] seeds the zero fact at each entry method's start
    point and runs both solvers to exhaustion (or to the propagation
    budget). *)

val findings : t -> finding list
(** [findings t] is the reported source-to-sink flows, in discovery
    order. *)

val results_at : t -> Icfg.node -> Taint.t list
(** [results_at t n] is the taints that may hold just before [n]
    (forward-solver facts), newest first in order of first discovery;
    [[]] for a node the forward solver never reached.  The first call
    indexes the solve's results log, so it costs one pass over the
    forward path edges; later calls are table lookups.  Used by the
    ICC tier, tests and inspection. *)

val propagation_count : t -> int
(** [propagation_count t] is the number of path-edge propagations
    performed by both solvers (the work metric the benchmarks
    report). *)

val outcome : t -> Fd_resilience.Outcome.t
(** [outcome t] is the typed termination state of the solve:
    [Complete], [Budget_exhausted], [Deadline_exceeded] or
    [Cancelled].  On any state but [Complete] the findings are a
    partial under-approximation. *)

val budget : t -> Fd_resilience.Budget.t
(** the engine's budget handle (for cooperative cancellation) *)

val budget_exhausted : t -> bool
(** [budget_exhausted t] reports whether
    {!Config.t.max_propagations} was hit; results may then be
    incomplete.  See {!outcome} for the full taxonomy. *)

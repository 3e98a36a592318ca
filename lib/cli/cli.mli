(** The command line the binaries share: one Cmdliner term per flag
    that more than one binary takes, and one run wrapper that gives
    every runner the same start-up and exit path.

    A flag that only one binary takes ([--rta], [--chaos-rate],
    [--dump], …) stays in that binary.  Each binary declares its
    subset of the shared flags as a {!flag} list (below), so the
    flags, their defaults and their environment variables are the same
    wherever they appear. *)

open Cmdliner

(** {1 Exit codes}

    Every binary built on {!run}: 0 success (flowdroid_cli: no flow
    found), 1 error — a failed output write included, 2 flows found
    (flowdroid_cli), 3 the analysis stopped early (flowdroid_cli), 4
    interrupted by SIGINT/SIGTERM, 5 a worker domain raised, 124 a
    malformed command line (Cmdliner). *)

val exit_interrupted : Cmd.Exit.code
val exit_worker_failed : Cmd.Exit.code

val exits : Cmd.Exit.info list
(** the codes 1, 4 and 5 plus Cmdliner's defaults, for [Cmd.info ~exits] *)

(** {1 Shared flags}

    One Cmdliner term per flag, each with one description and at most
    one environment variable: [--deadline SECS]; [--jobs N] (N ≥ 1,
    default 1, env [FLOWDROID_JOBS]); [--stats-json FILE],
    [--trace-out FILE] and [--profile-out FILE] (["-"] = stdout);
    [--summary-store DIR] (env [FLOWDROID_SUMMARY_STORE], empty = off);
    [--targeted SIG] (repeatable, split at commas, env
    [FLOWDROID_TARGETED]); [--precision PASSES] (parsed by
    {!Fd_core.Config.precision_of_string}, env [FLOWDROID_PRECISION]);
    [--icc] (env [FLOWDROID_ICC]); [--provenance]. *)

type flag =
  | Deadline
  | Jobs
  | Stats_json
  | Trace_out
  | Profile_out
  | Summary_store
  | Targeted
  | Precision
  | Icc
  | Provenance

(** each binary's subset of the shared flags *)

val droidbench_runner : flag list
val securibench_runner : flag list
val corpus_runner : flag list
val diff_runner : flag list
val flowdroid_cli : flag list
val flowdroid_serve : flag list
val flowdroid_client : flag list

type outputs = {
  stats_json : string option;
  trace_out : string option;
  profile_out : string option;
}
(** the observability files a run writes when it ends *)

type t = { config : Fd_core.Config.t; jobs : int; outputs : outputs }
(** a parsed shared command line: {!Fd_core.Config.default} with the
    shared flags applied ([profile] is on when [--profile-out] is
    given), the job count and the output paths *)

val term : flag list -> t Term.t
(** the shared flags of the list; a flag outside it keeps its
    default *)

(** {1 Running} *)

val reset_registries : unit -> unit
(** reset the metrics, trace and profile registries; a trace records
    spans only after a reset *)

val write_output : (path:string -> unit) -> string -> bool
(** [write_output write path] runs [write ~path] and reports the
    result on stderr ("wrote PATH", or the error); false iff it
    failed.  The path ["-"] is stdout. *)

val run :
  name:string ->
  ?extra:(unit -> (string * Fd_obs.Json.t) list) ->
  t ->
  (unit -> int) ->
  int
(** [run ~name ?extra t body] resets the registries, turns
    SIGINT/SIGTERM into {!Fd_resilience.Budget.cancel_all}, installs
    the summary store when [t] names one and runs [body].  Then it
    writes every requested output — [extra ()] and, with
    [--profile-out], the hot-method table go into the stats file —
    and prints the store's diagnostics.  The result is {!exit_worker_failed}
    if [body] raised {!Fd_util.Pool.Worker_failed}, else
    {!exit_interrupted} after a signal, else 1 if an output write
    failed, else [body]'s code. *)

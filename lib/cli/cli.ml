open Cmdliner
module Config = Fd_core.Config

let exit_interrupted = 4
let exit_worker_failed = 5

let exits =
  Cmd.Exit.info 1 ~doc:"on an error, a failed output write included."
  :: Cmd.Exit.info exit_interrupted
       ~doc:"when SIGINT or SIGTERM interrupted the run; partial results \
             were printed."
  :: Cmd.Exit.info exit_worker_failed ~doc:"when a worker domain raised."
  :: Cmd.Exit.defaults

(* ---------------- shared flags ---------------- *)

let env = Cmd.Env.info

let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let precision_conv =
  let parse s =
    Result.map_error (fun m -> `Msg m) (Config.precision_of_string s)
  in
  let print ppf p = Format.pp_print_string ppf (Config.string_of_precision p) in
  Arg.conv (parse, print)

let deadline =
  Arg.(
    value & opt (some float) None
    & info [ "deadline" ] ~docv:"SECS"
        ~doc:
          "Wall-clock deadline for each analysis; on expiry the solver \
           stops cooperatively and reports its partial results with \
           outcome deadline-exceeded.")

let jobs =
  Arg.(
    value & opt positive_int 1
    & info [ "jobs" ] ~docv:"N" ~env:(env "FLOWDROID_JOBS")
        ~doc:
          "Fan the per-app loop out over $(docv) domains; the output is \
           bit-identical at any job count.")

let stats_json =
  Arg.(
    value & opt (some string) None
    & info [ "stats-json" ] ~docv:"FILE"
        ~doc:
          "Write the observability snapshot (metrics and per-phase \
           durations) as JSON to $(docv) (\"-\" = stdout).")

let trace_out =
  Arg.(
    value & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event file of the run's spans to $(docv) \
           (\"-\" = stdout); open it in chrome://tracing or Perfetto.")

let profile_out =
  Arg.(
    value & opt (some string) None
    & info [ "profile-out" ] ~docv:"FILE"
        ~doc:
          "Profile the solver per method and write a collapsed-stack \
           (flamegraph) file to $(docv) (\"-\" = stdout); also adds a \
           $(b,profile) hot-method table to --stats-json.")

let summary_store =
  let empty_is_off = function Some "" -> None | dir -> dir in
  Term.(
    const empty_is_off
    $ Arg.(
        value & opt (some string) None
        & info [ "summary-store" ] ~docv:"DIR"
            ~env:(env "FLOWDROID_SUMMARY_STORE")
            ~doc:
              "Reuse (and extend) the persistent cross-app summary store \
               at $(docv); the output is bit-identical with the store \
               hot, cold or off."))

let split_targeted specs =
  List.concat_map
    (fun s ->
      List.filter_map
        (fun p -> match String.trim p with "" -> None | p -> Some p)
        (String.split_on_char ',' s))
    specs

let targeted =
  Term.(
    const split_targeted
    $ Arg.(
        value & opt_all string []
        & info [ "targeted" ] ~docv:"SIG" ~env:(env "FLOWDROID_TARGETED")
            ~doc:
              "Demand-driven targeted mode: only analyse flows into sinks \
               matching $(docv) (substring of \"Class.method\", \
               supertypes included; repeatable, or comma-separated)."))

let precision =
  Arg.(
    value
    & opt precision_conv Config.no_precision
    & info [ "precision" ] ~docv:"PASSES" ~env:(env "FLOWDROID_PRECISION")
        ~doc:
          "Opt-in precision passes: $(b,all), $(b,none), or a \
           comma-separated subset of $(b,must-alias), $(b,array-index), \
           $(b,reflection) and $(b,clinit).  All default to off, which \
           leaves the output unchanged.")

let icc =
  Arg.(
    value & flag
    & info [ "icc" ] ~env:(env "FLOWDROID_ICC")
        ~doc:
          "Inter-component taint tracking: resolve intent sends against \
           the manifests' intent filters and stitch sending-side flows \
           to reception-side flows.  Off by default, which leaves the \
           output unchanged.")

let provenance =
  Arg.(
    value & flag
    & info [ "provenance" ]
        ~doc:
          "Record provenance edges while solving, so each reported flow \
           carries a witness path.  Off by default, which leaves the \
           output unchanged.")

(* ---------------- per-binary flag sets ---------------- *)

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

let droidbench_runner =
  [ Deadline; Jobs; Stats_json; Trace_out; Profile_out; Summary_store;
    Targeted; Precision; Icc; Provenance ]

let securibench_runner = [ Jobs; Stats_json; Trace_out ]

let corpus_runner =
  [ Deadline; Jobs; Stats_json; Trace_out; Profile_out; Summary_store;
    Targeted ]

let diff_runner = [ Jobs; Summary_store; Targeted; Precision; Icc ]

let flowdroid_cli =
  [ Deadline; Stats_json; Trace_out; Profile_out; Summary_store; Targeted;
    Precision; Icc; Provenance ]

let flowdroid_serve = [ Summary_store; Targeted ]
let flowdroid_client = [ Targeted; Icc ]

type outputs = {
  stats_json : string option;
  trace_out : string option;
  profile_out : string option;
}

type t = { config : Config.t; jobs : int; outputs : outputs }

let term flags =
  let pick f term default = if List.mem f flags then term else Term.const default in
  let make deadline_s jobs stats_json trace_out profile_out summary_store
      targeted precision icc provenance =
    {
      config =
        {
          Config.default with
          Config.deadline_s;
          precision;
          provenance;
          profile = profile_out <> None;
          summary_store;
          targeted;
          icc;
        };
      jobs;
      outputs = { stats_json; trace_out; profile_out };
    }
  in
  Term.(
    const make $ pick Deadline deadline None $ pick Jobs jobs 1
    $ pick Stats_json stats_json None $ pick Trace_out trace_out None
    $ pick Profile_out profile_out None
    $ pick Summary_store summary_store None
    $ pick Targeted targeted [] $ pick Precision precision Config.no_precision
    $ pick Icc icc false $ pick Provenance provenance false)

(* ---------------- running ---------------- *)

let reset_registries () =
  Fd_obs.Metrics.reset ();
  Fd_obs.Trace.reset ();
  Fd_obs.Profile.reset ()

let write_output write path =
  match write ~path with
  | () ->
      if path <> "-" then Printf.eprintf "wrote %s\n%!" path;
      true
  | exception Sys_error msg ->
      Printf.eprintf "error: %s\n%!" msg;
      false

let run ~name ?(extra = fun () -> []) t body =
  reset_registries ();
  (* SIGINT/SIGTERM become a cooperative cancel: in-flight solves stop
     at their next tick with outcome cancelled, later budgets are born
     cancelled, and the partial results still print *)
  let cancel = Sys.Signal_handle (fun _ -> Fd_resilience.Budget.cancel_all ()) in
  Sys.set_signal Sys.sigint cancel;
  Sys.set_signal Sys.sigterm cancel;
  if t.config.Config.summary_store <> None then Fd_store.Store.install ();
  let code =
    match body () with
    | code -> Some code
    | exception Fd_util.Pool.Worker_failed e ->
        Printf.eprintf "error: worker failed: %s\n%!" (Printexc.to_string e);
        None
  in
  let o = t.outputs in
  let stats ~path =
    let profile =
      if o.profile_out <> None then [ ("profile", Fd_obs.Profile.to_json ()) ]
      else []
    in
    Fd_obs.Export.write_stats_json ~extra:(extra () @ profile) ~path ()
  in
  (* every requested file is tried, whatever happened to the others *)
  let written =
    List.filter_map
      (fun (path, write) -> Option.map (write_output write) path)
      [ (o.stats_json, stats);
        (o.profile_out, Fd_obs.Profile.write_collapsed);
        (o.trace_out, Fd_obs.Export.write_chrome_trace) ]
  in
  List.iter
    (fun (d : Fd_resilience.Diag.t) ->
      Printf.eprintf "summary-store: %s\n" d.Fd_resilience.Diag.d_msg)
    (Fd_store.Store.drain_diags ());
  match code with
  | None -> exit_worker_failed
  | Some _ when Fd_resilience.Budget.cancelling_all () ->
      Printf.eprintf
        "%s: interrupted — partial results above (cancelled runs report \
         outcome: cancelled)\n"
        name;
      exit_interrupted
  | Some _ when List.mem false written -> 1
  | Some code -> code

(* Regenerates Table 1: DROIDBENCH results for FlowDroid and the two
   simulated commercial comparators.

   Observability options:
     --app NAME         run FlowDroid on one benchmark case only
     --stats-json FILE  write the metrics snapshot (+ phase durations);
                        "-" writes to stdout
     --trace-out FILE   write a Chrome trace_event file; "-" = stdout
     --provenance       record provenance edges (witness paths) while
                        solving
     --profile-out FILE write a collapsed-stack per-method solver
                        profile to FILE ("-" = stdout)
     --dump DIR         write the selected app (or every app) to DIR as
                        an on-disk app directory usable with
                        flowdroid_cli

   Precision options:
     --precision SPEC   opt-in precision passes (all, none, or a
                        comma-separated subset of must-alias,
                        array-index, reflection, clinit; default:
                        $FLOWDROID_PRECISION, else none); reported in
                        the output only when a pass is enabled
     --icc              enable the ICC link-resolution tier: resolve
                        intent sends against the manifest, stitch
                        cross-component flows, drop deliverable sends,
                        synthesise setResult leaks (closes the
                        IntentSink1 row); default off, table unchanged

   Performance options:
     --jobs N           fan the per-app loop out over N domains
                        (default: $FLOWDROID_JOBS, else 1); the table
                        is bit-identical at any job count
     --summary-store DIR
                        reuse (and extend) the persistent cross-app
                        summary store at DIR (default:
                        $FLOWDROID_SUMMARY_STORE, else off); the table
                        is bit-identical with the store hot or cold

   Resilience options:
     --deadline SECS    wall-clock deadline per analysis run
     --outcomes         print per-app termination states after the table
     --chaos-rate P     fault-injection smoke run: corrupt each app's
                        µJimple at rate P, inject solver faults at rate
                        P, analyse leniently under the degradation
                        ladder, and report per-app outcomes (exit 1 if
                        any exception escapes the barrier)
     --chaos-seed N     PRNG seed for --chaos-rate (default 20140609)

   SIGINT/SIGTERM cancel the campaign cooperatively: in-flight solves
   stop with outcome cancelled, the partial table still prints, and
   the process exits 4. *)

let usage () =
  prerr_endline
    "usage: droidbench_runner [--app NAME] [--precision SPEC] [--stats-json \
     FILE] [--trace-out FILE] [--provenance] [--profile-out FILE] [--dump \
     DIR] [--jobs N] [--deadline SECS] [--outcomes] [--chaos-rate P] \
     [--chaos-seed N] [--summary-store DIR] [--targeted SIG] [--icc]";
  exit 1

let app_name = ref None
let stats_json = ref None
let trace_out = ref None
let provenance = ref false
let profile_out = ref None
let dump_dir = ref None
let deadline = ref None
let show_outcomes = ref false

let summary_store =
  ref
    (match Sys.getenv_opt "FLOWDROID_SUMMARY_STORE" with
    | Some s when s <> "" -> Some s
    | _ -> None)

let chaos_rate = ref None
let chaos_seed = ref 20140609
let jobs = ref (Fd_util.Pool.default_jobs ())

(* --targeted SIG (repeatable, or comma-separated in the env var) *)
let split_targeted s =
  List.filter_map
    (fun p ->
      let p = String.trim p in
      if p = "" then None else Some p)
    (String.split_on_char ',' s)

let targeted =
  ref
    (match Sys.getenv_opt "FLOWDROID_TARGETED" with
    | Some s when s <> "" -> split_targeted s
    | _ -> [])

let precision =
  ref
    (match Sys.getenv_opt "FLOWDROID_PRECISION" with
    | Some s when s <> "" -> s
    | _ -> "none")

let icc = ref (Sys.getenv_opt "FLOWDROID_ICC" = Some "1")

let () =
  let rec parse = function
    | [] -> ()
    | "--app" :: v :: rest ->
        app_name := Some v;
        parse rest
    | "--stats-json" :: v :: rest ->
        stats_json := Some v;
        parse rest
    | "--trace-out" :: v :: rest ->
        trace_out := Some v;
        parse rest
    | "--provenance" :: rest ->
        provenance := true;
        parse rest
    | "--profile-out" :: v :: rest ->
        profile_out := Some v;
        parse rest
    | "--dump" :: v :: rest ->
        dump_dir := Some v;
        parse rest
    | "--deadline" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s -> deadline := Some s
        | None -> usage ());
        parse rest
    | "--jobs" :: v :: rest ->
        (match int_of_string_opt v with
        | Some n when n >= 1 -> jobs := n
        | _ -> usage ());
        parse rest
    | "--outcomes" :: rest ->
        show_outcomes := true;
        parse rest
    | "--chaos-rate" :: v :: rest ->
        (match float_of_string_opt v with
        | Some p -> chaos_rate := Some p
        | None -> usage ());
        parse rest
    | "--chaos-seed" :: v :: rest ->
        (match int_of_string_opt v with
        | Some s -> chaos_seed := s
        | None -> usage ());
        parse rest
    | "--precision" :: v :: rest ->
        precision := v;
        parse rest
    | "--summary-store" :: v :: rest ->
        summary_store := Some v;
        parse rest
    | "--targeted" :: v :: rest ->
        targeted := !targeted @ split_targeted v;
        parse rest
    | "--icc" :: rest ->
        icc := true;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv))

let precision_passes () =
  match Fd_core.Config.precision_of_string !precision with
  | Ok p -> p
  | Error msg ->
      Printf.eprintf "error: --precision: %s\n" msg;
      exit 1

let base_config () =
  if !summary_store <> None then Fd_store.Store.install ();
  {
    Fd_core.Config.default with
    Fd_core.Config.deadline_s = !deadline;
    Fd_core.Config.precision = precision_passes ();
    Fd_core.Config.provenance = !provenance;
    Fd_core.Config.profile = !profile_out <> None;
    Fd_core.Config.summary_store = !summary_store;
    Fd_core.Config.targeted = !targeted;
    Fd_core.Config.icc = !icc;
  }

(* mention precision only when a pass is on: default output unchanged *)
let precision_note () =
  let p = precision_passes () in
  if Fd_core.Config.precision_enabled p then
    Printf.sprintf ", precision: %s" (Fd_core.Config.string_of_precision p)
  else ""

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Unix.mkdir d 0o755
    end
  in
  go dir

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

(* write an in-memory APK as the on-disk app-directory layout
   flowdroid_cli consumes: AndroidManifest.xml, res/layout/*.xml and
   one .jimple unit per class *)
let dump_app dir (apk : Fd_frontend.Apk.t) =
  let root = Filename.concat dir apk.Fd_frontend.Apk.apk_name in
  mkdir_p root;
  write_file
    (Filename.concat root "AndroidManifest.xml")
    apk.Fd_frontend.Apk.apk_manifest;
  (match apk.Fd_frontend.Apk.apk_layouts with
  | [] -> ()
  | layouts ->
      let ldir = Filename.concat (Filename.concat root "res") "layout" in
      mkdir_p ldir;
      List.iter
        (fun (name, src) ->
          write_file (Filename.concat ldir (name ^ ".xml")) src)
        layouts);
  List.iter
    (fun cls ->
      write_file
        (Filename.concat root (cls.Fd_ir.Jclass.c_name ^ ".jimple"))
        (Fd_ir.Pretty.class_to_string cls))
    apk.Fd_frontend.Apk.apk_classes;
  Printf.printf "dumped %s\n" root

let find_app name =
  match Fd_droidbench.Suite.find name with
  | Some app -> app
  | None ->
      Printf.eprintf "error: no DroidBench case named %S\n" name;
      exit 1

let run_one (app : Fd_droidbench.Bench_app.t) =
  (* fresh observability state per app: without this, metrics and
     phase durations from a previous app bleed into this app's
     --stats-json / --trace-out snapshot *)
  Fd_obs.Metrics.reset ();
  Fd_obs.Trace.reset ();
  Fd_obs.Profile.reset ();
  let result =
    Fd_core.Infoflow.analyze_apk ~config:(base_config ())
      app.Fd_droidbench.Bench_app.app_apk
  in
  Printf.printf "%s: %d flow(s), %d propagations%s\n"
    app.Fd_droidbench.Bench_app.app_name
    (List.length result.Fd_core.Infoflow.r_findings)
    result.Fd_core.Infoflow.r_stats.Fd_core.Infoflow.st_propagations
    (precision_note ());
  let o = result.Fd_core.Infoflow.r_stats.Fd_core.Infoflow.st_outcome in
  if not (Fd_resilience.Outcome.is_complete o) then
    Printf.printf "outcome: %s\n" (Fd_resilience.Outcome.to_string o)

(* --chaos-rate: the fault-injection smoke run.  Each app's µJimple is
   re-rendered through the pretty-printer, corrupted at rate P, parsed
   leniently, and analysed under the degradation ladder with
   solver-step faults injected at rate P.  Everything runs under the
   crash barrier: an escaped exception is the only failure mode. *)
let run_chaos rate =
  let chaos = Fd_resilience.Chaos.create ~seed:!chaos_seed ~rate in
  let config = base_config () in
  let escaped = ref 0 in
  let dist = Hashtbl.create 7 in
  let bump key =
    Hashtbl.replace dist key (1 + Option.value (Hashtbl.find_opt dist key) ~default:0)
  in
  List.iter
    (fun (app : Fd_droidbench.Bench_app.t) ->
      let apk = app.Fd_droidbench.Bench_app.app_apk in
      let label = app.Fd_droidbench.Bench_app.app_name in
      (* no per-app registry reset: the chaos loop happens to be
         sequential today, but a global reset is unsafe the moment the
         loop fans out ([Fd_util.Pool]) — per-app scoping is done by
         snapshot-and-diff ({!Fd_obs.Metrics.with_delta}) where it is
         actually needed; nothing in this loop reads the registry *)
      match
        Fd_resilience.Barrier.protect ~label (fun () ->
            let sources =
              List.map
                (fun cls ->
                  Fd_resilience.Chaos.corrupt_string chaos
                    (Fd_ir.Pretty.class_to_string cls))
                apk.Fd_frontend.Apk.apk_classes
            in
            let corrupted =
              Fd_frontend.Apk.make_text ~mode:`Lenient label
                ~manifest:apk.Fd_frontend.Apk.apk_manifest
                ~layouts:apk.Fd_frontend.Apk.apk_layouts sources
            in
            Fd_core.Infoflow.analyze_with_fallback ~config ~mode:`Lenient
              ~chaos corrupted)
      with
      | Ok fb ->
          let c =
            Fd_core.Infoflow.string_of_completeness
              fb.Fd_core.Infoflow.fb_completeness
          in
          bump c;
          let diags =
            fb.Fd_core.Infoflow.fb_result.Fd_core.Infoflow.r_diags
          in
          (* every degraded/partial outcome must carry a post-mortem:
             surface the flight-recorder dump count so the CI gate (and
             a reader) can spot a silent degradation at a glance *)
          let flight =
            match fb.Fd_core.Infoflow.fb_completeness with
            | Fd_core.Infoflow.Precise -> ""
            | Fd_core.Infoflow.Degraded _ | Fd_core.Infoflow.Partial _ ->
                let n =
                  List.length
                    (List.filter
                       (fun (d : Fd_resilience.Diag.t) ->
                         d.Fd_resilience.Diag.d_file = "flight-recorder")
                       diags)
                in
                if n > 0 then Printf.sprintf ", flight=%d" n
                else ", flight=MISSING"
          in
          Printf.printf "%-28s %-22s %d flow(s), %d diag(s)%s\n" label c
            (List.length fb.Fd_core.Infoflow.fb_result.Fd_core.Infoflow.r_findings)
            (List.length diags) flight
      | Error o ->
          (* Fallback_failed lands here: every rung crashed but the
             barrier held — still not an escaped exception *)
          bump (Fd_resilience.Outcome.to_string o);
          Printf.printf "%-28s %s\n" label (Fd_resilience.Outcome.to_string o)
      | exception e ->
          incr escaped;
          Printf.printf "%-28s ESCAPED: %s\n" label (Printexc.to_string e))
    Fd_droidbench.Suite.all;
  Printf.printf "\nchaos run: seed=%d rate=%.2f, %d app(s), %d fault(s) injected\n"
    !chaos_seed rate
    (List.length Fd_droidbench.Suite.all)
    (Fd_resilience.Chaos.faults_injected chaos);
  Printf.printf "outcomes: %s\n"
    (String.concat ", "
       (List.sort compare
          (Hashtbl.fold
             (fun k n acc -> Printf.sprintf "%s: %d" k n :: acc)
             dist [])));
  if !escaped > 0 then begin
    Printf.eprintf "error: %d exception(s) escaped the barrier\n" !escaped;
    exit 1
  end

(* SIGINT/SIGTERM become a cooperative [Budget.cancel_all]: in-flight
   solves stop at their next tick with a [Cancelled] outcome, the
   remaining apps' budgets are born cancelled, and the partial table
   still prints.  Exit code 4 distinguishes an interrupted campaign
   from clean (0), error (1) and escaped-chaos (1) exits. *)
let exit_interrupted = 4

let install_interrupt () =
  let h = Sys.Signal_handle (fun _ -> Fd_resilience.Budget.cancel_all ()) in
  Sys.set_signal Sys.sigint h;
  Sys.set_signal Sys.sigterm h

let finish_interrupted () =
  if Fd_resilience.Budget.cancelling_all () then begin
    prerr_endline
      "droidbench_runner: interrupted — partial results above (cancelled \
       runs report outcome: cancelled)";
    exit exit_interrupted
  end

let () =
  install_interrupt ();
  (* arm span recording for --trace-out ([run_one] resets again) *)
  Fd_obs.Trace.reset ();
  (match !dump_dir with
  | Some dir ->
      (match !app_name with
      | Some name -> dump_app dir (find_app name).Fd_droidbench.Bench_app.app_apk
      | None ->
          List.iter
            (fun (a : Fd_droidbench.Bench_app.t) ->
              dump_app dir a.Fd_droidbench.Bench_app.app_apk)
            Fd_droidbench.Suite.all);
      exit 0
  | None -> ());
  (match (!chaos_rate, !app_name) with
  | Some rate, _ -> run_chaos rate
  | None, Some name -> run_one (find_app name)
  | None, None ->
      let engines =
        [ Fd_eval.Engines.appscan; Fd_eval.Engines.fortify;
          Fd_eval.Engines.flowdroid ~config:(base_config ()) () ]
      in
      let t = Fd_eval.Droidbench_table.run ~jobs:!jobs engines in
      (match precision_note () with
      | "" -> ()
      | note ->
          Printf.printf "FlowDroid configuration%s\n"
            note);
      print_string (Fd_eval.Droidbench_table.render t);
      if !show_outcomes then begin
        print_newline ();
        print_endline "Per-app termination states (non-complete only):";
        (match Fd_eval.Droidbench_table.render_outcomes t with
        | "" -> print_endline "  all runs complete"
        | s -> print_string s);
        Printf.printf "outcome distribution: %s\n"
          (String.concat ", "
             (List.map
                (fun (k, n) -> Printf.sprintf "%s: %d" k n)
                (Fd_eval.Droidbench_table.outcome_distribution t)))
      end);
  let write_out what path =
    try
      what ~path;
      if path <> "-" then Printf.eprintf "wrote %s\n" path
    with Sys_error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1
  in
  (match !stats_json with
  | Some path ->
      let extra =
        if !profile_out <> None then
          [ ("profile", Fd_obs.Profile.to_json ()) ]
        else []
      in
      write_out
        (fun ~path -> Fd_obs.Export.write_stats_json ~extra ~path ())
        path
  | None -> ());
  (match !profile_out with
  | Some path -> write_out Fd_obs.Profile.write_collapsed path
  | None -> ());
  (match !trace_out with
  | Some path -> write_out Fd_obs.Export.write_chrome_trace path
  | None -> ());
  List.iter
    (fun (d : Fd_resilience.Diag.t) ->
      Printf.eprintf "summary-store: %s\n" d.Fd_resilience.Diag.d_msg)
    (Fd_store.Store.drain_diags ());
  finish_interrupted ()

(* Regenerates Table 1: DROIDBENCH results for FlowDroid and the two
   simulated commercial comparators. *)
open Cmdliner
module Cli = Fd_cli.Cli
module Config = Fd_core.Config

let app_name =
  Arg.(
    value & opt (some string) None
    & info [ "app" ] ~docv:"NAME" ~doc:"Run FlowDroid on one benchmark case only.")

let dump_dir =
  Arg.(
    value & opt (some string) None
    & info [ "dump" ] ~docv:"DIR"
        ~doc:
          "Write the selected app (or every app) to $(docv) as an on-disk \
           app directory usable with flowdroid_cli.")

let show_outcomes =
  Arg.(
    value & flag
    & info [ "outcomes" ] ~doc:"Print per-app termination states after the table.")

let chaos_rate =
  Arg.(
    value & opt (some float) None
    & info [ "chaos-rate" ] ~docv:"P"
        ~doc:
          "Fault-injection smoke run: corrupt each app's µJimple at rate \
           $(docv), inject solver faults at rate $(docv), analyse leniently \
           under the degradation ladder, and report per-app outcomes (exit 1 \
           if any exception escapes the barrier).")

let chaos_seed =
  Arg.(
    value & opt int 20140609
    & info [ "chaos-seed" ] ~docv:"N" ~doc:"PRNG seed for --chaos-rate.")

(* mention precision only when a pass is on: default output unchanged *)
let precision_note (config : Config.t) =
  let p = config.Config.precision in
  if Config.precision_enabled p then
    Printf.sprintf ", precision: %s" (Config.string_of_precision p)
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

(* [f] on the case called [name]; exit code 1 when there is none *)
let with_app name f =
  match Fd_droidbench.Suite.find name with
  | Some app ->
      f app;
      0
  | None ->
      Printf.eprintf "error: no DroidBench case named %S\n" name;
      1

let run_one ~config (app : Fd_droidbench.Bench_app.t) =
  (* fresh observability state for the app alone: building the suite
     must not show in its --stats-json / --trace-out snapshot *)
  Cli.reset_registries ();
  let result =
    Fd_core.Infoflow.analyze_apk ~config app.Fd_droidbench.Bench_app.app_apk
  in
  Printf.printf "%s: %d flow(s), %d propagations%s\n"
    app.Fd_droidbench.Bench_app.app_name
    (List.length result.Fd_core.Infoflow.r_findings)
    result.Fd_core.Infoflow.r_stats.Fd_core.Infoflow.st_propagations
    (precision_note config);
  let o = result.Fd_core.Infoflow.r_stats.Fd_core.Infoflow.st_outcome in
  if not (Fd_resilience.Outcome.is_complete o) then
    Printf.printf "outcome: %s\n" (Fd_resilience.Outcome.to_string o)

(* --chaos-rate: the fault-injection smoke run.  Each app's µJimple is
   re-rendered through the pretty-printer, corrupted at rate P, parsed
   leniently, and analysed under the degradation ladder with
   solver-step faults injected at rate P.  Everything runs under the
   crash barrier: an escaped exception is the only failure mode. *)
let run_chaos ~config ~seed rate =
  let chaos = Fd_resilience.Chaos.create ~seed ~rate in
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
    seed rate
    (List.length Fd_droidbench.Suite.all)
    (Fd_resilience.Chaos.faults_injected chaos);
  Printf.printf "outcomes: %s\n"
    (String.concat ", "
       (List.sort compare
          (Hashtbl.fold
             (fun k n acc -> Printf.sprintf "%s: %d" k n :: acc)
             dist [])));
  if !escaped = 0 then 0
  else begin
    Printf.eprintf "error: %d exception(s) escaped the barrier\n" !escaped;
    1
  end

let table ~config ~jobs ~show_outcomes =
  let engines =
    [ Fd_eval.Engines.appscan; Fd_eval.Engines.fortify;
      Fd_eval.Engines.flowdroid ~config () ]
  in
  let t = Fd_eval.Droidbench_table.run ~jobs engines in
  (match precision_note config with
  | "" -> ()
  | note -> Printf.printf "FlowDroid configuration%s\n" note);
  print_string (Fd_eval.Droidbench_table.render t);
  if show_outcomes then begin
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
  end

let main (c : Cli.t) app dump show_outcomes chaos_rate chaos_seed =
  Cli.run ~name:"droidbench_runner" c @@ fun () ->
  let config = c.Cli.config in
  match (dump, chaos_rate, app) with
  | Some dir, _, Some name ->
      with_app name (fun a -> dump_app dir a.Fd_droidbench.Bench_app.app_apk)
  | Some dir, _, None ->
      List.iter
        (fun (a : Fd_droidbench.Bench_app.t) ->
          dump_app dir a.Fd_droidbench.Bench_app.app_apk)
        Fd_droidbench.Suite.all;
      0
  | None, Some rate, _ -> run_chaos ~config ~seed:chaos_seed rate
  | None, None, Some name -> with_app name (run_one ~config)
  | None, None, None ->
      table ~config ~jobs:c.Cli.jobs ~show_outcomes;
      0

let cmd =
  Cmd.v
    (Cmd.info "droidbench_runner" ~exits:Cli.exits
       ~doc:
         "Table 1: DroidBench results for FlowDroid and the simulated \
          AppScan and Fortify comparators.")
    Term.(
      const main $ Cli.term Cli.droidbench_runner $ app_name $ dump_dir
      $ show_outcomes $ chaos_rate $ chaos_seed)

let () = exit (Cmd.eval' cmd)

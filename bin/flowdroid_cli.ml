(* The FlowDroid command-line interface: analyse an app directory
   (AndroidManifest.xml + res/layout/*.xml + *.jimple files) and
   report the discovered source-to-sink flows. *)

open Cmdliner
module Cli = Fd_cli.Cli
module Config = Fd_core.Config

let app_dir =
  Arg.(
    value
    & pos 0 (some dir) None
    & info [] ~docv:"APP_DIR"
        ~doc:
          "App directory: AndroidManifest.xml, res/layout/*.xml and µJimple \
           (.jimple) source files.")

let apk_dirs =
  Arg.(
    value & opt_all dir []
    & info [ "apk" ] ~docv:"APP_DIR"
        ~doc:
          "Additional app directory (repeatable).  With two or more apps \
           in total they are loaded into one merged Scene and analysed \
           together — the inter-app setting where, under $(b,--icc), \
           intents cross APK boundaries into exported components and \
           collusion flows are stitched end to end.")

let k_len =
  Arg.(
    value & opt int 5
    & info [ "k"; "access-path-length" ]
        ~doc:"Maximal access-path length (paper default: 5).")

let no_lifecycle =
  Arg.(value & flag & info [ "no-lifecycle" ] ~doc:"Disable the lifecycle model.")

let no_callbacks =
  Arg.(value & flag & info [ "no-callbacks" ] ~doc:"Disable callback discovery.")

let no_alias =
  Arg.(
    value & flag
    & info [ "no-alias" ] ~doc:"Disable the on-demand backward alias analysis.")

let no_activation =
  Arg.(
    value & flag
    & info [ "no-activation" ]
        ~doc:"Disable activation statements (flow-insensitive aliases).")

let rta =
  Arg.(
    value & flag
    & info [ "rta" ] ~doc:"Use RTA instead of CHA for call-graph construction.")

let lint_flag =
  Arg.(
    value & flag
    & info [ "lint" ]
        ~doc:
          "Lint the app's µJimple sources (use-before-def locals, \
           duplicate/undefined branch labels, call-arity mismatches) \
           and exit without analysing: status 0 when clean, 1 when \
           issues are found.")

let sources_file =
  Arg.(
    value & opt (some file) None
    & info [ "sources-sinks" ]
        ~doc:"Sources/sinks configuration file (SuSi-style format).")

let wrappers_file =
  Arg.(
    value & opt (some file) None
    & info [ "taint-wrappers" ] ~doc:"Taint-wrapper (library shortcut) rules file.")

let lenient =
  Arg.(
    value & flag
    & info [ "lenient" ]
        ~doc:
          "Lenient frontend: skip malformed components, layouts and \
           µJimple units (reported as warnings) instead of aborting; \
           analyse what remains.")

let fallback =
  Arg.(
    value & flag
    & info [ "fallback" ]
        ~doc:
          "On budget/deadline exhaustion or crash, retry under \
           progressively cheaper configurations (the degradation \
           ladder) and report the best result with a completeness \
           marker.")

let show_paths =
  Arg.(value & flag & info [ "paths" ] ~doc:"Print full propagation paths.")

let dump_dummy_main =
  Arg.(
    value & flag
    & info [ "dump-dummy-main" ]
        ~doc:"Print the generated dummy main method's CFG (Figure 1).")

let xml_out =
  Arg.(
    value & opt (some string) None
    & info [ "xml" ] ~docv:"FILE"
        ~doc:"Write the results as a FlowDroid-style XML report to $(docv).")

let explain_flag =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:
          "Print a human-readable source-to-sink witness trace under \
           each reported flow (implies --provenance).")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* [--lint]: per-file token-level label checks, then IR-level checks
   over whatever parses (parse failures are reported and skipped so
   one broken unit does not hide the others' issues) *)
let run_lint dir =
  let rec jimple_files d =
    Sys.readdir d |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat d f in
           if Sys.is_directory p then jimple_files p
           else if Filename.check_suffix f ".jimple" then [ p ]
           else [])
  in
  let issues = ref 0 in
  let report i =
    incr issues;
    print_endline (Fd_ir.Lint.string_of_issue i)
  in
  let classes =
    List.concat_map
      (fun path ->
        let src = read_file path in
        List.iter report (Fd_ir.Lint.lint_source ~file:path src);
        match Fd_ir.Parser.parse_string src with
        | cs -> List.map (fun c -> (path, c)) cs
        | exception Fd_ir.Parser.Parse_error (line, msg) ->
            incr issues;
            Printf.printf "%s:%d: parse-error: %s\n" path line msg;
            []
        | exception Fd_ir.Lexer.Lex_error (line, msg) ->
            incr issues;
            Printf.printf "%s:%d: lex-error: %s\n" path line msg;
            [])
      (jimple_files dir)
  in
  let by_class =
    List.map (fun (p, (c : Fd_ir.Jclass.t)) -> (c.Fd_ir.Jclass.c_name, p)) classes
  in
  List.iter
    (fun (i : Fd_ir.Lint.issue) ->
      (* resolve Class.method back to its file when we can *)
      let cls =
        match String.rindex_opt i.Fd_ir.Lint.li_where '.' with
        | Some j -> String.sub i.Fd_ir.Lint.li_where 0 j
        | None -> i.Fd_ir.Lint.li_where
      in
      match List.assoc_opt cls by_class with
      | Some f -> report { i with Fd_ir.Lint.li_where = f ^ ": " ^ i.Fd_ir.Lint.li_where }
      | None -> report i)
    (Fd_ir.Lint.lint_classes (List.map snd classes));
  if !issues = 0 then begin
    Printf.printf "lint: clean (%d class(es))\n" (List.length classes);
    0
  end
  else begin
    Printf.printf "lint: %d issue(s)\n" !issues;
    1
  end

let analyze (c : Cli.t) dir apk_dirs k lenient fallback no_lc no_cb no_alias
    no_act rta lint sources wrappers show_paths dump_dm xml_out explain =
  let dirs = (match dir with Some d -> [ d ] | None -> []) @ apk_dirs in
  match dirs with
  | [] ->
      Printf.eprintf "error: no app directory given (positional or --apk)\n";
      1
  | _ :: _ when lint -> List.fold_left (fun acc d -> max acc (run_lint d)) 0 dirs
  | _ :: _ ->
  let config =
    {
      c.Cli.config with
      Config.max_access_path = k;
      Config.lifecycle = not no_lc;
      Config.callbacks = not no_cb;
      Config.alias_search = not no_alias;
      Config.activation_statements = not no_act;
      Config.cg_algorithm =
        (if rta then Fd_callgraph.Callgraph.Rta else Fd_callgraph.Callgraph.Cha);
      Config.provenance = c.Cli.config.Config.provenance || explain;
    }
  in
  let precision = config.Config.precision in
  (* the witness paths of the reported flows, for --stats-json *)
  let witnesses = ref [] in
  let extra () = !witnesses in
  Cli.run ~name:"flowdroid" ~extra { c with Cli.config } @@ fun () ->
  let mode = if lenient then `Lenient else `Strict in
  let defs =
    match sources with
    | Some f -> Fd_frontend.Sourcesink.of_string (read_file f)
    | None -> Fd_frontend.Sourcesink.default ()
  in
  let wrappers =
    match wrappers with
    | Some f -> Fd_frontend.Rules.of_string (read_file f)
    | None -> Fd_frontend.Rules.default_wrappers ()
  in
  let phase p = Printf.eprintf "[phase] %s\n%!" p in
  (
      let run () =
        match dirs with
        | [ dir ] ->
            let apk = Fd_frontend.Apk.of_dir ~mode dir in
            if fallback then begin
              let fb =
                Fd_core.Infoflow.analyze_with_fallback ~config ~defs ~wrappers
                  ~phase ~mode apk
              in
              (fb.Fd_core.Infoflow.fb_result, Some fb)
            end
            else
              ( Fd_core.Infoflow.analyze_apk ~config ~defs ~wrappers ~phase
                  ~mode apk,
                None )
        | dirs ->
            (* the merged multi-app Scene: collusion analysis *)
            if fallback then
              Printf.eprintf
                "warning: --fallback applies to single-app analysis; ignored\n";
            let apks = List.map (Fd_frontend.Apk.of_dir ~mode) dirs in
            let merged = Fd_frontend.Apk.load_merged ~mode apks in
            List.iter
              (fun d ->
                Printf.eprintf "warning: %s\n"
                  (Fd_resilience.Diag.to_string d))
              merged.Fd_frontend.Apk.m_loaded.Fd_frontend.Apk.diags;
            ( Fd_core.Infoflow.analyze_merged ~config ~defs ~wrappers ~phase
                merged,
              None )
      in
      match run () with
      | exception Fd_frontend.Apk.Load_error msg ->
          Printf.eprintf "error: %s\n" msg;
          1
      | exception Fd_core.Infoflow.Fallback_failed attempts ->
          Printf.eprintf "error: every degradation-ladder rung crashed:\n";
          List.iter
            (fun (a : Fd_core.Infoflow.attempt) ->
              Printf.eprintf "  %s: %s\n" a.Fd_core.Infoflow.at_label
                (Fd_resilience.Outcome.to_string a.Fd_core.Infoflow.at_outcome))
            attempts;
          1
      | result, fb_opt ->
          List.iter
            (fun d ->
              Printf.eprintf "warning: %s\n" (Fd_resilience.Diag.to_string d))
            result.Fd_core.Infoflow.r_diags;
          let findings = result.Fd_core.Infoflow.r_findings in
          (* only mention precision when a pass is on: the default
             output stays bit-identical *)
          let precision_note =
            if Config.precision_enabled precision then
              Printf.sprintf ", precision: %s"
                (Config.string_of_precision precision)
            else ""
          in
          Printf.printf
            "%d flow(s) found in %s (%.3f s, %d reachable methods%s)\n"
            (List.length findings)
            (String.concat " + " dirs)
            result.Fd_core.Infoflow.r_stats.Fd_core.Infoflow.st_time
            result.Fd_core.Infoflow.r_stats.Fd_core.Infoflow.st_reachable
            precision_note;
          List.iteri
            (fun i (fd : Fd_core.Bidi.finding) ->
              Printf.printf "%2d. [%s] %s\n      -> sink at %s\n" (i + 1)
                (Fd_frontend.Sourcesink.string_of_category
                   fd.Fd_core.Bidi.f_source.Fd_core.Taint.si_category)
                fd.Fd_core.Bidi.f_source.Fd_core.Taint.si_desc
                (Fd_callgraph.Icfg.string_of_node fd.Fd_core.Bidi.f_sink_node);
              if show_paths then
                List.iter
                  (fun n ->
                    Printf.printf "      via %s\n"
                      (Fd_callgraph.Icfg.string_of_node n))
                  fd.Fd_core.Bidi.f_path;
              if explain then
                match Fd_core.Report.witness_lines fd with
                | [] -> print_endline "      (no witness recorded)"
                | lines -> List.iter print_endline lines)
            findings;
          (match result.Fd_core.Infoflow.r_icc with
          | None -> ()
          | Some rep ->
              Printf.printf
                "icc: %d send site(s), %d resolved, %d stitched flow(s), %d \
                 setResult leak(s)\n"
                rep.Fd_core.Icc.ic_send_sites rep.Fd_core.Icc.ic_resolved
                (List.length rep.Fd_core.Icc.ic_stitched)
                (List.length rep.Fd_core.Icc.ic_result_leaks);
              List.iter
                (fun (app, cls) ->
                  Printf.printf "  exported: %s [%s]\n" cls app)
                rep.Fd_core.Icc.ic_exported;
              List.iter
                (fun (e : Fd_core.Icc.surface_entry) ->
                  Printf.printf "  surface: %s in %s (%s)\n"
                    (Fd_callgraph.Icfg.string_of_node e.Fd_core.Icc.su_node)
                    e.Fd_core.Icc.su_method
                    (Fd_core.Icc.string_of_reason e.Fd_core.Icc.su_reason))
                rep.Fd_core.Icc.ic_surface);
          if config.Config.provenance then
            witnesses :=
              [ ("witnesses", Fd_core.Report.witnesses_json findings) ];
          let xml_written =
            match xml_out with
            | None -> true
            | Some path ->
                let doc =
                  match fb_opt with
                  | Some fb -> Fd_core.Report.fallback_to_xml_string fb
                  | None -> Fd_core.Report.to_xml_string result
                in
                Cli.write_output (fun ~path -> Fd_obs.Export.write_file path doc) path
          in
          if dump_dm then begin
            match
              Fd_callgraph.Callgraph.body_of
                result.Fd_core.Infoflow.r_icfg.Fd_callgraph.Icfg.cg
                Fd_callgraph.Mkey.
                  { mk_class = "dummyMainClass"; mk_name = "dummyMain";
                    mk_arity = 0 }
            with
            | body ->
                print_newline ();
                print_endline "Generated dummy main (Figure 1 model):";
                print_string (Fd_ir.Pretty.cfg_to_string body)
            | exception Not_found -> ()
          end;
          let incomplete =
            match fb_opt with
            | Some fb -> (
                print_endline (Fd_core.Report.fallback_summary fb);
                match fb.Fd_core.Infoflow.fb_completeness with
                | Fd_core.Infoflow.Partial _ -> true
                | Fd_core.Infoflow.Precise | Fd_core.Infoflow.Degraded _ ->
                    false)
            | None ->
                let complete =
                  Fd_resilience.Outcome.is_complete
                    result.Fd_core.Infoflow.r_stats.Fd_core.Infoflow.st_outcome
                in
                if not complete then
                  print_endline (Fd_core.Report.outcome_line result);
                not complete
          in
          if not xml_written then 1
          else if incomplete then 3
          else if findings = [] then 0
          else 2)

let cmd =
  Cmd.v
    (Cmd.info "flowdroid"
       ~exits:
         (Cmd.Exit.info 2 ~doc:"when flows are reported."
         :: Cmd.Exit.info 3
              ~doc:
                "when the analysis terminated early (deadline, budget or \
                 crash); the results are a partial under-approximation."
         :: Cli.exits)
       ~doc:
         "Context-, flow-, field- and object-sensitive, lifecycle-aware \
          taint analysis for Android apps (FlowDroid, PLDI 2014)."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Analyses an Android app given as a directory containing \
              AndroidManifest.xml, res/layout/*.xml and µJimple (.jimple) \
              class sources.  Exit status 0 means that no flow was found.";
         ])
    Term.(
      const analyze $ Cli.term Cli.flowdroid_cli $ app_dir $ apk_dirs $ k_len
      $ lenient $ fallback $ no_lifecycle $ no_callbacks $ no_alias
      $ no_activation $ rta $ lint_flag $ sources_file $ wrappers_file
      $ show_paths $ dump_dummy_main $ xml_out $ explain_flag)

let () = exit (Cmd.eval' cmd)

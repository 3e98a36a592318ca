(* Tests for the shared command line (lib/cli):

   - a table of command lines as the runners, the gate scripts and the
     README spell them, each parsed through [Cmd.eval_value] against
     the binary's shared flags; every row pins the resulting
     [Config.t], job count and output paths, and a flag a binary never
     had is still refused;
   - the run wrapper's exit path: a failed output write leaves the
     other outputs written and exits 1, a raising worker exits 5, an
     interrupt exits 4;
   - a cold process: droidbench_runner at --jobs 2 prints what the
     same analysis prints in this process. *)

open Cmdliner
module Cli = Fd_cli.Cli
module Config = Fd_core.Config

(* ---------------- the command-line table ---------------- *)

(* each binary's own flags, accepted and ignored here: only the shared
   ones reach [Cli.t] *)
type binary = {
  b_name : string;
  b_flags : Cli.flag list;
  b_opts : string list;  (** local flags taking a value *)
  b_switches : string list;  (** local flags without one *)
}

let droidbench =
  {
    b_name = "droidbench_runner";
    b_flags = Cli.droidbench_runner;
    b_opts = [ "app"; "dump"; "chaos-rate"; "chaos-seed" ];
    b_switches = [ "outcomes" ];
  }

let securibench =
  { b_name = "securibench_runner"; b_flags = Cli.securibench_runner;
    b_opts = []; b_switches = [] }

let corpus =
  { b_name = "corpus_runner"; b_flags = Cli.corpus_runner;
    b_opts = [ "profile"; "n"; "seed" ]; b_switches = [] }

let diff =
  {
    b_name = "diff_runner";
    b_flags = Cli.diff_runner;
    b_opts = [ "profile"; "seed"; "count"; "emit-explained"; "pairs" ];
    b_switches = [ "minimize"; "json" ];
  }

let cli =
  {
    b_name = "flowdroid_cli";
    b_flags = Cli.flowdroid_cli;
    b_opts =
      [ "apk"; "k"; "access-path-length"; "sources-sinks"; "taint-wrappers";
        "xml" ];
    b_switches =
      [ "no-lifecycle"; "no-callbacks"; "no-alias"; "no-activation"; "rta";
        "lint"; "lenient"; "fallback"; "paths"; "dump-dummy-main"; "explain" ];
  }

let serve =
  {
    b_name = "flowdroid_serve";
    b_flags = Cli.flowdroid_serve;
    b_opts =
      [ "socket"; "workers"; "queue"; "deadline-s"; "max-frame-bytes";
        "drain-grace-s"; "chaos-rate"; "chaos-seed"; "stats-out" ];
    b_switches = [ "q"; "quiet" ];
  }

let client =
  {
    b_name = "flowdroid_client";
    b_flags = Cli.flowdroid_client;
    b_opts = [ "socket"; "dir"; "apk"; "gen"; "deadline-ms"; "k"; "id" ];
    b_switches = [ "strict" ];
  }

let cmd b =
  let opts =
    if b.b_opts = [] then Term.const []
    else Arg.(value & opt_all string [] & info b.b_opts)
  in
  let switches =
    if b.b_switches = [] then Term.const []
    else Arg.(value & flag_all & info b.b_switches)
  in
  let positionals = Arg.(value & pos_all string [] & info []) in
  Cmd.v (Cmd.info b.b_name)
    Term.(const (fun c _ _ _ -> c) $ Cli.term b.b_flags $ opts $ switches
          $ positionals)

let silent = Format.make_formatter (fun _ _ _ -> ()) ignore

let parse b ?(env = []) argv =
  match
    Cmd.eval_value ~err:silent ~help:silent
      ~env:(fun k -> List.assoc_opt k env)
      ~argv:(Array.of_list (b.b_name :: argv))
      (cmd b)
  with
  | Ok (`Ok c) -> Some c
  | _ -> None

let cfg ?deadline ?(precision = "none") ?(provenance = false)
    ?(profile = false) ?store ?(targeted = []) ?(icc = false) () =
  {
    Config.default with
    Config.deadline_s = deadline;
    precision = Result.get_ok (Config.precision_of_string precision);
    provenance;
    profile;
    summary_store = store;
    targeted;
    icc;
  }

type row = {
  r_bin : binary;
  r_argv : string list;
  r_env : (string * string) list;
  r_config : Config.t;
  r_jobs : int;
  r_outputs : Cli.outputs;
}

let row ?(env = []) ?(jobs = 1) ?stats ?trace ?prof ?(config = cfg ()) b argv =
  {
    r_bin = b;
    r_argv = argv;
    r_env = env;
    r_config = config;
    r_jobs = jobs;
    r_outputs = { Cli.stats_json = stats; trace_out = trace; profile_out = prof };
  }

let rows =
  [
    (* droidbench_runner: its former usage string, the gate scripts,
       the README *)
    row droidbench [];
    row droidbench [ "--app"; "FieldSensitivity3" ];
    row droidbench [ "--app"; "Button2"; "--dump"; "/tmp/apps" ];
    row droidbench [ "--precision"; "none" ];
    row droidbench [ "--precision"; "all" ] ~config:(cfg ~precision:"all" ());
    row droidbench [ "--precision"; "must-alias,clinit" ]
      ~config:(cfg ~precision:"must-alias,clinit" ());
    row droidbench [ "--provenance" ] ~config:(cfg ~provenance:true ());
    row droidbench [ "--stats-json"; "s.json" ] ~stats:"s.json";
    row droidbench [ "--stats-json"; "-"; "--trace-out"; "t.json" ] ~stats:"-"
      ~trace:"t.json";
    row droidbench [ "--profile-out"; "p.folded"; "--stats-json"; "s.json" ]
      ~prof:"p.folded" ~stats:"s.json" ~config:(cfg ~profile:true ());
    row droidbench [ "--jobs"; "4" ] ~jobs:4;
    row droidbench [ "--deadline"; "2.5" ] ~config:(cfg ~deadline:2.5 ());
    row droidbench [ "--outcomes"; "--jobs"; "2" ] ~jobs:2;
    row droidbench
      [ "--chaos-rate"; "0.1"; "--chaos-seed"; "20140609"; "--stats-json";
        "chaos.json" ]
      ~stats:"chaos.json";
    row droidbench [ "--summary-store"; "/tmp/fdss" ]
      ~config:(cfg ~store:"/tmp/fdss" ());
    row droidbench
      [ "--targeted"; "SmsManager.sendTextMessage"; "--targeted"; "Log.i,Log.e" ]
      ~config:(cfg ~targeted:[ "SmsManager.sendTextMessage"; "Log.i"; "Log.e" ] ());
    row droidbench [ "--icc" ] ~config:(cfg ~icc:true ());
    row droidbench [] ~env:[ ("FLOWDROID_PRECISION", "clinit") ]
      ~config:(cfg ~precision:"clinit" ());
    row droidbench [] ~env:[ ("FLOWDROID_ICC", "1") ] ~config:(cfg ~icc:true ());
    row droidbench [] ~env:[ ("FLOWDROID_ICC", "0") ];
    row droidbench [] ~env:[ ("FLOWDROID_JOBS", "3") ] ~jobs:3;
    row droidbench [ "--jobs"; "2" ] ~env:[ ("FLOWDROID_JOBS", "3") ] ~jobs:2;
    row droidbench [] ~env:[ ("FLOWDROID_SUMMARY_STORE", "/tmp/fdss") ]
      ~config:(cfg ~store:"/tmp/fdss" ());
    row droidbench [] ~env:[ ("FLOWDROID_SUMMARY_STORE", "") ];
    row droidbench [] ~env:[ ("FLOWDROID_TARGETED", "Log.i, ,Log.e") ]
      ~config:(cfg ~targeted:[ "Log.i"; "Log.e" ] ());
    (* securibench_runner *)
    row securibench [];
    row securibench [ "--stats-json"; "s.json"; "--trace-out"; "t.json" ]
      ~stats:"s.json" ~trace:"t.json";
    row securibench [ "--jobs"; "2" ] ~jobs:2;
    row securibench [] ~env:[ ("FLOWDROID_JOBS", "2") ] ~jobs:2;
    (* corpus_runner *)
    row corpus [ "--profile"; "malware"; "-n"; "200" ];
    row corpus
      [ "--profile"; "malware"; "-n"; "60"; "--seed"; "7"; "--summary-store";
        "/tmp/store"; "--stats-json"; "cold.json" ]
      ~stats:"cold.json" ~config:(cfg ~store:"/tmp/store" ());
    row corpus
      [ "--profile"; "malware"; "-n"; "500"; "--targeted";
        "SmsManager.sendTextMessage" ]
      ~config:(cfg ~targeted:[ "SmsManager.sendTextMessage" ] ());
    row corpus
      [ "-n"; "2"; "--deadline"; "0"; "--jobs"; "2"; "--trace-out"; "t.json";
        "--profile-out"; "p.folded" ]
      ~jobs:2 ~trace:"t.json" ~prof:"p.folded"
      ~config:(cfg ~deadline:0. ~profile:true ());
    (* diff_runner *)
    row diff
      [ "--profile"; "both"; "--seed"; "20140609"; "--count"; "200"; "--jobs";
        "4"; "--json" ]
      ~jobs:4;
    row diff [ "--profile"; "both"; "--count"; "200"; "--precision"; "all" ]
      ~config:(cfg ~precision:"all" ());
    row diff
      [ "--profile"; "icc"; "--count"; "40"; "--pairs"; "12"; "--json"; "--icc" ]
      ~config:(cfg ~icc:true ());
    row diff
      [ "--profile"; "malware"; "--json"; "--summary-store"; "/tmp/s";
        "--targeted"; "Log.i" ]
      ~config:(cfg ~store:"/tmp/s" ~targeted:[ "Log.i" ] ());
    row diff [ "--minimize"; "--emit-explained"; "/tmp/repro" ];
    row diff [] ~env:[ ("FLOWDROID_PRECISION", "reflection") ]
      ~config:(cfg ~precision:"reflection" ());
    (* flowdroid_cli *)
    row cli [ "path/to/app"; "--paths"; "--dump-dummy-main" ];
    row cli
      [ "examples/apps/leakage_app"; "--stats-json"; "stats.json";
        "--trace-out"; "trace.json" ]
      ~stats:"stats.json" ~trace:"trace.json";
    row cli [ "app"; "--explain" ];
    row cli [ "app"; "--deadline"; "0"; "--stats-json"; "d.json" ]
      ~stats:"d.json" ~config:(cfg ~deadline:0. ());
    row cli [ "app"; "--fallback"; "--lenient"; "--xml"; "out.xml" ];
    row cli
      [ "app"; "--provenance"; "--profile-out"; "p.folded"; "--stats-json";
        "p.json" ]
      ~prof:"p.folded" ~stats:"p.json"
      ~config:(cfg ~provenance:true ~profile:true ());
    row cli [ "--summary-store"; "/var/cache/fdss"; "app1/" ]
      ~config:(cfg ~store:"/var/cache/fdss" ());
    row cli [ "--targeted"; "SmsManager.sendTextMessage"; "app/" ]
      ~config:(cfg ~targeted:[ "SmsManager.sendTextMessage" ] ());
    row cli [ "--apk"; "sender/"; "--apk"; "receiver/"; "--icc" ]
      ~config:(cfg ~icc:true ());
    row cli [ "path/to/app"; "--precision"; "must-alias,array-index" ]
      ~config:(cfg ~precision:"must-alias,array-index" ());
    row cli [ "app"; "-k"; "3"; "--no-alias"; "--rta"; "--lint" ];
    row cli [ "app" ] ~env:[ ("FLOWDROID_ICC", "1") ] ~config:(cfg ~icc:true ());
    (* flowdroid_serve and flowdroid_client *)
    row serve [ "--socket"; "/tmp/s.sock"; "--workers"; "2"; "--stats-out";
                "st.json"; "-q" ];
    row serve [ "--socket"; "/tmp/fd.sock"; "--summary-store"; "/var/cache/fdss" ]
      ~config:(cfg ~store:"/var/cache/fdss" ());
    row serve [ "--targeted"; "Log.i" ] ~config:(cfg ~targeted:[ "Log.i" ] ());
    row client [ "ping"; "--socket"; "/tmp/s.sock" ];
    row client [ "analyze"; "--socket"; "/tmp/s.sock"; "--gen"; "malware:1:3" ];
    row client
      [ "analyze"; "--dir"; "app/"; "--targeted"; "Log.i"; "--socket";
        "/tmp/fd.sock" ]
      ~config:(cfg ~targeted:[ "Log.i" ] ());
    row client [ "analyze"; "--apk"; "a/"; "--apk"; "b/"; "--icc" ]
      ~config:(cfg ~icc:true ());
  ]

let show r = String.concat " " (r.r_bin.b_name :: r.r_argv)

let test_table () =
  List.iter
    (fun r ->
      match parse r.r_bin ~env:r.r_env r.r_argv with
      | None -> Alcotest.failf "%s: refused" (show r)
      | Some c ->
          Alcotest.(check bool) (show r ^ ": config") true (c.Cli.config = r.r_config);
          Alcotest.(check int) (show r ^ ": jobs") r.r_jobs c.Cli.jobs;
          Alcotest.(check bool) (show r ^ ": outputs") true
            (c.Cli.outputs = r.r_outputs))
    rows

(* malformed values, and flags the binary never had *)
let test_refused () =
  List.iter
    (fun (b, env, argv) ->
      if parse b ~env argv <> None then
        Alcotest.failf "%s accepted %s" b.b_name (String.concat " " argv))
    [
      (droidbench, [], [ "--jobs"; "0" ]);
      (droidbench, [], [ "--jobs"; "-2" ]);
      (droidbench, [], [ "--precision"; "bogus" ]);
      (droidbench, [ ("FLOWDROID_PRECISION", "bogus") ], []);
      (droidbench, [ ("FLOWDROID_JOBS", "0") ], []);
      (droidbench, [], [ "--deadline"; "soon" ]);
      (droidbench, [], [ "--no-such-flag" ]);
      (securibench, [], [ "--jobs"; "0" ]);
      (securibench, [], [ "--deadline"; "1" ]);
      (securibench, [], [ "--profile-out"; "p" ]);
      (corpus, [], [ "--jobs"; "0" ]);
      (corpus, [], [ "--precision"; "all" ]);
      (corpus, [], [ "--icc" ]);
      (diff, [], [ "--deadline"; "1" ]);
      (diff, [], [ "--stats-json"; "s.json" ]);
      (cli, [], [ "app"; "--jobs"; "2" ]);
      (serve, [], [ "--jobs"; "2" ]);
      (serve, [], [ "--icc" ]);
      (client, [], [ "ping"; "--summary-store"; "d" ]);
    ]

(* ---------------- the run wrapper ---------------- *)

let shared ?stats ?trace () =
  match parse droidbench [] with
  | None -> assert false
  | Some c ->
      { c with Cli.outputs = { c.Cli.outputs with Cli.stats_json = stats; trace_out = trace } }

let scratch_dir () =
  let d = Filename.temp_file "test_cli" "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

let test_failed_write () =
  let dir = scratch_dir () in
  let trace = Filename.concat dir "trace.json" in
  let stats = Filename.concat (Filename.concat dir "missing") "stats.json" in
  let code = Cli.run ~name:"test_cli" (shared ~stats ~trace ()) (fun () -> 0) in
  Alcotest.(check int) "exit 1" 1 code;
  Alcotest.(check bool) "trace still written" true (Sys.file_exists trace);
  let json = Fd_obs.Json.parse_string (In_channel.with_open_bin trace In_channel.input_all) in
  Sys.remove trace;
  Sys.rmdir dir;
  Alcotest.(check bool) "trace is a Chrome trace" true
    (Fd_obs.Json.member "traceEvents" json <> None)

let test_worker_failed () =
  let code =
    Cli.run ~name:"test_cli" (shared ()) (fun () ->
        ignore
          (Fd_util.Pool.map ~jobs:2
             (fun i -> if i = 3 then failwith "boom" else i)
             [ 0; 1; 2; 3; 4; 5 ]);
        0)
  in
  Alcotest.(check int) "exit 5" Cli.exit_worker_failed code;
  Alcotest.(check int) "documented as 5" 5 code

let test_interrupted () =
  let code =
    Cli.run ~name:"test_cli" (shared ()) (fun () ->
        Fd_resilience.Budget.cancel_all ();
        0)
  in
  Fd_resilience.Budget.reset_cancel_all ();
  Alcotest.(check int) "exit 4" Cli.exit_interrupted code

(* ---------------- a cold process ---------------- *)

let runner =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat Filename.parent_dir_name "bin/droidbench_runner.exe")

(* the runner's stdout, in an environment without FLOWDROID_* settings *)
let run_cold args =
  let env =
    Array.of_list
      (List.filter
         (fun kv -> not (String.starts_with ~prefix:"FLOWDROID_" kv))
         (Array.to_list (Unix.environment ())))
  in
  let ((out, _, _) as p) =
    Unix.open_process_args_full runner (Array.of_list (runner :: args)) env
  in
  let stdout = In_channel.input_all out in
  match Unix.close_process_full p with
  | Unix.WEXITED 0 -> stdout
  | _ -> Alcotest.failf "droidbench_runner %s failed" (String.concat " " args)

let test_cold_spawn () =
  let name = "FieldSensitivity3" in
  let app = Option.get (Fd_droidbench.Suite.find name) in
  let result =
    Fd_core.Infoflow.analyze_apk ~config:Config.default
      app.Fd_droidbench.Bench_app.app_apk
  in
  Alcotest.(check string) "--app line"
    (Printf.sprintf "%s: %d flow(s), %d propagations\n" name
       (List.length result.Fd_core.Infoflow.r_findings)
       result.Fd_core.Infoflow.r_stats.Fd_core.Infoflow.st_propagations)
    (run_cold [ "--app"; name; "--jobs"; "2" ]);
  let engines =
    [ Fd_eval.Engines.appscan; Fd_eval.Engines.fortify;
      Fd_eval.Engines.flowdroid ~config:Config.default () ]
  in
  Alcotest.(check string) "table at --jobs 2"
    (Fd_eval.Droidbench_table.render (Fd_eval.Droidbench_table.run engines))
    (run_cold [ "--jobs"; "2" ])

let () =
  Alcotest.run "cli"
    [
      ( "flags",
        [
          Alcotest.test_case "command lines parse as before" `Quick test_table;
          Alcotest.test_case "bad values and foreign flags refused" `Quick
            test_refused;
        ] );
      ( "run",
        [
          Alcotest.test_case "failed write: others written, exit 1" `Quick
            test_failed_write;
          Alcotest.test_case "worker failure exits 5" `Quick test_worker_failed;
          Alcotest.test_case "interrupt exits 4" `Quick test_interrupted;
        ] );
      ( "cold",
        [
          Alcotest.test_case "droidbench_runner --jobs 2 in a fresh process"
            `Quick test_cold_spawn;
        ] );
    ]

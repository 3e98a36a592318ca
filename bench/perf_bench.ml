(* The performance gate workload: the full DroidBench table (FlowDroid
   plus both simulated comparators) and the full SecuriBench-µ table,
   timed per iteration, with a digest of every rendered table so two
   runs can be compared for bit-identical output (the --jobs
   determinism contract).

     perf_bench [--jobs N] [--repeat N] [--json FILE]

   Prints one line per iteration plus a summary; --json writes a small
   machine-readable report (seconds per iteration, digest, the work
   counters of one iteration) that bench/check_perf.sh folds into
   BENCH_perf.json. *)

let jobs = ref (Fd_util.Pool.default_jobs ())
let repeat = ref 5
let json_out = ref None

let usage () =
  prerr_endline "usage: perf_bench [--jobs N] [--repeat N] [--json FILE]";
  exit 1

let () =
  let rec parse = function
    | [] -> ()
    | "--jobs" :: v :: rest ->
        (match int_of_string_opt v with
        | Some n when n >= 1 -> jobs := n
        | _ -> usage ());
        parse rest
    | "--repeat" :: v :: rest ->
        (match int_of_string_opt v with
        | Some n when n >= 1 -> repeat := n
        | _ -> usage ());
        parse rest
    | "--json" :: v :: rest ->
        json_out := Some v;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv))

(* one iteration of the gate workload; returns the rendered output *)
let iteration ~jobs () =
  let engines =
    [ Fd_eval.Engines.flowdroid (); Fd_eval.Engines.appscan;
      Fd_eval.Engines.fortify ]
  in
  let db = Fd_eval.Droidbench_table.run ~jobs engines in
  let sb = Fd_eval.Securibench_table.run ~jobs () in
  Fd_eval.Droidbench_table.render db
  ^ Fd_eval.Droidbench_table.render_outcomes db
  ^ Fd_eval.Securibench_table.render sb

let () =
  let jobs = !jobs and repeat = !repeat in
  (* warm-up iteration: fills the lazy framework/rules templates and
     faults in the code paths, so timed iterations measure the steady
     state the solver runs in *)
  let rendered = iteration ~jobs () in
  (* the deterministic work of one iteration: the counters start at
     zero and the warm-up is the process's first iteration *)
  let counter = Fd_obs.Metrics.counter_value in
  let path_edges = counter "ifds.path_edges"
  and dedup = counter "ifds.worklist_dedup_hits" in
  let digest = Digest.to_hex (Digest.string rendered) in
  let times =
    List.init repeat (fun i ->
        let t0 = Unix.gettimeofday () in
        let r = iteration ~jobs () in
        let dt = Unix.gettimeofday () -. t0 in
        if not (String.equal r rendered) then begin
          Printf.eprintf
            "FAIL: iteration %d rendered different output (digest %s vs %s)\n"
            (i + 1)
            (Digest.to_hex (Digest.string r))
            digest;
          exit 1
        end;
        Printf.printf "iteration %d/%d: %.4f s\n%!" (i + 1) repeat dt;
        dt)
  in
  let best = List.fold_left min infinity times in
  let mean = List.fold_left ( +. ) 0. times /. float_of_int repeat in
  Printf.printf "jobs=%d repeat=%d best=%.4f s mean=%.4f s digest=%s\n" jobs
    repeat best mean digest;
  Printf.printf "per iteration: path edges %d, worklist dedup hits %d\n"
    path_edges dedup;
  match !json_out with
  | None -> ()
  | Some path ->
      let j =
        Fd_obs.Json.Obj
          [
            ("jobs", Fd_obs.Json.Int jobs);
            ("repeat", Fd_obs.Json.Int repeat);
            ("best_s", Fd_obs.Json.Float best);
            ("mean_s", Fd_obs.Json.Float mean);
            ("digest", Fd_obs.Json.String digest);
            ("path_edges", Fd_obs.Json.Int path_edges);
            ("worklist_dedup_hits", Fd_obs.Json.Int dedup);
          ]
      in
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc (Fd_obs.Json.to_string ~indent:1 j ^ "\n"));
      Printf.eprintf "wrote %s\n" path

(* Regenerates Table 2: SecuriBench-µ results for FlowDroid.

   Observability options:
     --stats-json FILE  write the metrics snapshot (+ phase durations)
     --trace-out FILE   write a Chrome trace_event file

   Performance options:
     --jobs N           fan the per-case loop out over N domains
                        (default: $FLOWDROID_JOBS, else 1); the table
                        is bit-identical at any job count *)

let stats_json = ref None
let trace_out = ref None
let jobs = ref (Fd_util.Pool.default_jobs ())

let () =
  let rec parse = function
    | [] -> ()
    | "--stats-json" :: v :: rest ->
        stats_json := Some v;
        parse rest
    | "--trace-out" :: v :: rest ->
        trace_out := Some v;
        parse rest
    | "--jobs" :: v :: rest ->
        (match int_of_string_opt v with
        | Some n when n >= 1 -> jobs := n
        | _ ->
            prerr_endline "error: --jobs expects a positive integer";
            exit 1);
        parse rest
    | _ ->
        prerr_endline
          "usage: securibench_runner [--stats-json FILE] [--trace-out FILE] \
           [--jobs N]";
        exit 1
  in
  parse (List.tl (Array.to_list Sys.argv))

let () =
  (* arm span recording for --trace-out *)
  Fd_obs.Trace.reset ();
  let t = Fd_eval.Securibench_table.run ~jobs:!jobs () in
  print_string (Fd_eval.Securibench_table.render t);
  (* list any deviations from the expected counts, for debugging *)
  List.iter
    (fun (name, v) ->
      if v.Fd_eval.Scoring.fn > 0 || v.Fd_eval.Scoring.fp > 0 then
        Printf.printf "  %-18s tp=%d fp=%d fn=%d\n" name v.Fd_eval.Scoring.tp
          v.Fd_eval.Scoring.fp v.Fd_eval.Scoring.fn)
    t.Fd_eval.Securibench_table.per_case;
  (* per-case termination states: list the cases the barrier had to
     degrade or give up on, then the overall distribution *)
  let outcomes = t.Fd_eval.Securibench_table.per_case_outcomes in
  List.iter
    (fun (name, o) ->
      if not (Fd_resilience.Outcome.is_complete o) then
        Printf.printf "  %-18s outcome: %s\n" name
          (Fd_resilience.Outcome.to_string o))
    outcomes;
  let dist =
    List.fold_left
      (fun acc (_, o) ->
        let key =
          match o with
          | Fd_resilience.Outcome.Crashed _ -> "crashed"
          | o -> Fd_resilience.Outcome.to_string o
        in
        let prev = Option.value (List.assoc_opt key acc) ~default:0 in
        (key, prev + 1) :: List.remove_assoc key acc)
      [] outcomes
    |> List.sort compare
  in
  Printf.printf "outcomes: %s\n"
    (String.concat ", "
       (List.map (fun (k, n) -> Printf.sprintf "%s: %d" k n) dist));
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
      write_out (fun ~path -> Fd_obs.Export.write_stats_json ~path ()) path
  | None -> ());
  match !trace_out with
  | Some path -> write_out Fd_obs.Export.write_chrome_trace path
  | None -> ()

(* The repository benchmark.

     bench --workload corpus-mix|deep-chain|serve-open --seed N
           --seconds S --trace 0|1 [--size full|small]
           [--serve-exe PATH] [--digests FILE]

   Builds the workload's inputs from the seed, measures for about S
   seconds, checks every verdict against the planted ground truth,
   and prints one JSON object as the last line of stdout: the
   end-to-end metrics with --trace 0, the per-layer metrics with
   --trace 1.  A human report goes to stderr.  Exits 1 when a check
   fails (missed planted leak, nondeterministic verdict or work count,
   a decomposition mismatch, or a digest differing from the one
   recorded for this seed). *)

module Json = Fd_obs.Json

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* metric catalogue: name, unit                                        *)
(* ------------------------------------------------------------------ *)

let end_to_end =
  [
    ("setup_s", "s");
    ("apps_per_s", "1/s");
    ("verdict_p50_ms", "ms");
    ("verdict_tail_ms", "ms");
    ("peak_heap_mb", "MB");
    ("ok_share", "share");
    ("planted_recall", "share");
  ]

let per_layer =
  [
    ("frontend.parse_ms", "ms");
    ("frontend.load_ms", "ms");
    ("lifecycle.discover_ms", "ms");
    ("lifecycle.dummy_main_ms", "ms");
    ("lifecycle.cg_builds", "count");
    ("callgraph.build_ms", "ms");
    ("callgraph.icfg_ms", "ms");
    ("cg.edges", "count");
    ("cg.reachable_methods", "count");
    ("solve.ms", "ms");
    ("ifds.path_edges", "count");
    ("bidi.fw_propagations", "count");
    ("bidi.bw_propagations", "count");
    ("bidi.alias_queries", "count");
    ("ifds.summaries_installed", "count");
    ("solve.ns_per_edge", "ns");
    ("ifds.dedup_ratio", "share");
    ("icc.analyze_ms", "ms");
    ("icc.send_sites", "count");
    ("icc.stitched_flows", "count");
    ("report.render_ms", "ms");
    ("frontend.minor_mwords", "Mwords");
    ("frontend.major_collections", "count");
    ("lifecycle.minor_mwords", "Mwords");
    ("lifecycle.major_collections", "count");
    ("callgraph.minor_mwords", "Mwords");
    ("callgraph.major_collections", "count");
    ("solve.minor_mwords", "Mwords");
    ("solve.major_collections", "count");
    ("store.hit_ratio", "share");
    ("store.bytes_read", "bytes");
    ("store.bytes_written", "bytes");
    ("serve.queue_ms_p50", "ms");
    ("serve.queue_ms_tail", "ms");
    ("serve.server_ms_p50", "ms");
    ("serve.transport_ms_p50", "ms");
    ("serve.high_p50_ms", "ms");
    ("serve.high_tail_ms", "ms");
    ("serve.max_rps", "1/s");
    ("serve.retries", "count");
    ("serve.worker_restarts", "count");
    ("serve.rejected", "count");
    ("trace.overhead_ratio", "ratio");
    ("layer.unattributed_ms", "ms");
    ("gen.late_ms_tail", "ms");
  ]

(* ------------------------------------------------------------------ *)
(* arguments                                                           *)
(* ------------------------------------------------------------------ *)

let workload = ref ""
let seed = ref (-1)
let seconds = ref 0
let trace = ref (-1)
let small = ref false
let serve_exe = ref "_build/default/bin/flowdroid_serve.exe"
let digests = ref "perfbench/digests.json"

let usage () =
  prerr_endline
    "usage: bench --workload corpus-mix|deep-chain|serve-open --seed N \
     --seconds S --trace 0|1 [--size full|small] [--serve-exe PATH] \
     [--digests FILE]";
  exit 2

let parse_args args =
  let int_arg v r =
    match int_of_string_opt v with Some n when n >= 0 -> r := n | _ -> usage ()
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> int_arg v seed; go rest
    | "--seconds" :: v :: rest -> int_arg v seconds; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := int_of_string v; go rest
    | "--size" :: "full" :: rest -> small := false; go rest
    | "--size" :: "small" :: rest -> small := true; go rest
    | "--serve-exe" :: v :: rest -> serve_exe := v; go rest
    | "--digests" :: v :: rest -> digests := v; go rest
    | _ -> usage ()
  in
  go args;
  if !seed < 0 || !seconds < 1 || !trace < 0 then usage ();
  if not (List.mem !workload [ "corpus-mix"; "deep-chain"; "serve-open" ]) then
    usage ()

(* ------------------------------------------------------------------ *)
(* set-up time                                                          *)
(* ------------------------------------------------------------------ *)

(* a fresh process of this binary that warms the program's templates
   and reports ready; set-up is spawn-to-ready wall time *)
let probe_setup () =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid =
    Unix.create_process exe [| exe; "--probe-setup" |] Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = try input_line ic with End_of_file -> "" in
  let dt = now () -. t0 in
  close_in ic;
  ignore (Unix.waitpid [] pid);
  if line <> "ready" then failwith "set-up probe did not report ready";
  dt

let setup_probes = 101

let batch_setup () = Stats.median (List.init setup_probes (fun _ -> probe_setup ()))

(* ------------------------------------------------------------------ *)
(* recorded digests                                                     *)
(* ------------------------------------------------------------------ *)

(* [perfbench/digests.json]: workload -> key -> {"verdicts", "work"};
   the key is the seed for batch workloads, seed@seconds for
   serve-open (whose request count follows the run length) *)
let recorded ~key =
  match In_channel.with_open_bin !digests In_channel.input_all with
  | exception Sys_error _ -> None
  | text -> (
      match Json.member !workload (Json.parse_string text) with
      | Some w -> Json.member key w
      | None -> None)

let digest_problems ~key ~verdicts ~work =
  if !small then []
  else
    match recorded ~key with
    | None ->
        Printf.eprintf "perfbench: no digest recorded for %s %s\n%!" !workload key;
        []
    | Some r ->
        let check name got =
          match Json.member name r with
          | Some (Json.String want) when want <> got ->
              [ Printf.sprintf "%s digest %s differs from the recorded %s" name got want ]
          | _ -> []
        in
        check "verdicts" verdicts @ check "work" work

let work_digest work =
  List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) work
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

(* ------------------------------------------------------------------ *)
(* output                                                               *)
(* ------------------------------------------------------------------ *)

let emit ~catalogue ~correct ~attempted ~failed values =
  let metrics =
    List.map
      (fun (name, unit) ->
        let v =
          match List.assoc_opt name values with
          | Some v when Float.is_finite v -> v
          | _ -> 0.
        in
        (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
      catalogue
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", Json.Obj metrics);
          ]))

let finish ~attempted ~failed ~planted ~found ~problems ~values =
  let problems =
    if found < planted then
      Printf.sprintf "planted recall %d/%d: a planted leak was missed" found planted
      :: problems
    else problems
  in
  List.iter (fun p -> Printf.eprintf "perfbench: FAIL: %s\n%!" p) problems;
  let correct = problems = [] in
  let share a b = if b = 0 then 1. else float_of_int a /. float_of_int b in
  let values =
    ("ok_share", share (attempted - failed) attempted)
    :: ("planted_recall", share found planted)
    :: values
  in
  List.iter (fun (k, v) -> Printf.eprintf "perfbench:   %-28s %.6g\n" k v) values;
  emit
    ~catalogue:(if !trace = 1 then per_layer else end_to_end)
    ~correct ~attempted ~failed values;
  if not correct then exit 1

(* ------------------------------------------------------------------ *)
(* serve-open                                                           *)
(* ------------------------------------------------------------------ *)

(* the two offered rates (requests/s) and the latency limit on the
   tail percentile; [low] sits well under the 2-worker capacity,
   [high] where queueing starts to show in the latencies *)
let rate_low = 80.
let rate_high = 180.
let limit_ms = 500.

(* the run is served by [segments] daemons in turn, each booted fresh
   and offered [blocks] pairs of a low then a high block.  The host's
   speed comes and goes in bursts of seconds (CPU steal), so each
   latency statistic is taken per block and the run reports the
   median block; a burst then moves one block, not the run. *)
let segments = 2
let blocks = 3

(* extra boots that only measure set-up *)
let boot_probes = 5

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let counters_of_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> []
  | text -> (
      match Json.member "counters" (Json.parse_string text) with
      | Some (Json.Obj kvs) ->
          List.filter_map
            (fun (k, v) -> match v with Json.Int i -> Some (k, i) | _ -> None)
            kvs
      | _ -> [])

(* one daemon's share of the run *)
type segment = {
  sg_blocks : (float * Serve.sample array) list;
      (** per low+high block pair: the reference-speed factor measured
          around it, and its requests *)
  sg_boot : float;
  sg_peak_mb : float;
  sg_counters : (string * int) list;
}

(* [run_segment ... pairs] boots a daemon, warms it, and drives each
   block pair ((pair index, requests), dues counted from the schedule
   start) between two reference-kernel samples *)
let run_segment ~exe ~seed ~pair_len ~dir pairs =
  let d, boot = Serve.spawn ~exe ~dir in
  match
    Serve.warm_up d ~seed;
    let k = ref (Reference.sample ()) in
    List.map
      (fun (i, reqs) ->
        let samples = Serve.drive d ~origin:(float_of_int i *. pair_len) reqs in
        let k' = Reference.sample () in
        let scale = Reference.scale ((!k +. k') /. 2.) in
        k := k';
        (scale, samples))
      pairs
  with
  | blocks ->
      let peak = Serve.peak_rss_mb d.Serve.pid in
      Serve.stop d;
      let counters = counters_of_file d.Serve.stats_out in
      (* the store's files go at once, before the kernel writes them
         back, so one segment's disk traffic does not slow the next *)
      remove_tree dir;
      { sg_blocks = blocks; sg_boot = boot; sg_peak_mb = peak; sg_counters = counters }
  | exception e ->
      Serve.kill d;
      remove_tree dir;
      raise e

(* a high block's in-flight count grew when its last quarter saw more
   requests in flight than its first quarter, by more than two per
   worker *)
let growing samples =
  let n = Array.length samples in
  let q = max 1 (n / 4) in
  let mean a b =
    let s = ref 0 in
    for i = a to b - 1 do
      s := !s + samples.(i).Serve.in_flight
    done;
    float_of_int !s /. float_of_int (max 1 (b - a))
  in
  n > 0 && mean (n - q) n > mean 0 q +. 4.

type served = {
  sv_attempted : int;
  sv_failed : int;
  sv_planted : int;
  sv_found : int;
  sv_problems : string list;
  sv_values : (string * float) list;
  sv_verdicts : string;
}

(* [serve_run ~seconds ~traced] drives the daemon with the serve-open
   mix for [seconds] and returns its end-to-end numbers, or with
   [traced] its layer numbers *)
let serve_run ~seconds ~traced =
  let exe =
    if Filename.is_relative !serve_exe then Filename.concat (Sys.getcwd ()) !serve_exe
    else !serve_exe
  in
  let seg_len = seconds /. float_of_int segments in
  let pair_len = seg_len /. float_of_int blocks in
  let phase_len = pair_len /. 2. in
  let reqs =
    Serve.schedule ~seed:!seed
      ~phases:
        (List.concat
           (List.init (segments * blocks) (fun _ ->
                [ (rate_low, phase_len); (rate_high, phase_len) ])))
  in
  (* every file of the run lives in a scratch directory of the cwd,
     entered so that socket paths stay short *)
  let cwd = Sys.getcwd () in
  let scratch_root = Filename.concat cwd ".perfbench_tmp" in
  let scratch = Filename.concat scratch_root (string_of_int (Unix.getpid ())) in
  (try Unix.mkdir scratch_root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.mkdir scratch 0o755;
  Sys.chdir scratch;
  let cleanup () =
    Sys.chdir cwd;
    remove_tree scratch;
    try Unix.rmdir scratch_root with Unix.Unix_error _ -> ()
  in
  let segs =
    Fun.protect ~finally:cleanup (fun () ->
        let probes =
          List.init boot_probes (fun k ->
              let dir = Printf.sprintf "boot%d" k in
              let d, boot = Serve.spawn ~exe ~dir in
              Serve.stop d;
              remove_tree dir;
              boot)
        in
        let segs =
          List.init segments (fun k ->
              run_segment ~exe ~seed:!seed ~pair_len
                ~dir:(Printf.sprintf "segment%d" k)
                (List.init blocks (fun b ->
                     let i = (k * blocks) + b in
                     ( i,
                       Array.of_list
                         (List.filter
                            (fun r -> r.Serve.phase / 2 = i)
                            (Array.to_list reqs)) ))))
        in
        (probes, segs))
  in
  let probes, segs = segs in
  let blocks_all = List.concat_map (fun s -> s.sg_blocks) segs in
  let samples = Array.concat (List.map snd blocks_all) in
  let run_scale = Stats.median (List.map fst blocks_all) in
  let all = Array.to_list samples in
  let low = List.filter (fun s -> s.Serve.req.Serve.phase mod 2 = 0) all in
  let high = List.filter (fun s -> s.Serve.req.Serve.phase mod 2 = 1) all in
  let lat l = List.map (fun s -> s.Serve.latency_ms) l in
  (* a latency statistic per block, scaled to the reference speed
     measured around it, then the median block *)
  let per_block phase stat =
    Stats.median
      (List.map
         (fun (scale, samples) ->
           stat
             (List.filter_map
                (fun (x : Serve.sample) ->
                  if x.Serve.req.Serve.phase mod 2 <> phase then None
                  else if x.Serve.ok then Some (x.Serve.latency_ms *. scale)
                  else Some x.Serve.latency_ms)
                (Array.to_list samples)))
         blocks_all)
  in
  let ok = List.filter (fun s -> s.Serve.ok) all in
  let n = Array.length samples and failed = List.length all - List.length ok in
  let counter k =
    List.fold_left
      (fun a s -> a + Option.value (List.assoc_opt k s.sg_counters) ~default:0)
      0 segs
  in
  (* verdicts: one per item, identical every time the item is served *)
  let verdicts = Hashtbl.create 64 and problems = ref [] in
  let found = ref 0 and planted = ref 0 in
  List.iter
    (fun s ->
      let it = s.Serve.req.Serve.item in
      let v = Verdict.of_reply_flows (Serve.flows s) in
      found := !found + Verdict.found v it.Inputs.planted;
      planted := !planted + List.length it.Inputs.planted;
      match Hashtbl.find_opt verdicts it.Inputs.id with
      | Some lines when lines <> v.Verdict.lines ->
          problems := ("nondeterministic verdict on " ^ it.Inputs.id) :: !problems
      | Some _ -> ()
      | None -> Hashtbl.replace verdicts it.Inputs.id v.Verdict.lines)
    ok;
  (* a rate is sustained when none of its requests failed, its tail
     meets the limit and no daemon's backlog grew *)
  let sustained phase_samples ~grew =
    List.for_all (fun s -> s.Serve.ok) phase_samples
    && Stats.tail (lat phase_samples) <= limit_ms
    && not grew
  in
  let high_grew =
    List.exists
      (fun (_, samples) ->
        growing
          (Array.of_list
             (List.filter
                (fun s -> s.Serve.req.Serve.phase mod 2 = 1)
                (Array.to_list samples))))
      blocks_all
  in
  let max_rps =
    if sustained high ~grew:high_grew then rate_high
    else if sustained low ~grew:false then rate_low
    else 0.
  in
  let within = List.length (List.filter (fun s -> s.Serve.latency_ms <= limit_ms) ok) in
  let reply_ms k =
    List.map
      (fun s ->
        match s.Serve.reply with
        | Some v -> float_of_int (Serve.member_int k v)
        | None -> 0.)
      ok
  in
  let transport = List.map2 (fun s server -> s.Serve.rtt_ms -. server) ok (reply_ms "time_ms") in
  Printf.eprintf
    "perfbench: serve-open: %d requests over %d daemons (%d at %g/s, %d at \
     %g/s), %d failed; low %s %.1f ms, high %s %.1f ms (limit %g ms)%s\n%!"
    n segments (List.length low) rate_low (List.length high) rate_high failed
    (Stats.label_of_tail (List.length low)) (Stats.tail (lat low))
    (Stats.label_of_tail (List.length high)) (Stats.tail (lat high))
    limit_ms
    (if high_grew then "; high-rate backlog grows" else "");
  let values =
    if not traced then
      [
        ( "setup_s",
          run_scale *. Stats.median (probes @ List.map (fun s -> s.sg_boot) segs) );
        ("apps_per_s", float_of_int within /. seconds);
        ("verdict_p50_ms", per_block 0 Stats.median);
        ("verdict_tail_ms", per_block 0 Stats.tail);
        ( "peak_heap_mb",
          List.fold_left (fun a s -> Float.max a s.sg_peak_mb) 0. segs );
      ]
    else begin
      (* the ICC share replayed in-process through the layer sequence *)
      let icc_items =
        List.filter_map
          (fun s ->
            let it = s.Serve.req.Serve.item in
            if it.Inputs.icc then Some it else None)
          all
        |> List.sort_uniq (fun a b -> compare a.Inputs.id b.Inputs.id)
      in
      let rep, layers = Batch.decompose ~items:icc_items ~warm:[] ~seconds:0. in
      problems := !problems @ rep.Batch.problems;
      let hits = counter "store.hits" and misses = counter "store.misses" in
      layers
      @ [
          ( "store.hit_ratio",
            if hits + misses = 0 then 0.
            else float_of_int hits /. float_of_int (hits + misses) );
          ("store.bytes_read", float_of_int (counter "store.bytes_read"));
          ("store.bytes_written", float_of_int (counter "store.bytes_written"));
          ("serve.queue_ms_p50", Stats.median (reply_ms "queue_ms"));
          ("serve.queue_ms_tail", Stats.tail (reply_ms "queue_ms"));
          ("serve.server_ms_p50", Stats.median (reply_ms "time_ms"));
          ("serve.transport_ms_p50", Stats.median transport);
          ("serve.high_p50_ms", per_block 1 Stats.median);
          ("serve.high_tail_ms", per_block 1 Stats.tail);
          ("serve.max_rps", max_rps);
          ("serve.retries", float_of_int (counter "serve.retries"));
          ("serve.worker_restarts", float_of_int (counter "serve.worker_restarts"));
          ( "serve.rejected",
            float_of_int
              (counter "serve.rejected_overloaded" + counter "serve.rejected_draining") );
          ("gen.late_ms_tail", Stats.tail (List.map (fun s -> s.Serve.late_ms) all));
        ]
    end
  in
  {
    sv_attempted = n;
    sv_failed = failed;
    sv_planted = !planted;
    sv_found = !found;
    sv_problems = List.rev !problems;
    sv_values = values;
    sv_verdicts =
      Verdict.digest (Hashtbl.fold (fun id lines acc -> (id, lines) :: acc) verdicts []);
  }

let serve_open () =
  let r = serve_run ~seconds:(float_of_int !seconds) ~traced:(!trace = 1) in
  Printf.eprintf "perfbench: serve-open seed %d: verdicts %s\n%!" !seed r.sv_verdicts;
  finish ~attempted:r.sv_attempted ~failed:r.sv_failed ~planted:r.sv_planted
    ~found:r.sv_found
    ~problems:
      (r.sv_problems
      @ digest_problems
          ~key:(Printf.sprintf "%d@%d" !seed !seconds)
          ~verdicts:r.sv_verdicts ~work:"")
    ~values:r.sv_values

(* ------------------------------------------------------------------ *)
(* batch workloads                                                      *)
(* ------------------------------------------------------------------ *)

(* the layers only the daemon runs: taken, in a traced run, from a
   serve pass that ends it *)
let serve_only k =
  List.exists
    (fun p -> String.starts_with ~prefix:p k)
    [ "icc."; "store."; "serve."; "gen." ]

(* [with_serve] ends a traced run with a serve pass of a third of the
   run's seconds, for the icc, store and serve layers *)
let batch ~items ~warm ~with_serve =
  let seconds = float_of_int !seconds in
  let report, values =
    if !trace = 0 then begin
      let report, values, kernel = Batch.untraced ~items ~warm ~seconds in
      let setup = batch_setup () *. Reference.scale kernel in
      (report, ("setup_s", setup) :: values)
    end
    else if not with_serve then Batch.decompose ~items ~warm ~seconds
    else begin
      let report, layers = Batch.decompose ~items ~warm ~seconds:(seconds *. 2. /. 3.) in
      let sv = serve_run ~seconds:(seconds /. 3.) ~traced:true in
      ( {
          report with
          Batch.attempted = report.Batch.attempted + sv.sv_attempted;
          failed = report.Batch.failed + sv.sv_failed;
          planted = report.Batch.planted + sv.sv_planted;
          found = report.Batch.found + sv.sv_found;
          problems = report.Batch.problems @ sv.sv_problems;
        },
        List.filter (fun (k, _) -> not (serve_only k)) layers
        @ List.filter (fun (k, _) -> serve_only k) sv.sv_values )
    end
  in
  let verdicts = Verdict.digest report.Batch.verdicts in
  let work = work_digest report.Batch.work in
  Printf.eprintf "perfbench: %s seed %d: verdicts %s work %s\n%!" !workload !seed
    verdicts work;
  finish ~attempted:report.Batch.attempted ~failed:report.Batch.failed
    ~planted:report.Batch.planted ~found:report.Batch.found
    ~problems:
      (report.Batch.problems
      @ digest_problems ~key:(string_of_int !seed) ~verdicts ~work)
    ~values

let corpus_mix () =
  let n = if !small then 45 else 2000 in
  batch ~with_serve:true
    ~items:(Inputs.corpus_mix ~seed:!seed ~n)
    ~warm:(Inputs.corpus_mix ~seed:(!seed + 0x7a3) ~n:30)

let deep_chain () =
  let n, lo, hi = if !small then (3, 20, 50) else (10, 60, 160) in
  batch ~with_serve:false
    ~items:(Inputs.deep_chain ~seed:!seed ~n ~lo ~hi)
    ~warm:[ Inputs.chain_item ~id:"warm" ~pkg:"warm" ~k:999 ~depth:20 ~sink:Inputs.Log ]

(* ------------------------------------------------------------------ *)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match List.tl (Array.to_list Sys.argv) with
  | [ "--probe-setup" ] ->
      Fd_core.Infoflow.warm_templates ();
      print_endline "ready"
  | args -> (
      parse_args args;
      if Filename.is_relative !digests then
        digests := Filename.concat (Sys.getcwd ()) !digests;
      match !workload with
      | "corpus-mix" -> corpus_mix ()
      | "deep-chain" -> deep_chain ()
      | _ -> serve_open ())

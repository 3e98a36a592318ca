(* Closed-loop batch workloads (corpus-mix, deep-chain): one domain,
   one app at a time, whole passes over the seeded app set until the
   run's seconds are spent. *)

module M = Fd_obs.Metrics

let now = Unix.gettimeofday

type report = {
  attempted : int;
  failed : int;
  planted : int;
  found : int;
  verdicts : (string * string list) list;  (** first pass, per item *)
  work : (string * int) list;  (** first pass counter deltas *)
  problems : string list;  (** nondeterminism and decomposition errors *)
}

let heap_words () = (Gc.quick_stat ()).Gc.heap_words

let mb_of_words w = float_of_int w *. float_of_int (Sys.word_size / 8) /. 1048576.

(* counters that record work; a pass over the same items must repeat
   them exactly *)
let work_of (sn : M.snapshot) =
  List.filter (fun (_, v) -> v <> 0) sn.M.sn_counters

type pass = {
  p_wall : float;
  p_ms : float list;  (** per item, [whole] *)
  p_scaled_ms : float list;
      (** per item, scaled to the reference speed (probed passes) *)
  p_analyze_ms : float list;  (** per item, the Infoflow call alone *)
  p_results : (string * Verdict.t) list;
  p_failed : int;
  p_found : int;
  p_planted : int;
  p_work : (string * int) list;
  p_peak_words : int;
}

(* [run_pass ~probe items]: with [probe], the reference kernel runs
   before every [stride]-th item and after the last, and each item's
   time is scaled by the mean of the two samples around its stretch *)
let run_pass ?(probe = false) items =
  let peak = ref 0 in
  let stride = max 1 (List.length items / 5) in
  let kernels = ref [] in
  let t0 = now () in
  let (ms, ams, results, failed, found, planted), delta =
    M.with_delta (fun () ->
        List.fold_left
          (fun (ms, ams, rs, failed, found, planted) (it : Inputs.item) ->
            if probe && List.length ms mod stride = 0 then
              kernels := Reference.once () :: !kernels;
            let t = now () in
            let w =
              try Some (Pipeline.whole it)
              with e ->
                Printf.eprintf "perfbench: %s failed: %s\n%!" it.Inputs.id
                  (Printexc.to_string e);
                None
            in
            let dt = (now () -. t) *. 1000. in
            peak := max !peak (heap_words ());
            let np = List.length it.Inputs.planted in
            match w with
            | Some w when w.Pipeline.w_complete ->
                ( dt :: ms,
                  (w.Pipeline.w_analyze_s *. 1000.) :: ams,
                  (it.Inputs.id, w.Pipeline.w_verdict) :: rs,
                  failed,
                  found + Verdict.found w.Pipeline.w_verdict it.Inputs.planted,
                  planted + np )
            | _ -> (dt :: ms, ams, rs, failed + 1, found, planted + np))
          ([], [], [], 0, 0, 0) items)
  in
  let wall = now () -. t0 in
  let ms = List.rev ms in
  let scaled =
    if not probe then ms
    else begin
      let k = Array.of_list (List.rev (Reference.once () :: !kernels)) in
      List.mapi
        (fun i x ->
          let w = i / stride in
          x *. Reference.scale ((k.(w) +. k.(min (w + 1) (Array.length k - 1))) /. 2.))
        ms
    end
  in
  {
    p_wall = wall;
    p_ms = ms;
    p_scaled_ms = scaled;
    p_analyze_ms = List.rev ams;
    p_results = List.rev results;
    p_failed = failed;
    p_found = found;
    p_planted = planted;
    p_work = work_of delta;
    p_peak_words = !peak;
  }

(* compare a later pass with the first: same verdict per item, same
   work counters *)
let repeat_problems ~first p =
  let verdicts =
    List.filter_map
      (fun (id, v) ->
        match List.assoc_opt id first.p_results with
        | Some v0 when v0.Verdict.lines = v.Verdict.lines -> None
        | _ -> Some (Printf.sprintf "nondeterministic verdict on %s" id))
      p.p_results
  in
  let work =
    if p.p_work = first.p_work then []
    else
      [
        "nondeterministic work counters: "
        ^ String.concat ", "
            (List.filter_map
               (fun (k, v) ->
                 let v0 = Option.value (List.assoc_opt k first.p_work) ~default:0 in
                 if v = v0 then None else Some (Printf.sprintf "%s %d vs %d" k v0 v))
               p.p_work);
      ]
  in
  verdicts @ work

let warm_up items =
  List.iter (fun it -> ignore (Pipeline.whole it)) items

(* ------------------------------------------------------------------ *)

(* the verdicts, recall and work of a run's untraced passes; every
   pass after the first must repeat the first exactly *)
let summarize ~items passes =
  let first = List.hd passes in
  {
    attempted = List.length items * List.length passes;
    failed = List.fold_left (fun a p -> a + p.p_failed) 0 passes;
    planted = List.fold_left (fun a p -> a + p.p_planted) 0 passes;
    found = List.fold_left (fun a p -> a + p.p_found) 0 passes;
    verdicts = List.map (fun (id, v) -> (id, v.Verdict.lines)) first.p_results;
    work = first.p_work;
    problems = List.concat_map (repeat_problems ~first) (List.tl passes);
  }

let rec passes_for ~seconds ~t0 f acc =
  let acc = f () :: acc in
  if now () -. t0 >= seconds then List.rev acc else passes_for ~seconds ~t0 f acc

(* end-to-end run: untraced passes, with the reference kernel probed
   inside each pass to scale its timings (see [Reference]).  Each
   timing is taken per pass and the run reports the median pass.  A
   tail needs 1000 samples in a pass to be a p99; otherwise it is taken
   over every pass's samples pooled, at the percentile four passes'
   samples allow, so that it does not move with how many passes a run
   fits in. *)
let untraced ~items ~warm ~seconds =
  warm_up warm;
  Gc.compact ();
  let base = heap_words () in
  let passes =
    passes_for ~seconds ~t0:(now ()) (fun () -> run_pass ~probe:true items) []
  in
  let s = summarize ~items passes in
  let per_pass f = Stats.median (List.map f passes) in
  let pooled = List.concat_map (fun p -> p.p_scaled_ms) passes in
  let per_pass_tail = List.length items >= 1000 in
  Printf.eprintf
    "perfbench: %d pass(es) of %d apps, %d verdicts; tail is %s; raw median \
     pass %.3f s\n%!"
    (List.length passes) (List.length items) s.attempted
    (if per_pass_tail then "p99 per pass"
     else
       Stats.label_of_tail (min (List.length pooled) (4 * List.length items))
       ^ " over all passes")
    (Stats.median (List.map (fun p -> p.p_wall) passes));
  let sum = List.fold_left ( +. ) 0. in
  ( s,
    [
      ( "apps_per_s",
        per_pass (fun p ->
            1000. *. float_of_int (List.length items - p.p_failed) /. sum p.p_scaled_ms) );
      ("verdict_p50_ms", per_pass (fun p -> Stats.median p.p_scaled_ms));
      ( "verdict_tail_ms",
        if per_pass_tail then per_pass (fun p -> Stats.tail p.p_scaled_ms)
        else
          Stats.quantile (Stats.sorted pooled)
            (Stats.tail_q (min (List.length pooled) (4 * List.length items))) );
      (* the heap keeps growing from pass to pass on the same apps, so
         the peak is taken over a fixed amount of work: the first pass *)
      ("peak_heap_mb", mb_of_words ((List.hd passes).p_peak_words - base));
    ],
    Stats.median
      (List.map (fun p -> Stats.median (List.map2 ( /. ) p.p_ms p.p_scaled_ms)) passes)
    *. Reference.nominal_s )

(* ------------------------------------------------------------------ *)
(* traced run: alternate an untraced and a traced pass                *)
(* ------------------------------------------------------------------ *)

let traced_pass acc items =
  let t0 = now () in
  let results =
    List.map
      (fun (it : Inputs.item) ->
        let v, complete = Pipeline.traced acc it in
        (it.Inputs.id, v, complete))
      items
  in
  (now () -. t0, results)

(* per-item means of the accumulated layer sums, plus the
   benchmark's self-checks *)
let layer_metrics acc ~n ~overhead ~unattributed =
  let per k = Pipeline.Acc.get acc k /. float_of_int (max 1 n) in
  let icc_n = Pipeline.Acc.get acc "icc.items" in
  let per_icc k = if icc_n = 0. then 0. else Pipeline.Acc.get acc k /. icc_n in
  let pushes = Pipeline.Acc.get acc "ifds.worklist_pushes" in
  let hits = Pipeline.Acc.get acc "ifds.worklist_dedup_hits" in
  let edges = Pipeline.Acc.get acc "ifds.path_edges" in
  let gc layer =
    [ (layer ^ ".minor_mwords", per (layer ^ ".minor_mwords"));
      (layer ^ ".major_collections", per (layer ^ ".major_collections")) ]
  in
  [
    ("frontend.parse_ms", per "frontend.parse_ms");
    ("frontend.load_ms", per "frontend.load_ms");
    ("lifecycle.discover_ms", per "lifecycle.discover_ms");
    ("lifecycle.dummy_main_ms", per "lifecycle.dummy_main_ms");
    ("lifecycle.cg_builds", per "lifecycle.cg_builds");
    ("callgraph.build_ms", per "callgraph.build_ms");
    ("callgraph.icfg_ms", per "callgraph.icfg_ms");
    ("cg.edges", per "cg.edges");
    ("cg.reachable_methods", per "cg.reachable_methods");
    ("solve.ms", per "solve_ms");
    ("ifds.path_edges", per "ifds.path_edges");
    ("bidi.fw_propagations", per "bidi.fw_propagations");
    ("bidi.bw_propagations", per "bidi.bw_propagations");
    ("bidi.alias_queries", per "bidi.alias_queries");
    ("ifds.summaries_installed", per "ifds.summaries_installed");
    ( "solve.ns_per_edge",
      if edges = 0. then 0. else Pipeline.Acc.get acc "solve_ms" *. 1e6 /. edges );
    ("ifds.dedup_ratio", if pushes +. hits = 0. then 0. else hits /. (pushes +. hits));
    ("icc.analyze_ms", per_icc "icc.analyze_ms");
    ("icc.send_sites", per_icc "icc.send_sites");
    ("icc.stitched_flows", per_icc "icc.stitched_flows");
    ("report.render_ms", per "report.render_ms");
  ]
  @ gc "frontend" @ gc "lifecycle" @ gc "callgraph" @ gc "solve"
  @ [ ("trace.overhead_ratio", overhead); ("layer.unattributed_ms", unattributed) ]

let layer_sum_ms acc =
  List.fold_left
    (fun a k -> a +. Pipeline.Acc.get acc k)
    0.
    [
      "lifecycle.discover_ms"; "lifecycle.dummy_main_ms"; "callgraph.build_ms";
      "callgraph.icfg_ms"; "solve_ms"; "icc.analyze_ms";
    ]

(* [decompose ~items ~seconds] alternates untraced and traced passes
   (at least one of each) and checks, item by item, that the traced
   layer sequence reaches the verdict Infoflow reaches *)
let decompose ~items ~warm ~seconds =
  warm_up warm;
  let acc = Pipeline.Acc.create () in
  let problems = ref [] and t_wall = ref 0. in
  let pair () =
    let p = run_pass items in
    let tw, results = traced_pass acc items in
    t_wall := !t_wall +. tw;
    List.iter
      (fun (id, v, complete) ->
        match List.assoc_opt id p.p_results with
        | Some v0 when complete && v0.Verdict.lines = v.Verdict.lines -> ()
        | _ ->
            problems :=
              ("decomposition check: the layer sequence and Infoflow disagree on "
              ^ id)
              :: !problems)
      results;
    p
  in
  let passes = passes_for ~seconds ~t0:(now ()) pair [] in
  let s = summarize ~items passes in
  let n = List.length passes * List.length items in
  let u_wall = List.fold_left (fun a p -> a +. p.p_wall) 0. passes in
  let analyze_ms =
    List.fold_left (fun a p -> List.fold_left ( +. ) a p.p_analyze_ms) 0. passes
  in
  let unattributed = (analyze_ms -. layer_sum_ms acc) /. float_of_int (max 1 n) in
  Printf.eprintf
    "perfbench: traced %d item(s) over %d pass pair(s); decomposition %s\n%!"
    n (List.length passes)
    (if !problems = [] then "matches Infoflow on every item" else "FAILED");
  ( { s with problems = s.problems @ List.rev !problems },
    layer_metrics acc ~n ~overhead:(!t_wall /. u_wall) ~unattributed )

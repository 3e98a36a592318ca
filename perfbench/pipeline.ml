(* The program under test, driven two ways over the same item:

   - [whole]: app text -> Apk.make_text -> Apk.load ->
     Infoflow.analyze_loaded (analyze_merged for a pair) ->
     Report.to_xml_string, the path end-to-end metrics time;
   - [traced]: the same steps split into the layer calls
     Infoflow makes for the default config, each timed with its
     Gc.quick_stat delta around it.

   The benchmark compares the two verdicts on every traced item, so
   the layer numbers describe the program the end-to-end numbers
   measure. *)

open Fd_core
module Apk = Fd_frontend.Apk
module M = Fd_obs.Metrics

let now = Unix.gettimeofday

let config_of (it : Inputs.item) =
  if it.Inputs.icc then { Config.default with Config.icc = true }
  else Config.default

let make_apks (it : Inputs.item) =
  List.map
    (fun (a : Inputs.app) ->
      Apk.make_text a.Inputs.name ~manifest:a.Inputs.manifest
        ~layouts:a.Inputs.layouts a.Inputs.sources)
    it.Inputs.apps

type whole = {
  w_verdict : Verdict.t;
  w_complete : bool;
  w_analyze_s : float;  (** the Infoflow call alone *)
}

let whole (it : Inputs.item) =
  let config = config_of it in
  let apks = make_apks it in
  let analyze () =
    match apks with
    | [ apk ] -> Infoflow.analyze_loaded ~config (Apk.load apk)
    | apks -> Infoflow.analyze_merged ~config (Apk.load_merged apks)
  in
  let t0 = now () in
  let r = analyze () in
  let t1 = now () in
  ignore (Report.to_xml_string r);
  {
    w_verdict = Verdict.of_findings r.Infoflow.r_findings;
    w_complete =
      Fd_resilience.Outcome.is_complete r.Infoflow.r_stats.Infoflow.st_outcome;
    w_analyze_s = t1 -. t0;
  }

(* ------------------------------------------------------------------ *)
(* traced decomposition                                                *)
(* ------------------------------------------------------------------ *)

(* per-layer sums over the traced items, keyed by metric name *)
module Acc = struct
  type t = (string, float) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let add (t : t) k v =
    Hashtbl.replace t k (v +. Option.value (Hashtbl.find_opt t k) ~default:0.)

  let get (t : t) k = Option.value (Hashtbl.find_opt t k) ~default:0.
end

let solve_counters =
  [
    "ifds.path_edges";
    "bidi.fw_propagations";
    "bidi.bw_propagations";
    "bidi.alias_queries";
    "ifds.summaries_installed";
    "ifds.worklist_pushes";
    "ifds.worklist_dedup_hits";
  ]

let counters names = List.map M.counter_value names

(* [traced acc it] runs the layer sequence and returns its verdict;
   [acc] gains "<layer>_ms" wall times, "<layer>.minor_mwords" and
   "<layer>.major_collections" GC deltas, and the work counts *)
let traced acc (it : Inputs.item) =
  let config = config_of it in
  let clock = ref (now ()) in
  let gc = ref (Gc.quick_stat ()) in
  let lap name =
    let t = now () in
    Acc.add acc (name ^ "_ms") ((t -. !clock) *. 1000.);
    clock := t
  in
  let gc_mark layer =
    let g = Gc.quick_stat () in
    Acc.add acc (layer ^ ".minor_mwords")
      ((g.Gc.minor_words -. !gc.Gc.minor_words) /. 1e6);
    Acc.add acc (layer ^ ".major_collections")
      (float_of_int (g.Gc.major_collections - !gc.Gc.major_collections));
    gc := g
  in
  (* frontend *)
  let apks = make_apks it in
  lap "frontend.parse";
  let loaded, apps, app_of =
    match apks with
    | [ apk ] ->
        let l = Apk.load apk in
        ( l,
          [ (l.Apk.name, l.Apk.manifest) ],
          fun _ -> Some l.Apk.name )
    | apks ->
        let m = Apk.load_merged apks in
        (m.Apk.m_loaded, m.Apk.m_apps, m.Apk.m_app_of)
  in
  lap "frontend.load";
  gc_mark "frontend";
  let scene = loaded.Apk.scene in
  (* Infoflow builds the source/sink manager before entry-point
     discovery; it is counted with the solve it configures *)
  let t_mgr = now () in
  let mgr =
    Srcsink_mgr.create ~scene ~defs:(Fd_frontend.Sourcesink.default ())
      ~layout:loaded.Apk.layout
  in
  let mgr_s = now () -. t_mgr in
  clock := now ();
  (* lifecycle: default config = callbacks on, per-component, dummy main *)
  let it0 = M.counter_value "cg.fixpoint_iterations" in
  let ccs = Fd_lifecycle.Callbacks.discover_all loaded in
  Acc.add acc "lifecycle.cg_builds"
    (float_of_int (M.counter_value "cg.fixpoint_iterations" - it0));
  lap "lifecycle.discover";
  let entries = [ Fd_lifecycle.Dummy_main.generate scene ccs ] in
  lap "lifecycle.dummy_main";
  gc_mark "lifecycle";
  (* callgraph *)
  let cg =
    Fd_callgraph.Callgraph.build scene ~entry:entries
      ~algorithm:config.Config.cg_algorithm
      ~clinit_first_use:config.Config.precision.Config.clinit
      ~reflection:config.Config.precision.Config.reflection ()
  in
  lap "callgraph.build";
  let icfg = Fd_callgraph.Icfg.create cg in
  lap "callgraph.icfg";
  gc_mark "callgraph";
  Acc.add acc "cg.edges" (float_of_int (Fd_callgraph.Callgraph.edge_count cg));
  Acc.add acc "cg.reachable_methods"
    (float_of_int (List.length (Fd_callgraph.Callgraph.reachable_methods cg)));
  (* core solve: forward IFDS with on-demand backward alias search *)
  let before = counters solve_counters in
  let engine =
    Bidi.create ~config ~icfg ~scene ~mgr
      ~wrappers:(Fd_frontend.Rules.default_wrappers ())
      ~natives:(Fd_frontend.Rules.default_natives ())
      ()
  in
  Bidi.run engine ~entries;
  let findings = Bidi.findings engine in
  Acc.add acc "solve_ms" (mgr_s *. 1000.);
  lap "solve";
  gc_mark "solve";
  List.iter2
    (fun name (a, b) -> Acc.add acc name (float_of_int (b - a)))
    solve_counters
    (List.combine before (counters solve_counters));
  (* icc tier *)
  let findings, icc =
    if not config.Config.icc then (findings, None)
    else begin
      clock := now ();
      let report =
        Icc.analyze ~icfg ~scene ~engine ~provenance:false ~apps ~app_of
          findings
      in
      let fs = Icc.apply report findings in
      lap "icc.analyze";
      Acc.add acc "icc.items" 1.;
      Acc.add acc "icc.send_sites" (float_of_int report.Icc.ic_send_sites);
      Acc.add acc "icc.stitched_flows"
        (float_of_int (List.length report.Icc.ic_stitched));
      (fs, Some report)
    end
  in
  (* report *)
  clock := now ();
  let outcome = Bidi.outcome engine in
  let result =
    {
      Infoflow.r_findings = findings;
      r_entries = entries;
      r_stats =
        {
          Infoflow.st_time = 0.;
          st_reachable = 0;
          st_cg_edges = Fd_callgraph.Callgraph.edge_count cg;
          st_propagations = Bidi.propagation_count engine;
          st_outcome = outcome;
          st_metrics = { M.sn_counters = []; sn_gauges = []; sn_histograms = [] };
        };
      r_engine = engine;
      r_icfg = icfg;
      r_diags = loaded.Apk.diags;
      r_icc = icc;
    }
  in
  ignore (Report.to_xml_string result);
  lap "report.render";
  (Verdict.of_findings findings, Fd_resilience.Outcome.is_complete outcome)

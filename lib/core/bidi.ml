(** The bidirectional taint solver: Algorithms 1 and 2 of the paper.

    Two IFDS-style worklist solvers run interleaved over the same
    inter-procedural CFG:

    - the {b forward} solver propagates taint abstractions along
      control flow, with the standard IFDS machinery (path edges, end
      summaries, incoming sets per Naeem–Lhoták);
    - the {b backward} solver is spawned on demand whenever a tainted
      value is assigned to a heap location; it searches *upwards* for
      aliases of the written access path.

    The handover implements the two precision mechanisms Section 4.2
    claims as novel:

    + {b context injection}: a spawned backward edge inherits the
      forward path edge's context [⟨sp, d1⟩] (and vice versa), so the
      combined analysis never produces facts along unrealizable paths
      with conflicting contexts (Figure 3).  The backward analysis
      never returns into callers on its own — when it reaches a
      method's first statement it hands the fact to the forward
      solver, injecting its incoming information so the forward pass
      returns only into the right callers.
    + {b activation statements}: every alias is born *inactive*,
      tagged with the heap-write statement that will make it tainted;
      only once the forward analysis carries it across that statement
      (or across a call that transitively contains it, tracked by the
      global activation-site association) does it activate and become
      able to trigger leak reports (Listing 3).

    Both mechanisms can be disabled through {!Config.t} to reproduce
    the naive handover and the Andromeda-style flow-insensitive
    behaviour in the ablation benchmarks. *)

open Fd_ir
open Fd_callgraph
module AP = Access_path
module SS = Fd_frontend.Sourcesink

(* solver metrics (namespaces: ifds.* for the shared tabulation
   machinery — the same counters the generic [Fd_ifds] solver uses —
   and bidi.* for the bidirectional-specific mechanisms); handles are
   resolved once so hot-path updates are single field increments *)
module M = Fd_obs.Metrics
module Prov = Fd_obs.Provenance
module Flight = Fd_obs.Ring.Flight

let m_path_edges = M.counter "ifds.path_edges"
let m_worklist_pushes = M.counter "ifds.worklist_pushes"
let m_worklist_pops = M.counter "ifds.worklist_pops"
let m_summaries = M.counter "ifds.summaries_installed"
let m_summary_apps = M.counter "ifds.summary_applications"
let m_flow_normal = M.counter "ifds.flow.normal"
let m_flow_call = M.counter "ifds.flow.call"
let m_flow_return = M.counter "ifds.flow.return"
let m_flow_c2r = M.counter "ifds.flow.call_to_return"
let m_fw_props = M.counter "bidi.fw_propagations"
let m_bw_props = M.counter "bidi.bw_propagations"
let m_alias_queries = M.counter "bidi.alias_queries"
let m_fw_injections = M.counter "bidi.fw_injections"
let m_bw_steps = M.counter "bidi.backward_steps"
let m_activations = M.counter "bidi.activations"
let m_findings = M.counter "core.findings"

(* one step of a provenance witness: the program point, its statement
   and the solver fact that held there, plus the flow-function kind
   that derived it from the previous step *)
type witness_step = {
  ws_node : Icfg.node;
  ws_stmt : string;
  ws_fact : string;
  ws_kind : string;
}

type finding = {
  f_source : Taint.source_info;
  f_sink_node : Icfg.node;
  f_sink_tag : string option;
  f_sink_cat : SS.category;
  f_path : Icfg.node list;
  f_witness : witness_step list;
      (** source-to-sink derivation reconstructed from provenance
          edges; [[]] unless {!Config.t.provenance} was on *)
}

(* ---------------- interned solver state ----------------

   Facts, contexts and program points are interned into dense integer
   ids at the propagation boundary.  Each interned context carries its
   own tabulation tables per direction: path edges, end summaries and
   incoming sets, each guarded by a flat set of packed id pairs
   ([Fd_util.Flat_set]: one probe, no allocation, no repeated deep
   structural hashing).  The worklists hold id triples, resolved
   through the dense id-indexed context and node arrays.  The
   per-node / per-method views the flow functions consume —
   statement, successors, predecessors, callees, parameter locals,
   source/sink classifications — are resolved once and cached against
   the id.  All pools live inside the engine value, so engines on
   different domains never share mutable state. *)

let m_dedup_hits = M.counter "ifds.worklist_dedup_hits"
let g_intern_facts = M.gauge "intern.facts.size"
let g_intern_fact_hits = M.gauge "intern.facts.hits"
let g_intern_fact_misses = M.gauge "intern.facts.misses"
let g_intern_nodes = M.gauge "intern.nodes.size"
let g_intern_methods = M.gauge "intern.methods.size"
let g_intern_ctxs = M.gauge "intern.ctxs.size"

(* live byte-size accounting for the solver tables (estimates: entry
   counts times per-entry footprint; see [publish_memory_gauges]) *)
let g_bytes_fw = M.gauge "mem.fw_tables.bytes"
let g_bytes_bw = M.gauge "mem.bw_tables.bytes"
let g_bytes_facts = M.gauge "mem.fact_pool.bytes"
let g_bytes_prov = M.gauge "mem.provenance.bytes"

module Int_tbl = Hashtbl.Make (Int)

module I2_tbl = Hashtbl.Make (struct
  type t = int * int

  let equal (a, b) (c, d) = a = c && b = d
  let hash (a, b) = Fd_util.Intern.combine a b
end)

module Flat_set = Fd_util.Flat_set

module Fact_pool = Fd_util.Intern.Make (struct
  type t = Taint.fact

  let equal = Taint.equal
  let hash = Taint.hash
end)

module Node_tbl = Icfg.Node_tbl

(* per-method view: body, parameter binding and exit points, resolved
   once per method instead of per call edge *)
type minfo = {
  mi_id : int;
  mi_key : Mkey.t;
  mi_body : Body.t option;  (** [None] for un-analysable targets *)
  mi_this : Stmt.local option;
  mi_params : (int * Stmt.local) list;
  mi_exits : int list;
  mutable mi_start_ni : ninfo option;
  mutable mi_exit_nis : ninfo list option;
  mutable mi_prof : Fd_obs.Profile.cell option;
      (** cached profiler cell, resolved on first pop when profiling *)
}

(* per-node view: everything the solver used to recompute on every
   worklist pop (each recomputation re-hashed the method key's
   strings) *)
and ninfo = {
  ni_id : int;
  ni_node : Icfg.node;
  ni_minfo : minfo;
  ni_stmt : Stmt.t;
  ni_invoke : Stmt.invoke option;
  ni_is_exit : bool;
  mutable ni_succs : ninfo list option;
  mutable ni_preds : ninfo list option;
  mutable ni_callees : minfo list option;
  mutable ni_call : callinfo option;  (** cached call-site data *)
  mutable ni_zero_gen : Taint.t list option;
      (** parameter-source taints generated under the zero fact *)
}

(* node-constant call-site classifications (sink category, wrapper /
   native / default library model, return local, generated sources) *)
and callinfo = {
  ci_sink : SS.category option;
  ci_wrapper : Fd_frontend.Rules.effect list option;
  ci_ret : Stmt.local option;
  ci_sources : Taint.t list;
  ci_c2r : Fd_frontend.Rules.effect list option;
      (** effects applied on the call-to-return edge *)
}

type cctx = {
  cc_id : int;
  cc_proc : minfo;
  cc_fact : Taint.fact;
  mutable cc_fw : cstate option;  (** forward tables, from first use *)
  mutable cc_bw : cstate option;  (** backward tables, from first use *)
}
(** an IFDS context [⟨sp, d1⟩], interned: equal contexts are the same
    value and carry the same id *)

(* one direction's tabulation tables for one context; the summary and
   incoming tables are allocated on their first entry (the backward
   direction has no incoming sets, and few summaries) *)
and cstate = {
  cs_edges : Flat_set.t;  (** path edges: (node, fact) ids *)
  mutable cs_sums : pairs option;
      (** end summaries: (exit node, fact) ids; backward, only their
          seen-set, which feeds the summary count *)
  mutable cs_inc : pairs option;
      (** incoming set: (call node, caller context) ids *)
}

(* packed id pairs, newest first, beside the flat set that keeps the
   list duplicate-free *)
and pairs = { mutable p_list : int list; p_seen : Flat_set.t }

(* a FIFO ring of (context id, node id, fact id) triples: [len] items
   from item [head], in a buffer of a power-of-two number of items *)
type ring = { mutable buf : int array; mutable head : int; mutable len : int }

let ring_push r c n f =
  let cap = Array.length r.buf / 3 in
  if r.len = cap then begin
    (* full: unroll into a buffer twice the size, oldest first *)
    let buf = Array.make (6 * cap) 0 in
    let first = 3 * (cap - r.head) in
    Array.blit r.buf (3 * r.head) buf 0 first;
    Array.blit r.buf 0 buf first (3 * r.head);
    r.buf <- buf;
    r.head <- 0
  end;
  let i = 3 * ((r.head + r.len) land ((Array.length r.buf / 3) - 1)) in
  r.buf.(i) <- c;
  r.buf.(i + 1) <- n;
  r.buf.(i + 2) <- f;
  r.len <- r.len + 1

(* the buffer index of the oldest item, which leaves the ring; its
   three ints stay readable there until the next push *)
let ring_pop r =
  let i = 3 * r.head in
  r.head <- (r.head + 1) land ((Array.length r.buf / 3) - 1);
  r.len <- r.len - 1;
  i

type solver = { s_fw : bool; s_work : ring }

let mk_solver ~fw =
  { s_fw = fw; s_work = { buf = Array.make 48 0; head = 0; len = 0 } }

(* the per-node view of the forward results, indexed from the results
   log on demand: (node, fact) pairs already listed, and each node's
   taints, newest first *)
type results_index = {
  ri_seen : Flat_set.t;
  ri_taints : Taint.t list Int_tbl.t;
  mutable ri_upto : int;  (** log entries indexed so far *)
}

type t = {
  cfg : Config.t;
  icfg : Icfg.t;
  scene : Scene.t;
  mgr : Srcsink_mgr.t;
  wrappers : Fd_frontend.Rules.t;
  natives : Fd_frontend.Rules.t;
  (* interning pools — one set per engine instance *)
  facts : Fact_pool.pool;
  minfos : minfo Mkey.Tbl.t;
  mutable n_minfos : int;
  ninfos : ninfo Node_tbl.t;
  mutable n_ninfos : int;
  cctxs : cctx I2_tbl.t;  (** (method id, fact id) -> context *)
  mutable n_cctxs : int;
  (* id-indexed views of the interned contexts and nodes, for the id
     triples on the worklists and for witness reconstruction; sized by
     doubling, entries past [n_cctxs] / [n_ninfos] are filler *)
  mutable cctx_by_id : cctx array;
  mutable ninfo_by_id : ninfo array;
  fw : solver;
  bw : solver;
  mutable findings : finding list;
  finding_keys : (string, unit) Hashtbl.t;
  (* activation statement -> call sites whose completion implies the
     activation has executed, and the methods those call sites live in *)
  act_sites : unit Node_tbl.t Node_tbl.t;
  act_methods : unit Mkey.Tbl.t Node_tbl.t;
  (* forward results, for inspection and the ICC tier: every new
     forward path edge with a non-zero fact appends its packed (node
     id, fact id) to the log; [results_at] indexes it on first use *)
  mutable results_log : int array;
  mutable results_len : int;
  mutable results_index : results_index option;
  budget : Fd_resilience.Budget.t;
  (* per-method must-alias results, computed lazily when the
     strong-update precision pass is on *)
  ma_cache : Fd_precision.Must_alias.t Mkey.Tbl.t;
  (* provenance: the edge store ([None] = off), the interned id of the
     zero fact, and the node/fact ids of the worklist item currently
     being processed (every propagation's predecessor) *)
  prov : Prov.t option;
  zero_fid : int;
  mutable cur_node : int;
  mutable cur_fact : int;
  (* persistent summary store ([None] = off, the default): the solver
     hooks, the sink reports recorded per context (captured before
     global dedup so a stored context is self-contained), and the
     contexts whose summaries came from the store (replayed, never
     re-persisted) *)
  store : Summary.hooks option;
  cx_reports : Summary.sink_report list ref Int_tbl.t;
  injected_cxs : unit Int_tbl.t;
  (* targeted-mode slice membership: both worklist loops refuse to
     descend into methods outside it.  The default (const true) takes
     no new code path; the targeted driver passes restricted-call-graph
     reachability, which the graph built from the sliced entry set
     already satisfies for every callee it resolves. *)
  in_slice : Mkey.t -> bool;
}

let create ?budget ?store ?(in_slice = fun _ -> true) ~config ~icfg ~scene
    ~mgr ~wrappers ~natives () =
  let budget =
    match budget with
    | Some b -> b
    | None ->
        Fd_resilience.Budget.create ?deadline_s:config.Config.deadline_s
          ~max_propagations:config.Config.max_propagations ()
  in
  let facts = Fact_pool.create ~size:16 () in
  let prov = if config.Config.provenance then Some (Prov.create ()) else None in
  (* the zero fact's pool id, for witness-prefix trimming; interned
     only when provenance is on so a default run's pool statistics are
     untouched *)
  let zero_fid =
    match prov with Some _ -> Fact_pool.id facts Taint.Zero | None -> -2
  in
  {
    cfg = config;
    icfg;
    scene;
    mgr;
    wrappers;
    natives;
    facts;
    minfos = Mkey.Tbl.create 16;
    n_minfos = 0;
    ninfos = Node_tbl.create 16;
    n_ninfos = 0;
    cctxs = I2_tbl.create 16;
    n_cctxs = 0;
    cctx_by_id = [||];
    ninfo_by_id = [||];
    fw = mk_solver ~fw:true;
    bw = mk_solver ~fw:false;
    findings = [];
    finding_keys = Hashtbl.create 64;
    act_sites = Node_tbl.create 16;
    act_methods = Node_tbl.create 16;
    results_log = Array.make 16 0;
    results_len = 0;
    results_index = None;
    budget;
    ma_cache = Mkey.Tbl.create 16;
    prov;
    zero_fid;
    cur_node = -1;
    cur_fact = -1;
    store;
    cx_reports = Int_tbl.create 64;
    injected_cxs = Int_tbl.create 64;
    in_slice;
  }

let k t = t.cfg.Config.max_access_path
let prec t = t.cfg.Config.precision

(* [arr] with [x] stored at index [n], the next free one: [arr] itself,
   or a copy twice the size when it is full, padded with [x] *)
let dense_add arr n x =
  if n < Array.length arr then begin
    arr.(n) <- x;
    arr
  end
  else begin
    let a = Array.make (max 16 (2 * n)) x in
    Array.blit arr 0 a 0 n;
    a
  end

(* ---------------- program-view resolution ---------------- *)

let minfo_of t mk =
  match Mkey.Tbl.find_opt t.minfos mk with
  | Some mi -> mi
  | None ->
      let body =
        match Callgraph.body_of t.icfg.Icfg.cg mk with
        | b -> Some b
        | exception Not_found -> None
      in
      let this_l, params =
        match body with Some b -> Body.param_locals b | None -> (None, [])
      in
      let exits =
        match body with Some b -> Body.exit_stmts b | None -> []
      in
      let mi =
        {
          mi_id = t.n_minfos;
          mi_key = mk;
          mi_body = body;
          mi_this = this_l;
          mi_params = params;
          mi_exits = exits;
          mi_start_ni = None;
          mi_exit_nis = None;
          mi_prof = None;
        }
      in
      t.n_minfos <- t.n_minfos + 1;
      Mkey.Tbl.replace t.minfos mk mi;
      mi

let ninfo_of t (n : Icfg.node) =
  match Node_tbl.find_opt t.ninfos n with
  | Some ni -> ni
  | None ->
      let mi = minfo_of t n.Icfg.n_method in
      let body = match mi.mi_body with Some b -> b | None -> raise Not_found in
      let stmt = Body.stmt body n.Icfg.n_idx in
      let ni =
        {
          ni_id = t.n_ninfos;
          ni_node = n;
          ni_minfo = mi;
          ni_stmt = stmt;
          ni_invoke = Stmt.invoke_of stmt;
          ni_is_exit =
            (match stmt.Stmt.s_kind with
            | Stmt.Return _ | Stmt.Throw _ -> true
            | _ -> false);
          ni_succs = None;
          ni_preds = None;
          ni_callees = None;
          ni_call = None;
          ni_zero_gen = None;
        }
      in
      t.ninfo_by_id <- dense_add t.ninfo_by_id t.n_ninfos ni;
      t.n_ninfos <- t.n_ninfos + 1;
      Node_tbl.replace t.ninfos n ni;
      ni

let node_at mi idx = Icfg.{ n_method = mi.mi_key; n_idx = idx }

let succs t (ni : ninfo) =
  match ni.ni_succs with
  | Some s -> s
  | None ->
      let body = Option.get ni.ni_minfo.mi_body in
      let s =
        List.map
          (fun i -> ninfo_of t (node_at ni.ni_minfo i))
          (Body.succs body ni.ni_node.Icfg.n_idx)
      in
      ni.ni_succs <- Some s;
      s

let preds t (ni : ninfo) =
  match ni.ni_preds with
  | Some s -> s
  | None ->
      let body = Option.get ni.ni_minfo.mi_body in
      let s =
        List.map
          (fun i -> ninfo_of t (node_at ni.ni_minfo i))
          (Body.preds body ni.ni_node.Icfg.n_idx)
      in
      ni.ni_preds <- Some s;
      s

let callees t (ni : ninfo) =
  match ni.ni_callees with
  | Some cs -> cs
  | None ->
      let cs =
        List.map (minfo_of t)
          (List.filter t.in_slice
             (Callgraph.callees t.icfg.Icfg.cg ni.ni_node.Icfg.n_method
                ni.ni_node.Icfg.n_idx))
      in
      ni.ni_callees <- Some cs;
      cs

let start_ni t (mi : minfo) =
  match mi.mi_start_ni with
  | Some ni -> ni
  | None ->
      let ni = ninfo_of t (node_at mi 0) in
      mi.mi_start_ni <- Some ni;
      ni

let exit_nis t (mi : minfo) =
  match mi.mi_exit_nis with
  | Some nis -> nis
  | None ->
      let nis = List.map (fun i -> ninfo_of t (node_at mi i)) mi.mi_exits in
      mi.mi_exit_nis <- Some nis;
      nis

(* intern a fact: id plus the canonical (first-seen) representative,
   so downstream equality checks hit the physical-equality fast
   path *)
let intern_fact t fact =
  let fid = Fact_pool.id t.facts fact in
  (fid, Fact_pool.value t.facts fid)

let cctx t (mi : minfo) fact =
  let fid, fact = intern_fact t fact in
  let key = (mi.mi_id, fid) in
  match I2_tbl.find_opt t.cctxs key with
  | Some c -> c
  | None ->
      let c =
        { cc_id = t.n_cctxs; cc_proc = mi; cc_fact = fact; cc_fw = None;
          cc_bw = None }
      in
      t.cctx_by_id <- dense_add t.cctx_by_id t.n_cctxs c;
      t.n_cctxs <- t.n_cctxs + 1;
      I2_tbl.replace t.cctxs key c;
      c

(* ---------------- propagation ---------------- *)

let record_result t (ni : ninfo) fid fact =
  match fact with
  | Taint.Zero -> ()
  | Taint.T _ ->
      let n = t.results_len in
      if n = Array.length t.results_log then begin
        let log = Array.make (2 * n) 0 in
        Array.blit t.results_log 0 log 0 n;
        t.results_log <- log
      end;
      t.results_log.(n) <- Flat_set.pack ni.ni_id fid;
      t.results_len <- n + 1

(* profiler cell for a method, resolved once and cached on the minfo *)
let prof_cell (mi : minfo) =
  match mi.mi_prof with
  | Some c -> c
  | None ->
      let c = Fd_obs.Profile.cell (Mkey.to_string mi.mi_key) in
      mi.mi_prof <- Some c;
      c

let state_opt solver cx = if solver.s_fw then cx.cc_fw else cx.cc_bw

(* [cx]'s tables in [solver]'s direction, allocated on first use *)
let state solver cx =
  match state_opt solver cx with
  | Some st -> st
  | None ->
      let st = { cs_edges = Flat_set.create (); cs_sums = None; cs_inc = None } in
      if solver.s_fw then cx.cc_fw <- Some st else cx.cc_bw <- Some st;
      st

let propagate ?(kind = Prov.Normal) t solver cx (ni : ninfo) fact =
  let fid = Fact_pool.id t.facts fact in
  let edges = (state solver cx).cs_edges in
  let slot = Flat_set.probe edges ni.ni_id fid in
  if slot < 0 then M.incr m_dedup_hits
  else if Fd_resilience.Budget.tick t.budget then begin
    M.incr m_path_edges;
    M.incr m_worklist_pushes;
    if solver.s_fw then begin
      M.incr m_fw_props;
      record_result t ni fid fact
    end
    else M.incr m_bw_props;
    (match t.prov with
    | Some prov ->
        (* first taint derived from the zero fact is the source step,
           whatever edge carried it (assignment source, call-site
           return source, parameter source) *)
        let kind =
          if
            t.cur_fact = t.zero_fid && fid <> t.zero_fid
            && kind <> Prov.Seed
          then Prov.Source
          else kind
        in
        Prov.record prov ~node:ni.ni_id ~fact:fid ~pred_node:t.cur_node
          ~pred_fact:t.cur_fact ~kind
    | None -> ());
    if t.cfg.Config.profile then Fd_obs.Profile.add_fact (prof_cell ni.ni_minfo);
    Flat_set.add_at edges slot ni.ni_id fid;
    ring_push solver.s_work cx.cc_id ni.ni_id fid
  end

let propagate_fw ?kind t cx ni fact = propagate ?kind t t.fw cx ni fact
let propagate_bw ?kind t cx ni fact = propagate ?kind t t.bw cx ni fact

let int_cell tbl id =
  match Int_tbl.find_opt tbl id with
  | Some c -> c
  | None ->
      let c = ref [] in
      Int_tbl.replace tbl id c;
      c

let new_pairs () = { p_list = []; p_seen = Flat_set.create () }

(* whether [(a, b)] is new to [ps], and then listed *)
let pairs_add ps a b =
  if Flat_set.add ps.p_seen a b then begin
    ps.p_list <- Flat_set.pack a b :: ps.p_list;
    true
  end
  else false

let add_incoming solver cx_callee ((ni : ninfo), (caller_cx : cctx)) =
  let st = state solver cx_callee in
  let inc =
    match st.cs_inc with
    | Some ps -> ps
    | None ->
        let ps = new_pairs () in
        st.cs_inc <- Some ps;
        ps
  in
  if pairs_add inc ni.ni_id caller_cx.cc_id then
    Flight.record (fun () ->
        Printf.sprintf "call-edge %s -> %s"
          (Icfg.string_of_node ni.ni_node)
          (Mkey.to_string cx_callee.cc_proc.mi_key))

(* [f c caller_cx] on each incoming call site [c] of [cx_callee] with
   its caller context, newest first *)
let iter_incoming t solver cx_callee f =
  match state_opt solver cx_callee with
  | Some { cs_inc = Some ps; _ } ->
      List.iter
        (fun k ->
          f t.ninfo_by_id.(Flat_set.fst k) t.cctx_by_id.(Flat_set.snd k))
        ps.p_list
  | _ -> ()

let add_summary t solver cx_callee ((ni : ninfo), fact) =
  let fid = Fact_pool.id t.facts fact in
  let st = state solver cx_callee in
  let sums =
    match st.cs_sums with
    | Some ps -> ps
    | None ->
        let ps = new_pairs () in
        st.cs_sums <- Some ps;
        ps
  in
  (* backward end summaries are only counted: nothing reads them, so
     they stay out of the list *)
  let added =
    if solver.s_fw then pairs_add sums ni.ni_id fid
    else Flat_set.add sums.p_seen ni.ni_id fid
  in
  if added then begin
    Flight.record (fun () ->
        Printf.sprintf "return-edge %s %s"
          (Icfg.string_of_node ni.ni_node)
          (Taint.fact_to_string fact));
    M.incr m_summaries;
    true
  end
  else false

(* [f e d] on each forward end summary [(e, d)] of [cx_callee], newest
   first *)
let iter_summaries t cx_callee f =
  match cx_callee.cc_fw with
  | Some { cs_sums = Some ps; _ } ->
      List.iter
        (fun k ->
          f t.ninfo_by_id.(Flat_set.fst k)
            (Fact_pool.value t.facts (Flat_set.snd k)))
        ps.p_list
  | _ -> ()

(* ---------------- findings ---------------- *)

(* reconstruct the witness for the finding being reported: walk the
   provenance chain of the (node, fact) pair currently popped (the
   sink check runs on the popped item, so the ambient cur_node /
   cur_fact IS the sink endpoint), then trim the zero-fact seed prefix
   down to its last element — the statement where the source taint was
   generated *)
let witness_of_current t =
  match t.prov with
  | None -> []
  | Some prov ->
      let chain = Prov.trace prov ~node:t.cur_node ~fact:t.cur_fact in
      let is_zero (_, fid, _) = fid = t.zero_fid in
      let rec trim = function
        | a :: (b :: _ as rest) when is_zero a && is_zero b -> trim rest
        | l -> l
      in
      List.filter_map
        (fun (nid, fid, kind) ->
          if nid < 0 || nid >= t.n_ninfos then None
          else
            let ni = t.ninfo_by_id.(nid) in
            Some
              {
                ws_node = ni.ni_node;
                ws_stmt = Stmt.to_string ni.ni_stmt;
                ws_fact = Taint.fact_to_string (Fact_pool.value t.facts fid);
                ws_kind = Prov.string_of_kind kind;
              })
        (trim chain)

let report t ~cx ?taint ~(source : Taint.source_info) ~sink_node ~sink_tag
    ~sink_cat () =
  (* capture for the summary store *before* the global dedup: a stored
     context must carry every leak of its subtree, even when another
     context already reported the same flow.  [taint] is absent for
     store replays — their paths were not walked in this process. *)
  (match t.store with
  | None -> ()
  | Some _ ->
      let r =
        { Summary.sr_source = source; sr_sink = sink_node; sr_tag = sink_tag;
          sr_cat = sink_cat }
      in
      let cell = int_cell t.cx_reports cx.cc_id in
      let rkey = Summary.report_key r in
      if
        not
          (List.exists
             (fun x -> String.equal (Summary.report_key x) rkey)
             !cell)
      then cell := r :: !cell);
  let key =
    Printf.sprintf "%s|%s|%s"
      (Icfg.string_of_node source.Taint.si_node)
      (Option.value source.Taint.si_tag ~default:"")
      (Icfg.string_of_node sink_node)
  in
  if not (Hashtbl.mem t.finding_keys key) then begin
    Hashtbl.replace t.finding_keys key ();
    M.incr m_findings;
    t.findings <-
      {
        f_source = source;
        f_sink_node = sink_node;
        f_sink_tag = sink_tag;
        f_sink_cat = sink_cat;
        f_path =
          (match taint with
          | Some taint -> Taint.path taint @ [ sink_node ]
          | None -> [ sink_node ]);
        f_witness = witness_of_current t;
      }
      :: t.findings
  end

(* ---------------- activation machinery ---------------- *)

let node_set_add tbl key node =
  let set =
    match Node_tbl.find_opt tbl key with
    | Some s -> s
    | None ->
        let s = Node_tbl.create 4 in
        Node_tbl.replace tbl key s;
        s
  in
  Node_tbl.replace set node ()

let mkey_set_add tbl key mk =
  let set =
    match Node_tbl.find_opt tbl key with
    | Some s -> s
    | None ->
        let s = Mkey.Tbl.create 4 in
        Node_tbl.replace tbl key s;
        s
  in
  Mkey.Tbl.replace set mk ()

let is_act_site t ~activation n =
  Node_tbl.length t.act_sites > 0
  &&
  match Node_tbl.find_opt t.act_sites activation with
  | Some s -> Node_tbl.mem s n
  | None -> false

let act_method_implies t ~activation mk =
  Mkey.equal activation.Icfg.n_method mk
  || (Node_tbl.length t.act_methods > 0
     &&
     match Node_tbl.find_opt t.act_methods activation with
     | Some s -> Mkey.Tbl.mem s mk
     | None -> false)

(* ---------------- summary-store injection ---------------- *)

(* On a store hit for (callee, entry fact), install the decoded end
   summaries and replay the subtree's sink reports instead of seeding
   the callee — the caller's summary-application loop then maps them
   through [return_flow] exactly as if the subtree had been analysed.
   Returns true when the descent seed must be skipped.  Two pieces of
   cold-run bookkeeping are reproduced explicitly:

   - every decoded inactive fact's activation statement is associated
     with the callee ([act_methods]), the invariant the skipped
     returns would have established bottom-up, so [return_flow]'s
     activation-site registration fires for the caller as usual;
   - replayed reports are recorded under the *injected* context, so a
     store-eligible ancestor persisting its own subtree still sees
     them. *)
let inject_stored_summaries t (cx_callee : cctx) =
  match t.store with
  | None -> false
  | Some h -> (
      if Int_tbl.mem t.injected_cxs cx_callee.cc_id then true
      else if not (Summary.eligible_entry cx_callee.cc_fact) then false
      else
        match
          h.Summary.h_lookup ~callee:cx_callee.cc_proc.mi_key
            ~entry:cx_callee.cc_fact
        with
        | None -> false
        | Some inj ->
            Int_tbl.replace t.injected_cxs cx_callee.cc_id ();
            let exits = exit_nis t cx_callee.cc_proc in
            List.iter
              (fun (idx, f) ->
                match
                  List.find_opt
                    (fun (e : ninfo) -> e.ni_node.Icfg.n_idx = idx)
                    exits
                with
                | None -> ()
                | Some eni ->
                    (match f with
                    | Taint.T tt when not tt.Taint.active -> (
                        match tt.Taint.activation with
                        | Some a ->
                            mkey_set_add t.act_methods a
                              cx_callee.cc_proc.mi_key
                        | None -> ())
                    | _ -> ());
                    ignore (add_summary t t.fw cx_callee (eni, f)))
              inj.Summary.inj_summaries;
            List.iter
              (fun (r : Summary.sink_report) ->
                report t ~cx:cx_callee ~source:r.Summary.sr_source
                  ~sink_node:r.Summary.sr_sink ~sink_tag:r.Summary.sr_tag
                  ~sink_cat:r.Summary.sr_cat ())
              inj.Summary.inj_reports;
            true)

(* activate an outgoing taint when it crosses its activation node or a
   call site associated with it *)
let maybe_activate t n (taint : Taint.t) =
  if taint.Taint.active then taint
  else
    match taint.Taint.activation with
    | Some a when Icfg.equal_node a n || is_act_site t ~activation:a n ->
        M.incr m_activations;
        Taint.activate taint ~at:n
    | _ -> taint

(* ---------------- access-path helpers ---------------- *)

(* [arr] gates the constant-index precision pass (Config.array_index):
   when on, [a[c]] with a compile-time-constant index denotes the
   pseudo-field cell [a.<idx:c>]; every other index keeps the
   whole-array abstraction *)

let array_cell ~arr x i : AP.t =
  match i with
  | Stmt.Iconst (Stmt.CInt c) when arr -> AP.of_field x (AP.index_field c)
  | _ -> AP.of_local x (* whole-array abstraction *)

let ap_of_lvalue ~arr lv : AP.t =
  match lv with
  | Stmt.Llocal x -> AP.of_local x
  | Stmt.Lfield (x, f) -> AP.of_field x f
  | Stmt.Lstatic f -> AP.of_static f
  | Stmt.Larray (x, i) -> array_cell ~arr x i

(* access paths readable from an expression, for taint matching: a
   taint whose path extends one of these flows into the assignment *)
let aps_of_expr ~arr (e : Stmt.expr) : AP.t list =
  match e with
  | Stmt.Eimm (Stmt.Iloc y) -> [ AP.of_local y ]
  | Stmt.Eimm (Stmt.Iconst _) -> []
  | Stmt.Efield (y, f) -> [ AP.of_field y f ]
  | Stmt.Estatic f -> [ AP.of_static f ]
  | Stmt.Earray (y, i) -> [ array_cell ~arr y i ]
  | Stmt.Ebinop (_, a, b) ->
      List.filter_map
        (function Stmt.Iloc y -> Some (AP.of_local y) | Stmt.Iconst _ -> None)
        [ a; b ]
  | Stmt.Eunop (_, a) | Stmt.Ecast (_, a) | Stmt.Einstanceof (a, _) ->
      List.filter_map
        (function Stmt.Iloc y -> Some (AP.of_local y) | Stmt.Iconst _ -> None)
        [ a ]
  | Stmt.Elength y -> [ AP.of_local y ]
  | Stmt.Enew _ | Stmt.Enewarray _ | Stmt.Einvoke _ -> []

(* a single-valued alias-preserving view of the rhs, used by the
   backward analysis: only expressions that denote a heap location or
   a copy can be rewritten through *)
let alias_ap_of_expr ~arr (e : Stmt.expr) : AP.t option =
  match e with
  | Stmt.Eimm (Stmt.Iloc y) -> Some (AP.of_local y)
  | Stmt.Ecast (_, Stmt.Iloc y) -> Some (AP.of_local y)
  | Stmt.Efield (y, f) -> Some (AP.of_field y f)
  | Stmt.Estatic f -> Some (AP.of_static f)
  | Stmt.Earray (y, i) -> Some (array_cell ~arr y i)
  | _ -> None

(* under the array-index pass, a read through a *non-constant* index
   may return any cell: per-cell taints collapse onto the destination
   (drop the cell selector the rebase carried over) rather than keep a
   spurious [<idx:c>] selector on a non-array value *)
let widen_cell_suffix ~lap (ap : AP.t) : AP.t =
  let nl = List.length lap.AP.fields in
  let rec go i = function
    | [] -> []
    | f :: rest when i = nl && AP.is_index_field f -> rest
    | f :: rest -> f :: go (i + 1) rest
  in
  { ap with AP.fields = go 0 ap.AP.fields }

(* ---------------- backward spawning (Algorithm 1, line 16) -------- *)

(* spawn an alias search for the heap access path [ap] written at node
   [ni], under the forward context [cx] (context injection) *)
let spawn_alias_search t cx (ni : ninfo) (origin : Taint.t) ap =
  if t.cfg.Config.alias_search && not (AP.is_static ap) then begin
    M.incr m_alias_queries;
    let n = ni.ni_node in
    let cx =
      if t.cfg.Config.context_injection then cx
      else cctx t ni.ni_minfo Taint.Zero
    in
    let alias =
      if t.cfg.Config.activation_statements then
        Taint.inactive_alias origin ~ap ~activation:n ~at:n
      else
        (* ablation: aliases are born active (flow-insensitive
           Andromeda-style behaviour) *)
        Taint.active_alias origin ~ap ~at:n
    in
    propagate_bw ~kind:Prov.Alias t cx ni (Taint.T alias)
  end

(* ---------------- forward flow functions ---------------- *)

(* taints generated across an assignment for an incoming taint *)
let assign_gen t n lv e (taint : Taint.t) =
  let arr = (prec t).Config.array_index in
  let lap = ap_of_lvalue ~arr lv in
  (* non-constant array read under the array-index pass: the result
     may be any cell, so per-cell taints widen to the whole value *)
  let nonconst_read =
    arr
    &&
    match e with
    | Stmt.Earray (_, Stmt.Iconst (Stmt.CInt _)) -> false
    | Stmt.Earray _ -> true
    | _ -> false
  in
  let gen_from src_ap =
    match AP.rebase ~k:(k t) ~from:src_ap ~to_:lap taint.Taint.ap with
    | Some ap ->
        let ap = if nonconst_read then widen_cell_suffix ~lap ap else ap in
        [ Taint.derive taint ~ap ~at:n ]
    | None -> (
        (* a tainted value reachable *below* the read path also flows:
           reading x.f when x is tainted yields a tainted value *)
        match e with
        | Stmt.Ebinop _ | Stmt.Elength _ ->
            (* operators collapse to a whole-value taint *)
            if AP.has_prefix ~prefix:taint.Taint.ap src_ap then
              [ Taint.derive taint ~ap:lap ~at:n ]
            else []
        | _ ->
            if AP.has_prefix ~prefix:taint.Taint.ap src_ap then
              [ Taint.derive taint ~ap:lap ~at:n ]
            else [])
  in
  List.concat_map gen_from (aps_of_expr ~arr e)

(* parameter-source taints generated at [ni] under the zero fact
   (callback parameter sources such as onLocationChanged); the result
   is node-constant, so it is computed once and cached *)
let zero_gen t (ni : ninfo) =
  match ni.ni_zero_gen with
  | Some g -> g
  | None ->
      let n = ni.ni_node in
      let stmt = ni.ni_stmt in
      let g =
        match stmt.Stmt.s_kind with
        | Stmt.Identity (l, Stmt.Iparam i) -> (
            let cls = n.Icfg.n_method.Mkey.mk_class in
            let mname = n.Icfg.n_method.Mkey.mk_name in
            match Srcsink_mgr.param_source t.mgr ~cls ~mname with
            | Some (params, cat) when List.mem i params ->
                let source =
                  Taint.
                    {
                      si_category = cat;
                      si_node = n;
                      si_tag = stmt.Stmt.s_tag;
                      si_desc =
                        Printf.sprintf "parameter %d of %s.%s" i cls mname;
                    }
                in
                [ Taint.make ~ap:(AP.of_local l) ~source ~at:n () ]
            | _ -> [])
        | _ -> []
      in
      ni.ni_zero_gen <- Some g;
      g

(* must-alias query for the strong-update pass, lazily computing and
   caching the per-method partition dataflow *)
let must_alias_at t (ni : ninfo) b x =
  match ni.ni_minfo.mi_body with
  | None -> false
  | Some body ->
      let ma =
        match Mkey.Tbl.find_opt t.ma_cache ni.ni_minfo.mi_key with
        | Some ma -> ma
        | None ->
            let ma = Fd_precision.Must_alias.analyze body in
            Mkey.Tbl.replace t.ma_cache ni.ni_minfo.mi_key ma;
            ma
      in
      Fd_precision.Must_alias.must_alias ma ~at:ni.ni_node.Icfg.n_idx b x

(* forward flow across a non-call statement; returns outgoing facts
   and performs alias-search side effects *)
let normal_flow t cx (ni : ninfo) (fact : Taint.fact) : Taint.fact list =
  M.incr m_flow_normal;
  let n = ni.ni_node in
  let stmt = ni.ni_stmt in
  match fact with
  | Taint.Zero ->
      Taint.Zero :: List.map (fun g -> Taint.T g) (zero_gen t ni)
  | Taint.T taint -> (
      let taint = maybe_activate t n taint in
      match stmt.Stmt.s_kind with
      | Stmt.Assign (lv, e) ->
          let killed =
            (* strong update on locals: x = ... kills taints rooted at
               x.  Heap locations are only strongly updated under the
               must-alias precision pass: a write x.f := e kills b.f...
               when b provably holds the same reference as x on every
               path reaching the write. *)
            match lv with
            | Stmt.Llocal x -> (
                match taint.Taint.ap.AP.base with
                | AP.Bloc b -> Stmt.equal_local b x
                | AP.Bstatic _ -> false)
            | Stmt.Lfield (x, f) when (prec t).Config.must_alias -> (
                match
                  (taint.Taint.ap.AP.base, taint.Taint.ap.AP.fields)
                with
                | AP.Bloc b, f0 :: _ ->
                    Types.equal_field_sig f0 f && must_alias_at t ni b x
                | _ -> false)
            | _ -> false
          in
          let gens = assign_gen t n lv e taint in
          (* alias search for every taint newly written to the heap *)
          List.iter
            (fun (g : Taint.t) ->
              match lv with
              | Stmt.Lfield _ | Stmt.Larray _ ->
                  spawn_alias_search t cx ni g g.Taint.ap
              | Stmt.Llocal _ | Stmt.Lstatic _ -> ())
            gens;
          let survivors = if killed then [] else [ Taint.T taint ] in
          survivors @ List.map (fun g -> Taint.T g) gens
      | Stmt.Identity (l, _) ->
          (* identity statements bind parameters; call_flow already
             rebased taints onto the parameter locals, so facts pass
             through (nothing can be rooted at [l] before its
             definition) *)
          ignore l;
          [ Taint.T taint ]
      | Stmt.If _ | Stmt.Goto _ | Stmt.Nop | Stmt.Return _ | Stmt.Throw _ ->
          [ Taint.T taint ]
      | Stmt.InvokeStmt _ -> [ Taint.T taint ])

(* map caller facts into a callee (argument passing) *)
let call_flow t (ni : ninfo) (inv : Stmt.invoke) (callee : minfo)
    (fact : Taint.fact) : Taint.fact list =
  M.incr m_flow_call;
  match fact with
  | Taint.Zero -> [ Taint.Zero ]
  | Taint.T taint -> (
      (* no activation here: an activation associated with this call
         site fires only once the call has *completed*, i.e. on the
         call-to-return edge, not on entry into the callee *)
      match callee.mi_body with
      | None -> []
      | Some _ ->
          let n = ni.ni_node in
          let this_l = callee.mi_this and params = callee.mi_params in
          let mapped = ref [] in
          (* static-rooted taints flow into callees unchanged *)
          if AP.is_static taint.Taint.ap then
            mapped := Taint.T taint :: !mapped;
          (* receiver -> @this *)
          (match (inv.Stmt.i_recv, this_l) with
          | Some r, Some tl -> (
              match
                AP.rebase ~k:(k t) ~from:(AP.of_local r)
                  ~to_:(AP.of_local tl) taint.Taint.ap
              with
              | Some ap -> mapped := Taint.T (Taint.derive taint ~ap ~at:n) :: !mapped
              | None -> ())
          | _ -> ());
          (* actuals -> formals *)
          List.iteri
            (fun i arg ->
              match arg with
              | Stmt.Iloc a -> (
                  match List.assoc_opt i params with
                  | Some p -> (
                      match
                        AP.rebase ~k:(k t) ~from:(AP.of_local a)
                          ~to_:(AP.of_local p) taint.Taint.ap
                      with
                      | Some ap ->
                          mapped :=
                            Taint.T (Taint.derive taint ~ap ~at:n) :: !mapped
                      | None -> ())
                  | None -> ())
              | Stmt.Iconst _ -> ())
            inv.Stmt.i_args;
          !mapped)

(* map callee exit facts back to the caller *)
let return_flow t ~call:(cni : ninfo) ~(callee : minfo) ~exit_ni:(eni : ninfo)
    (inv : Stmt.invoke) (fact : Taint.fact) : Taint.fact list =
  M.incr m_flow_return;
  match fact with
  | Taint.Zero -> []
  | Taint.T taint -> (
      match callee.mi_body with
      | None -> []
      | Some _ ->
          let c = cni.ni_node in
          (* activation association: if this taint's activation lies in
             the callee (transitively), completing this call implies the
             activation executed (Section 4.2) *)
          (match taint.Taint.activation with
          | Some a when act_method_implies t ~activation:a callee.mi_key ->
              node_set_add t.act_sites a c;
              mkey_set_add t.act_methods a c.Icfg.n_method
          | _ -> ());
          let this_l = callee.mi_this and params = callee.mi_params in
          let out = ref [] in
          let add taint' = out := taint' :: !out in
          if AP.is_static taint.Taint.ap then
            add (Taint.derive taint ~ap:taint.Taint.ap ~at:c);
          (* @this -> receiver: only heap mutations travel back *)
          (match (inv.Stmt.i_recv, this_l) with
          | Some r, Some tl when AP.length taint.Taint.ap > 0 -> (
              match
                AP.rebase ~k:(k t) ~from:(AP.of_local tl)
                  ~to_:(AP.of_local r) taint.Taint.ap
              with
              | Some ap -> add (Taint.derive taint ~ap ~at:c)
              | None -> ())
          | _ -> ());
          (* formals -> actuals: only field-bearing paths (a callee
             cannot reassign the caller's local itself) *)
          List.iteri
            (fun i arg ->
              match (arg, List.assoc_opt i params) with
              | Stmt.Iloc a, Some p when AP.length taint.Taint.ap > 0 -> (
                  match
                    AP.rebase ~k:(k t) ~from:(AP.of_local p)
                      ~to_:(AP.of_local a) taint.Taint.ap
                  with
                  | Some ap -> add (Taint.derive taint ~ap ~at:c)
                  | None -> ())
              | _ -> ())
            inv.Stmt.i_args;
          (* return value *)
          (match (eni.ni_stmt.Stmt.s_kind, cni.ni_stmt.Stmt.s_kind) with
          | Stmt.Return (Some (Stmt.Iloc rl)), Stmt.Assign (Stmt.Llocal x, _)
            -> (
              match
                AP.rebase ~k:(k t) ~from:(AP.of_local rl)
                  ~to_:(AP.of_local x) taint.Taint.ap
              with
              | Some ap -> add (Taint.derive taint ~ap ~at:c)
              | None -> ())
          | _ -> ());
          List.map (fun tt -> Taint.T tt) !out)

(* sink detection at a call site *)
let check_sink t cx (ni : ninfo) (ci : callinfo) (inv : Stmt.invoke)
    (fact : Taint.fact) =
  match fact with
  | Taint.Zero -> ()
  | Taint.T taint ->
      if taint.Taint.active then begin
        match ci.ci_sink with
        | None -> ()
        | Some cat ->
            let hits =
              List.exists
                (fun arg ->
                  match arg with
                  | Stmt.Iloc a -> (
                      match taint.Taint.ap.AP.base with
                      | AP.Bloc b -> Stmt.equal_local a b
                      | AP.Bstatic _ -> false)
                  | Stmt.Iconst _ -> false)
                inv.Stmt.i_args
            in
            if hits then
              report t ~cx ~taint ~source:taint.Taint.source
                ~sink_node:ni.ni_node ~sink_tag:ni.ni_stmt.Stmt.s_tag
                ~sink_cat:cat ()
      end

(* source generation at a call site (return-value and UI sources);
   the result is node-constant and cached in the callinfo *)
let gen_sources t (ni : ninfo) (inv : Stmt.invoke) ret_local : Taint.t list =
  let n = ni.ni_node in
  let stmt = ni.ni_stmt in
  match ret_local with
  | None -> []
  | Some x -> (
      let mk cat desc =
        let source =
          Taint.{ si_category = cat; si_node = n; si_tag = stmt.Stmt.s_tag;
                  si_desc = desc }
        in
        [ Taint.make ~ap:(AP.of_local x) ~source ~at:n () ]
      in
      match Srcsink_mgr.return_source t.mgr inv with
      | Some cat ->
          mk cat
            (Printf.sprintf "%s.%s()" inv.Stmt.i_sig.Types.m_class
               inv.Stmt.i_sig.Types.m_name)
      | None -> (
          match
            Srcsink_mgr.ui_source t.mgr
              ~body:(Option.get ni.ni_minfo.mi_body)
              ~at:n.Icfg.n_idx inv
          with
          | Some ctl ->
              mk SS.Password
                (Printf.sprintf "password field %s (layout %s)"
                   ctl.Fd_frontend.Layout.ctl_name
                   ctl.Fd_frontend.Layout.ctl_layout)
          | None -> []))

(* wrapper / native / default-model effects for one incoming fact *)
let library_effects t (ni : ninfo) ret_local (inv : Stmt.invoke) effects
    (fact : Taint.fact) : Taint.t list =
  match fact with
  | Taint.Zero -> []
  | Taint.T taint ->
      let n = ni.ni_node in
      let taint = maybe_activate t n taint in
      let arg_local i =
        match List.nth_opt inv.Stmt.i_args i with
        | Some (Stmt.Iloc a) -> Some a
        | _ -> None
      in
      let origin_matches (origin : Fd_frontend.Rules.origin) =
        let rooted l =
          match taint.Taint.ap.AP.base with
          | AP.Bloc b -> Stmt.equal_local b l
          | AP.Bstatic _ -> false
        in
        match origin with
        | Fd_frontend.Rules.From_recv -> (
            match inv.Stmt.i_recv with Some r -> rooted r | None -> false)
        | Fd_frontend.Rules.From_any_arg ->
            List.exists
              (function Stmt.Iloc a -> rooted a | Stmt.Iconst _ -> false)
              inv.Stmt.i_args
        | Fd_frontend.Rules.From_arg i -> (
            match arg_local i with Some a -> rooted a | None -> false)
      in
      let target_local (tgt : Fd_frontend.Rules.target) =
        match tgt with
        | Fd_frontend.Rules.To_ret -> ret_local
        | Fd_frontend.Rules.To_recv -> inv.Stmt.i_recv
        | Fd_frontend.Rules.To_arg i -> arg_local i
      in
      List.filter_map
        (fun (eff : Fd_frontend.Rules.effect) ->
          if origin_matches eff.Fd_frontend.Rules.eff_from then
            match target_local eff.Fd_frontend.Rules.eff_to with
            | Some l ->
                let g = Taint.derive taint ~ap:(AP.of_local l) ~at:n in
                (* writing taint into the receiver/argument heap object
                   may create aliases worth searching for *)
                Some g
            | None -> None
          else None)
        effects

(* default model for un-modelled phantom/native methods: the return
   value becomes tainted if the receiver or any argument is (the
   paper's "neither entirely sound nor maximally precise, but the best
   practical approximation") — and for *native* methods additionally
   the arguments become tainted. *)
let default_library_effects ~native : Fd_frontend.Rules.effect list =
  let open Fd_frontend.Rules in
  let base =
    [ { eff_to = To_ret; eff_from = From_any_arg };
      { eff_to = To_ret; eff_from = From_recv } ]
  in
  if native then
    base
    @ [ { eff_to = To_arg 0; eff_from = From_any_arg };
        { eff_to = To_arg 1; eff_from = From_any_arg };
        { eff_to = To_arg 2; eff_from = From_any_arg } ]
  else base

let is_native_target t (inv : Stmt.invoke) =
  match
    Scene.resolve_concrete t.scene inv.Stmt.i_sig.Types.m_class
      (inv.Stmt.i_sig.Types.m_name, inv.Stmt.i_sig.Types.m_params)
  with
  | Some (_, m) -> m.Jclass.jm_native
  | None -> false

(* ---------------- forward solver main loop case: call node -------- *)

(* resolve the node-constant call-site data once: sink category,
   wrapper shortcut, return local, generated sources and the effect
   list applied on the call-to-return edge *)
let callinfo_of t (ni : ninfo) (inv : Stmt.invoke) =
  match ni.ni_call with
  | Some ci -> ci
  | None ->
      let ret_local =
        match ni.ni_stmt.Stmt.s_kind with
        | Stmt.Assign (Stmt.Llocal x, Stmt.Einvoke _) -> Some x
        | _ -> None
      in
      let wrapper = Srcsink_mgr.wrapper_effects t.wrappers t.mgr inv in
      let c2r =
        match wrapper with
        | Some effs -> Some effs
        | None ->
            if callees t ni = [] then
              (* un-analysable target: explicit native rule or the
                 default black-box model *)
              Some
                (match Srcsink_mgr.wrapper_effects t.natives t.mgr inv with
                | Some effs -> effs
                | None ->
                    default_library_effects ~native:(is_native_target t inv))
            else None
      in
      let ci =
        {
          ci_sink = Srcsink_mgr.sink t.mgr inv;
          ci_wrapper = wrapper;
          ci_ret = ret_local;
          ci_sources = gen_sources t ni inv ret_local;
          ci_c2r = c2r;
        }
      in
      ni.ni_call <- Some ci;
      ci

(* rewrite [m.invoke(thisArg, args...)] as the direct virtual call it
   resolves to (reflection precision pass): the first reflective
   argument becomes the receiver, the rest the actuals, so the
   standard [call_flow]/[return_flow] parameter mapping lines up *)
let transform_reflective (inv : Stmt.invoke) : Stmt.invoke option =
  match inv.Stmt.i_args with
  | this_arg :: rest ->
      let recv =
        match this_arg with Stmt.Iloc l -> Some l | Stmt.Iconst _ -> None
      in
      Some { inv with Stmt.i_kind = Stmt.Virtual; i_recv = recv; i_args = rest }
  | [] -> None

(* the transformed invoke to map callee exit facts through: reflective
   edges return through the rewritten call, everything else through
   the syntactic one *)
let return_invoke t (c : ninfo) (callee_key : Mkey.t) (inv : Stmt.invoke) :
    Stmt.invoke =
  if
    (prec t).Config.reflection
    && List.exists (Mkey.equal callee_key)
         (Icfg.refl_callees t.icfg c.ni_node)
  then match transform_reflective inv with Some ri -> ri | None -> inv
  else inv

let process_call_fw t cx (ni : ninfo) (fact : Taint.fact) inv =
  let ci = callinfo_of t ni inv in
  check_sink t cx ni ci inv fact;
  let callee_list = callees t ni in
  let node_succs = succs t ni in
  (* descend into analysable callees unless a wrapper shortcut is
     defined (wrappers are exclusive, Section 5); [call_inv] is the
     invoke to map arguments through (the transformed one for
     reflective edges) *)
  let descend call_inv (callee : minfo) =
    let entry_facts = call_flow t ni call_inv callee fact in
    if entry_facts <> [] then begin
      let s_callee = start_ni t callee in
      List.iter
        (fun d3 ->
          let cx_callee = cctx t callee d3 in
          add_incoming t.fw cx_callee (ni, cx);
          if not (inject_stored_summaries t cx_callee) then
            propagate_fw ~kind:Prov.Call t cx_callee s_callee d3;
          iter_summaries t cx_callee (fun e d4 ->
              M.incr m_summary_apps;
              let rets =
                return_flow t ~call:ni ~callee ~exit_ni:e call_inv d4
              in
              List.iter
                (fun r ->
                  List.iter
                    (fun d5 ->
                      (match d5 with
                      | Taint.T tt when AP.length tt.Taint.ap > 0 ->
                          spawn_alias_search t cx ni tt tt.Taint.ap
                      | _ -> ());
                      propagate_fw ~kind:Prov.Return t cx r d5)
                    rets)
                node_succs))
        entry_facts
    end
  in
  if callee_list <> [] && ci.ci_wrapper = None then
    List.iter (descend inv) callee_list;
  (* reflective descent (precision pass): constant-string-resolved
     [Method.invoke] targets, analysed through the transformed direct
     invoke *)
  (if (prec t).Config.reflection then
     match Icfg.refl_callees t.icfg ni.ni_node with
     | [] -> ()
     | refl_keys -> (
         match transform_reflective inv with
         | None -> ()
         | Some rinv ->
             List.iter
               (fun mk ->
                 if t.in_slice mk then descend rinv (minfo_of t mk))
               refl_keys));
  (* call-to-return: sources, library models, pass-through *)
  M.incr m_flow_c2r;
  let derived =
    match fact with
    | Taint.Zero -> List.map (fun g -> Taint.T g) ci.ci_sources
    | Taint.T _ -> (
        match ci.ci_c2r with
        | Some effs ->
            List.map
              (fun g -> Taint.T g)
              (library_effects t ni ci.ci_ret inv effs fact)
        | None -> [])
  in
  (* heap writes performed by library effects (e.g. putExtra tainting
     the receiver) get alias searches too *)
  List.iter
    (function
      | Taint.T (g : Taint.t) -> (
          match g.Taint.ap.AP.base with
          | AP.Bloc l ->
              let is_ret =
                match ci.ci_ret with
                | Some x -> Stmt.equal_local x l
                | None -> false
              in
              if not is_ret then spawn_alias_search t cx ni g g.Taint.ap
          | AP.Bstatic _ -> ())
      | Taint.Zero -> ())
    derived;
  let pass_through =
    match fact with
    | Taint.Zero -> [ Taint.Zero ]
    | Taint.T taint ->
        let taint = maybe_activate t ni.ni_node taint in
        let killed =
          match (ci.ci_ret, taint.Taint.ap.AP.base) with
          | Some x, AP.Bloc b -> Stmt.equal_local x b
          | _ -> false
        in
        if killed then [] else [ Taint.T taint ]
  in
  List.iter
    (fun r ->
      List.iter
        (fun d -> propagate_fw ~kind:Prov.Call_to_return t cx r d)
        (pass_through @ derived))
    node_succs

let process_exit_fw t cx (ni : ninfo) (fact : Taint.fact) =
  if add_summary t t.fw cx (ni, fact) then begin
    iter_incoming t t.fw cx (fun c caller_cx ->
        match c.ni_invoke with
        | None -> ()
        | Some inv ->
            let inv = return_invoke t c cx.cc_proc.mi_key inv in
            let rets =
              return_flow t ~call:c ~callee:cx.cc_proc ~exit_ni:ni inv fact
            in
            List.iter
              (fun r ->
                List.iter
                  (fun d5 ->
                    (match d5 with
                    | Taint.T tt when AP.length tt.Taint.ap > 0 ->
                        spawn_alias_search t caller_cx c tt tt.Taint.ap
                    | _ -> ());
                    propagate_fw ~kind:Prov.Return t caller_cx r d5)
                  rets)
              (succs t c));
    (* <clinit> exits reached through first-use edges (precision pass)
       have no syntactic call site: relay static-rooted facts,
       context-insensitively, to the successors of every first-use
       site (a class initializer runs at most once, before any of
       them) *)
    if
      (prec t).Config.clinit
      && String.equal ni.ni_node.Icfg.n_method.Mkey.mk_name "<clinit>"
    then
      match fact with
      | Taint.T taint when AP.is_static taint.Taint.ap ->
          List.iter
            (fun site ->
              let sni = ninfo_of t site in
              let site_cx = cctx t sni.ni_minfo Taint.Zero in
              List.iter
                (fun s -> propagate_fw ~kind:Prov.Return t site_cx s fact)
                (succs t sni))
            (Icfg.clinit_sites t.icfg ni.ni_node.Icfg.n_method)
      | _ -> ()
  end

(* first-use <clinit> placement (precision pass): seed the class
   initializer at its trigger site.  The edge is context-insensitive —
   <clinit> runs at most once per class — so the zero fact and
   static-rooted taints enter under the callee's own context; exits
   are handled by {!process_exit_fw} above. *)
let process_clinit_fw t (ni : ninfo) (fact : Taint.fact) =
  match Icfg.clinit_callees t.icfg ni.ni_node with
  | [] -> ()
  | keys ->
      let entry =
        match fact with
        | Taint.Zero -> Some fact
        | Taint.T taint ->
            if AP.is_static taint.Taint.ap then Some fact else None
      in
      List.iter
        (fun mk ->
          if t.in_slice mk then begin
            let callee = minfo_of t mk in
            match (callee.mi_body, entry) with
            | Some _, Some d ->
                propagate_fw ~kind:Prov.Call t (cctx t callee d)
                  (start_ni t callee) d
            | _ -> ()
          end)
        keys

let process_fw t cx (ni : ninfo) fact =
  if (prec t).Config.clinit then process_clinit_fw t ni fact;
  if ni.ni_is_exit then begin
    (* sinks can also sit on an exit-adjacent call; exits themselves
       carry no invoke in µJimple *)
    process_exit_fw t cx ni fact
  end
  else
    match ni.ni_invoke with
    | Some inv -> process_call_fw t cx ni fact inv
    | None ->
        let outs = normal_flow t cx ni fact in
        List.iter
          (fun m -> List.iter (fun d -> propagate_fw t cx m d) outs)
          (succs t ni)

(* ---------------- backward solver (Algorithm 2) ---------------- *)

(* inject a discovered alias into the forward analysis at node [ni] *)
let inject_fw t cx (ni : ninfo) (alias : Taint.t) =
  M.incr m_fw_injections;
  propagate_fw ~kind:Prov.Inject t cx ni (Taint.T alias)

(* backward descent into a call's callees for a fact rooted at the
   receiver or an actual argument: the callee may have created aliases
   involving those objects (Algorithm 2, call-statement case) *)
let backward_descend_args t cx (mni : ninfo) (inv : Stmt.invoke)
    (taint : Taint.t) =
  List.iter
    (fun (callee : minfo) ->
      match callee.mi_body with
      | None -> ()
      | Some _ ->
          let m = mni.ni_node in
          let this_l = callee.mi_this and params = callee.mi_params in
          let descend ap_from ap_to =
            match
              AP.rebase ~k:(k t) ~from:ap_from ~to_:ap_to taint.Taint.ap
            with
            | Some ap ->
                let d = Taint.derive taint ~ap ~at:m in
                let cx_callee = cctx t callee (Taint.T d) in
                add_incoming t.fw cx_callee (mni, cx);
                List.iter
                  (fun e_ni ->
                    propagate_bw ~kind:Prov.Backward t cx_callee e_ni
                      (Taint.T d))
                  (exit_nis t callee)
            | None -> ()
          in
          (match (inv.Stmt.i_recv, this_l) with
          | Some r, Some tl when AP.length taint.Taint.ap > 0 ->
              descend (AP.of_local r) (AP.of_local tl)
          | _ -> ());
          List.iteri
            (fun i arg ->
              match (arg, List.assoc_opt i params) with
              | Stmt.Iloc a, Some p when AP.length taint.Taint.ap > 0 ->
                  descend (AP.of_local a) (AP.of_local p)
              | _ -> ())
            inv.Stmt.i_args)
    (callees t mni)

(* backward flow across the *predecessor* statement [m] for fact
   valid before [n]; may inject forward facts and descend into
   callees *)
let backward_step t cx (mni : ninfo) (taint : Taint.t) =
  M.incr m_bw_steps;
  let m = mni.ni_node in
  let stmt = mni.ni_stmt in
  let arr = (prec t).Config.array_index in
  let continue_with tt = propagate_bw ~kind:Prov.Backward t cx mni (Taint.T tt) in
  match stmt.Stmt.s_kind with
  | Stmt.Assign (lv, e) -> (
      let lap = ap_of_lvalue ~arr lv in
      if AP.has_prefix ~prefix:lap taint.Taint.ap then begin
        (* the written location is (a prefix of) our alias: rewrite
           through the assignment *)
        match e with
        | Stmt.Einvoke _ ->
            (* value came from a callee's return: descend (Algorithm 2,
               call-statement case) *)
            List.iter
              (fun (callee : minfo) ->
                match callee.mi_body with
                | None -> ()
                | Some _ ->
                    List.iter
                      (fun (e_ni : ninfo) ->
                        match e_ni.ni_stmt.Stmt.s_kind with
                        | Stmt.Return (Some (Stmt.Iloc rl)) -> (
                            match
                              AP.rebase ~k:(k t) ~from:lap
                                ~to_:(AP.of_local rl) taint.Taint.ap
                            with
                            | Some ap ->
                                let d = Taint.derive taint ~ap ~at:m in
                                let cx_callee = cctx t callee (Taint.T d) in
                                add_incoming t.fw cx_callee (mni, cx);
                                propagate_bw ~kind:Prov.Backward t cx_callee
                                  e_ni (Taint.T d)
                            | None -> ())
                        | _ -> ())
                      (exit_nis t callee))
              (callees t mni)
        | Stmt.Enew _ | Stmt.Enewarray _ ->
            (* freshly allocated: nothing aliases it upstream *)
            ()
        | _ -> (
            match alias_ap_of_expr ~arr e with
            | Some rap -> (
                match
                  AP.rebase ~k:(k t) ~from:lap ~to_:rap taint.Taint.ap
                with
                | Some ap ->
                    let d = Taint.derive taint ~ap ~at:m in
                    (* found an upstream alias: continue the search and
                       hand it to the forward analysis (Algorithm 2,
                       line 17) *)
                    inject_fw t cx mni d;
                    continue_with d
                | None -> ())
            | None ->
                (* rhs is a constant or operator result: value created
                   here *)
                ())
      end
      else begin
        (* unrelated write; but the rhs may *read* our alias path,
           making the lhs a downstream alias (Figure 2, step 7:
           b = a.g with fact a.g.f gives alias b.f).  The alias holds
           only *after* [m] (the statement defines it), so the forward
           injection lands on [m]'s successors; and the new alias is
           itself searched backward so chains of heap assignments
           (o.a = c1; c1.a = c2; ...) compose. *)
        (match alias_ap_of_expr ~arr e with
        | Some rap -> (
            match AP.rebase ~k:(k t) ~from:rap ~to_:lap taint.Taint.ap with
            | Some ap ->
                let d = Taint.derive taint ~ap ~at:m in
                List.iter (fun s -> inject_fw t cx s d) (succs t mni);
                continue_with d
            | None -> ())
        | None -> ());
        (* a call whose result is stored elsewhere may still have
           mutated our alias's object through the arguments *)
        (match e with
        | Stmt.Einvoke inv -> backward_descend_args t cx mni inv taint
        | _ -> ());
        (* does this statement *define* our base outright? then the
           path does not exist upstream *)
        let killed =
          match lv with
          | Stmt.Llocal x -> (
              match taint.Taint.ap.AP.base with
              | AP.Bloc b -> Stmt.equal_local b x
              | AP.Bstatic _ -> false)
          | _ -> false
        in
        if not killed then continue_with taint
      end)
  | Stmt.InvokeStmt inv ->
      (* a call the fact merely passes: descend with facts rooted at
         the receiver or actuals *)
      backward_descend_args t cx mni inv taint;
      continue_with taint
  | Stmt.Identity _ | Stmt.If _ | Stmt.Goto _ | Stmt.Nop | Stmt.Return _
  | Stmt.Throw _ ->
      continue_with taint

let process_bw t cx (ni : ninfo) (fact : Taint.fact) =
  match fact with
  | Taint.Zero -> ()
  | Taint.T taint ->
      if ni.ni_node.Icfg.n_idx = 0 then begin
        (* Algorithm 2, method's-first-statement case: hand over to the
           forward analysis (which owns all returning into callers) and
           kill the backward fact *)
        ignore (add_summary t t.bw cx (ni, fact));
        inject_fw t cx ni taint
      end
      else List.iter (fun m -> backward_step t cx m taint) (preds t ni)

(* ---------------- driver ---------------- *)

(** [run t ~entries] seeds the zero fact at each entry method and runs
    both solvers to exhaustion (or to the propagation budget). *)
(* live byte sizes for the gauges, summed over the contexts' tables:
   the allocated words of the flat sets, the worklist ring and the
   results log; estimates for the records around them (~11 words a
   context's tables, ~9 a pair table), the pair lists (3 words a cell)
   and the interned facts (~16 words each) *)
let bytes_of_words w = w * (Sys.word_size / 8)

let solver_words t solver =
  let pairs_words = function
    | Some ps -> 9 + Flat_set.words ps.p_seen + (3 * List.length ps.p_list)
    | None -> 0
  in
  let w = ref (Array.length solver.s_work.buf) in
  for i = 0 to t.n_cctxs - 1 do
    match state_opt solver t.cctx_by_id.(i) with
    | None -> ()
    | Some st ->
        w :=
          !w + 11 + Flat_set.words st.cs_edges + pairs_words st.cs_sums
          + pairs_words st.cs_inc
  done;
  !w

let publish_memory_gauges t =
  (* the forward tables include the results log they feed *)
  M.set_int g_bytes_fw
    (bytes_of_words (solver_words t t.fw + Array.length t.results_log));
  M.set_int g_bytes_bw (bytes_of_words (solver_words t t.bw));
  M.set_int g_bytes_facts (bytes_of_words (Fact_pool.size t.facts * 16));
  M.set_int g_bytes_prov
    (match t.prov with Some p -> Prov.approx_bytes p | None -> 0)

(* ---------------- summary-store persistence ---------------- *)

(* Write-behind persistence after a [Complete] solve: hand every
   store-eligible context's end summaries — plus the sink reports
   recorded anywhere in its context subtree (the calls it descended
   into, transitively) — to the store hooks.  Contexts whose summaries
   were themselves injected are skipped: the store already holds them.
   Partial solves persist nothing; a truncated summary would replay as
   the wrong answer. *)
let persist_summaries t (h : Summary.hooks) =
  (* invert the incoming-call relation into context children *)
  let children : cctx list ref Int_tbl.t = Int_tbl.create 256 in
  I2_tbl.iter
    (fun _ cx_callee ->
      iter_incoming t t.fw cx_callee (fun _ caller_cx ->
          let cell = int_cell children caller_cx.cc_id in
          cell := cx_callee :: !cell))
    t.cctxs;
  let reports_in_subtree cx =
    let seen_cx = Int_tbl.create 16 in
    let seen_r = Hashtbl.create 8 in
    let acc = ref [] in
    let rec go (c : cctx) =
      if not (Int_tbl.mem seen_cx c.cc_id) then begin
        Int_tbl.replace seen_cx c.cc_id ();
        (match Int_tbl.find_opt t.cx_reports c.cc_id with
        | Some rs ->
            List.iter
              (fun r ->
                let key = Summary.report_key r in
                if not (Hashtbl.mem seen_r key) then begin
                  Hashtbl.replace seen_r key ();
                  acc := r :: !acc
                end)
              (List.rev !rs)
        | None -> ());
        match Int_tbl.find_opt children c.cc_id with
        | Some cs -> List.iter go !cs
        | None -> ()
      end
    in
    go cx;
    List.rev !acc
  in
  let per_method : Summary.persist_context list ref Mkey.Tbl.t =
    Mkey.Tbl.create 64
  in
  I2_tbl.iter
    (fun _ cx ->
      if
        (not (Int_tbl.mem t.injected_cxs cx.cc_id))
        && Summary.eligible_entry cx.cc_fact
        && h.Summary.h_eligible cx.cc_proc.mi_key
      then begin
        let sums = ref [] in
        iter_summaries t cx (fun ni f ->
            sums := (ni.ni_node.Icfg.n_idx, f) :: !sums);
        let pc =
          {
            Summary.pc_entry = cx.cc_fact;
            pc_summaries = List.rev !sums;
            pc_reports = reports_in_subtree cx;
          }
        in
        let cell =
          match Mkey.Tbl.find_opt per_method cx.cc_proc.mi_key with
          | Some c -> c
          | None ->
              let c = ref [] in
              Mkey.Tbl.replace per_method cx.cc_proc.mi_key c;
              c
        in
        cell := pc :: !cell
      end)
    t.cctxs;
  Mkey.Tbl.iter (fun mk cell -> h.Summary.h_persist ~callee:mk !cell) per_method

let run t ~entries =
  (* arm the flight recorder for this solve: a later dump must never
     mix events from a previous run, and even a first-tick chaos fault
     (which can fire before any pop) must find a non-empty ring *)
  Flight.clear ();
  Flight.mark (Printf.sprintf "solve.start entries=%d" (List.length entries));
  List.iter
    (fun m ->
      let start = ninfo_of t (Icfg.start_node t.icfg m) in
      let cx = cctx t start.ni_minfo Taint.Zero in
      propagate_fw ~kind:Prov.Seed t cx start Taint.Zero)
    entries;
  let profiling = t.cfg.Config.profile in
  let track = t.prov <> None in
  let pop_item solver process =
    let r = solver.s_work in
    let i = ring_pop r in
    let cx = t.cctx_by_id.(r.buf.(i))
    and ni = t.ninfo_by_id.(r.buf.(i + 1))
    and fid = r.buf.(i + 2) in
    let fact = Fact_pool.value t.facts fid in
    M.incr m_worklist_pops;
    (* remember the popped pair: every propagation performed while
       processing it records this pair as its provenance predecessor *)
    if track then begin
      t.cur_node <- ni.ni_id;
      t.cur_fact <- fid
    end;
    Flight.record (fun () ->
        Printf.sprintf "%s %s %s"
          (if solver.s_fw then "fw.pop" else "bw.pop")
          (Icfg.string_of_node ni.ni_node)
          (Taint.fact_to_string fact));
    if profiling then begin
      let t0 = Fd_obs.Profile.now () in
      process t cx ni fact;
      Fd_obs.Profile.add_pop (prof_cell ni.ni_minfo)
        ~seconds:(Fd_obs.Profile.now () -. t0)
    end
    else process t cx ni fact
  in
  let rec loop () =
    (* cooperative stop: once the budget trips (cap, deadline or
       cancellation) the remaining worklist is abandoned — results so
       far stay valid as a partial under-approximation *)
    if Fd_resilience.Budget.stopped t.budget then ()
    else if t.fw.s_work.len > 0 then begin
      pop_item t.fw process_fw;
      loop ()
    end
    else if t.bw.s_work.len > 0 then begin
      pop_item t.bw process_bw;
      loop ()
    end
  in
  loop ();
  (match t.store with
  | Some h
    when Fd_resilience.Outcome.is_complete
           (Fd_resilience.Budget.outcome t.budget) ->
      persist_summaries t h
  | _ -> ());
  (* publish pool statistics so the interning layer is observable *)
  M.set_int g_intern_facts (Fact_pool.size t.facts);
  M.set_int g_intern_fact_hits (Fact_pool.hits t.facts);
  M.set_int g_intern_fact_misses (Fact_pool.misses t.facts);
  M.set_int g_intern_nodes t.n_ninfos;
  M.set_int g_intern_methods t.n_minfos;
  M.set_int g_intern_ctxs t.n_cctxs;
  publish_memory_gauges t;
  t.findings <- List.rev t.findings

(** [findings t] is the reported source-to-sink flows. *)
let findings t = t.findings

(* the results index, brought up to date with the log: a pair's first
   entry lists its taint, so each node's list is newest first in
   first-discovery order *)
let results_index t =
  let ri =
    match t.results_index with
    | Some ri -> ri
    | None ->
        let ri =
          { ri_seen = Flat_set.create (); ri_taints = Int_tbl.create 64;
            ri_upto = 0 }
        in
        t.results_index <- Some ri;
        ri
  in
  for i = ri.ri_upto to t.results_len - 1 do
    let e = t.results_log.(i) in
    let nid = Flat_set.fst e and fid = Flat_set.snd e in
    if Flat_set.add ri.ri_seen nid fid then
      match Fact_pool.value t.facts fid with
      | Taint.T taint ->
          let l = Option.value (Int_tbl.find_opt ri.ri_taints nid) ~default:[] in
          Int_tbl.replace ri.ri_taints nid (taint :: l)
      | Taint.Zero -> ()
  done;
  ri.ri_upto <- t.results_len;
  ri

(** [results_at t n] is the taints that may hold just before [n]
    (forward solver facts), indexed from the results log on demand. *)
let results_at t n =
  match Node_tbl.find_opt t.ninfos n with
  | None -> []
  | Some ni ->
      Option.value
        (Int_tbl.find_opt (results_index t).ri_taints ni.ni_id)
        ~default:[]

(** [propagation_count t] is the number of path-edge propagations
    performed (the work metric reported by the benchmarks). *)
let propagation_count t = Fd_resilience.Budget.propagations t.budget

(** [outcome t] is the typed termination state of the solve:
    [Complete], or the budget's stop reason. *)
let outcome t = Fd_resilience.Budget.outcome t.budget

(** [budget t] is the engine's budget handle (e.g. for cooperative
    cancellation from a signal handler). *)
let budget t = t.budget

(** [budget_exhausted t] reports whether the propagation budget was
    hit (results may then be incomplete); see {!outcome} for the full
    taxonomy. *)
let budget_exhausted t =
  Fd_resilience.Outcome.equal (outcome t) Fd_resilience.Outcome.Budget_exhausted

(** A generic IFDS solver.

    Implements the tabulation algorithm of Reps, Horwitz and Sagiv
    (POPL'95) for inter-procedural, finite, distributive subset
    problems, with the practical extensions of Naeem, Lhoták and
    Rodriguez (CC'10) that FlowDroid's solvers build on:

    - the exploded supergraph is never materialised; flow functions
      are applied on demand, so only facts that actually arise are
      computed;
    - *incoming sets* record which caller contexts entered each callee
      context, so end summaries can be mapped back precisely when they
      are discovered after the call was processed.

    A {e path edge} [⟨sp, d1⟩ → ⟨n, d2⟩] states: if fact [d1] holds at
    the start point [sp] of [n]'s procedure, then [d2] holds just
    before [n].  The solver maintains the set of path edges in a
    worklist-driven fixed point.

    Internally every proc, node and fact is hash-consed into a
    per-solver {!Fd_util.Intern} pool, so the tabulation tables are
    keyed by small integer ids instead of deep structural values: one
    structural hash per distinct value, integer mixing afterwards.
    Each table is a cell per id pair (a context, or a call site and
    its fact) holding a list and the {!Fd_util.Flat_set} of the rest
    of its entries' keys that guards it.
    Pools are per-solver instance, so independent solves (including
    solves running on different domains) share nothing.

    The specialised bidirectional taint solver of the paper
    (Algorithms 1 and 2) lives in [Fd_core.Bidi]; this module is the
    textbook single-direction algorithm, used by the comparator
    baselines and as a reference implementation. *)

module type PROBLEM = sig
  type proc
  (** procedure identifiers *)

  type node
  (** program points (statements) *)

  type fact
  (** data-flow facts; must include a distinguished zero fact *)

  val proc_equal : proc -> proc -> bool
  val proc_hash : proc -> int
  val node_equal : node -> node -> bool
  val node_hash : node -> int
  val fact_equal : fact -> fact -> bool
  val fact_hash : fact -> int
  val zero : fact

  val proc_of : node -> proc
  (** the procedure containing a node *)

  val start_of : proc -> node
  (** the unique start point of a procedure *)

  val succs : node -> node list
  (** intra-procedural successors; for a call node these are its
      return sites *)

  val is_exit : node -> bool
  (** return/throw nodes *)

  val callees : node -> proc list
  (** resolved targets when [node] is a call with analysable targets;
      [[]] otherwise *)

  val normal_flow : node -> fact -> fact list
  (** flow across a non-call node to its successors *)

  val call_flow : node -> proc -> fact -> fact list
  (** flow from a call node into a callee (argument passing) *)

  val return_flow :
    call:node -> callee:proc -> exit:node -> return_site:node -> fact -> fact list
  (** flow from a callee exit back to a return site of the call *)

  val call_to_return_flow : node -> fact -> fact list
  (** flow across a call on the caller's side (facts untouched by the
      callee) *)
end

(* solver-wide metrics, shared with the specialised bidirectional
   solver in [Fd_core.Bidi] (both are IFDS tabulations): handles are
   resolved once so the hot-path cost is a single field increment *)
module M = Fd_obs.Metrics

let m_path_edges = M.counter "ifds.path_edges"
let m_worklist_pushes = M.counter "ifds.worklist_pushes"
let m_worklist_pops = M.counter "ifds.worklist_pops"
let m_dedup_hits = M.counter "ifds.worklist_dedup_hits"
let m_summaries = M.counter "ifds.summaries_installed"
let m_summary_apps = M.counter "ifds.summary_applications"
let m_flow_normal = M.counter "ifds.flow.normal"
let m_flow_call = M.counter "ifds.flow.call"
let m_flow_return = M.counter "ifds.flow.return"
let m_flow_c2r = M.counter "ifds.flow.call_to_return"
let g_intern_nodes = M.gauge "intern.ifds.nodes.size"
let g_intern_procs = M.gauge "intern.ifds.procs.size"
let g_intern_facts = M.gauge "intern.ifds.facts.size"
let g_intern_hits = M.gauge "intern.ifds.facts.hits"
let g_intern_misses = M.gauge "intern.ifds.facts.misses"
let g_bytes_tables = M.gauge "mem.ifds_tables.bytes"

module Flight = Fd_obs.Ring.Flight

module Make (P : PROBLEM) = struct
  module Node_pool = Fd_util.Intern.Make (struct
    type t = P.node

    let equal = P.node_equal
    let hash = P.node_hash
  end)

  module Proc_pool = Fd_util.Intern.Make (struct
    type t = P.proc

    let equal = P.proc_equal
    let hash = P.proc_hash
  end)

  module Fact_pool = Fd_util.Intern.Make (struct
    type t = P.fact

    let equal = P.fact_equal
    let hash = P.fact_hash
  end)

  module Int_tbl = Hashtbl.Make (Int)
  module Flat_set = Fd_util.Flat_set

  (* a context ⟨sp, d1⟩ with its path edges: the (n, d2) id pairs
     reached under it.  Items carry the canonical (pooled)
     representatives alongside their ids, so downstream flow functions
     hit the pools' [==] fast paths. *)
  type ctx = { c_sp_id : int; c_d1_id : int; c_edges : Flat_set.t }

  (* a worklist item: the path edge ⟨sp, d1⟩ → ⟨n, d2⟩ *)
  type item = {
    it_ctx : ctx;
    it_n : P.node;
    it_d2 : P.fact;
    it_n_id : int;
    it_d2_id : int;
  }

  (* the entries recorded for one id pair, newest first, and the set of
     the rest of their keys that keeps the list duplicate-free *)
  type 'a cell = { mutable entries : 'a list; seen : Flat_set.t }

  (* a node and a fact with their ids: an exit with the fact leaving
     it, or a call with the caller's fact *)
  type site = P.node * int * P.fact * int

  type t = {
    nodes : Node_pool.pool;
    procs : Proc_pool.pool;
    facts : Fact_pool.pool;
    (* the maps below are keyed on id pairs packed into one int
       ([Flat_set.pack]) *)
    (* contexts: (sp, d1) ids -> the context and its path edges *)
    ctxs : ctx Int_tbl.t;
    (* facts per node (the final analysis result): node id -> facts,
       with a flat (node, fact) seen set for dedup *)
    results_facts : P.fact list ref Int_tbl.t;
    results_seen : Flat_set.t;
    (* end summaries: (callee, entry fact) ids -> (exit, fact) pairs *)
    end_summaries : site cell Int_tbl.t;
    (* incoming: (callee, entry fact) ids -> caller-side (call, fact)
       pairs that entered that context *)
    incoming : site cell Int_tbl.t;
    (* caller contexts per call-site pair: (call, fact) ids -> the
       (sp, d1) contexts whose path edges reached the call with that
       fact.  Indexed, where the previous representation required a
       full-table scan per discovered summary. *)
    incoming_ctx : ctx cell Int_tbl.t;
    worklist : item Queue.t;
    budget : Fd_resilience.Budget.t;
  }

  let create ?(budget = Fd_resilience.Budget.unlimited ()) () =
    {
      nodes = Node_pool.create ~size:512 ();
      procs = Proc_pool.create ~size:64 ();
      facts = Fact_pool.create ~size:512 ();
      ctxs = Int_tbl.create 64;
      results_facts = Int_tbl.create 256;
      results_seen = Flat_set.create ();
      end_summaries = Int_tbl.create 64;
      incoming = Int_tbl.create 64;
      incoming_ctx = Int_tbl.create 256;
      worklist = Queue.create ();
      budget;
    }

  let int_cell tbl key =
    match Int_tbl.find_opt tbl key with
    | Some c -> c
    | None ->
        let c = ref [] in
        Int_tbl.replace tbl key c;
        c

  let cell_entries tbl (a, b) =
    match Int_tbl.find_opt tbl (Flat_set.pack a b) with
    | Some c -> c.entries
    | None -> []

  (* add [x] to the cell of the id pair [(p, q)], unless the cell
     already holds an entry whose key continues with [(a, b)]; true iff
     added *)
  let add_entry tbl (p, q) (a, b) x =
    let key = Flat_set.pack p q in
    let c =
      match Int_tbl.find_opt tbl key with
      | Some c -> c
      | None ->
          let c = { entries = []; seen = Flat_set.create () } in
          Int_tbl.replace tbl key c;
          c
    in
    if Flat_set.add c.seen a b then begin
      c.entries <- x :: c.entries;
      true
    end
    else false

  (* the context ⟨sp, d1⟩, created on first use *)
  let ctx t ~sp_id ~d1_id =
    let key = Flat_set.pack sp_id d1_id in
    match Int_tbl.find_opt t.ctxs key with
    | Some c -> c
    | None ->
        let c = { c_sp_id = sp_id; c_d1_id = d1_id; c_edges = Flat_set.create () } in
        Int_tbl.replace t.ctxs key c;
        c

  let record_result t n_id d d_id =
    if Flat_set.add t.results_seen n_id d_id then begin
      let c = int_cell t.results_facts n_id in
      c := d :: !c
    end

  (* propagate: add the path edge if new and enqueue; a duplicate is a
     saved worklist push (counted) *)
  let propagate t cx n d2 =
    let n_id = Node_pool.id t.nodes n in
    let n = Node_pool.value t.nodes n_id in
    let d2_id = Fact_pool.id t.facts d2 in
    let d2 = Fact_pool.value t.facts d2_id in
    let slot = Flat_set.probe cx.c_edges n_id d2_id in
    if slot < 0 then M.incr m_dedup_hits
    else if Fd_resilience.Budget.tick t.budget then begin
      Flat_set.add_at cx.c_edges slot n_id d2_id;
      M.incr m_path_edges;
      M.incr m_worklist_pushes;
      record_result t n_id d2 d2_id;
      Queue.add
        { it_ctx = cx; it_n = n; it_d2 = d2; it_n_id = n_id; it_d2_id = d2_id }
        t.worklist
    end

  let add_incoming t callee_key ((_, n_id, _, d_id) as call) =
    ignore (add_entry t.incoming callee_key (n_id, d_id) call)

  let add_ctx t call_key cx =
    ignore (add_entry t.incoming_ctx call_key (cx.c_sp_id, cx.c_d1_id) cx)

  let add_summary t callee_key ((_, e_id, _, d_id) as exit) =
    if add_entry t.end_summaries callee_key (e_id, d_id) exit then begin
      M.incr m_summaries;
      true
    end
    else false

  let process t (it : item) =
    let cx = it.it_ctx in
    let n = it.it_n and d2 = it.it_d2 in
    let propagate_src = propagate t cx in
    let callees = P.callees n in
    if callees <> [] then begin
      (* a call node with analysable targets *)
      List.iter
        (fun callee ->
          M.incr m_flow_call;
          let callee_id = Proc_pool.id t.procs callee in
          let entry_facts = P.call_flow n callee d2 in
          let s_callee = P.start_of callee in
          List.iter
            (fun d3 ->
              let d3_id = Fact_pool.id t.facts d3 in
              let d3 = Fact_pool.value t.facts d3_id in
              let callee_key = (callee_id, d3_id) in
              (* remember the caller context for later summaries *)
              add_incoming t callee_key (n, it.it_n_id, d2, it.it_d2_id);
              add_ctx t (it.it_n_id, it.it_d2_id) cx;
              (* seed the callee *)
              let sc_id = Node_pool.id t.nodes s_callee in
              let s_callee = Node_pool.value t.nodes sc_id in
              propagate t
                (ctx t ~sp_id:sc_id ~d1_id:d3_id)
                s_callee d3;
              (* apply already-known summaries *)
              List.iter
                (fun (e, _, d4, _) ->
                  M.incr m_summary_apps;
                  List.iter
                    (fun r ->
                      M.incr m_flow_return;
                      List.iter
                        (fun d5 -> propagate_src r d5)
                        (P.return_flow ~call:n ~callee ~exit:e ~return_site:r
                           d4))
                    (P.succs n))
                (cell_entries t.end_summaries callee_key))
            entry_facts)
        callees;
      (* call-to-return edge *)
      M.incr m_flow_c2r;
      List.iter
        (fun r ->
          List.iter (fun d3 -> propagate_src r d3) (P.call_to_return_flow n d2))
        (P.succs n)
    end
    else if P.is_exit n then begin
      (* install an end summary for this callee context and flow back
         into every caller context recorded in the incoming set *)
      let callee = P.proc_of n in
      let callee_id = Proc_pool.id t.procs callee in
      let callee_key = (callee_id, cx.c_d1_id) in
      if add_summary t callee_key (n, it.it_n_id, d2, it.it_d2_id) then begin
        List.iter
          (fun (c, c_id, _dc, dc_id) ->
            M.incr m_flow_return;
            (* the caller contexts that passed (c, dc) into this
               callee, via the index (no table scan) *)
            let ctxs = cell_entries t.incoming_ctx (c_id, dc_id) in
            List.iter
              (fun r ->
                List.iter
                  (fun d5 -> List.iter (fun cxc -> propagate t cxc r d5) ctxs)
                  (P.return_flow ~call:c ~callee ~exit:n ~return_site:r d2))
              (P.succs c))
          (cell_entries t.incoming callee_key)
      end
    end
    else begin
      (* plain intra-procedural node (includes calls with no analysable
         callee: their flow is the caller's business via normal_flow) *)
      M.incr m_flow_normal;
      List.iter
        (fun m ->
          List.iter (fun d3 -> propagate_src m d3) (P.normal_flow n d2))
        (P.succs n)
    end

  (* live byte size for the gauge: the flat seen-sets' allocated words,
     plus estimates for the association lists (~8 words a cell) and the
     per-pair records *)
  let table_bytes t =
    let lists tbl =
      Int_tbl.fold (fun _ cell acc -> acc + 3 + (8 * List.length !cell)) tbl 0
    in
    let cells tbl =
      Int_tbl.fold
        (fun _ c acc ->
          acc + 6 + Flat_set.words c.seen + (8 * List.length c.entries))
        tbl 0
    in
    (Int_tbl.fold (fun _ c acc -> acc + 9 + Flat_set.words c.c_edges) t.ctxs 0
    + Flat_set.words t.results_seen
    + lists t.results_facts + cells t.end_summaries + cells t.incoming
    + cells t.incoming_ctx)
    * (Sys.word_size / 8)

  (** [solve ?budget ~seeds ()] runs the tabulation to a fixed point
      (or until [budget] trips — check {!outcome} afterwards).  Each
      seed [(n, d)] asserts that [d] holds just before [n] (typically
      [(entry, zero)]). *)
  let solve ?budget ~seeds () =
    let t = create ?budget () in
    Flight.clear ();
    Flight.mark (Printf.sprintf "ifds.solve.start seeds=%d" (List.length seeds));
    List.iter
      (fun (n, d) ->
        let sp_id = Node_pool.id t.nodes (P.start_of (P.proc_of n)) in
        let z_id = Fact_pool.id t.facts P.zero in
        (* context: the zero fact at the procedure start; seeds are
           unconditional *)
        let cx = ctx t ~sp_id ~d1_id:z_id in
        propagate t cx n d;
        if not (P.fact_equal d P.zero) then propagate t cx n P.zero)
      seeds;
    while
      (not (Queue.is_empty t.worklist))
      && not (Fd_resilience.Budget.stopped t.budget)
    do
      let it = Queue.pop t.worklist in
      M.incr m_worklist_pops;
      Flight.record (fun () ->
          Printf.sprintf "ifds.pop n%d d%d" it.it_n_id it.it_d2_id);
      process t it
    done;
    M.set_int g_intern_nodes (Node_pool.size t.nodes);
    M.set_int g_intern_procs (Proc_pool.size t.procs);
    M.set_int g_intern_facts (Fact_pool.size t.facts);
    M.set_int g_intern_hits (Fact_pool.hits t.facts);
    M.set_int g_intern_misses (Fact_pool.misses t.facts);
    M.set_int g_bytes_tables (table_bytes t);
    t

  (** [outcome t] is the typed termination state of the solve
      ([Complete] unless the budget tripped). *)
  let outcome t = Fd_resilience.Budget.outcome t.budget

  (** [results_at t n] is every fact that may hold just before [n]. *)
  let results_at t n =
    match Node_pool.find_id t.nodes n with
    | None -> []
    | Some n_id -> (
        match Int_tbl.find_opt t.results_facts n_id with
        | None -> []
        | Some c -> !c)

  (** [edge_count t] is the number of discovered path edges (a size
      metric for benchmarks). *)
  let edge_count t =
    Int_tbl.fold (fun _ c acc -> acc + Flat_set.length c.c_edges) t.ctxs 0
end

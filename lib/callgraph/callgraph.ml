(** Call-graph construction.

    FlowDroid builds its call graph with Soot's Spark; our substitute
    offers the two classic algorithms Spark refines:

    - {b CHA} (class hierarchy analysis): a virtual call can dispatch
      to any override in the cone of the receiver's static type;
    - {b RTA} (rapid type analysis): additionally restricts receivers
      to classes actually instantiated in reachable code, computed as
      a fixed point.

    Both are computed on the fly from a set of entry points, so only
    reachable code contributes edges (the Naeem–Lhoták style
    "supergraph on demand" the paper relies on). *)

open Fd_ir
module M = Fd_obs.Metrics

let m_sites = M.counter "cg.call_sites_resolved"
let m_iterations = M.counter "cg.fixpoint_iterations"
let g_reachable = M.gauge "cg.reachable_methods"
let g_edges = M.gauge "cg.edges"
let g_instantiated = M.gauge "cg.instantiated_classes"

type algorithm = Cha | Rta

type call_edge = {
  ce_caller : Mkey.t;
  ce_stmt : int;  (** call-site statement index in the caller *)
  ce_target : Mkey.t;
}

type t = {
  cg_scene : Scene.t;
  cg_algorithm : algorithm;
  cg_entry : Mkey.t list;
  (* call site -> resolved targets *)
  cg_out : (Mkey.t * int, Mkey.t list) Hashtbl.t;
  (* callee -> call sites *)
  cg_in : (Mkey.t, (Mkey.t * int) list) Hashtbl.t;
  cg_reachable : unit Mkey.Tbl.t;
  cg_bodies : Body.t Mkey.Tbl.t;
  (* precision-pass edge tables, kept apart from [cg_out] so the
     default library model of unresolved calls (and every flags-off
     code path) is untouched.  Empty unless the corresponding pass is
     enabled at build time. *)
  cg_clinit : (Mkey.t * int, Mkey.t list) Hashtbl.t;
      (* first-use static-access site -> <clinit> methods it triggers *)
  cg_refl : (Mkey.t * int, Mkey.t list) Hashtbl.t;
      (* Method.invoke site -> constant-string-resolved targets *)
}

let find_body scene (k : Mkey.t) =
  match Scene.find_class scene k.Mkey.mk_class with
  | None -> None
  | Some c -> (
      match
        List.find_opt
          (fun (m : Jclass.jmethod) ->
            m.Jclass.jm_sig.Types.m_name = k.Mkey.mk_name
            && List.length m.Jclass.jm_sig.Types.m_params = k.Mkey.mk_arity)
          c.Jclass.c_methods
      with
      | Some m -> m.Jclass.jm_body
      | None -> None)

(* resolve the possible targets of one invoke *)
let resolve_invoke scene algorithm ~instantiated (inv : Stmt.invoke) =
  let subsig =
    (inv.Stmt.i_sig.Types.m_name, inv.Stmt.i_sig.Types.m_params)
  in
  let cls = inv.Stmt.i_sig.Types.m_class in
  match inv.Stmt.i_kind with
  | Stmt.Static | Stmt.Special -> (
      match Scene.resolve_concrete scene cls subsig with
      | Some (decl, m) when Jclass.has_body m -> [ Mkey.of_method decl m ]
      | _ -> [])
  | Stmt.Virtual ->
      Scene.dispatch_targets scene ~static_type:cls subsig
      |> List.filter_map (fun (decl, m) ->
             if not (Jclass.has_body m) then None
             else
               match algorithm with
               | Cha -> Some (Mkey.of_method decl m)
               | Rta ->
                   (* keep the target if some instantiated class
                      dispatches to this declaration *)
                   let reaches =
                     Hashtbl.fold
                       (fun inst () acc ->
                         acc
                         || Scene.is_subtype scene inst cls
                            &&
                            match Scene.resolve_concrete scene inst subsig with
                            | Some (d, _) -> d.Jclass.c_name = decl.Jclass.c_name
                            | None -> false)
                       instantiated false
                   in
                   if reaches then Some (Mkey.of_method decl m) else None)

(* the <clinit> key of a class, when it has one with a body *)
let clinit_key scene cls =
  let k = { Mkey.mk_class = cls; mk_name = "<clinit>"; mk_arity = 0 } in
  match find_body scene k with Some _ -> Some k | None -> None

(* the classes whose static members one statement touches: an
   allocation, a static field access, or a static invoke — the JVM's
   <clinit> trigger events (JLS 12.4.1) *)
let static_use_classes (s : Stmt.t) : string list =
  let of_lv = function Stmt.Lstatic f -> [ f.Types.f_class ] | _ -> [] in
  let of_expr = function
    | Stmt.Enew c -> [ c ]
    | Stmt.Estatic f -> [ f.Types.f_class ]
    | _ -> []
  in
  let of_inv = function
    | Some ({ Stmt.i_kind = Stmt.Static; _ } as inv) ->
        [ inv.Stmt.i_sig.Types.m_class ]
    | _ -> []
  in
  match s.Stmt.s_kind with
  | Stmt.Assign (lv, e) ->
      of_lv lv @ of_expr e @ of_inv (Stmt.invoke_of s)
  | _ -> of_inv (Stmt.invoke_of s)

(* resolve one reflective Method.invoke site against the scene using
   the intraprocedural constant propagation: the receiver must be a
   Method handle with a known (class, name), and the target's arity is
   the argument count minus the leading this-argument — mirroring the
   interpreter's concrete [invoke] model *)
let resolve_reflective scene cp (s : Stmt.t) (inv : Stmt.invoke) :
    Mkey.t list =
  match inv.Stmt.i_recv with
  | None -> []
  | Some r -> (
      match Fd_precision.Const_prop.value_at cp ~at:s.Stmt.s_idx r with
      | Some (Fd_precision.Const_prop.Vmethod (cls, name)) -> (
          let arity = max 0 (List.length inv.Stmt.i_args - 1) in
          let params = List.init arity (fun _ -> Types.Ref Types.object_class) in
          match Scene.resolve_concrete scene cls (name, params) with
          | Some (decl, m) when Jclass.has_body m -> [ Mkey.of_method decl m ]
          | _ -> [])
      | _ -> [])

(** [build scene ~entry ?algorithm ?clinit_first_use ?reflection ()]
    computes the call graph reachable from [entry].  For {!Rta} the
    instantiated-class set and the reachable set are iterated to a
    joint fixed point.  [clinit_first_use] and [reflection] enable the
    precision-pass edge tables ({!clinit_callees}, {!refl_callees}):
    first-use-site [<clinit>] edges and constant-string-resolved
    reflective call edges; both default to off and leave [cg_out]
    untouched. *)
let build scene ~entry ?(algorithm = Cha) ?(clinit_first_use = false)
    ?(reflection = false) () =
  Fd_obs.Trace.with_span "callgraph.build" @@ fun () ->
  let cg =
    {
      cg_scene = scene;
      cg_algorithm = algorithm;
      cg_entry = entry;
      cg_out = Hashtbl.create 16;
      cg_in = Hashtbl.create 16;
      cg_reachable = Mkey.Tbl.create 16;
      cg_bodies = Mkey.Tbl.create 16;
      cg_clinit = Hashtbl.create (if clinit_first_use then 64 else 1);
      cg_refl = Hashtbl.create (if reflection then 64 else 1);
    }
  in
  (* constant-propagation results per method, shared across fixpoint
     iterations (bodies are immutable) *)
  let cp_cache : Fd_precision.Const_prop.t Mkey.Tbl.t = Mkey.Tbl.create 16 in
  let const_prop_of k body =
    match Mkey.Tbl.find_opt cp_cache k with
    | Some cp -> cp
    | None ->
        let cp = Fd_precision.Const_prop.analyze body in
        Mkey.Tbl.replace cp_cache k cp;
        cp
  in
  let instantiated : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  (* entry-point receivers count as instantiated for RTA *)
  List.iter
    (fun (k : Mkey.t) -> Hashtbl.replace instantiated k.Mkey.mk_class ())
    entry;
  let changed = ref true in
  (* iterate the whole construction until stable; needed for RTA where
     later-discovered allocations enable earlier virtual sites *)
  while !changed do
    changed := false;
    M.incr m_iterations;
    Mkey.Tbl.reset cg.cg_reachable;
    Hashtbl.reset cg.cg_out;
    Hashtbl.reset cg.cg_in;
    Hashtbl.reset cg.cg_clinit;
    Hashtbl.reset cg.cg_refl;
    let worklist = Queue.create () in
    let reach k =
      if not (Mkey.Tbl.mem cg.cg_reachable k) then begin
        Mkey.Tbl.replace cg.cg_reachable k ();
        Queue.add k worklist
      end
    in
    let add_in tgt site =
      let prev = Option.value (Hashtbl.find_opt cg.cg_in tgt) ~default:[] in
      Hashtbl.replace cg.cg_in tgt (site :: prev)
    in
    List.iter reach entry;
    while not (Queue.is_empty worklist) do
      let k = Queue.pop worklist in
      match
        match Mkey.Tbl.find_opt cg.cg_bodies k with
        | Some b -> Some b
        | None ->
            let b = find_body scene k in
            Option.iter (fun b -> Mkey.Tbl.replace cg.cg_bodies k b) b;
            b
      with
      | None -> ()
      | Some body ->
          (* classes whose <clinit> edge this method already owns: the
             pass places the edge at the *first* use per class *)
          let clinit_seen = Hashtbl.create 4 in
          Body.iter body (fun s ->
              (* record allocations for RTA *)
              (match s.Stmt.s_kind with
              | Stmt.Assign (_, Stmt.Enew c) ->
                  if not (Hashtbl.mem instantiated c) then begin
                    Hashtbl.replace instantiated c ();
                    changed := true
                  end
              | _ -> ());
              if clinit_first_use then begin
                let triggered =
                  List.filter_map
                    (fun c ->
                      (* a method of C never re-triggers C's own
                         initialiser (it is already running or done) *)
                      if
                        String.equal c k.Mkey.mk_class
                        || Hashtbl.mem clinit_seen c
                      then None
                      else begin
                        Hashtbl.replace clinit_seen c ();
                        clinit_key scene c
                      end)
                    (static_use_classes s)
                in
                if triggered <> [] then begin
                  Hashtbl.replace cg.cg_clinit (k, s.Stmt.s_idx) triggered;
                  List.iter
                    (fun tgt ->
                      add_in tgt (k, s.Stmt.s_idx);
                      reach tgt)
                    triggered
                end
              end;
              match Stmt.invoke_of s with
              | None -> ()
              | Some inv ->
                  let targets =
                    resolve_invoke scene algorithm ~instantiated inv
                  in
                  if targets <> [] then begin
                    M.incr m_sites;
                    Hashtbl.replace cg.cg_out (k, s.Stmt.s_idx) targets;
                    List.iter
                      (fun tgt ->
                        add_in tgt (k, s.Stmt.s_idx);
                        reach tgt)
                      targets
                  end;
                  if
                    reflection
                    && inv.Stmt.i_sig.Types.m_class = "java.lang.reflect.Method"
                    && inv.Stmt.i_sig.Types.m_name = "invoke"
                  then begin
                    let rtargets =
                      resolve_reflective scene (const_prop_of k body) s inv
                    in
                    if rtargets <> [] then begin
                      Hashtbl.replace cg.cg_refl (k, s.Stmt.s_idx) rtargets;
                      List.iter
                        (fun tgt ->
                          add_in tgt (k, s.Stmt.s_idx);
                          reach tgt)
                        rtargets
                    end
                  end)
    done;
    (* CHA converges in one pass *)
    if algorithm = Cha then changed := false
  done;
  M.set_int g_reachable (Mkey.Tbl.length cg.cg_reachable);
  M.set_int g_edges
    (Hashtbl.fold (fun _ tgts acc -> acc + List.length tgts) cg.cg_out 0);
  M.set_int g_instantiated (Hashtbl.length instantiated);
  cg

(** [callees cg caller stmt_idx] is the resolved targets of the call
    site, empty when the call resolves only into the framework. *)
let callees cg caller stmt_idx =
  Option.value (Hashtbl.find_opt cg.cg_out (caller, stmt_idx)) ~default:[]

(** [clinit_callees cg caller stmt_idx] — the [<clinit>] methods the
    statement triggers under first-use placement; empty unless the
    graph was built with [~clinit_first_use:true]. *)
let clinit_callees cg caller stmt_idx =
  Option.value (Hashtbl.find_opt cg.cg_clinit (caller, stmt_idx)) ~default:[]

(** [refl_callees cg caller stmt_idx] — constant-string-resolved
    reflective targets of a [Method.invoke] site; empty unless the
    graph was built with [~reflection:true]. *)
let refl_callees cg caller stmt_idx =
  Option.value (Hashtbl.find_opt cg.cg_refl (caller, stmt_idx)) ~default:[]

(** [clinit_sites cg callee] — every (caller, stmt) site whose
    first-use edge triggers [callee] (a [<clinit>] method). *)
let clinit_sites cg callee =
  Hashtbl.fold
    (fun site tgts acc ->
      if List.exists (Mkey.equal callee) tgts then site :: acc else acc)
    cg.cg_clinit []

(** [refl_sites cg callee] — every reflective call site resolving to
    [callee]. *)
let refl_sites cg callee =
  Hashtbl.fold
    (fun site tgts acc ->
      if List.exists (Mkey.equal callee) tgts then site :: acc else acc)
    cg.cg_refl []

(** [callers cg callee] is the call sites that may invoke [callee]. *)
let callers cg callee =
  Option.value (Hashtbl.find_opt cg.cg_in callee) ~default:[]

(** [is_reachable cg k] holds when [k] is transitively callable from
    the entry points. *)
let is_reachable cg k = Mkey.Tbl.mem cg.cg_reachable k

(** [reachable_methods cg] lists all reachable methods. *)
let reachable_methods cg =
  Mkey.Tbl.fold (fun k () acc -> k :: acc) cg.cg_reachable []

(** [body_of cg k] is the body of a reachable method.
    @raise Not_found for unreachable or bodyless methods. *)
let body_of cg k =
  match Mkey.Tbl.find_opt cg.cg_bodies k with
  | Some b -> b
  | None -> (
      match find_body cg.cg_scene k with
      | Some b ->
          Mkey.Tbl.replace cg.cg_bodies k b;
          b
      | None -> raise Not_found)

(** [edge_count cg] is the number of distinct (site, target) edges. *)
let edge_count cg =
  Hashtbl.fold (fun _ tgts acc -> acc + List.length tgts) cg.cg_out 0

(** [cg_scene cg] is the scene the graph was built over. *)
let cg_scene cg = cg.cg_scene

(** The scene: the global class table and class-hierarchy queries.

    Mirrors Soot's [Scene].  Classes referenced but never defined
    (framework classes beyond the modelled skeleton, third-party
    libraries) are treated as *phantom*: they exist in the hierarchy
    directly below [java.lang.Object] unless a skeleton entry says
    otherwise, and their methods have no bodies.

    [supertypes], [subtypes], [dispatch_targets] and [resolve_concrete]
    are memoised: call graphs are rebuilt several times per app
    (callback discovery iterates), and every virtual site asks for its
    dispatch cone on each build.  Registering a class C keeps every
    memo entry whose answer cannot change:

    - when no registered class names C as its direct superclass or an
      interface, only C's own supertypes, the [resolve_concrete]
      entries starting at C, and the [subtypes] and [dispatch_targets]
      entries keyed on one of C's old or new supertypes are dropped.
      No other class reaches C through the hierarchy, so no other
      answer mentions it;
    - when some registered class does name C (a count per name, kept
      in [named]), or when the class table grows its bucket array
      (which reorders [Hashtbl] folds, and [subtypes] lists follow
      that order), every memo is cleared. *)

open Jclass

type t = {
  classes : (string, Jclass.t) Hashtbl.t;
  named : (string, int) Hashtbl.t;
      (** how often registered classes name each class as their direct
          superclass or an interface *)
  sc_supertypes : (string, string list) Hashtbl.t;
  sc_subtypes : (string, Jclass.t list) Hashtbl.t;
  sc_dispatch :
    (string * string * Types.typ list, (Jclass.t * Jclass.jmethod) list)
    Hashtbl.t;
  sc_concrete :
    (string * string * Types.typ list, (Jclass.t * Jclass.jmethod) option)
    Hashtbl.t;
}

exception Duplicate_class of string

let initial_size = 97

let create () =
  {
    classes = Hashtbl.create initial_size;
    named = Hashtbl.create 97;
    sc_supertypes = Hashtbl.create 97;
    sc_subtypes = Hashtbl.create 97;
    sc_dispatch = Hashtbl.create 97;
    sc_concrete = Hashtbl.create 97;
  }

(** [copy t] is an independent scene with the same classes: mutations
    of either copy never affect the other.  [Jclass.t] values are
    immutable, so the class table is copied shallowly; the memo caches
    are still valid for the copied table and are copied with it. *)
let copy t =
  {
    classes = Hashtbl.copy t.classes;
    named = Hashtbl.copy t.named;
    sc_supertypes = Hashtbl.copy t.sc_supertypes;
    sc_subtypes = Hashtbl.copy t.sc_subtypes;
    sc_dispatch = Hashtbl.copy t.sc_dispatch;
    sc_concrete = Hashtbl.copy t.sc_concrete;
  }

let invalidate t =
  Hashtbl.reset t.sc_supertypes;
  Hashtbl.reset t.sc_subtypes;
  Hashtbl.reset t.sc_dispatch;
  Hashtbl.reset t.sc_concrete

(** [find_class t name] is the registered class, if any. *)
let find_class t name = Hashtbl.find_opt t.classes name

(** [mem t name] holds when [name] is registered. *)
let mem t name = Hashtbl.mem t.classes name

(** [all_classes t] lists every registered class (unspecified order). *)
let all_classes t = Hashtbl.fold (fun _ c acc -> c :: acc) t.classes []

(** [application_classes t] lists non-phantom classes: the code under
    analysis. *)
let application_classes t =
  List.filter (fun c -> not c.c_phantom) (all_classes t)

(** [superclasses t name] is the chain of strict superclasses of
    [name], nearest first, ending at [java.lang.Object].  Cycles in
    malformed input are cut off rather than looping. *)
let superclasses t name =
  let rec go seen acc name =
    match find_class t name with
    | Some { c_super = Some s; _ } when not (List.mem s seen) ->
        go (s :: seen) (s :: acc) s
    | Some _ -> acc
    | None ->
        if name = Types.object_class || List.mem Types.object_class seen then
          acc
        else Types.object_class :: acc
  in
  List.rev (go [ name ] [] name)

let rec interfaces_closure t seen name =
  if List.mem name !seen then ()
  else begin
    seen := name :: !seen;
    match find_class t name with
    | None -> ()
    | Some c ->
        List.iter (interfaces_closure t seen) c.c_interfaces;
        (match c.c_super with
        | Some s -> interfaces_closure t seen s
        | None -> ())
  end

(** [supertypes t name] is all strict and non-strict supertypes of
    [name]: the class itself, its superclasses, and all transitively
    implemented interfaces. *)
let supertypes t name =
  match Hashtbl.find_opt t.sc_supertypes name with
  | Some sups -> sups
  | None ->
      let seen = ref [] in
      interfaces_closure t seen name;
      let sups =
        if List.mem Types.object_class !seen then !seen
        else Types.object_class :: !seen
      in
      Hashtbl.replace t.sc_supertypes name sups;
      sups

(* the classes [c] names as its direct superclass or an interface *)
let named_by (c : Jclass.t) =
  match c.c_super with Some s -> s :: c.c_interfaces | None -> c.c_interfaces

let count_named t (c : Jclass.t) delta =
  List.iter
    (fun n ->
      match Option.value (Hashtbl.find_opt t.named n) ~default:0 + delta with
      | 0 -> Hashtbl.remove t.named n
      | k -> Hashtbl.replace t.named n k)
    (named_by c)

let bucket_count t = (Hashtbl.stats t.classes).Hashtbl.num_buckets

(* registers [c] and drops the memo entries it can change (see the
   header).  The stdlib grows a table when an insertion takes its
   size past twice its bucket count, a power of two no smaller than
   the size the table was created with.  So only an insertion into a
   class table of power-of-two size, at least twice [initial_size],
   can grow it; the bucket count is read just then. *)
let register t (c : Jclass.t) =
  let name = c.c_name in
  let old = Hashtbl.find_opt t.classes name in
  let n = Hashtbl.length t.classes in
  let buckets =
    if Option.is_none old && n >= 2 * initial_size && n land (n - 1) = 0 then
      bucket_count t
    else -1
  in
  let named = Hashtbl.mem t.named name in
  let cones = Hashtbl.length t.sc_subtypes + Hashtbl.length t.sc_dispatch > 0 in
  (* a new class's old supertypes are itself and [java.lang.Object],
     which its new ones include *)
  let before =
    match old with Some _ when cones && not named -> supertypes t name | _ -> []
  in
  Option.iter (fun o -> count_named t o (-1)) old;
  count_named t c 1;
  Hashtbl.replace t.classes name c;
  if named || (buckets >= 0 && bucket_count t <> buckets) then invalidate t
  else begin
    Hashtbl.remove t.sc_supertypes name;
    if cones then begin
      let keys = List.rev_append before (supertypes t name) in
      List.iter (Hashtbl.remove t.sc_subtypes) keys;
      Hashtbl.filter_map_inplace
        (fun (st, _, _) ts -> if List.mem st keys then None else Some ts)
        t.sc_dispatch
    end;
    if Hashtbl.length t.sc_concrete > 0 then
      Hashtbl.filter_map_inplace
        (fun (cls, _, _) r -> if String.equal cls name then None else Some r)
        t.sc_concrete
  end

(** [add_class t c] registers [c].
    @raise Duplicate_class if a class of the same name exists. *)
let add_class t (c : Jclass.t) =
  if Hashtbl.mem t.classes c.c_name then raise (Duplicate_class c.c_name);
  register t c

(** [add_or_replace t c] registers [c], replacing any previous
    definition — used to upgrade a phantom skeleton entry to a real
    class. *)
let add_or_replace t (c : Jclass.t) = register t c

(** [resolve t name] is like {!find_class} but materialises a phantom
    class (extending [java.lang.Object]) on a miss. *)
let resolve t name =
  match Hashtbl.find_opt t.classes name with
  | Some c -> c
  | None ->
      let c = Jclass.mk ~phantom:true name in
      register t c;
      c

(** [is_subtype t sub sup] decides the subtype relation, treating every
    class as a subtype of [java.lang.Object] and of itself. *)
let is_subtype t sub sup =
  String.equal sub sup
  || String.equal sup Types.object_class
  || List.mem sup (supertypes t sub)

(** [subtypes t name] is every *registered* class that is a subtype of
    [name] (including [name] itself if registered).  This is the
    class-cone CHA uses to enumerate dispatch targets. *)
let subtypes t name =
  match Hashtbl.find_opt t.sc_subtypes name with
  | Some subs -> subs
  | None ->
      let subs =
        List.filter (fun c -> is_subtype t c.c_name name) (all_classes t)
      in
      Hashtbl.replace t.sc_subtypes name subs;
      subs

(** [resolve_concrete t cls subsig] walks the superclass chain starting
    at [cls] looking for a concrete (non-abstract) declaration of
    [subsig]; this is runtime virtual dispatch for an exact receiver
    class. *)
let resolve_concrete t cls (name, params) =
  let key = (cls, name, params) in
  match Hashtbl.find_opt t.sc_concrete key with
  | Some r -> r
  | None ->
      let rec go cls =
        match find_class t cls with
        | None -> None
        | Some c -> (
            match Jclass.find_method c name params with
            | Some m when not m.jm_abstract -> Some (c, m)
            | _ -> ( match c.c_super with Some s -> go s | None -> None))
      in
      let r = go cls in
      Hashtbl.replace t.sc_concrete key r;
      r

(** [resolve_concrete_named t cls name] is {!resolve_concrete} matching
    on the method name only (used where parameter types are not
    statically known). *)
let resolve_concrete_named t cls name =
  let rec go cls =
    match find_class t cls with
    | None -> None
    | Some c -> (
        match Jclass.find_method_named c name with
        | Some m when not m.jm_abstract -> Some (c, m)
        | _ -> ( match c.c_super with Some s -> go s | None -> None))
  in
  go cls

(** [dispatch_targets t ~static_type subsig] enumerates the concrete
    methods a virtual call with declared receiver type [static_type]
    may dispatch to, per Class Hierarchy Analysis: for every registered
    subtype of [static_type], the concrete resolution of [subsig].
    Duplicates (inherited methods shared by several subclasses) are
    collapsed. *)
let rec dispatch_targets t ~static_type ((name, params) as subsig) =
  match Hashtbl.find_opt t.sc_dispatch (static_type, name, params) with
  | Some ts -> ts
  | None ->
      let ts = dispatch_targets_uncached t ~static_type subsig in
      Hashtbl.replace t.sc_dispatch (static_type, name, params) ts;
      ts

and dispatch_targets_uncached t ~static_type ((name, params) as subsig) =
  ignore params;
  let seen = Hashtbl.create 7 in
  let cone = subtypes t static_type in
  let cone =
    (* the static type itself might be unregistered (phantom on the fly) *)
    if List.exists (fun c -> c.c_name = static_type) cone then cone
    else
      match find_class t static_type with
      | Some c -> c :: cone
      | None -> cone
  in
  List.filter_map
    (fun c ->
      if c.c_is_interface then None
      else
        match resolve_concrete t c.c_name subsig with
        | Some (decl, m) ->
            let key = (decl.c_name, name) in
            if Hashtbl.mem seen key then None
            else begin
              Hashtbl.replace seen key ();
              Some (decl, m)
            end
        | None -> None)
    cone

(** [find_method t msig] resolves a method signature to its declaration
    by exact class lookup followed by a walk up the hierarchy. *)
let find_method t (msig : Types.method_sig) =
  match
    resolve_concrete t msig.m_class (msig.m_name, msig.m_params)
  with
  | Some (c, m) -> Some (c, m)
  | None -> (
      (* abstract/interface declarations still resolve for signature
         purposes *)
      match find_class t msig.m_class with
      | Some c -> (
          match Jclass.find_method c msig.m_name msig.m_params with
          | Some m -> Some (c, m)
          | None -> None)
      | None -> None)

(** [methods_with_bodies t] lists every (class, method) pair carrying
    code, the analysable universe. *)
let methods_with_bodies t =
  List.concat_map
    (fun c ->
      List.filter_map
        (fun m -> if Jclass.has_body m then Some (c, m) else None)
        c.c_methods)
    (all_classes t)

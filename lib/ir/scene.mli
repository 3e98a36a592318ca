(** The scene: the global class table and class-hierarchy queries
    (mirrors Soot's [Scene]).

    Classes referenced but never defined (framework classes beyond the
    modelled skeleton, third-party libraries) are treated as
    {e phantom}: they exist in the hierarchy directly below
    [java.lang.Object] unless a skeleton entry says otherwise, and
    their methods have no bodies.

    {!supertypes}, {!subtypes}, {!dispatch_targets} and
    {!resolve_concrete} are memoised.  Registering a class ({!add_class},
    {!add_or_replace}, or {!resolve} on a miss) drops only the memo
    entries whose answer it can change, unless another registered
    class names it as its direct superclass or an interface, or the
    class table grows its bucket array; then every memo is cleared.
    Answers never depend on the memo's history. *)

type t

exception Duplicate_class of string

val create : unit -> t

val copy : t -> t
(** an independent scene with the same classes; mutations of either
    copy never affect the other (used to stamp out per-app scenes from
    the framework-skeleton template) *)

val add_class : t -> Jclass.t -> unit
(** registers a class.  Of the memo, it drops the class's own
    supertypes and [resolve_concrete] entries, and the [subtypes] and
    [dispatch_targets] entries keyed on one of its supertypes; it
    clears the whole memo when a registered class names the new one as
    its direct superclass or an interface, or when the class table
    grows.
    @raise Duplicate_class if a class of the same name exists. *)

val add_or_replace : t -> Jclass.t -> unit
(** registers a class, replacing any previous definition — used to
    upgrade a phantom skeleton entry or regenerate the dummy main.
    Drops memo entries as {!add_class} does, keyed on the supertypes
    of both the old and the new definition. *)

val find_class : t -> string -> Jclass.t option
val mem : t -> string -> bool

val resolve : t -> string -> Jclass.t
(** like {!find_class}, materialising a phantom class on a miss *)

val all_classes : t -> Jclass.t list
(** every registered class, unspecified order *)

val application_classes : t -> Jclass.t list
(** non-phantom classes: the code under analysis *)

val superclasses : t -> string -> string list
(** the chain of strict superclasses, nearest first, ending at
    [java.lang.Object]; cycles in malformed input are cut off *)

val supertypes : t -> string -> string list
(** all strict and non-strict supertypes: the class itself, its
    superclasses, and all transitively implemented interfaces *)

val is_subtype : t -> string -> string -> bool
(** [is_subtype t sub sup] — reflexive; everything is a subtype of
    [java.lang.Object] *)

val subtypes : t -> string -> Jclass.t list
(** every registered class that is a subtype of the given one: the
    class cone CHA enumerates dispatch targets over *)

val resolve_concrete :
  t -> string -> string * Types.typ list -> (Jclass.t * Jclass.jmethod) option
(** [resolve_concrete t cls (name, params)] walks the superclass chain
    from [cls] to the nearest concrete declaration — runtime virtual
    dispatch for an exact receiver class.  Matching is by name and
    arity (see DESIGN.md). *)

val resolve_concrete_named :
  t -> string -> string -> (Jclass.t * Jclass.jmethod) option
(** {!resolve_concrete} matching on the method name only *)

val dispatch_targets :
  t ->
  static_type:string ->
  string * Types.typ list ->
  (Jclass.t * Jclass.jmethod) list
(** CHA: the concrete methods a virtual call with the given declared
    receiver type may dispatch to, deduplicated *)

val find_method :
  t -> Types.method_sig -> (Jclass.t * Jclass.jmethod) option
(** resolve a method signature by exact class lookup followed by a
    walk up the hierarchy *)

val methods_with_bodies : t -> (Jclass.t * Jclass.jmethod) list
(** every (class, method) pair carrying code: the analysable
    universe *)

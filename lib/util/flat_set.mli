(** Open-addressing sets of integer-id pairs: the seen-sets of the
    IFDS solvers (path edges, end summaries, incoming sets).

    Every key is two ids, each in [[0, max_id]].  The set packs a key
    into one int ([pack]) and stores it in one slot of a flat int
    array, so a lookup or an insertion is one linear probe over
    unboxed ints: no tuple, no bucket cell, no allocation outside
    resizes.  Sets start at 8 slots (9 words with the header, small
    enough for the minor heap) and double before their load would
    exceed 3/4.

    The solvers keep one set per context and table, so a key is the
    rest of the tabulation key: (node, fact) for path edges and
    summaries, (call node, caller context) for incoming sets.  Packing
    needs 63-bit native ints (a 64-bit platform).  Sets are not
    thread-safe; each solver owns its own. *)

type t

val max_id : int
(** [2{^31} - 1], the largest id a key may hold *)

val pack : int -> int -> int
(** [pack a b] is the one int holding ids [a] and [b].
    @raise Invalid_argument when either id lies outside
    [[0, max_id]] — it would alias another pair. *)

val fst : int -> int
(** [fst (pack a b) = a] *)

val snd : int -> int
(** [snd (pack a b) = b] *)

val create : unit -> t
(** an empty set of 8 slots *)

val add : t -> int -> int -> bool
(** [add s a b] inserts the key [(a, b)] and is [true] iff it was not
    yet present.
    @raise Invalid_argument when an id lies outside [[0, max_id]]. *)

val mem : t -> int -> int -> bool
(** [mem s a b] is whether [(a, b)] was added.
    @raise Invalid_argument when an id lies outside [[0, max_id]]. *)

val probe : t -> int -> int -> int
(** [probe s a b] is [-1] when [(a, b)] is present, and otherwise the
    free slot where {!add_at} places it: the first half of an
    insertion that the caller may still decline, for one probe where
    [mem] then [add] would take two.
    @raise Invalid_argument when an id lies outside [[0, max_id]]. *)

val add_at : t -> int -> int -> int -> unit
(** [add_at s i a b] inserts the absent key [(a, b)], where [i] is
    what [probe s a b] returned with no insertion into [s] since.
    @raise Invalid_argument when slot [i] is not free. *)

val length : t -> int
(** the number of keys *)

val words : t -> int
(** the words the slot array occupies (one per slot, empty or not) *)

(** Open-addressing sets of integer-id quadruples: the seen-sets of
    the IFDS solvers (path edges, end summaries, incoming sets).

    Every key is four ids, each in [[0, max_id]].  The set packs them
    two per int ([pack]) and stores each key as two ints side by side
    in one flat array, so a lookup or an insertion is one linear probe
    over unboxed ints: no tuple, no bucket cell, no allocation outside
    resizes.  Tables start at 16 slots (32 words, small enough for the
    minor heap) and double before their load would exceed 3/4.

    A solver with fewer than four ids per key passes [0] for the
    unused positions.  Packing needs 63-bit native ints (a 64-bit
    platform).  Sets are not thread-safe; each solver owns its own. *)

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
(** an empty set of 16 slots *)

val add : t -> int -> int -> int -> int -> bool
(** [add s a b c d] inserts the key [(a, b, c, d)] and is [true] iff
    it was not yet present.
    @raise Invalid_argument when an id lies outside [[0, max_id]]. *)

val mem : t -> int -> int -> int -> int -> bool
(** [mem s a b c d] is whether [(a, b, c, d)] was added.
    @raise Invalid_argument when an id lies outside [[0, max_id]]. *)

val length : t -> int
(** the number of keys *)

val words : t -> int
(** the words the slot array occupies (two per slot, empty or not) *)

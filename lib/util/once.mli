(** Domain-safe once-cells: a shared value built on first use.

    A stdlib [lazy] forced from two domains at once raises
    [CamlinternalLazy.Undefined] in the one that loses the race.  A
    once-cell runs its builder exactly once under a lock: a domain
    that arrives while another is building waits for the value.  After
    that, a force is one atomic read.  Values kept in a cell must be
    read-only, since every domain shares them. *)

type 'a t

val make : (unit -> 'a) -> 'a t
(** [make f] is a cell that [force] fills with [f ()] *)

val force : 'a t -> 'a
(** [force c] is the cell's value, built by the first caller.  When the
    builder raised, every force raises the same exception.  A builder
    that forces its own cell fails with [Sys_error] (the lock is
    already held). *)

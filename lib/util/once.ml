(** Domain-safe once-cells (see the interface). *)

type 'a state =
  | Pending of (unit -> 'a)
  | Ready of 'a
  | Failed of exn * Printexc.raw_backtrace

type 'a t = { state : 'a state Atomic.t; lock : Mutex.t }

let make f = { state = Atomic.make (Pending f); lock = Mutex.create () }

let force c =
  match Atomic.get c.state with
  | Ready v -> v
  | Pending _ | Failed _ ->
      Mutex.protect c.lock (fun () ->
          match Atomic.get c.state with
          | Ready v -> v
          | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
          | Pending f -> (
              match f () with
              | v ->
                  Atomic.set c.state (Ready v);
                  v
              | exception e ->
                  let bt = Printexc.get_raw_backtrace () in
                  Atomic.set c.state (Failed (e, bt));
                  Printexc.raise_with_backtrace e bt))

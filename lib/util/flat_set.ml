(** Open-addressing sets of integer-id pairs (see the interface for
    the layout and its rationale). *)

let max_id = (1 lsl 31) - 1

(* one test for both ids: a negative id or one of 2^31 or more has a
   bit set at position 31 or above *)
let check a b =
  if (a lor b) lsr 31 <> 0 then
    invalid_arg
      (Printf.sprintf "Flat_set: id outside [0, 2^31) in (%d, %d)" a b)

let pack a b =
  check a b;
  (a lsl 31) lor b

let fst k = k lsr 31
let snd k = k land max_id

(* each slot holds one packed key; a packed key is never negative, so
   [-1] marks an empty slot *)
type t = { mutable slots : int array; mutable count : int }

let empty = -1
let create () = { slots = Array.make 8 empty; count = 0 }
let length s = s.count
let words s = Array.length s.slots

(* multiply-xorshift mix (the 64-bit golden ratio and splitmix64
   multipliers, truncated to OCaml's 63-bit ints): the first product's
   low bits see only the key's low bits, so its high half is folded
   down before the second; the caller masks the low bits *)
let hash k =
  let h = k * 0x1e3779b97f4a7c15 in
  let h = (h lxor (h lsr 32)) * 0x3f58476d1ce4e5b9 in
  h lxor (h lsr 29)

(* the slot holding [k], or the empty slot that ends its probe
   sequence, searching from slot [i]; top-level rather than a local
   closure, so a probe allocates nothing *)
let rec probe_from slots mask k i =
  let x = Array.unsafe_get slots i in
  if x = empty || x = k then i else probe_from slots mask k ((i + 1) land mask)

let slot_of slots k =
  let mask = Array.length slots - 1 in
  probe_from slots mask k (hash k land mask)

let grow s =
  let old = s.slots in
  let slots = Array.make (2 * Array.length old) empty in
  Array.iter (fun k -> if k <> empty then slots.(slot_of slots k) <- k) old;
  s.slots <- slots

(* place the absent key [k] at its free slot [i], doubling first when
   it would push the load past 3/4 *)
let insert s i k =
  if 4 * (s.count + 1) > 3 * Array.length s.slots then begin
    grow s;
    s.slots.(slot_of s.slots k) <- k
  end
  else s.slots.(i) <- k;
  s.count <- s.count + 1

let probe s a b =
  let k = pack a b in
  let i = slot_of s.slots k in
  if Array.unsafe_get s.slots i = empty then i else -1

let add_at s i a b =
  if i < 0 || i >= Array.length s.slots || s.slots.(i) <> empty then
    invalid_arg "Flat_set.add_at: slot is not free";
  insert s i (pack a b)

let add s a b =
  let i = probe s a b in
  if i < 0 then false
  else begin
    insert s i ((a lsl 31) lor b);
    true
  end

let mem s a b = probe s a b < 0

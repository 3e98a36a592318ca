(** Open-addressing sets of integer-id quadruples (see the interface
    for the layout and its rationale). *)

let max_id = (1 lsl 31) - 1

(* one test for every id: a negative id or one of 2^31 or more has a
   bit set at position 31 or above *)
let check a b c d =
  if (a lor b lor c lor d) lsr 31 <> 0 then
    invalid_arg
      (Printf.sprintf "Flat_set: id outside [0, 2^31) in (%d, %d, %d, %d)" a b
         c d)

let pack a b =
  check a b 0 0;
  (a lsl 31) lor b

let fst k = k lsr 31
let snd k = k land max_id

(* [slots.(2i)] and [slots.(2i+1)] hold slot [i]'s packed halves; a
   packed half is never negative, so [-1] marks an empty slot *)
type t = { mutable slots : int array; mutable count : int }

let empty = -1
let create () = { slots = Array.make 32 empty; count = 0 }
let length s = s.count
let words s = Array.length s.slots

(* multiply-xorshift mix of both halves (the 64-bit golden ratio and
   splitmix64 multipliers, truncated to OCaml's 63-bit ints); the
   caller masks the low bits *)
let hash hi lo =
  let h = (hi * 0x1e3779b97f4a7c15) + lo in
  let h = (h lxor (h lsr 32)) * 0x3f58476d1ce4e5b9 in
  h lxor (h lsr 29)

(* the slot holding [(hi, lo)], or the empty slot that ends its probe
   sequence, searching from slot [i]; top-level rather than a local
   closure, so a probe allocates nothing *)
let rec probe_from slots mask hi lo i =
  let k = Array.unsafe_get slots (2 * i) in
  if k = empty || (k = hi && Array.unsafe_get slots ((2 * i) + 1) = lo) then i
  else probe_from slots mask hi lo ((i + 1) land mask)

let probe slots hi lo =
  let mask = (Array.length slots lsr 1) - 1 in
  probe_from slots mask hi lo (hash hi lo land mask)

let grow s =
  let old = s.slots in
  let slots = Array.make (2 * Array.length old) empty in
  for i = 0 to (Array.length old / 2) - 1 do
    let hi = old.(2 * i) in
    if hi <> empty then begin
      let lo = old.((2 * i) + 1) in
      let j = probe slots hi lo in
      slots.(2 * j) <- hi;
      slots.((2 * j) + 1) <- lo
    end
  done;
  s.slots <- slots

let rec insert s hi lo =
  let i = probe s.slots hi lo in
  if s.slots.(2 * i) <> empty then false
  else if 4 * (s.count + 1) > 3 * (Array.length s.slots / 2) then begin
    (* the new key would push the load past 3/4: double, then place it
       in the larger table *)
    grow s;
    insert s hi lo
  end
  else begin
    s.slots.(2 * i) <- hi;
    s.slots.((2 * i) + 1) <- lo;
    s.count <- s.count + 1;
    true
  end

let add s a b c d =
  check a b c d;
  insert s ((a lsl 31) lor b) ((c lsl 31) lor d)

let mem s a b c d =
  check a b c d;
  let hi = (a lsl 31) lor b in
  s.slots.(2 * probe s.slots hi ((c lsl 31) lor d)) = hi

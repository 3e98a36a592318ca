(* Order statistics over latency samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* linearly interpolated quantile of a sorted array, [q] in [0, 1] *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then 0.
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile (sorted xs) 0.5

(* The tail percentile reported for [n] samples: p99 once there are
   1000 samples, otherwise the highest percentile that still leaves
   ten samples beyond it (never below the median). *)
let tail_q n =
  if n >= 1000 then 0.99 else Float.max 0.5 (1. -. (10. /. float_of_int n))

let tail xs =
  let a = sorted xs in
  quantile a (tail_q (Array.length a))

let label_of_tail n = Printf.sprintf "p%g" (100. *. tail_q n)

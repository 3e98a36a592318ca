(* The machine's speed drifts by tens of percent over seconds to
   minutes (other tenants share the host), which no amount of work in
   one run averages away.  Every timing the benchmark reports is
   therefore scaled to a reference speed: beside each pass (or serve
   segment) it times a fixed kernel of its own — string hashing, a
   list sort, a balanced-tree build, allocating as an analysis does —
   and multiplies a measured duration by [nominal_s / kernel time].
   The kernel's code never changes with the program, so a change to
   the program moves the scaled numbers and a change of machine speed
   does not.  [nominal_s] only fixes the scale: on a 2-core x86-64 VM
   the kernel runs in about that long, so scaled values read close to
   raw ones there. *)

let nominal_s = 0.040

(* rounds of small, short-lived structures: the live set stays far
   below the heap the program grows, so sampling the kernel inside a
   pass does not move the pass's heap figures *)
let kernel () =
  let acc = ref 0 in
  for r = 1 to 12 do
    let h = Hashtbl.create 64 in
    for i = 0 to 4_000 do
      Hashtbl.replace h (string_of_int ((i * 7919 * r) land 0xffff)) i;
      match Hashtbl.find_opt h (string_of_int ((i * 31) land 0xffff)) with
      | Some v -> acc := !acc + v
      | None -> incr acc
    done;
    let l = List.sort compare (List.init 3_000 (fun i -> (i * 48271 * r) land 0xffffff)) in
    let module S = Set.Make (Int) in
    acc := !acc + S.cardinal (List.fold_left (fun s x -> S.add x s) S.empty l)
  done;
  !acc

(* one timed kernel run, under the runtime's default GC settings
   whatever the program set *)
let once () =
  let saved = Gc.get () in
  Gc.set { saved with Gc.minor_heap_size = 262_144; space_overhead = 120 };
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (kernel ()));
  let dt = Unix.gettimeofday () -. t0 in
  Gc.set saved;
  dt

(* a steadier sample: the median of three runs *)
let sample () = Stats.median [ once (); once (); once () ]

(* the factor that scales a duration measured while the kernel took
   [kernel_s] to the reference speed *)
let scale kernel_s = nominal_s /. kernel_s

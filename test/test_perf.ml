(* Tests for the performance layer (PR 3):

   - the interning pools: equal values get equal ids (and nothing
     else does), ids round-trip through [value], the one-slot cache
     keeps counters honest;
   - the explicit hash functions: consistent with [equal], and — the
     regression the fold-based hashes exist for — sensitive to
     differences arbitrarily deep in an access path, where the
     polymorphic hash's depth cutoff made deep paths collide;
   - the solvers' flat pair sets: add/mem/probe agree with a
     [Hashtbl] model across resizes, extreme ids round-trip,
     out-of-range ids are refused;
   - the domain pool: [Pool.map] preserves order and determinism at
     any job count;
   - the app-level parallelism contract: the DroidBench and
     SecuriBench tables render bit-identically at --jobs 1 and
     --jobs 4, and a fresh process whose two domains force the shared
     templates at once survives;
   - the work pin: verdicts and work counters of a fixed generated
     corpus, recorded in [work.expected], and a second analysis of
     each loaded app repeats the first exactly. *)

open Fd_ir
module AP = Fd_core.Access_path
module Intern = Fd_util.Intern
module Pool = Fd_util.Pool
module Flat_set = Fd_util.Flat_set

let loc name = Stmt.mk_local name
let fld name = Types.mk_field "t.C" name
let ap base fields = { AP.base = AP.Bloc (loc base); AP.fields }

(* ---------------- generators ---------------- *)

let gen_ap =
  QCheck.Gen.(
    let* base = oneofl [ "x"; "y"; "z" ] in
    let* fields = list_size (int_bound 12) (oneofl [ "f"; "g"; "h" ]) in
    return (ap base (List.map fld fields)))

let arb_ap = QCheck.make ~print:AP.to_string gen_ap
let arb_ap_pair = QCheck.pair arb_ap arb_ap

(* ---------------- interning ---------------- *)

module Ap_pool = Intern.Make (struct
  type t = AP.t

  let equal = AP.equal
  let hash = AP.hash
end)

let prop_intern_id_iff_equal =
  QCheck.Test.make ~name:"intern: same id <=> structurally equal" ~count:500
    arb_ap_pair (fun (a, b) ->
      let p = Ap_pool.create () in
      Bool.equal (Ap_pool.id p a = Ap_pool.id p b) (AP.equal a b))

let prop_intern_value_roundtrip =
  QCheck.Test.make ~name:"intern: value (id v) is equal to v" ~count:500
    arb_ap (fun a ->
      let p = Ap_pool.create () in
      AP.equal a (Ap_pool.value p (Ap_pool.id p a)))

(* regression: [grow] fills the spare capacity with the inserted
   value, so before the bound check [value p i] for an unallocated id
   returned an unrelated valid-looking value instead of failing *)
let test_intern_value_bounds () =
  let p = Ap_pool.create () in
  let a = ap "x" [ fld "f" ] in
  ignore (Ap_pool.id p a);
  Alcotest.(check bool) "allocated id round-trips" true
    (AP.equal a (Ap_pool.value p 0));
  let expect_invalid i =
    match Ap_pool.value p i with
    | _ -> Alcotest.failf "value %d on a 1-element pool must raise" i
    | exception Invalid_argument _ -> ()
  in
  expect_invalid 1;
  (* inside the physical array's spare capacity — the garbage zone *)
  expect_invalid 17;
  expect_invalid (-1)

let test_intern_counters () =
  let p = Ap_pool.create () in
  let a = ap "x" [ fld "f" ] and a' = ap "x" [ fld "f" ] in
  let b = ap "y" [] in
  let ia = Ap_pool.id p a in
  Alcotest.(check int) "dense from 0" 0 ia;
  Alcotest.(check int) "structural re-intern" ia (Ap_pool.id p a');
  Alcotest.(check bool) "distinct value, distinct id" true
    (Ap_pool.id p b <> ia);
  Alcotest.(check int) "two distinct values" 2 (Ap_pool.size p);
  Alcotest.(check (option int)) "find_id never interns" None
    (Ap_pool.find_id p (ap "z" []));
  Alcotest.(check int) "find_id did not grow the pool" 2 (Ap_pool.size p)

(* ---------------- explicit hashes ---------------- *)

let prop_hash_consistent_with_equal =
  QCheck.Test.make ~name:"AP.hash: equal paths hash equal" ~count:500
    arb_ap (fun a ->
      let copy = { AP.base = a.AP.base; AP.fields = a.AP.fields } in
      AP.hash a = AP.hash copy)

(* regression: [Hashtbl.hash] stops after ~10 "meaningful" nodes, so
   structural keys differing only deep in the field chain collided and
   the solver tables degenerated into linked-list scans.  The explicit
   fold visits every segment. *)
let test_deep_hash_no_truncation () =
  let deep tail =
    ap "x" (List.init 14 (fun i -> fld (Printf.sprintf "f%d" i)) @ [ fld tail ])
  in
  let a = deep "left" and b = deep "right" in
  Alcotest.(check bool) "paths differ" false (AP.equal a b);
  Alcotest.(check bool) "polymorphic hash truncates (sanity)" true
    (Hashtbl.hash a = Hashtbl.hash b);
  Alcotest.(check bool) "explicit hash reaches the tail" true
    (AP.hash a <> AP.hash b)

(* ---------------- flat seen-sets ---------------- *)

(* ids from a small range (so keys repeat) mixed with the extremes *)
let gen_id =
  QCheck.Gen.(
    frequency
      [ (8, int_bound 12); (1, return 0); (1, return Flat_set.max_id);
        (1, int_bound Flat_set.max_id) ])

(* an add, a mem, or a probe followed by [add_at] on a free slot *)
type op = Add | Mem | Probe_add

let gen_op =
  QCheck.Gen.(
    let* op = frequency [ (3, return Add); (1, return Mem); (1, return Probe_add) ] in
    let* a = gen_id and* b = gen_id in
    return (op, (a, b)))

let arb_ops =
  let print_op = function Add -> "add" | Mem -> "mem" | Probe_add -> "probe" in
  QCheck.make
    ~print:QCheck.Print.(list (pair print_op (pair int int)))
    QCheck.Gen.(list_size (int_range 0 600) gen_op)

(* every answer matches a Hashtbl model: [add] (or a probe that finds a
   free slot) is true exactly once per key, [mem] after it.  Up to 600
   operations take an 8-slot table through several doublings, and the
   load never exceeds 3/4. *)
let prop_flat_set_model =
  QCheck.Test.make ~name:"flat set: add/mem agree with a Hashtbl model"
    ~count:300 arb_ops (fun ops ->
      let s = Flat_set.create () and model = Hashtbl.create 16 in
      List.for_all
        (fun (op, ((a, b) as k)) ->
          let fresh = not (Hashtbl.mem model k) in
          let ok =
            match op with
            | Add ->
                Hashtbl.replace model k ();
                Bool.equal (Flat_set.add s a b) fresh
            | Mem -> Bool.equal (Flat_set.mem s a b) (not fresh)
            | Probe_add ->
                let slot = Flat_set.probe s a b in
                if slot >= 0 then begin
                  Hashtbl.replace model k ();
                  Flat_set.add_at s slot a b
                end;
                Bool.equal (slot >= 0) fresh
          in
          ok && 4 * Flat_set.length s <= 3 * Flat_set.words s)
        ops
      && Flat_set.length s = Hashtbl.length model
      && Hashtbl.fold (fun (a, b) () acc -> acc && Flat_set.mem s a b) model true)

let test_flat_set_extremes () =
  let m = Flat_set.max_id in
  Alcotest.(check int) "max_id" ((1 lsl 31) - 1) m;
  List.iter
    (fun (a, b) ->
      let k = Flat_set.pack a b in
      Alcotest.(check (pair int int)) "pack round-trip" (a, b)
        (Flat_set.fst k, Flat_set.snd k))
    [ (0, 0); (0, m); (m, 0); (m, m) ];
  let s = Flat_set.create () in
  Alcotest.(check int) "starts at 8 slots" 8 (Flat_set.words s);
  Alcotest.(check bool) "extreme key is new" true (Flat_set.add s 0 m);
  Alcotest.(check bool) "extreme key is present" true (Flat_set.mem s 0 m);
  Alcotest.(check bool) "mirrored key is absent" false (Flat_set.mem s m 0);
  Alcotest.(check bool) "zero key is new" true (Flat_set.add s 0 0);
  Alcotest.(check bool) "max key is new" true (Flat_set.add s m m);
  Alcotest.(check bool) "extreme key added once" false (Flat_set.add s 0 m);
  Alcotest.(check int) "present key probes as -1" (-1) (Flat_set.probe s m m);
  (* 2^31 would alias (1, 0) in a packed key; a negative id would
     spill into its neighbour: both are refused *)
  let refused name f =
    match f () with
    | _ -> Alcotest.fail (name ^ ": accepted an out-of-range id")
    | exception Invalid_argument _ -> ()
  in
  refused "pack" (fun () -> ignore (Flat_set.pack (m + 1) 0));
  refused "pack negative" (fun () -> ignore (Flat_set.pack 0 (-1)));
  refused "add" (fun () -> ignore (Flat_set.add s 0 (m + 1)));
  refused "add first" (fun () -> ignore (Flat_set.add s (m + 1) 0));
  refused "add negative" (fun () -> ignore (Flat_set.add s (-1) 0));
  refused "mem" (fun () -> ignore (Flat_set.mem s 0 (m + 1)));
  refused "probe" (fun () -> ignore (Flat_set.probe s 0 (-1)));
  refused "add_at a taken slot" (fun () ->
      let slot = Flat_set.probe s 1 1 in
      Flat_set.add_at s slot 1 1;
      Flat_set.add_at s slot 2 2);
  Alcotest.(check int) "refused keys were not added" 4 (Flat_set.length s)

(* ---------------- domain pool ---------------- *)

let prop_pool_map_ordered =
  QCheck.Test.make ~name:"Pool.map: ordered, complete, any job count"
    ~count:50
    QCheck.(pair (int_range 1 6) (list_of_size (Gen.int_bound 40) small_int))
    (fun (jobs, xs) ->
      Pool.map ~jobs (fun x -> x * x) xs = List.map (fun x -> x * x) xs)

(* regression: a throwing [f] on the calling-domain worker used to
   leave the spawned domains unjoined (leaked domains, lost
   exceptions), and only join-time failures were wrapped.  Now any
   worker failure joins everything first and surfaces uniformly as
   [Worker_failed]. *)
let test_pool_worker_failure () =
  let boom = Failure "boom" in
  (* every worker throws on its first claimed item — including worker
     0 (the calling domain), the previously-leaking path *)
  (match Pool.map ~jobs:4 (fun _ -> raise boom) [ 1; 2; 3; 4; 5; 6 ] with
  | _ -> Alcotest.fail "a throwing f must not produce a result"
  | exception Pool.Worker_failed (Failure msg) when String.equal msg "boom" ->
      ()
  | exception e ->
      Alcotest.failf "expected Worker_failed (Failure boom), got %s"
        (Printexc.to_string e));
  (* a single poisoned item among good ones, repeated so the failing
     item lands on different workers across iterations *)
  for _ = 1 to 20 do
    match
      Pool.map ~jobs:3 (fun x -> if x = 13 then raise boom else x)
        [ 1; 13; 2; 3; 4; 5; 6; 7 ]
    with
    | _ -> Alcotest.fail "poisoned batch must fail"
    | exception Pool.Worker_failed _ -> ()
  done;
  (* the pool is still usable afterwards: nothing hung, nothing leaked *)
  Alcotest.(check (list int)) "pool survives failures" [ 2; 4; 6 ]
    (Pool.map ~jobs:3 (fun x -> 2 * x) [ 1; 2; 3 ])

(* ---------------- generator seed mixing ---------------- *)

(* regression: [Prng.create (seed + index * 7919)] made distinct
   (seed, index) pairs collide — (s + 7919, 0) and (s, 1) yielded
   identical apps.  [Intern.combine] mixing keeps every pair's stream
   distinct. *)
let test_generator_seed_mixing () =
  let fingerprint (ga : Fd_appgen.Generator.gen_app) =
    String.concat "\n"
      (List.map Pretty.class_to_string
         ga.Fd_appgen.Generator.ga_apk.Fd_frontend.Apk.apk_classes)
  in
  List.iter
    (fun seed ->
      List.iter
        (fun profile ->
          let a =
            Fd_appgen.Generator.generate ~profile ~seed:(seed + 7919) 0
          in
          let b = Fd_appgen.Generator.generate ~profile ~seed 1 in
          Alcotest.(check bool)
            (Printf.sprintf "apps (s+7919, 0) and (s, 1) differ at s=%d" seed)
            false
            (String.equal (fingerprint a) (fingerprint b)))
        [ Fd_appgen.Generator.Play; Fd_appgen.Generator.Malware ])
    [ 7; 100; 20140609 ]

(* ---------------- --jobs determinism on the real tables ---------------- *)

let test_droidbench_jobs_deterministic () =
  let engines = [ Fd_eval.Engines.flowdroid (); Fd_eval.Engines.appscan ] in
  let render t =
    Fd_eval.Droidbench_table.render t
    ^ Fd_eval.Droidbench_table.render_outcomes t
  in
  let seq = render (Fd_eval.Droidbench_table.run ~jobs:1 engines) in
  let par = render (Fd_eval.Droidbench_table.run ~jobs:4 engines) in
  Alcotest.(check string) "droidbench table identical at jobs 1 vs 4" seq par

let test_securibench_jobs_deterministic () =
  let seq = Fd_eval.Securibench_table.render (Fd_eval.Securibench_table.run ~jobs:1 ()) in
  let par = Fd_eval.Securibench_table.render (Fd_eval.Securibench_table.run ~jobs:4 ()) in
  Alcotest.(check string) "securibench table identical at jobs 1 vs 4" seq par

(* ---------------- cold-start templates ---------------- *)

(* The shared templates every analysis clones are built on first use.
   A batch runner first uses them inside its first [Pool.map] fan-out,
   so two domains can force them at once in a fresh process.  The test
   re-runs this binary with [once_child_env] set: the child releases
   two domains together on every template, and exits non-zero if
   either domain raised. *)
let once_child_env = "FD_TEST_ONCE_CHILD"

let force_templates_in_two_domains () =
  let ready = Atomic.make 0 in
  let force_all () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    ignore (Fd_frontend.Framework.fresh_scene ());
    ignore (Fd_frontend.Sourcesink.default ());
    ignore (Fd_frontend.Rules.default_wrappers ());
    ignore (Fd_frontend.Rules.default_natives ())
  in
  let run () = match force_all () with () -> None | exception e -> Some e in
  let d = Domain.spawn run in
  let here = run () and there = Domain.join d in
  match (here, there) with
  | None, None -> exit 0
  | Some e, _ | _, Some e ->
      prerr_endline ("template force raised " ^ Printexc.to_string e);
      exit 1

let test_cold_templates_two_domains () =
  let exe = Sys.executable_name in
  let env = Array.append [| once_child_env ^ "=1" |] (Unix.environment ()) in
  for round = 1 to 3 do
    let pid =
      Unix.create_process_env exe [| exe |] env Unix.stdin Unix.stdout
        Unix.stderr
    in
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ ->
        Alcotest.failf "round %d: a fresh process failed to force the templates"
          round
  done

(* ---------------- work pin ---------------- *)

(* Verdicts and [Metrics.with_delta] work counters of 40 Play and 40
   Malware apps, analysed in one process and folded into one MD5 per
   profile, recorded in [work.expected].  Every app is analysed twice
   on the same loaded scene, so the second run re-registers the dummy
   main over the first one's; it must repeat the first exactly.  On a
   mismatch the current rendering is written to [work.actual] for
   diffing. *)

let work_apps = 40

let render_run (r : Fd_core.Infoflow.result) (delta : Fd_obs.Metrics.snapshot)
    =
  let flows =
    List.map
      (fun (f : Fd_core.Bidi.finding) ->
        Printf.sprintf "%s -> %s%s" f.Fd_core.Bidi.f_source.Fd_core.Taint.si_desc
          (Fd_callgraph.Icfg.string_of_node f.Fd_core.Bidi.f_sink_node)
          (match f.Fd_core.Bidi.f_sink_tag with Some t -> " @" ^ t | None -> ""))
      r.Fd_core.Infoflow.r_findings
    |> List.sort compare
  in
  let work =
    List.filter_map
      (fun (k, v) -> if v = 0 then None else Some (Printf.sprintf "%s=%d" k v))
      delta.Fd_obs.Metrics.sn_counters
  in
  String.concat "\n" (flows @ work)

let analyse_twice (ga : Fd_appgen.Generator.gen_app) =
  let loaded = Fd_frontend.Apk.load ga.Fd_appgen.Generator.ga_apk in
  let run () =
    let r, delta =
      Fd_obs.Metrics.with_delta (fun () ->
          Fd_core.Infoflow.analyze_loaded loaded)
    in
    render_run r delta
  in
  let first = run () in
  (first, run ())

let test_work_pin () =
  Fd_core.Infoflow.warm_templates ();
  let profile_line profile =
    let apps = Fd_appgen.Generator.corpus ~profile ~seed:3 work_apps in
    let runs =
      List.map
        (fun (ga : Fd_appgen.Generator.gen_app) ->
          let first, second = analyse_twice ga in
          Alcotest.(check string)
            (ga.Fd_appgen.Generator.ga_name ^ " second run repeats the first")
            first second;
          ga.Fd_appgen.Generator.ga_name ^ "\n" ^ first)
        apps
    in
    Printf.sprintf "%s %d apps: %s\n"
      (Fd_appgen.Generator.string_of_profile profile)
      work_apps
      (Digest.to_hex (Digest.string (String.concat "\n\n" runs)))
  in
  let actual =
    profile_line Fd_appgen.Generator.Play
    ^ profile_line Fd_appgen.Generator.Malware
  in
  let expected = In_channel.with_open_bin "work.expected" In_channel.input_all in
  if not (String.equal expected actual) then
    Out_channel.with_open_bin "work.actual" (fun oc ->
        Out_channel.output_string oc actual);
  Alcotest.(check string) "work pin" expected actual

let () =
  if Sys.getenv_opt once_child_env <> None then
    force_templates_in_two_domains ();
  Alcotest.run "fd_perf"
    [
      ( "intern",
        List.map QCheck_alcotest.to_alcotest
          [ prop_intern_id_iff_equal; prop_intern_value_roundtrip ]
        @ [
            Alcotest.test_case "pool counters and density" `Quick
              test_intern_counters;
            Alcotest.test_case "value bound-checks unallocated ids" `Quick
              test_intern_value_bounds;
          ] );
      ( "hash",
        List.map QCheck_alcotest.to_alcotest
          [ prop_hash_consistent_with_equal ]
        @ [ Alcotest.test_case "deep paths hash apart" `Quick
              test_deep_hash_no_truncation ] );
      ( "flat-set",
        List.map QCheck_alcotest.to_alcotest [ prop_flat_set_model ]
        @ [
            Alcotest.test_case "extreme ids round-trip, others refused" `Quick
              test_flat_set_extremes;
          ] );
      ( "pool",
        List.map QCheck_alcotest.to_alcotest [ prop_pool_map_ordered ]
        @ [
            Alcotest.test_case "throwing f joins all domains" `Quick
              test_pool_worker_failure;
          ] );
      ( "generator",
        [
          Alcotest.test_case "seed/index mixing is collision-free" `Quick
            test_generator_seed_mixing;
        ] );
      ( "jobs-determinism",
        [
          Alcotest.test_case "fresh process: 2 domains force the templates"
            `Quick test_cold_templates_two_domains;
          Alcotest.test_case "droidbench --jobs invariant" `Quick
            test_droidbench_jobs_deterministic;
          Alcotest.test_case "securibench --jobs invariant" `Quick
            test_securibench_jobs_deterministic;
        ] );
      ( "work",
        [
          Alcotest.test_case "verdicts and work counters pinned" `Quick
            test_work_pin;
        ] );
    ]

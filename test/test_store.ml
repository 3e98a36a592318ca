(* Persistent summary store (DESIGN.md §13):

   - flag off ⇒ no store metrics registered, identical findings
     (export byte-identity);
   - canonical payload encodings are identical across independent
     intern pools (two fresh loads of the same app, qcheck over
     generated apps);
   - decode ∘ encode round-trips every stored fact and report;
   - hot-vs-cold verdict equality over DroidBench and a generated
     corpus slice (the correctness gate of the perf optimisation);
   - corrupt / truncated / alien entries degrade to misses with
     diagnostics, never to crashes or wrong verdicts;
   - an unwritable store directory degrades to read-only;
   - concurrent writers under [Pool.map] leave only valid entries;
   - the persisted payloads of a fixed generated fleet, in persist
     order, are pinned in [store.expected]. *)

module Json = Fd_obs.Json
module Metrics = Fd_obs.Metrics
module Config = Fd_core.Config
module Summary = Fd_core.Summary
module Taint = Fd_core.Taint
module Store = Fd_store.Store
module Gen = Fd_appgen.Generator
module Suite = Fd_droidbench.Suite

(* ------------------------------------------------------------------ *)
(* helpers                                                             *)
(* ------------------------------------------------------------------ *)

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let analyze ?dir apk =
  let config = { Config.default with Config.summary_store = dir } in
  Fd_core.Infoflow.analyze_apk ~config apk

(* order-insensitive finding key: source tag, sink statement, sink tag *)
let keys_of (r : Fd_core.Infoflow.result) =
  List.map
    (fun (f : Fd_core.Bidi.finding) ->
      ( f.Fd_core.Bidi.f_source.Taint.si_tag,
        Fd_callgraph.Icfg.string_of_node f.Fd_core.Bidi.f_sink_node,
        f.Fd_core.Bidi.f_sink_tag ))
    r.Fd_core.Infoflow.r_findings
  |> List.sort_uniq compare

let gen_apk ~profile ~seed index =
  (Gen.generate ~profile ~seed index).Gen.ga_apk

(* a capture backend: records every persisted payload, always misses
   on load — the analysis runs cold against an in-memory "store" *)
let with_capture f =
  let saved = !Summary.provider in
  let captured = ref [] in
  let backend =
    {
      Summary.be_load = (fun ~method_digest:_ -> None);
      be_store =
        (fun ~method_digest ~payload ->
          captured := (method_digest, Json.to_string payload) :: !captured);
      be_diag = (fun _ -> ());
    }
  in
  Summary.provider := (fun ~dir:_ ~config_digest:_ -> Some backend);
  Fun.protect
    ~finally:(fun () -> Summary.provider := saved)
    (fun () -> f captured)

let captured_payloads apk =
  with_capture (fun captured ->
      ignore (analyze ~dir:"capture" apk);
      List.sort compare !captured)

(* ------------------------------------------------------------------ *)
(* flag off ⇒ byte-identical observable state                          *)
(* ------------------------------------------------------------------ *)

(* runs first: the store metrics are registered lazily by the first
   store-enabled run, so a store-less run must leave no [store.*]
   trace in the metrics export at all *)
let test_flag_off_identity () =
  let apk = gen_apk ~profile:Gen.Malware ~seed:7 1 in
  let baseline = keys_of (analyze apk) in
  Fd_store.Store.install ();
  Metrics.reset ();
  let again = keys_of (analyze apk) in
  Alcotest.(check bool) "findings unchanged" true (baseline = again);
  let sn = Metrics.snapshot () in
  let store_metrics =
    List.filter
      (fun (name, _) ->
        String.length name >= 6 && String.sub name 0 6 = "store.")
      sn.Metrics.sn_counters
  in
  Alcotest.(check (list (pair string int)))
    "no store.* counters registered" [] store_metrics

(* ------------------------------------------------------------------ *)
(* stable keys across independent intern pools                         *)
(* ------------------------------------------------------------------ *)

(* Two separate [analyze_apk] calls load the app twice: fresh scene,
   fresh locals, fresh solver intern tables.  Analysing an unrelated
   app in between shifts any global interning state.  The canonical
   payloads must come out identical — that is exactly the property
   that lets one process decode another's summaries. *)
let prop_stable_encoding =
  QCheck.Test.make ~name:"payload encoding survives an intern-pool change"
    ~count:6
    QCheck.(int_range 0 1000)
    (fun seed ->
      let apk = gen_apk ~profile:Gen.Malware ~seed 2 in
      let first = captured_payloads apk in
      ignore (analyze (gen_apk ~profile:Gen.Play ~seed:(seed + 1) 3));
      let second = captured_payloads apk in
      first <> [] && first = second)

(* ------------------------------------------------------------------ *)
(* decode/encode round-trip                                            *)
(* ------------------------------------------------------------------ *)

(* a sentinel entry source that cannot collide with any real source:
   generated apps never carry this ground-truth tag *)
let sentinel_source (r : Fd_core.Infoflow.result) =
  match r.Fd_core.Infoflow.r_findings with
  | f :: _ ->
      Some
        {
          f.Fd_core.Bidi.f_source with
          Taint.si_tag = Some "store-test-sentinel";
          Taint.si_desc = "store-test sentinel entry source";
        }
  | [] -> None

let test_roundtrip () =
  let apk = gen_apk ~profile:Gen.Malware ~seed:11 1 in
  let r = analyze apk in
  let entry_source = sentinel_source r in
  Alcotest.(check bool) "app has a finding" true (entry_source <> None);
  let payloads = captured_payloads apk in
  Alcotest.(check bool) "payloads captured" true (payloads <> []);
  let facts = ref 0 and reports = ref 0 in
  List.iter
    (fun (_digest, s) ->
      let payload = Json.parse_string s in
      match Json.member "cxs" payload with
      | Some (Json.Obj cxs) ->
          List.iter
            (fun (_entry_key, cx) ->
              (match Json.member "s" cx with
              | Some (Json.List sums) ->
                  List.iter
                    (function
                      | Json.List [ _idx; fj ] ->
                          incr facts;
                          let f = Summary.dec_fact ~entry_source fj in
                          if
                            not
                              (Json.equal (Summary.enc_fact ~entry_source f) fj)
                          then Alcotest.fail ("fact round-trip: " ^ Json.to_string fj)
                      | _ -> Alcotest.fail "malformed summary element")
                    sums
              | _ -> Alcotest.fail "context without summaries");
              match Json.member "r" cx with
              | Some (Json.List _) -> incr reports
              | _ -> Alcotest.fail "context without report list")
            cxs
      | _ -> Alcotest.fail "payload without cxs")
    payloads;
  Alcotest.(check bool) "facts round-tripped" true (!facts > 0)

(* ------------------------------------------------------------------ *)
(* persist-order pin                                                   *)
(* ------------------------------------------------------------------ *)

(* Every (method digest, payload) the capture backend receives for a
   fixed generated fleet, in the order the engine persisted them, folded
   into one MD5 recorded in [store.expected].  A payload lists each
   context's end summaries in the engine's own order, so the pin fails
   when a refactor of the solver tables reorders them.  On a mismatch
   the folded lines are written to [store.actual] for diffing. *)
let test_persist_pin () =
  let fleet =
    Gen.corpus ~profile:Gen.Play ~seed:3 6
    @ Gen.corpus ~profile:Gen.Malware ~seed:3 6
  in
  let lines =
    List.concat_map
      (fun (ga : Gen.gen_app) ->
        with_capture (fun captured ->
            ignore (analyze ~dir:"capture" ga.Gen.ga_apk);
            List.rev_map (fun (d, p) -> d ^ " " ^ p) !captured))
      fleet
  in
  let actual =
    Printf.sprintf "%d apps, %d payloads: %s\n" (List.length fleet)
      (List.length lines)
      (Digest.to_hex (Digest.string (String.concat "\n" lines)))
  in
  let expected = In_channel.with_open_bin "store.expected" In_channel.input_all in
  if not (String.equal expected actual) then
    Out_channel.with_open_bin "store.actual" (fun oc ->
        Out_channel.output_string oc actual;
        List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) lines);
  Alcotest.(check string) "store pin" expected actual

(* ------------------------------------------------------------------ *)
(* hot vs cold verdict equality                                        *)
(* ------------------------------------------------------------------ *)

let hot_cold_equal name apks =
  let dir = temp_dir "fdstore-hotcold" in
  Fd_store.Store.install ();
  List.iter
    (fun apk ->
      let off = keys_of (analyze apk) in
      let cold = keys_of (analyze ~dir apk) in
      let hot = keys_of (analyze ~dir apk) in
      Alcotest.(check bool)
        (name ^ ": cold run = store off") true (off = cold);
      Alcotest.(check bool) (name ^ ": hot run = store off") true (off = hot))
    apks;
  Alcotest.(check bool)
    (name ^ ": store populated") true
    (Store.scan dir <> [])

let test_hot_cold_droidbench () =
  hot_cold_equal "droidbench"
    (List.map (fun a -> a.Fd_droidbench.Bench_app.app_apk) Suite.all)

let test_hot_cold_corpus () =
  hot_cold_equal "corpus"
    (List.map
       (fun ga -> ga.Gen.ga_apk)
       (Gen.corpus ~profile:Gen.Malware ~seed:20140609 8))

(* ------------------------------------------------------------------ *)
(* corruption handling                                                 *)
(* ------------------------------------------------------------------ *)

let test_corruption () =
  let dir = temp_dir "fdstore-corrupt" in
  Fd_store.Store.install ();
  let apk = gen_apk ~profile:Gen.Malware ~seed:5 1 in
  let baseline = keys_of (analyze apk) in
  ignore (analyze ~dir apk);
  ignore (Store.drain_diags ());
  let entries = Store.scan dir in
  Alcotest.(check bool) "entries written" true (List.length entries >= 2);
  (* damage every entry a different way *)
  let overwrite path bytes =
    let oc = open_out_bin path in
    output_string oc bytes;
    close_out oc
  in
  List.iteri
    (fun i (e : Store.entry_info) ->
      match i mod 3 with
      | 0 -> overwrite e.Store.ei_path "FDS" (* truncated mid-header *)
      | 1 -> overwrite e.Store.ei_path "garbage\nnot json" (* alien *)
      | _ ->
          (* valid framing, corrupted payload: checksum must catch it *)
          let ic = open_in_bin e.Store.ei_path in
          let s = really_input_string ic (in_channel_length ic) in
          close_in ic;
          let b = Bytes.of_string s in
          let last = Bytes.length b - 1 in
          Bytes.set b last (if Bytes.get b last = '}' then ']' else '}');
          overwrite e.Store.ei_path (Bytes.to_string b))
    entries;
  List.iter
    (fun e ->
      match Store.verify_entry e with
      | Ok () -> Alcotest.fail ("verify missed damage in " ^ e.Store.ei_path)
      | Error _ -> ())
    entries;
  let hot = keys_of (analyze ~dir apk) in
  Alcotest.(check bool) "verdicts survive corruption" true (baseline = hot);
  Alcotest.(check bool)
    "damage surfaced as diagnostics" true
    (Store.drain_diags () <> [])

let test_read_only_degradation () =
  let dir = temp_dir "fdstore-ro" in
  Fd_store.Store.install ();
  let apk = gen_apk ~profile:Gen.Malware ~seed:6 1 in
  let baseline = keys_of (analyze apk) in
  (* a regular file squatting on the format directory defeats mkdir
     even for root (chmod-based unwritability would not) *)
  let format_dir =
    Printf.sprintf "format-v%d" Summary.format_version
  in
  let oc = open_out (Filename.concat dir format_dir) in
  output_string oc "not a directory";
  close_out oc;
  ignore (Store.drain_diags ());
  let r = keys_of (analyze ~dir apk) in
  Alcotest.(check bool) "verdicts unchanged" true (baseline = r);
  Alcotest.(check bool)
    "unwritable dir warned" true
    (Store.drain_diags () <> [])

(* ------------------------------------------------------------------ *)
(* gc determinism                                                      *)
(* ------------------------------------------------------------------ *)

(* with every mtime tied, eviction order is decided purely by the
   (mtime, path) sort — the survivor set must match a replay of that
   policy, independent of readdir order *)
let test_gc_deterministic () =
  let dir = temp_dir "fdstore-gc" in
  Fd_store.Store.install ();
  List.iter
    (fun ga -> ignore (analyze ~dir ga.Gen.ga_apk))
    (Gen.corpus ~profile:Gen.Malware ~seed:777 4);
  let entries = Store.scan dir in
  Alcotest.(check bool) "enough entries to evict" true
    (List.length entries >= 4);
  (* force ties: identical mtimes everywhere *)
  let t = Unix.time () -. 1000. in
  List.iter (fun e -> Unix.utimes e.Store.ei_path t t) entries;
  let entries = Store.scan dir in
  let total = List.fold_left (fun a e -> a + e.Store.ei_bytes) 0 entries in
  let max_bytes = total / 2 in
  (* replay the documented policy: sort by (mtime, path), evict from
     the front until the excess is gone *)
  let expected_survivors =
    let by_age =
      List.sort
        (fun a b ->
          compare
            (a.Store.ei_mtime, a.Store.ei_path)
            (b.Store.ei_mtime, b.Store.ei_path))
        entries
    in
    let excess = ref (total - max_bytes) in
    List.filter
      (fun e ->
        if !excess > 0 then begin
          excess := !excess - e.Store.ei_bytes;
          false
        end
        else true)
      by_age
    |> List.map (fun e -> e.Store.ei_path)
    |> List.sort compare
  in
  let deleted, freed = Store.gc dir ~max_bytes in
  Alcotest.(check bool) "something evicted" true (deleted > 0 && freed > 0);
  let survivors =
    Store.scan dir |> List.map (fun e -> e.Store.ei_path) |> List.sort compare
  in
  Alcotest.(check (list string)) "survivors match (mtime, path) policy"
    expected_survivors survivors;
  (* idempotent second pass: already under budget *)
  Alcotest.(check (pair int int)) "second gc is a no-op" (0, 0)
    (Store.gc dir ~max_bytes:total)

(* ------------------------------------------------------------------ *)
(* concurrent writers                                                  *)
(* ------------------------------------------------------------------ *)

let test_concurrent_writers () =
  let dir = temp_dir "fdstore-conc" in
  Fd_store.Store.install ();
  let apks =
    List.map
      (fun ga -> ga.Gen.ga_apk)
      (Gen.corpus ~profile:Gen.Malware ~seed:424242 8)
  in
  let sequential = List.map (fun apk -> keys_of (analyze apk)) apks in
  let parallel =
    Fd_util.Pool.map ~jobs:4
      (fun apk -> keys_of (analyze ~dir apk))
      apks
  in
  Alcotest.(check bool)
    "parallel cold = sequential store-off" true (sequential = parallel);
  let entries = Store.scan dir in
  Alcotest.(check bool) "entries written" true (entries <> []);
  List.iter
    (fun e ->
      match Store.verify_entry e with
      | Ok () -> ()
      | Error reason ->
          Alcotest.fail
            (Printf.sprintf "invalid entry after racing writers: %s: %s"
               e.Store.ei_path reason))
    entries;
  let hot =
    Fd_util.Pool.map ~jobs:4
      (fun apk -> keys_of (analyze ~dir apk))
      apks
  in
  Alcotest.(check bool) "parallel hot = sequential store-off" true
    (sequential = hot)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "fd_store"
    [
      ( "store",
        [
          Alcotest.test_case "flag off: identical, no store metrics" `Quick
            test_flag_off_identity;
          QCheck_alcotest.to_alcotest prop_stable_encoding;
          Alcotest.test_case "payload decode/encode round-trip" `Quick
            test_roundtrip;
          Alcotest.test_case "persisted payloads pinned" `Quick
            test_persist_pin;
          Alcotest.test_case "hot vs cold: droidbench" `Slow
            test_hot_cold_droidbench;
          Alcotest.test_case "hot vs cold: corpus slice" `Slow
            test_hot_cold_corpus;
          Alcotest.test_case "corruption degrades to misses" `Quick
            test_corruption;
          Alcotest.test_case "unwritable dir degrades to read-only" `Quick
            test_read_only_degradation;
          Alcotest.test_case "gc evicts in (mtime, path) order" `Quick
            test_gc_deterministic;
          Alcotest.test_case "concurrent writers under Pool.map" `Slow
            test_concurrent_writers;
        ] );
    ]

(* Tests for the resilience layer: budgets and cooperative
   cancellation, the degradation ladder, the lenient frontend, crash
   barriers and the deterministic fault-injection harness; and the
   work done up to a propagation-budget stop on two library-chain
   apps, pinned in [budget.expected]. *)

open Fd_core
module R = Fd_resilience
module Apk = Fd_frontend.Apk
module FW = Fd_frontend.Framework

(* ---------------- outcomes ---------------- *)

let test_outcome_taxonomy () =
  Alcotest.(check bool) "complete" true R.Outcome.(is_complete Complete);
  Alcotest.(check bool) "crashed not complete" false
    R.Outcome.(is_complete (Crashed "x"));
  Alcotest.(check bool) "worst picks crash" true
    R.Outcome.(equal (worst Deadline_exceeded (Crashed "x")) (Crashed "x"));
  Alcotest.(check bool) "crashed equal ignores message" true
    R.Outcome.(equal (Crashed "a") (Crashed "b"));
  Alcotest.(check string) "stable string" "deadline-exceeded"
    R.Outcome.(to_string Deadline_exceeded)

(* ---------------- budgets ---------------- *)

let test_budget_cap () =
  let b = R.Budget.create ~max_propagations:3 () in
  Alcotest.(check bool) "tick 1" true (R.Budget.tick b);
  Alcotest.(check bool) "tick 2" true (R.Budget.tick b);
  Alcotest.(check bool) "tick 3" true (R.Budget.tick b);
  Alcotest.(check bool) "tick 4 trips" false (R.Budget.tick b);
  Alcotest.(check bool) "sticky" false (R.Budget.tick b);
  Alcotest.(check string) "outcome" "budget-exhausted"
    (R.Outcome.to_string (R.Budget.outcome b))

let test_budget_deadline () =
  let b = R.Budget.create ~deadline_s:0.0 () in
  (* the first tick consults the clock, so a zero deadline fires even
     on a one-statement app *)
  Alcotest.(check bool) "first tick trips" false (R.Budget.tick b);
  Alcotest.(check string) "outcome" "deadline-exceeded"
    (R.Outcome.to_string (R.Budget.outcome b))

let test_budget_cancel () =
  let b = R.Budget.create () in
  Alcotest.(check bool) "live" true (R.Budget.tick b);
  R.Budget.cancel b;
  Alcotest.(check bool) "stopped" true (R.Budget.stopped b);
  Alcotest.(check bool) "tick observes cancel" false (R.Budget.tick b);
  Alcotest.(check string) "outcome" "cancelled"
    (R.Outcome.to_string (R.Budget.outcome b))

(* ---------------- chaos determinism ---------------- *)

let test_chaos_deterministic () =
  let input = String.init 256 (fun i -> Char.chr (32 + (i mod 90))) in
  let run () =
    let c = R.Chaos.create ~seed:42 ~rate:0.5 in
    List.init 20 (fun _ -> R.Chaos.corrupt_string c input)
  in
  Alcotest.(check bool) "same seed, same corruption" true (run () = run ());
  let c = R.Chaos.create ~seed:42 ~rate:1.0 in
  Alcotest.(check bool) "rate 1 always corrupts" true
    (R.Chaos.corrupt_string c input <> input);
  let c0 = R.Chaos.create ~seed:42 ~rate:0.0 in
  Alcotest.(check string) "rate 0 never corrupts" input
    (R.Chaos.corrupt_string c0 input)

let test_barrier () =
  (match R.Barrier.protect ~label:"ok" (fun () -> 7) with
  | Ok v -> Alcotest.(check int) "value" 7 v
  | Error _ -> Alcotest.fail "unexpected crash");
  (match R.Barrier.protect ~label:"boom" (fun () -> failwith "x") with
  | Ok _ -> Alcotest.fail "should have crashed"
  | Error o ->
      Alcotest.(check bool) "crashed outcome" true
        (R.Outcome.equal o (R.Outcome.Crashed "")));
  match
    R.Barrier.protect_with_retry ~label:"flaky"
      (fun () -> failwith "first")
      ~retry:(fun () -> 9)
  with
  | Ok v -> Alcotest.(check int) "retry rescued" 9 v
  | Error _ -> Alcotest.fail "retry should have succeeded"

(* ---------------- deadline mid-solve on a real app ---------------- *)

let leakage_dir = "../examples/apps/leakage_app"

let test_deadline_mid_solve () =
  if not (Sys.file_exists leakage_dir) then Alcotest.skip ();
  let apk = Apk.of_dir leakage_dir in
  let full = Infoflow.analyze_apk apk in
  Alcotest.(check bool) "full run completes" true
    (R.Outcome.is_complete full.Infoflow.r_stats.Infoflow.st_outcome);
  Alcotest.(check bool) "full run finds the leak" true
    (full.Infoflow.r_findings <> []);
  let config = { Config.default with Config.deadline_s = Some 0.0 } in
  let r = Infoflow.analyze_apk ~config apk in
  Alcotest.(check string) "deadline outcome" "deadline-exceeded"
    (R.Outcome.to_string r.Infoflow.r_stats.Infoflow.st_outcome);
  (* it stopped promptly: barely any solver work happened *)
  Alcotest.(check bool) "stopped promptly" true
    (r.Infoflow.r_stats.Infoflow.st_propagations < 10);
  (* partial findings are a subset of the full run's *)
  Alcotest.(check bool) "partial under-approximates" true
    (List.length r.Infoflow.r_findings <= List.length full.Infoflow.r_findings)

(* ---------------- budget stops, pinned ---------------- *)

(* An app whose activity passes the IMEI through a private library
   chain [depth] static calls deep: each step stores its argument in a
   fresh box, reads it back, recurses, and boxes the result again, so
   every step spawns alias searches and the path edges grow
   quadratically with depth. *)
let chain_app ~depth ~sms =
  let step i =
    let call =
      if i = depth - 1 then ""
      else
        Printf.sprintf
          "    t = staticinvoke lib.Chain#step%d(t);\n\
          \    b.lib.Box#aux = t;\n\
          \    t = b.lib.Box#aux;\n"
          (i + 1)
    in
    Printf.sprintf
      "  static method java.lang.String step%d(java.lang.String) {\n\
      \    local p : java.lang.Object;\n\
      \    local b : lib.Box;\n\
      \    local t : java.lang.Object;\n\
      \    p := @parameter0;\n\
      \    b = new lib.Box;\n\
      \    specialinvoke b.lib.Box#<init>();\n\
      \    b.lib.Box#val = p;\n\
      \    t = b.lib.Box#val;\n\
       %s\
      \    return t;\n\
      \  }\n"
      i call
  in
  let box =
    "class lib.Box {\n\
    \  field val : java.lang.String;\n\
    \  field aux : java.lang.String;\n\
    \  method void <init>() {\n\
    \    this := @this: lib.Box;\n\
    \    return;\n\
    \  }\n\
     }\n"
  in
  let chain =
    "class lib.Chain {\n" ^ String.concat "" (List.init depth step) ^ "}\n"
  in
  let sink =
    if sms then
      "    sms = staticinvoke android.telephony.SmsManager#getDefault();\n\
      \    virtualinvoke sms.android.telephony.SmsManager#sendTextMessage(\"+1\", \
       null, out, null, null) @\"sink-sms\";\n"
    else "    staticinvoke android.util.Log#i(\"chain\", out) @\"sink-log\";\n"
  in
  let main =
    Printf.sprintf
      "class chain.Main extends android.app.Activity {\n\
      \  method void onCreate(android.os.Bundle) {\n\
      \    local b : java.lang.Object;\n\
      \    local tm : android.telephony.TelephonyManager;\n\
      \    local imei : java.lang.Object;\n\
      \    local out : java.lang.Object;\n\
      \    local sms : android.telephony.SmsManager;\n\
      \    this := @this: chain.Main;\n\
      \    b := @parameter0;\n\
      \    tm = new android.telephony.TelephonyManager;\n\
      \    imei = virtualinvoke \
       tm.android.telephony.TelephonyManager#getDeviceId() @\"src-imei\";\n\
      \    out = staticinvoke lib.Chain#step0(imei);\n\
       %s\
      \    return;\n\
      \  }\n\
       }\n"
      sink
  in
  Apk.make_text
    (Printf.sprintf "chain-d%d" depth)
    ~manifest:
      (Apk.simple_manifest ~package:"chain"
         [ (FW.Activity, "chain.Main", []) ])
    ~layouts:[] [ box; chain; main ]

(* For each app and each cap: the outcome, the path edges and dedup
   hits counted up to the stop, and the findings.  A solver rewrite
   that counts one propagation more or less around the stop, or keeps
   working after it, changes a line. *)
let test_budget_pin () =
  let apps = [ chain_app ~depth:9 ~sms:true; chain_app ~depth:16 ~sms:false ] in
  let lines =
    List.concat_map
      (fun apk ->
        let loaded = Apk.load apk in
        List.map
          (fun cap ->
            let config = { Config.default with Config.max_propagations = cap } in
            let r, delta =
              Fd_obs.Metrics.with_delta (fun () ->
                  Infoflow.analyze_loaded ~config loaded)
            in
            let counter name =
              Option.value ~default:0
                (List.assoc_opt name delta.Fd_obs.Metrics.sn_counters)
            in
            let flows =
              List.map
                (fun (f : Bidi.finding) ->
                  Printf.sprintf "%s->%s"
                    (Option.value ~default:"?" f.Bidi.f_source.Taint.si_tag)
                    (Fd_callgraph.Icfg.string_of_node f.Bidi.f_sink_node))
                r.Infoflow.r_findings
              |> List.sort compare
            in
            Printf.sprintf "%s cap=%d %s path_edges=%d dedup_hits=%d flows=[%s]"
              apk.Apk.apk_name cap
              (R.Outcome.to_string r.Infoflow.r_stats.Infoflow.st_outcome)
              (counter "ifds.path_edges")
              (counter "ifds.worklist_dedup_hits")
              (String.concat "; " flows))
          [ 50; 500; 5000 ])
      apps
  in
  let actual = String.concat "\n" lines ^ "\n" in
  let expected =
    In_channel.with_open_bin "budget.expected" In_channel.input_all
  in
  if not (String.equal expected actual) then
    Out_channel.with_open_bin "budget.actual" (fun oc ->
        Out_channel.output_string oc actual);
  Alcotest.(check string) "budget pin" expected actual

(* ---------------- the degradation ladder ---------------- *)

let test_ladder_shape () =
  let ladder = Config.degradation_ladder Config.default in
  Alcotest.(check (list string))
    "rung labels" [ "full"; "k=3"; "k=1"; "k=1,no-alias" ]
    (List.map fst ladder);
  let _, last = List.nth ladder 3 in
  Alcotest.(check bool) "last rung disables aliasing" false
    last.Config.alias_search;
  Alcotest.(check int) "last rung is k=1" 1 last.Config.max_access_path

let test_ladder_converges () =
  if not (Sys.file_exists leakage_dir) then Alcotest.skip ();
  let apk = Apk.of_dir leakage_dir in
  (* leakage_app needs ~5700 propagations at full precision, ~2000 at
     k=1 and ~200 with aliasing off: a 1000-propagation budget
     exhausts the first three rungs and completes on the fourth *)
  let config = { Config.default with Config.max_propagations = 1000 } in
  let fb = Infoflow.analyze_with_fallback ~config apk in
  Alcotest.(check string) "degraded completeness" "degraded(k=1,no-alias)"
    (Infoflow.string_of_completeness fb.Infoflow.fb_completeness);
  Alcotest.(check int) "four attempts" 4 (List.length fb.Infoflow.fb_attempts);
  let last = List.nth fb.Infoflow.fb_attempts 3 in
  Alcotest.(check bool) "last attempt complete" true
    (R.Outcome.is_complete last.Infoflow.at_outcome);
  List.iteri
    (fun i (a : Infoflow.attempt) ->
      if i < 3 then
        Alcotest.(check string)
          (Printf.sprintf "rung %d exhausted" i)
          "budget-exhausted"
          (R.Outcome.to_string a.Infoflow.at_outcome))
    fb.Infoflow.fb_attempts;
  Alcotest.(check bool) "final result complete" true
    (R.Outcome.is_complete fb.Infoflow.fb_result.Infoflow.r_stats.Infoflow.st_outcome)

(* ---------------- lenient frontend ---------------- *)

let good_unit =
  {|class t.Main extends android.app.Activity {
  method void onCreate(android.os.Bundle) {
    local b : android.os.Bundle;
    local tm : android.telephony.TelephonyManager;
    local imei : java.lang.String;
    local sms : android.telephony.SmsManager;
    this := @this: t.Main;
    b := @parameter0;
    imei = virtualinvoke tm.android.telephony.TelephonyManager#getDeviceId() @"src-imei";
    sms = staticinvoke android.telephony.SmsManager#getDefault();
    virtualinvoke sms.android.telephony.SmsManager#sendTextMessage(imei, null, imei, null, null) @"sink-sms";
    return;
  }
}|}

let broken_unit = "class t.Broken extends {{{ not jimple at all"

let manifest_with_bad_bits =
  {|<?xml version="1.0" encoding="utf-8"?>
<manifest package="t">
  <application>
    <activity android:name=".Main">
      <intent-filter>
        <action android:name="android.intent.action.MAIN"/>
        <category android:name="android.intent.category.LAUNCHER"/>
      </intent-filter>
    </activity>
    <activity android:enabled="notabool" android:name=".Other"/>
    <activity android:name=".Broken"/>
  </application>
</manifest>|}

let test_lenient_survives_corruption () =
  (* strict mode refuses the broken unit outright *)
  (match
     Apk.make_text "strict" ~manifest:manifest_with_bad_bits
       [ good_unit; broken_unit ]
   with
  | exception Apk.Load_error _ -> ()
  | _ -> Alcotest.fail "strict make_text should raise");
  (* lenient mode: the bad unit, the bad manifest component and the
     component whose class was lost are all skipped with diagnostics,
     and the surviving class still yields the flow *)
  let apk =
    Apk.make_text ~mode:`Lenient "lenient" ~manifest:manifest_with_bad_bits
      [ good_unit; broken_unit ]
  in
  Alcotest.(check int) "bundle diagnostic for bad unit" 1
    (List.length apk.Apk.apk_diags);
  (match List.hd apk.Apk.apk_diags with
  | d ->
      Alcotest.(check bool) "diag carries a line" true
        (d.R.Diag.d_line <> None));
  let r = Infoflow.analyze_apk ~mode:`Lenient apk in
  Alcotest.(check bool) "diagnostics recorded" true
    (List.length r.Infoflow.r_diags >= 3);
  Alcotest.(check bool) "analysis completed" true
    (R.Outcome.is_complete r.Infoflow.r_stats.Infoflow.st_outcome);
  Alcotest.(check int) "surviving class still leaks" 1
    (List.length r.Infoflow.r_findings)

let test_lenient_corrupted_manifest () =
  let truncated = {|<?xml version="1.0"?><manifest package="t"><application>|} in
  (* strict load refuses *)
  (match Apk.load (Apk.make_text "strict" ~manifest:truncated [ good_unit ])
   with
  | exception Apk.Load_error _ -> ()
  | _ -> Alcotest.fail "strict load should raise");
  (* lenient load degrades to an empty manifest with a diagnostic *)
  let loaded =
    Apk.load ~mode:`Lenient
      (Apk.make_text ~mode:`Lenient "lenient" ~manifest:truncated
         [ good_unit ])
  in
  Alcotest.(check int) "no components" 0 (List.length loaded.Apk.components);
  Alcotest.(check bool) "manifest diagnostic" true (loaded.Apk.diags <> [])

let test_lenient_bad_layout () =
  let manifest =
    Apk.simple_manifest ~package:"t" [ (FW.Activity, "t.Main", []) ]
  in
  let apk =
    Apk.make_text ~mode:`Lenient "layouts" ~manifest
      ~layouts:[ ("good", "<LinearLayout/>"); ("bad", "<unclosed") ]
      [ good_unit ]
  in
  let loaded = Apk.load ~mode:`Lenient apk in
  Alcotest.(check bool) "bad layout diagnosed" true
    (List.exists
       (fun (d : R.Diag.t) ->
         (* the diagnostic names the offending file *)
         String.length d.R.Diag.d_file > 0
         && String.ends_with ~suffix:"bad.xml" d.R.Diag.d_file)
       loaded.Apk.diags);
  Alcotest.(check bool) "good layout survived" true
    (match Fd_frontend.Layout.layout_id loaded.Apk.layout "good" with
    | Some _ -> true
    | None -> false)

(* ---------------- I/O errors are Load_error, never Sys_error ----- *)

let test_of_dir_io_errors () =
  (match Apk.of_dir "/nonexistent/surely/not/here" with
  | exception Apk.Load_error _ -> ()
  | exception Sys_error msg ->
      Alcotest.fail ("Sys_error escaped of_dir: " ^ msg)
  | _ -> Alcotest.fail "of_dir on a missing dir should fail");
  (* a directory with a manifest entry that is itself a directory:
     open_in fails with Sys_error, which must surface as Load_error *)
  let tmp = Filename.temp_file "fd_res" "" in
  Sys.remove tmp;
  Unix.mkdir tmp 0o755;
  Unix.mkdir (Filename.concat tmp "AndroidManifest.xml") 0o755;
  Fun.protect
    ~finally:(fun () ->
      Unix.rmdir (Filename.concat tmp "AndroidManifest.xml");
      Unix.rmdir tmp)
    (fun () ->
      match Apk.of_dir tmp with
      | exception Apk.Load_error _ -> ()
      | exception Sys_error msg ->
          Alcotest.fail ("Sys_error escaped of_dir: " ^ msg)
      | _ -> Alcotest.fail "of_dir on a bogus manifest should fail")

(* ---------------- chaos over DroidBench never escapes ------------ *)

let test_chaos_suite_never_escapes () =
  let chaos = R.Chaos.create ~seed:20140609 ~rate:0.1 in
  let escaped = ref [] in
  let completed = ref 0 in
  List.iter
    (fun (app : Fd_droidbench.Bench_app.t) ->
      let apk = app.Fd_droidbench.Bench_app.app_apk in
      let label = app.Fd_droidbench.Bench_app.app_name in
      match
        R.Barrier.protect ~label (fun () ->
            let sources =
              List.map
                (fun cls ->
                  R.Chaos.corrupt_string chaos
                    (Fd_ir.Pretty.class_to_string cls))
                apk.Apk.apk_classes
            in
            let corrupted =
              Apk.make_text ~mode:`Lenient label
                ~manifest:apk.Apk.apk_manifest
                ~layouts:apk.Apk.apk_layouts sources
            in
            Infoflow.analyze_with_fallback ~mode:`Lenient ~chaos corrupted)
      with
      | Ok _ -> incr completed
      | Error _ -> incr completed  (* crashed, but the barrier held *)
      | exception e -> escaped := (label, Printexc.to_string e) :: !escaped)
    Fd_droidbench.Suite.all;
  Alcotest.(check (list (pair string string)))
    "no exception escapes the barrier" [] !escaped;
  Alcotest.(check int) "every app produced an outcome"
    (List.length Fd_droidbench.Suite.all)
    !completed

let () =
  Alcotest.run "fd_resilience"
    [
      ( "outcome",
        [ Alcotest.test_case "taxonomy" `Quick test_outcome_taxonomy ] );
      ( "budget",
        [
          Alcotest.test_case "propagation cap" `Quick test_budget_cap;
          Alcotest.test_case "zero deadline" `Quick test_budget_deadline;
          Alcotest.test_case "cancellation" `Quick test_budget_cancel;
          Alcotest.test_case "stops pinned on library chains" `Quick
            test_budget_pin;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "deterministic" `Quick test_chaos_deterministic;
          Alcotest.test_case "barrier" `Quick test_barrier;
        ] );
      ( "solver",
        [
          Alcotest.test_case "deadline mid-solve" `Quick
            test_deadline_mid_solve;
          Alcotest.test_case "ladder shape" `Quick test_ladder_shape;
          Alcotest.test_case "ladder converges" `Quick test_ladder_converges;
        ] );
      ( "lenient frontend",
        [
          Alcotest.test_case "survives corruption" `Quick
            test_lenient_survives_corruption;
          Alcotest.test_case "corrupted manifest" `Quick
            test_lenient_corrupted_manifest;
          Alcotest.test_case "bad layout" `Quick test_lenient_bad_layout;
          Alcotest.test_case "I/O errors" `Quick test_of_dir_io_errors;
        ] );
      ( "fault injection",
        [
          Alcotest.test_case "chaos suite never escapes" `Quick
            test_chaos_suite_never_escapes;
        ] );
    ]

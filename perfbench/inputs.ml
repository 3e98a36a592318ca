(* Seeded workload inputs.  Every app reaches the program as text: the
   manifest, layout XML and pretty-printed µJimple units, exactly what
   an on-disk app or a serve [App_inline] request carries.  Rendering
   happens here, before any timing starts. *)

module Gen = Fd_appgen.Generator
module Apk = Fd_frontend.Apk
module Prng = Fd_util.Prng

type app = {
  name : string;
  manifest : string;
  layouts : (string * string) list;
  sources : string list;
}

(* one unit of work: an app, or a collusion pair analysed in one merged
   Scene; [planted] is the generator's ground truth as (source tag,
   sink tag) pairs *)
type item = {
  id : string;
  apps : app list;
  icc : bool;
  planted : (string option * string) list;
}

let of_apk name (apk : Apk.t) =
  {
    name;
    manifest = apk.Apk.apk_manifest;
    layouts = apk.Apk.apk_layouts;
    sources = List.map Fd_ir.Pretty.class_to_string apk.Apk.apk_classes;
  }

let stitched limits =
  List.filter_map
    (fun (key, lim) -> if lim = Gen.Lim_icc_stitch then Some key else None)
    limits

let of_gen (ga : Gen.gen_app) =
  {
    id = ga.Gen.ga_name;
    apps = [ of_apk ga.Gen.ga_name ga.Gen.ga_apk ];
    icc = false;
    planted = ga.Gen.ga_expected;
  }

(* with the ICC tier on, the planted [icc-stitch] flows are leaks the
   tier promises to compose *)
let of_icc_gen (ga : Gen.gen_app) =
  {
    (of_gen ga) with
    icc = true;
    planted = ga.Gen.ga_expected @ stitched ga.Gen.ga_limits;
  }

let of_pair (p : Gen.gen_pair) =
  let app (ga : Gen.gen_app) = of_apk ga.Gen.ga_name ga.Gen.ga_apk in
  {
    id = p.Gen.gp_name;
    apps = [ app p.Gen.gp_sender; app p.Gen.gp_receiver ];
    icc = true;
    planted = p.Gen.gp_expected @ stitched p.Gen.gp_limits;
  }

(* ------------------------------------------------------------------ *)
(* corpus-mix                                                          *)
(* ------------------------------------------------------------------ *)

(* one Play app per two malware apps, as in the paper's corpora (500
   Play, ~1000 malware); the counts are fixed so that every seed draws
   the same profile shares and only the apps differ *)
let corpus_mix ~seed ~n =
  let rng = Prng.create (seed lxor 0x5eed) in
  let n_play = n / 3 in
  let play = List.init n_play (Gen.generate ~profile:Gen.Play ~seed) in
  let malware =
    List.init (n - n_play) (Gen.generate ~profile:Gen.Malware ~seed)
  in
  Prng.shuffle rng (play @ malware) |> List.map of_gen

(* ------------------------------------------------------------------ *)
(* library chains (deep-chain, and the serve store family)             *)
(* ------------------------------------------------------------------ *)

(* the lib.BoxN / lib.ChainN shape: every step boxes the value, calls
   the next step and writes the result through a second field, so the
   taint crosses [depth] calls and 2 * [depth] heap accesses *)
let lib_box k =
  Printf.sprintf
    "class lib.Box%d {\n\
    \  field val : java.lang.String;\n\
    \  field aux : java.lang.String;\n\
    \  method void <init>() {\n\
    \    this := @this: lib.Box%d;\n\
    \    return;\n\
    \  }\n\
     }\n"
    k k

let chain_step ~k ~depth i =
  let head =
    Printf.sprintf
      "  static method java.lang.String step%d(java.lang.String) {\n\
      \    local p : java.lang.Object;\n\
      \    local b : lib.Box%d;\n\
      \    local t : java.lang.Object;\n\
      \    p := @parameter0;\n\
      \    b = new lib.Box%d;\n\
      \    specialinvoke b.lib.Box%d#<init>();\n\
      \    b.lib.Box%d#val = p;\n\
      \    t = b.lib.Box%d#val;\n"
      i k k k k k
  in
  let next =
    if i = depth - 1 then ""
    else
      Printf.sprintf
        "    t = staticinvoke lib.Chain%d#step%d(t);\n\
        \    b.lib.Box%d#aux = t;\n\
        \    t = b.lib.Box%d#aux;\n"
        k (i + 1) k k
  in
  head ^ next ^ "    return t;\n  }\n"

let lib_chain ~k ~depth =
  let buf = Buffer.create (depth * 400) in
  Buffer.add_string buf (Printf.sprintf "class lib.Chain%d {\n" k);
  for i = 0 to depth - 1 do
    Buffer.add_string buf (chain_step ~k ~depth i)
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

type sink = Sms | Log

let sink_tag = function Sms -> "sink-sms" | Log -> "sink-log"

let sink_lines = function
  | Sms ->
      "    sms = staticinvoke android.telephony.SmsManager#getDefault();\n\
      \    virtualinvoke sms.android.telephony.SmsManager#sendTextMessage(\"+1\", \
       null, out, null, null) @\"sink-sms\";\n"
  | Log -> "    staticinvoke android.util.Log#i(\"chain\", out) @\"sink-log\";\n"

let chain_activity ~pkg ~k ~sink =
  Printf.sprintf
    "class %s.Main extends android.app.Activity {\n\
    \  method void onCreate(android.os.Bundle) {\n\
    \    local savedState : java.lang.Object;\n\
    \    local tm : android.telephony.TelephonyManager;\n\
    \    local imei : java.lang.Object;\n\
    \    local out : java.lang.Object;\n\
    \    local sms : android.telephony.SmsManager;\n\
    \    this := @this: %s.Main;\n\
    \    savedState := @parameter0;\n\
    \    tm = new android.telephony.TelephonyManager;\n\
    \    imei = virtualinvoke \
     tm.android.telephony.TelephonyManager#getDeviceId() @\"src-imei\";\n\
    \    out = staticinvoke lib.Chain%d#step0(imei);\n\
     %s\
    \    return;\n\
    \  }\n\
     }\n"
    pkg pkg k (sink_lines sink)

let chain_manifest pkg =
  Apk.simple_manifest ~package:pkg
    [ (Fd_frontend.Framework.Activity, pkg ^ ".Main", []) ]

(* [k] names the chain's classes: distinct per app in deep-chain, one
   shared [k] across the serve family so their library summaries are
   the same store entries *)
let chain_item ~id ~pkg ~k ~depth ~sink =
  {
    id;
    apps =
      [
        {
          name = id;
          manifest = chain_manifest pkg;
          layouts = [];
          sources =
            [ lib_box k; lib_chain ~k ~depth; chain_activity ~pkg ~k ~sink ];
        };
      ];
    icc = false;
    planted = [ (Some "src-imei", sink_tag sink) ];
  }

(* [n] apps whose depths are stratified over [lo, hi): app [i] draws
   its depth within one step of the middle of the i-th of [n] equal
   bands, so every seed spreads the same range and the solve cost,
   quadratic in depth, does not swing with the draw *)
let deep_chain ~seed ~n ~lo ~hi =
  let rng = Prng.create (seed lxor 0xc4a1) in
  let band = max 1 ((hi - lo) / n) in
  List.init n (fun i ->
      let depth = lo + (i * band) + (band / 2) + Prng.int rng 3 - 1 in
      let sink = if Prng.bool rng then Sms else Log in
      chain_item
        ~id:(Printf.sprintf "chain-%02d-d%d" i depth)
        ~pkg:(Printf.sprintf "chain.app%d" i)
        ~k:i ~depth ~sink)

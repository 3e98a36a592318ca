(* Lenient-mode exception-escape sweep (DESIGN.md §5, failure
   taxonomy): feeding arbitrarily mutated manifests and layouts
   through [Apk.load ~mode:`Lenient] must never let anything but
   [Apk.Load_error] escape — malformed XML entities, dangling layout
   references, truncations and byte noise all degrade to diagnostics
   (or, at worst, a typed [Load_error]), never [Failure],
   [Not_found], [Invalid_argument] or a parser exception.

   600 mutated inputs per property (the gate requires 500+). *)

module Apk = Fd_frontend.Apk

let base_manifest =
  {|<?xml version="1.0"?>
<manifest xmlns:android="http://schemas.android.com/apk/res/android"
          package="com.example.esc">
  <application>
    <activity android:name="com.example.esc.Main">
      <intent-filter>
        <action android:name="android.intent.action.MAIN"/>
        <category android:name="android.intent.category.LAUNCHER"/>
      </intent-filter>
    </activity>
    <service android:name="com.example.esc.Svc"/>
  </application>
</manifest>|}

let base_layout =
  {|<?xml version="1.0"?>
<LinearLayout xmlns:android="http://schemas.android.com/apk/res/android">
  <EditText android:id="@+id/user"/>
  <Button android:id="@+id/go" android:onClick="sendMessage"/>
</LinearLayout>|}

let base_source =
  {|class com.example.esc.Main extends android.app.Activity {
  method void onCreate(android.os.Bundle) {
    this := @this: com.example.esc.Main
    p0 := @parameter0
    return
  }
}|}

(* the historic escape vectors: malformed numeric character entities
   (negative, hex garbage, overflow), unknown entities, unterminated
   references — plus generic structural noise *)
let poison_tokens =
  [|
    "&#-5;"; "&#xZZ;"; "&#x;"; "&#;"; "&#99999999999999999999999;";
    "&#x8FFFFFFFFFFFFFFFF;"; "&bogus;"; "&"; "&#x41"; "<"; ">"; "\"";
    "<!--"; "]]>"; "<x"; "</zzz>"; "\x00"; "android:name=\"@layout/nope\"";
  |]

let mutate rng s =
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let n = String.length s in
  match Random.State.int rng 4 with
  | 0 ->
      (* inject a poison token at a random position *)
      let i = Random.State.int rng (n + 1) in
      String.sub s 0 i ^ pick poison_tokens ^ String.sub s i (n - i)
  | 1 ->
      (* truncate *)
      String.sub s 0 (Random.State.int rng (n + 1))
  | 2 ->
      (* overwrite one byte with a structural character *)
      if n = 0 then s
      else begin
        let b = Bytes.of_string s in
        Bytes.set b (Random.State.int rng n) (pick [| '<'; '>'; '&'; '"'; ';' |]);
        Bytes.to_string b
      end
  | _ ->
      (* duplicate a chunk (unbalances the tree) *)
      if n = 0 then s
      else begin
        let i = Random.State.int rng n in
        let len = min (Random.State.int rng 40 + 1) (n - i) in
        String.sub s 0 (i + len) ^ String.sub s i (n - i)
      end

let rec mutate_times rng k s = if k = 0 then s else mutate_times rng (k - 1) (mutate rng s)

(* one trial: mutate manifest and/or layouts, then bundle + load
   leniently.  [Load_error] is the only exception allowed out; a
   clean load must also survive a [layout_id] probe (the Not_found
   escape this PR fixes). *)
let survives_lenient seed =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let manifest = mutate_times rng (1 + Random.State.int rng 3) base_manifest in
  let layout = mutate_times rng (1 + Random.State.int rng 3) base_layout in
  match
    let apk =
      Apk.make_text ~mode:`Lenient "esc-app" ~manifest
        ~layouts:[ ("activity_main", layout); ("broken", layout) ]
        [ base_source ]
    in
    let loaded = Apk.load ~mode:`Lenient apk in
    (* probe the lookups that used to leak Not_found *)
    (match Apk.layout_id loaded "activity_main" with
    | _ -> ()
    | exception Apk.Load_error _ -> ());
    (match Apk.layout_id loaded "definitely-not-there" with
    | _ -> ()
    | exception Apk.Load_error _ -> ());
    ignore (Fd_frontend.Layout.layout_id loaded.Apk.layout "nope")
  with
  | () -> true
  | exception Apk.Load_error _ -> true
  | exception e ->
      QCheck.Test.fail_reportf "non-Load_error escaped: %s"
        (Printexc.to_string e)

let prop_lenient_never_escapes =
  QCheck.Test.make ~name:"lenient load: only Load_error escapes"
    ~count:600
    QCheck.(int_range 0 1_000_000)
    survives_lenient

(* strict mode: same inputs, same taxonomy — Load_error or success,
   never a raw parser/runtime exception *)
let survives_strict seed =
  let rng = Random.State.make [| seed; 0x57f1c7 |] in
  let manifest = mutate_times rng (1 + Random.State.int rng 3) base_manifest in
  let layout = mutate_times rng (1 + Random.State.int rng 3) base_layout in
  match
    let apk =
      Apk.make_text "esc-app" ~manifest
        ~layouts:[ ("activity_main", layout) ]
        [ base_source ]
    in
    ignore (Apk.load apk)
  with
  | () -> true
  | exception Apk.Load_error _ -> true
  | exception e ->
      QCheck.Test.fail_reportf "strict mode leaked %s"
        (Printexc.to_string e)

let prop_strict_never_escapes =
  QCheck.Test.make ~name:"strict load: Load_error or success"
    ~count:600
    QCheck.(int_range 0 1_000_000)
    survives_strict

(* regression pins for the exact historic escapes *)
let test_bad_charrefs () =
  List.iter
    (fun entity ->
      let manifest =
        Printf.sprintf
          {|<manifest package="p"><application><activity android:name="a.B%s"/></application></manifest>|}
          entity
      in
      (* strict: typed Load_error *)
      (match Apk.load (Apk.make "x" ~manifest []) with
      | _ -> Alcotest.failf "strict accepted %s" entity
      | exception Apk.Load_error _ -> ()
      | exception e ->
          Alcotest.failf "strict leaked %s on %s" (Printexc.to_string e) entity);
      (* lenient: degraded to a diag, never an exception *)
      match Apk.load ~mode:`Lenient (Apk.make "x" ~manifest []) with
      | loaded ->
          Alcotest.(check bool)
            (entity ^ " diagnosed") true
            (loaded.Apk.diags <> [])
      | exception e ->
          Alcotest.failf "lenient leaked %s on %s" (Printexc.to_string e)
            entity)
    [ "&#-5;"; "&#xZZ;"; "&#99999999999999999999999;"; "&#;"; "&nope;" ]

(* regression pins for the two runtime exceptions the µJimple lexer
   used to let out of [Apk.make_text]: [Failure "int_of_string"] on an
   integer literal out of range and [Invalid_argument "Char.chr"] on a
   decimal string escape above 255.  Both are lexical errors at the
   literal's line (4); the parser reports them as [Parse_error]. *)
let bad_literal_source stmt =
  Printf.sprintf
    {|class com.example.esc.Bad extends android.app.Activity {
  method void onCreate(android.os.Bundle) {
    this := @this: com.example.esc.Bad;
    %s
    return;
  }
}|}
    stmt

let good_source =
  {|class com.example.esc.Main extends android.app.Activity {
  method void onCreate(android.os.Bundle) {
    this := @this: com.example.esc.Main;
    return;
  }
}|}

let test_bad_literals () =
  let manifest = base_manifest in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  (* control: the same unit with an in-range literal loads *)
  ignore (Apk.make_text "esc-app" ~manifest [ bad_literal_source "n = 42;" ]);
  List.iter
    (fun (stmt, msg) ->
      (* strict: typed Load_error naming the line and the lexer's message *)
      (match Apk.make_text "esc-app" ~manifest [ bad_literal_source stmt ] with
      | _ -> Alcotest.failf "strict accepted %s" stmt
      | exception Apk.Load_error e ->
          Alcotest.(check bool) (stmt ^ ": " ^ e) true
            (contains e "at line 4: " && contains e msg)
      | exception e ->
          Alcotest.failf "strict leaked %s on %s" (Printexc.to_string e) stmt);
      (* lenient: the unit is skipped with a diagnostic at line 4, the
         good unit is kept, and loading goes through *)
      match
        Apk.make_text ~mode:`Lenient "esc-app" ~manifest
          [ good_source; bad_literal_source stmt ]
      with
      | apk ->
          let diag =
            List.find_opt
              (fun (d : Fd_resilience.Diag.t) ->
                d.d_line = Some 4 && contains d.d_msg msg
                && contains d.d_msg "skipped unit")
              apk.Apk.apk_diags
          in
          Alcotest.(check bool) (stmt ^ " diagnosed at line 4") true (diag <> None);
          Alcotest.(check (list string)) (stmt ^ " keeps the good unit")
            [ "com.example.esc.Main" ]
            (List.map (fun c -> c.Fd_ir.Jclass.c_name) apk.Apk.apk_classes);
          ignore (Apk.load ~mode:`Lenient apk)
      | exception e ->
          Alcotest.failf "lenient leaked %s on %s" (Printexc.to_string e) stmt)
    [
      ("n = 99999999999999999999999;", "integer literal out of range");
      ("n = -99999999999999999999999;", "integer literal out of range");
      ({|s = "\999";|}, {|decimal escape \999 out of range|});
    ]

let () =
  Alcotest.run "fd_lenient_escapes"
    [
      ( "lenient-escapes",
        Alcotest.test_case "malformed charrefs: typed errors only" `Quick
          test_bad_charrefs
        :: Alcotest.test_case "out-of-range literals: typed errors only" `Quick
             test_bad_literals
        :: List.map QCheck_alcotest.to_alcotest
             [ prop_lenient_never_escapes; prop_strict_never_escapes ] );
    ]

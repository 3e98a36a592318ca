(* Tests for the µJimple IR: types, bodies/CFG, scene & hierarchy,
   builder DSL, pretty-printer and textual parser round-trip. *)

open Fd_ir
module T = Types
module S = Stmt
module B = Build

(* ---------------- types ---------------- *)

let test_typ_string_roundtrip () =
  let cases =
    [ "void"; "boolean"; "char"; "int"; "long"; "float"; "double";
      "java.lang.String"; "int[]"; "java.lang.Object[][]" ]
  in
  List.iter
    (fun s ->
      Alcotest.(check string) s s (T.string_of_typ (T.typ_of_string s)))
    cases

let test_typ_equal () =
  Alcotest.(check bool) "ref eq" true (T.equal_typ (T.Ref "a.B") (T.Ref "a.B"));
  Alcotest.(check bool) "ref ne" false (T.equal_typ (T.Ref "a.B") (T.Ref "a.C"));
  Alcotest.(check bool) "array" true
    (T.equal_typ (T.Array T.Int) (T.Array T.Int));
  Alcotest.(check bool) "array ne" false (T.equal_typ (T.Array T.Int) T.Int)

let test_method_sig_string () =
  let m = T.mk_method ~params:[ T.Int; T.Ref "java.lang.String" ] ~ret:T.Void
      "a.B" "foo" in
  Alcotest.(check string) "jimple style"
    "<a.B: void foo(int,java.lang.String)>"
    (T.string_of_method_sig m)

(* ---------------- builder & body ---------------- *)

let simple_class () =
  B.cls "t.Simple"
    [
      B.meth "run" (fun m ->
          let this = B.this m in
          let x = B.local m "x" in
          let y = B.local m "y" in
          B.const m x (B.i 1);
          B.label m "loop";
          B.binop m y "+" (B.v x) (B.i 1);
          B.ifgoto m (B.v y) S.Clt (B.i 10) "loop";
          B.vcall m this "t.Simple" "helper" [ B.v y ]);
    ]

let body_of cls name =
  match Jclass.find_method_named cls name with
  | Some m -> Option.get m.Jclass.jm_body
  | None -> Alcotest.fail ("method not found: " ^ name)

let test_builder_basic () =
  let c = simple_class () in
  let b = body_of c "run" in
  (* this-identity, x=1, y=x+1, if, call, auto return *)
  Alcotest.(check int) "6 statements" 6 (Body.length b);
  (match (Body.stmt b 0).S.s_kind with
  | S.Identity (_, S.Ithis "t.Simple") -> ()
  | _ -> Alcotest.fail "expected @this identity first");
  match (Body.stmt b 5).S.s_kind with
  | S.Return None -> ()
  | _ -> Alcotest.fail "expected auto-appended return"

let test_cfg_succs_preds () =
  let c = simple_class () in
  let b = body_of c "run" in
  (* stmt 3 is the conditional: succs are fall-through 4 and target 2 *)
  Alcotest.(check (list int)) "if succs" [ 4; 2 ] (Body.succs b 3);
  Alcotest.(check (list int)) "loop head preds" [ 1; 3 ] (Body.preds b 2);
  Alcotest.(check (list int)) "return succs" [] (Body.succs b 5)

let test_label_resolution_error () =
  Alcotest.check_raises "undefined label"
    (B.Build_error "undefined label \"nowhere\"") (fun () ->
      ignore
        (B.cls "t.Bad" [ B.meth "m" (fun m -> B.goto m "nowhere") ]))

let test_duplicate_label_error () =
  Alcotest.check_raises "duplicate label"
    (B.Build_error "duplicate label \"l\"") (fun () ->
      ignore
        (B.cls "t.Bad2"
           [
             B.meth "m" (fun m ->
                 B.label m "l";
                 B.nop m;
                 B.label m "l";
                 B.nop m;
                 B.goto m "l");
           ]))

let test_local_interning () =
  let c =
    B.cls "t.Intern"
      [
        B.meth "m" (fun m ->
            let a = B.local m "v" in
            let b = B.local m "v" in
            Alcotest.(check bool) "same local" true (a == b);
            B.const m a (B.i 0));
      ]
  in
  let b = body_of c "m" in
  Alcotest.(check int) "one local" 1 (List.length b.Body.locals)

let test_goto_no_auto_return () =
  (* a body ending in goto back into itself must not get an extra
     return *)
  let c =
    B.cls "t.Loop"
      [
        B.meth "m" (fun m ->
            B.label m "top";
            B.nop m;
            B.goto m "top");
      ]
  in
  let b = body_of c "m" in
  Alcotest.(check int) "2 stmts" 2 (Body.length b)

let test_exit_stmts () =
  let c =
    B.cls "t.Exits"
      [
        B.meth "m" (fun m ->
            let x = B.local m "x" in
            B.const m x (B.i 0);
            B.ifgoto m (B.v x) S.Ceq (B.i 0) "out";
            B.retv m (B.v x);
            B.label m "out";
            B.ret m);
      ]
  in
  let b = body_of c "m" in
  Alcotest.(check (list int)) "two exits" [ 2; 3 ] (Body.exit_stmts b)

let test_find_tagged () =
  let c =
    B.cls "t.Tagged"
      [
        B.meth "m" (fun m ->
            let x = B.local m "x" in
            B.const m ~tag:"src" x (B.s "secret");
            B.scall m ~tag:"sink" "t.Sink" "leak" [ B.v x ]);
      ]
  in
  let b = body_of c "m" in
  Alcotest.(check int) "one src" 1 (List.length (Body.find_tagged b "src"));
  Alcotest.(check int) "one sink" 1 (List.length (Body.find_tagged b "sink"));
  Alcotest.(check int) "none" 0 (List.length (Body.find_tagged b "zzz"))

let test_uses_local () =
  let c =
    B.cls "t.Uses"
      [
        B.meth "m" (fun m ->
            let x = B.local m "x" and y = B.local m "y" in
            B.const m x (B.i 1);
            B.move m y x;
            B.store m y (B.fld "t.Uses" "f") (B.v x));
      ]
  in
  let b = body_of c "m" in
  let x = S.mk_local "x" and y = S.mk_local "y" in
  Alcotest.(check bool) "x=1 doesn't use x" false (Body.uses_local (Body.stmt b 0) x);
  Alcotest.(check bool) "y=x uses x" true (Body.uses_local (Body.stmt b 1) x);
  Alcotest.(check bool) "y.f=x uses both" true
    (Body.uses_local (Body.stmt b 2) x && Body.uses_local (Body.stmt b 2) y)

(* ---------------- scene & hierarchy ---------------- *)

let hierarchy_scene () =
  let sc = Scene.create () in
  Scene.add_class sc (Jclass.mk "java.lang.Object" ~super:None);
  Scene.add_class sc
    (B.iface "t.Listener" [ B.abstract_meth "onEvent" ~params:[ T.Int ] ]);
  Scene.add_class sc (B.cls "t.Base" [ B.meth "m" (fun m -> B.ret m) ]);
  Scene.add_class sc
    (B.cls "t.Mid" ~super:"t.Base" ~interfaces:[ "t.Listener" ]
       [ B.meth "onEvent" ~params:[ T.Int ] (fun m -> B.ret m) ]);
  Scene.add_class sc
    (B.cls "t.Leaf" ~super:"t.Mid" [ B.meth "m" (fun m -> B.ret m) ]);
  sc

let test_subtyping () =
  let sc = hierarchy_scene () in
  Alcotest.(check bool) "leaf <: base" true (Scene.is_subtype sc "t.Leaf" "t.Base");
  Alcotest.(check bool) "leaf <: listener (via mid)" true
    (Scene.is_subtype sc "t.Leaf" "t.Listener");
  Alcotest.(check bool) "base not <: mid" false
    (Scene.is_subtype sc "t.Base" "t.Mid");
  Alcotest.(check bool) "anything <: Object" true
    (Scene.is_subtype sc "t.Base" "java.lang.Object");
  Alcotest.(check bool) "reflexive" true (Scene.is_subtype sc "t.Mid" "t.Mid")

let test_phantom_resolve () =
  let sc = hierarchy_scene () in
  let c = Scene.resolve sc "android.app.Activity" in
  Alcotest.(check bool) "phantom" true c.Jclass.c_phantom;
  Alcotest.(check bool) "now registered" true (Scene.mem sc "android.app.Activity");
  Alcotest.(check bool) "phantom <: Object" true
    (Scene.is_subtype sc "android.app.Activity" "java.lang.Object")

let test_dispatch () =
  let sc = hierarchy_scene () in
  (* m declared on Base, overridden on Leaf: call with static type Base
     can dispatch to Base.m (for Base/Mid receivers) or Leaf.m *)
  let targets = Scene.dispatch_targets sc ~static_type:"t.Base" ("m", []) in
  let names =
    List.sort compare
      (List.map (fun ((c : Jclass.t), _) -> c.Jclass.c_name) targets)
  in
  Alcotest.(check (list string)) "CHA targets" [ "t.Base"; "t.Leaf" ] names;
  (* dispatch on the interface type reaches the implementor *)
  let tgts2 =
    Scene.dispatch_targets sc ~static_type:"t.Listener" ("onEvent", [ T.Int ])
  in
  Alcotest.(check (list string)) "interface dispatch" [ "t.Mid" ]
    (List.map (fun ((c : Jclass.t), _) -> c.Jclass.c_name) tgts2)

let test_resolve_concrete_inherited () =
  let sc = hierarchy_scene () in
  (* Mid inherits m from Base *)
  match Scene.resolve_concrete sc "t.Mid" ("m", []) with
  | Some (c, _) -> Alcotest.(check string) "declared on Base" "t.Base" c.Jclass.c_name
  | None -> Alcotest.fail "resolution failed"

let test_duplicate_class () =
  let sc = hierarchy_scene () in
  Alcotest.check_raises "duplicate" (Scene.Duplicate_class "t.Base") (fun () ->
      Scene.add_class sc (B.cls "t.Base" []))

let test_superclasses_chain () =
  let sc = hierarchy_scene () in
  Alcotest.(check (list string)) "chain"
    [ "t.Mid"; "t.Base"; "java.lang.Object" ]
    (Scene.superclasses sc "t.Leaf")

(* ---------------- scene memo: differential ---------------- *)

(* Random registration sequences interleaved with hierarchy queries:
   after every step, each answer of the memoising scene must equal the
   answer of a scene built fresh from the same registrations in the
   same order.  A small name universe makes classes name each other
   often (subclasses registered before their superclasses, interface
   cycles).  [Fill_to 256] brings the class table to the size at which
   the next new class doubles its 128-bucket array, and queries run
   in between, so memo entries are live when it grows.  Every
   registered class carries a field named after its registration
   number, so an answer holding a replaced class's old record shows
   up as a difference. *)

type scene_op =
  | Add of Jclass.t  (** [add_class]; a duplicate raises in both scenes *)
  | Replace of Jclass.t  (** [add_or_replace] *)
  | Resolve of string
  | Fill_to of int  (** add filler classes up to this many classes *)
  | Copy  (** continue on a [Scene.copy] of the memoising scene *)

let memo_names =
  [ "A"; "B"; "C"; "D"; "I"; "J"; "java.lang.Object"; "Missing" ]

let memo_subsigs = [ ("m", []); ("n", [ T.Int ]) ]

(* superclass chains only run up [memo_names] (a superclass cycle would
   not terminate [resolve_concrete]); interfaces may name anything *)
let gen_memo_class serial =
  let open QCheck.Gen in
  let* i = int_bound (List.length memo_names - 1) in
  let name = List.nth memo_names i in
  let above = List.filteri (fun j _ -> j > i) memo_names in
  let* super = if above = [] then return None else opt (oneofl above) in
  let* interfaces = list_size (int_bound 2) (oneofl [ "I"; "J"; "A" ]) in
  let* is_interface = frequency [ (4, return false); (1, return true) ] in
  let* meths = list_size (int_bound 2) (pair (oneofl memo_subsigs) bool) in
  let methods =
    List.map
      (fun ((mn, ps), abstract) ->
        Jclass.mk_method ~abstract (Types.mk_method ~params:ps name mn))
      meths
  in
  let fields = [ Types.mk_field name (Printf.sprintf "gen%d" serial) ] in
  return
    (Jclass.mk name ~super ~interfaces ~is_interface ~fields ~methods)

(* filler [i] extends one of [memo_names], so it lands in their
   [subtypes] lists *)
let filler i =
  let name = Printf.sprintf "F%d" i in
  Jclass.mk name
    ~super:(Some (List.nth memo_names (i mod List.length memo_names)))
    ~fields:[ Types.mk_field name "filler" ]
    ~methods:
      (if i mod 3 = 0 then [ Jclass.mk_method (Types.mk_method name "m") ]
       else [])

let gen_scene_ops =
  let open QCheck.Gen in
  let serial = ref 0 in
  let next () = incr serial; !serial in
  let op =
    frequency
      [
        (4, map (fun c -> Add c) (delay (fun () -> gen_memo_class (next ()))));
        (4, map (fun c -> Replace c) (delay (fun () -> gen_memo_class (next ()))));
        (2, map (fun n -> Resolve n) (oneofl memo_names));
        (2, map (fun () -> Resolve (Printf.sprintf "P%d" (next ()))) unit);
        (1, map (fun n -> Fill_to n) (oneofl [ 128; 256; 256 ]));
        (1, return Copy);
      ]
  in
  list_size (int_range 1 30) op

let apply_op sc = function
  | Add c -> (
      try Scene.add_class sc c with Scene.Duplicate_class _ -> ())
  | Replace c -> Scene.add_or_replace sc c
  | Resolve n -> ignore (Scene.resolve sc n)
  | Fill_to n ->
      for i = List.length (Scene.all_classes sc) to n - 1 do
        Scene.add_class sc (filler i)
      done
  | Copy -> ()

let show_op = function
  | Add c -> "add " ^ c.Jclass.c_name
  | Replace c -> "replace " ^ c.Jclass.c_name
  | Resolve n -> "resolve " ^ n
  | Fill_to n -> Printf.sprintf "fill to %d" n
  | Copy -> "copy"

(* a class's identity: its name and its registration number (phantoms
   materialised by [resolve] have none) *)
let class_id (c : Jclass.t) =
  c.Jclass.c_name
  ^ String.concat "" (List.map (fun f -> "#" ^ f.Types.f_name) c.Jclass.c_fields)

let pair_id (c, (m : Jclass.jmethod)) =
  class_id c ^ "." ^ m.Jclass.jm_sig.Types.m_name

(* every answer the memo serves, rendered; querying also fills the
   memo of the scene being asked *)
let scene_answers sc =
  List.concat_map
    (fun n ->
      [
        "sup " ^ n ^ ": " ^ String.concat "," (Scene.supertypes sc n);
        "sub " ^ n ^ ": "
        ^ String.concat "," (List.map class_id (Scene.subtypes sc n));
        "is " ^ n ^ ": "
        ^ String.concat ","
            (List.map
               (fun m -> if Scene.is_subtype sc n m then "1" else "0")
               memo_names);
      ]
      @ List.concat_map
          (fun ((mn, _) as subsig) ->
            [
              "dispatch " ^ n ^ "." ^ mn ^ ": "
              ^ String.concat ","
                  (List.map pair_id
                     (Scene.dispatch_targets sc ~static_type:n subsig));
              "concrete " ^ n ^ "." ^ mn ^ ": "
              ^ (match Scene.resolve_concrete sc n subsig with
                | Some p -> pair_id p
                | None -> "-");
            ])
          memo_subsigs)
    memo_names

let prop_scene_memo_differential =
  QCheck.Test.make ~name:"scene memo answers equal a fresh scene's"
    ~count:150
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       gen_scene_ops)
    (fun ops ->
      let memo = ref (Scene.create ()) in
      ignore (scene_answers !memo);
      List.for_all
        (fun (i, op) ->
          (match op with Copy -> memo := Scene.copy !memo | _ -> ());
          apply_op !memo op;
          let fresh = Scene.create () in
          List.iteri (fun j o -> if j <= i then apply_op fresh o) ops;
          let got = scene_answers !memo and want = scene_answers fresh in
          List.equal String.equal got want
          || QCheck.Test.fail_reportf "after step %d (%s):\n%s" i (show_op op)
               (String.concat "\n"
                  (List.filter_map
                     (fun (g, w) ->
                       if String.equal g w then None
                       else Some (Printf.sprintf "memo  %s\nfresh %s" g w))
                     (List.combine got want))))
        (List.mapi (fun i op -> (i, op)) ops))

(* ---------------- pretty / parser round-trip ---------------- *)

let leakage_like () =
  let user_t = T.Ref "de.User" in
  B.cls "de.LeakageApp" ~super:"android.app.Activity"
    ~fields:[ ("user", user_t) ]
    [
      B.meth "onRestart" (fun m ->
          let this = B.this m in
          let et = B.local m "et" ~ty:(T.Ref "android.widget.EditText") in
          let pwd = B.local m "pwd" in
          let u = B.local m "u" ~ty:user_t in
          B.vcall m ~ret:et this "android.app.Activity" "findViewById"
            [ B.i 42 ];
          B.vcall m ~ret:pwd et "android.widget.EditText" "toString" [];
          B.ifgoto m (B.v pwd) S.Ceq B.nul "out";
          B.newc m u "de.User" [ B.v pwd ];
          B.store m this (B.fld "de.LeakageApp" "user") (B.v u);
          B.label m "out";
          B.ret m);
      B.meth "sendMessage" ~params:[ T.Ref "android.view.View" ] (fun m ->
          let this = B.this m in
          let _view = B.param m 0 "view" in
          let u = B.local m "u" in
          let p = B.local m "p" in
          let sms = B.local m "sms" in
          let obf = B.local m "obf" in
          B.load m u this (B.fld "de.LeakageApp" "user");
          B.ifgoto m (B.v u) S.Ceq B.nul "out";
          B.vcall m ~ret:p u "de.User" "getPassword" [];
          B.const m obf (B.s "");
          B.label m "loop";
          B.binop m obf "+" (B.v obf) (B.v p);
          B.ifgoto m (B.v obf) S.Cne B.nul "loop";
          B.scall m ~ret:sms "android.telephony.SmsManager" "getDefault" [];
          B.vcall m ~tag:"sms-sink" sms "android.telephony.SmsManager"
            "sendTextMessage"
            [ B.s "+44 020"; B.nul; B.v obf; B.nul; B.nul ];
          B.label m "out";
          B.ret m);
      B.native_meth "nativeHelper" ~params:[ T.Ref "java.lang.Object" ]
        ~ret:(T.Ref "java.lang.Object");
    ]

let norm_class (c : Jclass.t) = Pretty.class_to_string c

let test_roundtrip_leakage () =
  let c = leakage_like () in
  let printed = Pretty.class_to_string c in
  match Parser.parse_string printed with
  | [ c2 ] ->
      Alcotest.(check string) "round-trip stable" printed (norm_class c2)
  | cs -> Alcotest.fail (Printf.sprintf "expected 1 class, got %d" (List.length cs))

let test_parse_handwritten () =
  let src =
    {|
// a hand-written µJimple unit
class t.Handwritten extends java.lang.Object implements t.I {
  field data : java.lang.String;
  static method void main() {
    local o : t.Handwritten;
    local s : java.lang.String;
    local arr : int[];
    o = new t.Handwritten;
    specialinvoke o.t.Handwritten#<init>();
    s = staticinvoke t.Source#secret() @"src";
    o.t.Handwritten#data = s;
    s = o.t.Handwritten#data;
    arr = newarray int[10];
    arr[0] = 5;
    static t.G#cache = s;
    s = static t.G#cache;
   top:
    if s == null goto done;
    staticinvoke t.Sink#leak(s) @"snk";
    goto top;
   done:
    return;
  }
}
interface t.I {
  abstract method void poke(int);
}
|}
  in
  match Parser.parse_string src with
  | [ c; i ] ->
      Alcotest.(check string) "class name" "t.Handwritten" c.Jclass.c_name;
      Alcotest.(check bool) "interface flag" true i.Jclass.c_is_interface;
      Alcotest.(check (list string)) "implements" [ "t.I" ] c.Jclass.c_interfaces;
      let m = Option.get (Jclass.find_method_named c "main") in
      Alcotest.(check bool) "static" true m.Jclass.jm_static;
      let b = Option.get m.Jclass.jm_body in
      (* tags survived *)
      Alcotest.(check int) "src tag" 1 (List.length (Body.find_tagged b "src"));
      Alcotest.(check int) "snk tag" 1 (List.length (Body.find_tagged b "snk"));
      (* parse -> print -> parse is stable *)
      let p1 = Pretty.class_to_string c in
      (match Parser.parse_string p1 with
      | [ c2 ] -> Alcotest.(check string) "stable" p1 (Pretty.class_to_string c2)
      | _ -> Alcotest.fail "re-parse failed")
  | cs -> Alcotest.fail (Printf.sprintf "expected 2 classes, got %d" (List.length cs))

let test_parse_errors () =
  let bad =
    [
      "class {";
      "class A extends {";
      "class A { field x }";
      "class A { method void m() { x = ; } }";
      "class A { method void m() { goto missing; } }";
      "class A { method void m() { if x == goto l; } }";
      "klass A {}";
    ]
  in
  List.iter
    (fun src ->
      match Parser.parse_string src with
      | exception Parser.Parse_error _ -> ()
      | exception Lexer.Lex_error _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "expected parse error on %S" src))
    bad

let test_parse_comments_and_ops () =
  let src =
    {|
class t.Ops {
  method int f(int, int) {
    local a : int; local b : int; local c : int;
    a := @parameter0;
    b := @parameter1;
    /* block comment */
    c = a + b;
    c = a - b;
    c = a * b;
    c = c << a;
    c = neg c;
    if a < b goto l;
    if a >= b goto l;
   l:
    return c;
  }
}
|}
  in
  match Parser.parse_string src with
  | [ c ] ->
      let m = Option.get (Jclass.find_method_named c "f") in
      let b = Option.get m.Jclass.jm_body in
      Alcotest.(check int) "stmt count" 10 (Body.length b);
      let p = Pretty.class_to_string c in
      (match Parser.parse_string p with
      | [ c2 ] -> Alcotest.(check string) "stable" p (Pretty.class_to_string c2)
      | _ -> Alcotest.fail "re-parse failed")
  | _ -> Alcotest.fail "parse failed"

(* property: every DSL-built random straight-line body round-trips *)

let gen_prog : Jclass.t QCheck.Gen.t =
  let open QCheck.Gen in
  let* n = int_range 1 12 in
  let* ops = list_size (return n) (int_bound 6) in
  return
    (B.cls "t.Rand"
       [
         B.meth "m" (fun m ->
             let x = B.local m "x" and y = B.local m "y" in
             B.const m x (B.i 0);
             B.const m y (B.s "s");
             List.iter
               (fun op ->
                 match op with
                 | 0 -> B.move m x y
                 | 1 -> B.binop m x "+" (B.v x) (B.v y)
                 | 2 -> B.store m x (B.fld "t.Rand" "f") (B.v y)
                 | 3 -> B.load m y x (B.fld "t.Rand" "f")
                 | 4 -> B.scall m ~ret:y "t.Lib" "id" [ B.v x ]
                 | 5 -> B.newc m x "t.Rand" []
                 | _ -> B.cast m y (T.Ref "java.lang.String") (B.v x))
               ops);
       ])

let prop_print_parse_roundtrip =
  QCheck.Test.make ~name:"pretty/parse round-trip (random programs)" ~count:100
    (QCheck.make ~print:Pretty.class_to_string gen_prog) (fun c ->
      let p = Pretty.class_to_string c in
      match Parser.parse_string p with
      | [ c2 ] -> Pretty.class_to_string c2 = p
      | _ -> false)

(* fuzz: arbitrary input never crashes the textual frontend with
   anything other than its declared exceptions *)
let prop_parser_total =
  QCheck.Test.make ~name:"parser is total (errors are Parse/Lex_error)"
    ~count:500
    QCheck.(string_gen_of_size (QCheck.Gen.int_bound 200) QCheck.Gen.printable)
    (fun src ->
      match Parser.parse_string src with
      | _ -> true
      | exception Parser.Parse_error _ -> true
      | exception Lexer.Lex_error _ -> true
      | exception _ -> false)

(* fuzz around valid programs: mutate a printed class by deleting a
   random slice; must never crash with an unexpected exception *)
let prop_parser_mutation =
  QCheck.Test.make ~name:"parser survives mutations of valid programs"
    ~count:300
    QCheck.(pair (int_bound 1000) (pair small_nat small_nat))
    (fun (seed, (ofs, len)) ->
      ignore seed;
      let valid = Pretty.class_to_string (simple_class ()) in
      let n = String.length valid in
      let ofs = ofs mod n in
      let len = min len (n - ofs) in
      let mutated =
        String.sub valid 0 ofs ^ String.sub valid (ofs + len) (n - ofs - len)
      in
      match Parser.parse_string mutated with
      | _ -> true
      | exception Parser.Parse_error _ -> true
      | exception Lexer.Lex_error _ -> true
      | exception _ -> false)

(* ---------------- token-stream pin ---------------- *)

(* Every token's (constructor, payload, line) over a fixed corpus,
   folded into one MD5 per source set, plus the exception and line of
   a fixed list of malformed inputs — recorded in [tokens.expected].
   On a mismatch the current rendering is written to [tokens.actual]
   for diffing. *)

let render_tokens buf src =
  let lx = Lexer.create src in
  let rec go n =
    match Lexer.next lx with
    | Lexer.EOF -> n
    | tok ->
        Buffer.add_string buf (Lexer.string_of_token tok);
        Buffer.add_char buf '@';
        Buffer.add_string buf (string_of_int (Lexer.line lx));
        Buffer.add_char buf '\n';
        go (n + 1)
  in
  go 0

let jimple_files root =
  let rec walk dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun e ->
           let p = Filename.concat dir e in
           if Sys.is_directory p then walk p
           else if Filename.check_suffix p ".jimple" then [ p ]
           else [])
  in
  walk root

let token_corpora () =
  let read p = In_channel.with_open_bin p In_channel.input_all in
  let printed classes = List.map Pretty.class_to_string classes in
  let generated profile =
    Fd_appgen.Generator.corpus ~profile ~seed:13 60
    |> List.concat_map (fun (ga : Fd_appgen.Generator.gen_app) ->
           printed ga.ga_apk.Fd_frontend.Apk.apk_classes)
  in
  [
    ("examples/apps", List.map read (jimple_files "../examples/apps"));
    ("examples/repro", List.map read (jimple_files "../examples/repro"));
    ( "droidbench",
      List.concat_map
        (fun (a : Fd_droidbench.Bench_app.t) ->
          printed a.app_apk.Fd_frontend.Apk.apk_classes)
        Fd_droidbench.Suite.all );
    ("gen-play", generated Fd_appgen.Generator.Play);
    ("gen-malware", generated Fd_appgen.Generator.Malware);
    ("gen-icc", generated Fd_appgen.Generator.Icc);
  ]

let malformed_sources =
  [
    "class A {\n  /* never\n  closed\n";
    "class A { /* **";
    "class A {\n  method void m() {\n    x = \"spans\nlines\n";
    "class A {\n  method void m() {\n    x = \"a\\qb\";\n  }\n}";
    "class A {\n  method void m() {\n    x = \"line\nthen \\z\";\n  }\n}";
    "x = \"trailing\\";
    "x = \"\\1a\\065\\t\\\"\";\n y = !x;";
    "class A {\n  method void m() {\n    if x !x goto l;\n  }\n}";
    "class A {\n  method void <init\n() { return; }\n}";
    "class A {\n  method void <init>() {\n    a = b <clinit;\n  }\n}";
    "class A {\n  method void m() {\n    a = b <= c << d >= e >> f - 3 -x;\n  }\n}";
    "class A {\n  // comment\n  field f : int;\n  `\n}";
    "class A {\n  method void m() {\n    a.b.c.#f = 1;\n  }\n}";
  ]

let render_malformed src =
  let lexed =
    let lx = Lexer.create src in
    let rec go n =
      match Lexer.next lx with
      | Lexer.EOF -> Printf.sprintf "lex: %d tokens, EOF at line %d" n (Lexer.line lx)
      | _ -> go (n + 1)
      | exception Lexer.Lex_error (line, msg) ->
          Printf.sprintf "lex: Lex_error line %d after %d tokens: %S" line n msg
    in
    go 0
  in
  let parsed =
    match Parser.parse_string src with
    | cs -> Printf.sprintf "parse: %d classes" (List.length cs)
    | exception Parser.Parse_error (line, msg) ->
        Printf.sprintf "parse: Parse_error line %d: %S" line msg
    | exception Lexer.Lex_error (line, msg) ->
        Printf.sprintf "parse: Lex_error line %d: %S" line msg
  in
  Printf.sprintf "%S\n  %s\n  %s\n" src lexed parsed

let test_token_stream_pinned () =
  let corpora =
    List.map
      (fun (name, sources) ->
        let buf = Buffer.create (1 lsl 20) in
        let n = List.fold_left (fun n src -> n + render_tokens buf src) 0 sources in
        Printf.sprintf "%s: %d sources, %d tokens, md5 %s\n" name
          (List.length sources) n
          (Digest.to_hex (Digest.string (Buffer.contents buf))))
      (token_corpora ())
  in
  let actual =
    String.concat "" corpora
    ^ String.concat "" (List.map render_malformed malformed_sources)
  in
  let expected = In_channel.with_open_bin "tokens.expected" In_channel.input_all in
  if not (String.equal expected actual) then
    Out_channel.with_open_bin "tokens.actual" (fun oc ->
        Out_channel.output_string oc actual);
  Alcotest.(check string) "token stream" expected actual

(* splice fuzz: insert fragments at random offsets inside valid
   pretty-printed classes, biased to what the lexer must reject or
   bound — quotes and escapes, long digit runs, negative numbers,
   comment openers, '<', ':=' and '!' — so that the input gets past
   [class] and deep into the lexer; only [Parse_error]/[Lex_error]
   may escape *)
let splice_bases =
  Array.of_list
    (Pretty.class_to_string (simple_class ())
    :: List.concat_map
         (fun (a : Fd_droidbench.Bench_app.t) ->
           List.map Pretty.class_to_string a.app_apk.Fd_frontend.Apk.apk_classes)
         (List.filteri (fun i _ -> i < 12) Fd_droidbench.Suite.all))

let gen_fragment =
  let open QCheck.Gen in
  let digits lo hi = map (String.concat "") (list_size (int_range lo hi) (map string_of_int (int_bound 9))) in
  frequency
    [
      (3, return "\"\\");
      (2, map (fun d -> "\\" ^ d) (digits 1 3));
      (3, digits 20 30);
      (3, map (fun d -> "-" ^ d) (digits 1 25));
      (2, return "/*");
      (2, return "<");
      (2, return ":=");
      (2, return "!");
      (1, string_size ~gen:printable (int_bound 4));
    ]

let gen_splice =
  let open QCheck.Gen in
  pair (int_bound (Array.length splice_bases - 1))
    (list_size (int_range 1 4) (pair nat gen_fragment))
  |> map (fun (k, frags) ->
         List.fold_left
           (fun src (ofs, frag) ->
             let ofs = ofs mod (String.length src + 1) in
             String.sub src 0 ofs ^ frag ^ String.sub src ofs (String.length src - ofs))
           splice_bases.(k) frags)

let prop_parser_splice =
  QCheck.Test.make ~name:"parser survives fragments spliced into valid classes"
    ~count:1000 (QCheck.make ~print:(Printf.sprintf "%S") gen_splice)
    (fun src ->
      match Parser.parse_string src with
      | _ -> true
      | exception Parser.Parse_error _ -> true
      | exception Lexer.Lex_error _ -> true
      | exception e -> QCheck.Test.fail_reportf "escaped: %s" (Printexc.to_string e))

let prop_body_succs_in_range =
  QCheck.Test.make ~name:"all successors are valid indices" ~count:100
    (QCheck.make ~print:Pretty.class_to_string gen_prog) (fun c ->
      List.for_all
        (fun (m : Jclass.jmethod) ->
          match m.Jclass.jm_body with
          | None -> true
          | Some b ->
              let ok = ref true in
              Body.iter b (fun s ->
                  List.iter
                    (fun j -> if j < 0 || j >= Body.length b then ok := false)
                    (Body.succs b s.S.s_idx));
              !ok)
        c.Jclass.c_methods)

let () =
  Alcotest.run "fd_ir"
    [
      ( "types",
        [
          Alcotest.test_case "string round-trip" `Quick test_typ_string_roundtrip;
          Alcotest.test_case "equality" `Quick test_typ_equal;
          Alcotest.test_case "method sig printing" `Quick test_method_sig_string;
        ] );
      ( "builder",
        [
          Alcotest.test_case "basic" `Quick test_builder_basic;
          Alcotest.test_case "cfg succs/preds" `Quick test_cfg_succs_preds;
          Alcotest.test_case "undefined label" `Quick test_label_resolution_error;
          Alcotest.test_case "duplicate label" `Quick test_duplicate_label_error;
          Alcotest.test_case "local interning" `Quick test_local_interning;
          Alcotest.test_case "no auto-return after goto" `Quick
            test_goto_no_auto_return;
          Alcotest.test_case "exit stmts" `Quick test_exit_stmts;
          Alcotest.test_case "tags" `Quick test_find_tagged;
          Alcotest.test_case "uses_local" `Quick test_uses_local;
        ] );
      ( "scene",
        [
          Alcotest.test_case "subtyping" `Quick test_subtyping;
          Alcotest.test_case "phantoms" `Quick test_phantom_resolve;
          Alcotest.test_case "CHA dispatch" `Quick test_dispatch;
          Alcotest.test_case "inherited resolution" `Quick
            test_resolve_concrete_inherited;
          Alcotest.test_case "duplicate class" `Quick test_duplicate_class;
          Alcotest.test_case "superclass chain" `Quick test_superclasses_chain;
          QCheck_alcotest.to_alcotest prop_scene_memo_differential;
        ] );
      ( "text",
        [
          Alcotest.test_case "round-trip LeakageApp" `Quick test_roundtrip_leakage;
          Alcotest.test_case "hand-written unit" `Quick test_parse_handwritten;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "token stream pinned" `Quick test_token_stream_pinned;
          Alcotest.test_case "comments and operators" `Quick
            test_parse_comments_and_ops;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_print_parse_roundtrip; prop_body_succs_in_range;
            prop_parser_total; prop_parser_mutation; prop_parser_splice ] );
    ]

(* Tests for the taint engine core: access paths, the bidirectional
   solver on the paper's own example programs (Listing 2, Listing 3,
   Figure 2), and the deliberate imprecisions (arrays, no strong
   updates on the heap). *)

open Fd_ir
open Fd_core
module B = Build
module T = Types
module AP = Access_path
module SS = Fd_frontend.Sourcesink

(* ---------------- access paths ---------------- *)

let loc name = Stmt.mk_local name
let f name = Types.mk_field "t.C" name

let test_ap_basic () =
  let x = AP.of_local (loc "x") in
  let xf = AP.of_field (loc "x") (f "f") in
  Alcotest.(check string) "print" "x.f" (AP.to_string xf);
  Alcotest.(check bool) "x prefix of x.f" true (AP.has_prefix ~prefix:x xf);
  Alcotest.(check bool) "x.f not prefix of x" false (AP.has_prefix ~prefix:xf x);
  Alcotest.(check bool) "covers" true (AP.covers ~taint:x xf);
  Alcotest.(check bool) "reaches both ways" true (AP.reaches ~taint:xf x)

let test_ap_rebase () =
  let xfg =
    { AP.base = AP.Bloc (loc "x"); AP.fields = [ f "f"; f "g" ] }
  in
  let yf = AP.of_field (loc "y") (f "f") in
  (match AP.rebase ~k:5 ~from:(AP.of_local (loc "x")) ~to_:yf xfg with
  | Some ap -> Alcotest.(check string) "x.f.g[x->y.f]" "y.f.f.g" (AP.to_string ap)
  | None -> Alcotest.fail "rebase failed");
  (match
     AP.rebase ~k:5 ~from:(AP.of_field (loc "x") (f "f")) ~to_:(AP.of_local (loc "z")) xfg
   with
  | Some ap -> Alcotest.(check string) "x.f.g[x.f->z]" "z.g" (AP.to_string ap)
  | None -> Alcotest.fail "rebase failed");
  Alcotest.(check bool) "no match" true
    (AP.rebase ~k:5 ~from:(AP.of_field (loc "x") (f "h"))
       ~to_:(AP.of_local (loc "z")) xfg
    = None)

let test_ap_truncation () =
  let deep =
    { AP.base = AP.Bloc (loc "x");
      AP.fields = [ f "a"; f "b"; f "c"; f "d"; f "e"; f "f" ] }
  in
  let tr = AP.truncate ~k:3 deep in
  Alcotest.(check int) "len 3" 3 (AP.length tr);
  Alcotest.(check string) "kept prefix" "x.a.b.c" (AP.to_string tr);
  (* truncation widens: the truncated path covers the original *)
  Alcotest.(check bool) "covers original" true (AP.covers ~taint:tr deep)

(* property: rebase round-trips *)
let gen_fields = QCheck.Gen.(list_size (int_bound 4) (oneofl [ "f"; "g"; "h" ]))

let prop_rebase_roundtrip =
  QCheck.Test.make ~name:"rebase x->y then y->x is identity (k large)"
    ~count:300
    (QCheck.make gen_fields)
    (fun fields ->
      let ap =
        { AP.base = AP.Bloc (loc "x"); AP.fields = List.map f fields }
      in
      match
        AP.rebase ~k:100 ~from:(AP.of_local (loc "x"))
          ~to_:(AP.of_local (loc "y")) ap
      with
      | None -> false
      | Some ap' -> (
          match
            AP.rebase ~k:100 ~from:(AP.of_local (loc "y"))
              ~to_:(AP.of_local (loc "x")) ap'
          with
          | None -> false
          | Some ap'' -> AP.equal ap ap''))

let prop_truncate_widens =
  QCheck.Test.make ~name:"truncation covers the original path" ~count:300
    (QCheck.make QCheck.Gen.(pair (int_range 0 3) gen_fields))
    (fun (kk, fields) ->
      let ap = { AP.base = AP.Bloc (loc "x"); AP.fields = List.map f fields } in
      AP.covers ~taint:(AP.truncate ~k:kk ap) ap)

(* ---------------- engine harness ---------------- *)

let test_defs =
  SS.create
    [
      SS.Return_source { cls = "t.Source"; mname = "secret"; cat = SS.Generic };
      SS.Sink { cls = "t.Sink"; mname = "leak"; cat = SS.Generic };
    ]

let analyze ?config classes entries =
  Infoflow.analyze_plain ?config ~classes
    ~entries:
      (List.map
         (fun (c, m) ->
           Fd_callgraph.Mkey.{ mk_class = c; mk_name = m; mk_arity = 0 })
         entries)
    ~defs:test_defs ()

let flow_pairs (r : Infoflow.result) =
  List.map
    (fun (fd : Bidi.finding) ->
      ( Option.value fd.Bidi.f_source.Taint.si_tag ~default:"?",
        Option.value fd.Bidi.f_sink_tag ~default:"?" ))
    r.Infoflow.r_findings
  |> List.sort_uniq compare

let check_flows ?config name classes entries expected =
  let r = analyze ?config classes entries in
  Alcotest.(check (list (pair string string)))
    name
    (List.sort_uniq compare expected)
    (flow_pairs r)

(* shorthand for a source call: x = t.Source#secret() *)
let src m ?tag x = B.scall m ?tag ~ret:x "t.Source" "secret" []
let snk m ?tag x = B.scall m ?tag "t.Sink" "leak" [ B.v x ]

(* ---------------- direct flows ---------------- *)

let test_direct_flow () =
  let c =
    B.cls "t.A"
      [
        B.meth "main" ~static:true (fun m ->
            let x = B.local m "x" in
            src m ~tag:"s" x;
            snk m ~tag:"k" x);
      ]
  in
  check_flows "direct" [ c ] [ ("t.A", "main") ] [ ("s", "k") ]

let test_no_flow () =
  let c =
    B.cls "t.A"
      [
        B.meth "main" ~static:true (fun m ->
            let x = B.local m "x" and y = B.local m "y" in
            src m ~tag:"s" x;
            B.const m y (B.s "benign");
            snk m ~tag:"k" y);
      ]
  in
  check_flows "no flow" [ c ] [ ("t.A", "main") ] []

let test_local_strong_update () =
  let c =
    B.cls "t.A"
      [
        B.meth "main" ~static:true (fun m ->
            let x = B.local m "x" in
            src m ~tag:"s" x;
            B.const m x (B.s "overwritten");
            snk m ~tag:"k" x);
      ]
  in
  check_flows "local kill" [ c ] [ ("t.A", "main") ] []

let test_new_kills () =
  let c =
    B.cls "t.A"
      [
        B.meth "main" ~static:true (fun m ->
            let x = B.local m "x" in
            src m ~tag:"s" x;
            B.newobj m x "t.Obj";
            snk m ~tag:"k" x);
      ]
  in
  check_flows "new kills" [ c ] [ ("t.A", "main") ] []

let test_no_heap_strong_update () =
  (* the Button2 imprecision: overwriting a field with clean data does
     not kill the taint *)
  let fld = B.fld "t.Box" "v" in
  let c =
    B.cls "t.A"
      [
        B.meth "main" ~static:true (fun m ->
            let b = B.local m "b" and x = B.local m "x" and y = B.local m "y" in
            B.newc m b "t.Box" [];
            src m ~tag:"s" x;
            B.store m b fld (B.v x);
            B.const m x (B.s "clean");
            B.store m b fld (B.v x);
            B.load m y b fld;
            snk m ~tag:"k" y);
      ]
  in
  check_flows "no heap strong update (deliberate FP)" [ c ]
    [ ("t.A", "main") ]
    [ ("s", "k") ]

(* ---------------- field sensitivity ---------------- *)

let test_field_sensitivity () =
  let fpwd = B.fld "t.User" "pwd" and fname = B.fld "t.User" "name" in
  let c =
    B.cls "t.A"
      [
        B.meth "main" ~static:true (fun m ->
            let u = B.local m "u" in
            let p = B.local m "p" and n = B.local m "n" in
            let o1 = B.local m "o1" and o2 = B.local m "o2" in
            B.newc m u "t.User" [];
            src m ~tag:"s" p;
            B.const m n (B.s "alice");
            B.store m u fpwd (B.v p);
            B.store m u fname (B.v n);
            B.load m o1 u fname;
            snk m ~tag:"kname" o1;
            B.load m o2 u fpwd;
            snk m ~tag:"kpwd" o2);
      ]
  in
  check_flows "field sensitive" [ c ] [ ("t.A", "main") ] [ ("s", "kpwd") ]

let test_whole_object_at_sink () =
  (* passing an object with a tainted field to a sink leaks *)
  let fpwd = B.fld "t.User" "pwd" in
  let c =
    B.cls "t.A"
      [
        B.meth "main" ~static:true (fun m ->
            let u = B.local m "u" and p = B.local m "p" in
            B.newc m u "t.User" [];
            src m ~tag:"s" p;
            B.store m u fpwd (B.v p);
            snk m ~tag:"k" u);
      ]
  in
  check_flows "tainted field reaches sink via object" [ c ]
    [ ("t.A", "main") ]
    [ ("s", "k") ]

(* ---------------- arrays (deliberate imprecision) ---------------- *)

let test_array_whole_taint () =
  let c =
    B.cls "t.A"
      [
        B.meth "main" ~static:true (fun m ->
            let arr = B.local m "arr" and x = B.local m "x" and y = B.local m "y" in
            B.newarray m arr T.Int (B.i 10);
            src m ~tag:"s" x;
            B.astore m arr (B.i 0) (B.v x);
            B.aload m y arr (B.i 1);
            snk m ~tag:"k" y);
      ]
  in
  (* index-insensitive: arr[1] reads report even though only arr[0] is
     tainted — the ArrayAccess false-positive class *)
  check_flows "array index insensitivity (deliberate FP)" [ c ]
    [ ("t.A", "main") ]
    [ ("s", "k") ]

(* ---------------- interprocedural ---------------- *)

let test_return_flow () =
  let c =
    B.cls "t.A"
      [
        B.meth "getSecret" ~static:true ~ret:(T.Ref "java.lang.String")
          (fun m ->
            let x = B.local m "x" in
            src m ~tag:"s" x;
            B.retv m (B.v x));
        B.meth "main" ~static:true (fun m ->
            let y = B.local m "y" in
            B.scall m ~ret:y "t.A" "getSecret" [];
            snk m ~tag:"k" y);
      ]
  in
  check_flows "return value" [ c ] [ ("t.A", "main") ] [ ("s", "k") ]

let test_param_flow () =
  let c =
    B.cls "t.A"
      [
        B.meth "send" ~static:true ~params:[ T.Ref "java.lang.String" ]
          (fun m ->
            let p = B.param m 0 "p" in
            snk m ~tag:"k" p);
        B.meth "main" ~static:true (fun m ->
            let x = B.local m "x" in
            src m ~tag:"s" x;
            B.scall m "t.A" "send" [ B.v x ]);
      ]
  in
  check_flows "parameter passing" [ c ] [ ("t.A", "main") ] [ ("s", "k") ]

let test_context_sensitivity_plain () =
  (* id() called with tainted and untainted values: only the tainted
     call site leaks *)
  let c =
    B.cls "t.A"
      [
        B.meth "id" ~static:true ~params:[ T.Ref "java.lang.Object" ]
          ~ret:(T.Ref "java.lang.Object") (fun m ->
            let p = B.param m 0 "p" in
            B.retv m (B.v p));
        B.meth "main" ~static:true (fun m ->
            let x = B.local m "x" and y = B.local m "y" in
            let a = B.local m "a" and b = B.local m "b" in
            src m ~tag:"s" x;
            B.const m y (B.s "benign");
            B.scall m ~ret:a "t.A" "id" [ B.v x ];
            B.scall m ~ret:b "t.A" "id" [ B.v y ];
            snk m ~tag:"ka" a;
            snk m ~tag:"kb" b);
      ]
  in
  check_flows "context sensitivity" [ c ] [ ("t.A", "main") ] [ ("s", "ka") ]

let test_static_field_flow () =
  let g = B.fld ~ty:(T.Ref "java.lang.String") "t.G" "cache" in
  let c =
    B.cls "t.A"
      [
        B.meth "put" ~static:true (fun m ->
            let x = B.local m "x" in
            src m ~tag:"s" x;
            B.storestatic m g (B.v x));
        B.meth "get" ~static:true (fun m ->
            let y = B.local m "y" in
            B.loadstatic m y g;
            snk m ~tag:"k" y);
        B.meth "main" ~static:true (fun m ->
            B.scall m "t.A" "put" [];
            B.scall m "t.A" "get" []);
      ]
  in
  check_flows "static field" [ c ] [ ("t.A", "main") ] [ ("s", "k") ]

(* ---------------- the paper's programs ---------------- *)

(* Listing 2: context injection *)
let listing2 () =
  let ff = B.fld "t.Data" "f" in
  B.cls "t.L2"
    [
      B.meth "taintIt" ~static:true
        ~params:[ T.Ref "java.lang.String"; T.Ref "t.Data" ] (fun m ->
          let in_ = B.param m 0 "in" in
          let out = B.param m 1 "out" in
          let x = B.local m "x" in
          let v = B.local m "v" in
          B.move m x out;
          B.store m x ff (B.v in_);
          B.load m v out ff;
          snk m ~tag:"k11" v);
      B.meth "main" ~static:true (fun m ->
          let p = B.local m "p" and p2 = B.local m "p2" in
          let s = B.local m "s" and pub = B.local m "pub" in
          let v1 = B.local m "v1" and v2 = B.local m "v2" in
          B.newc m p "t.Data" [];
          B.newc m p2 "t.Data" [];
          src m ~tag:"s" s;
          B.scall m "t.L2" "taintIt" [ B.v s; B.v p ];
          B.load m v1 p ff;
          snk m ~tag:"k4" v1;
          B.const m pub (B.s "public");
          B.scall m "t.L2" "taintIt" [ B.v pub; B.v p2 ];
          B.load m v2 p2 ff;
          snk m ~tag:"k6" v2);
    ]

let test_listing2_context_injection () =
  (* leaks at line 11 (inside taintIt, tainted call only) and line 4
     (p.f); NO leak at line 6 (p2.f): that would be the unrealizable-
     path false positive of the naive handover *)
  check_flows "Listing 2 with context injection" [ listing2 () ]
    [ ("t.L2", "main") ]
    [ ("s", "k11"); ("s", "k4") ]

let test_listing2_naive_handover () =
  (* ablation reproducing Figure 3's naive handover: without context
     injection the p2.f leak at line 6 is (wrongly) reported too *)
  let config = { Config.default with Config.context_injection = false } in
  let r = analyze ~config [ listing2 () ] [ ("t.L2", "main") ] in
  let pairs = flow_pairs r in
  Alcotest.(check bool) "still finds the real leaks" true
    (List.mem ("s", "k11") pairs && List.mem ("s", "k4") pairs);
  Alcotest.(check bool) "naive handover adds the p2.f false positive" true
    (List.mem ("s", "k6") pairs)

(* Listing 3: activation statements *)
let listing3 () =
  let ff = B.fld "t.Data" "f" in
  B.cls "t.L3"
    [
      B.meth "main" ~static:true (fun m ->
          let p = B.local m "p" and p2 = B.local m "p2" in
          let s = B.local m "s" in
          let v1 = B.local m "v1" and v2 = B.local m "v2" in
          B.newc m p "t.Data" [];
          B.move m p2 p;
          B.load m v1 p2 ff;
          snk m ~tag:"k2" v1;
          src m ~tag:"s" s;
          B.store m p ff (B.v s);
          B.load m v2 p2 ff;
          snk m ~tag:"k4" v2);
    ]

let test_listing3_flow_sensitivity () =
  (* the first sink reads p2.f before p.f is tainted: no leak there *)
  check_flows "Listing 3 with activation statements" [ listing3 () ]
    [ ("t.L3", "main") ]
    [ ("s", "k4") ]

let test_listing3_andromeda_style () =
  (* ablation: without activation statements the alias p2.f is born
     active and the first sink reports a flow-insensitive false
     positive — the Andromeda behaviour the paper improves on *)
  let config = { Config.default with Config.activation_statements = false } in
  let r = analyze ~config [ listing3 () ] [ ("t.L3", "main") ] in
  let pairs = flow_pairs r in
  Alcotest.(check bool) "real leak found" true (List.mem ("s", "k4") pairs);
  Alcotest.(check bool) "flow-insensitive FP at the first sink" true
    (List.mem ("s", "k2") pairs)

(* Figure 2: taint analysis under realistic aliasing *)
let figure2 () =
  let fg = B.fld "t.A2" "g" in
  let ffld = B.fld "t.Obj" "f" in
  B.cls "t.F2"
    [
      B.meth "foo" ~static:true ~params:[ T.Ref "t.A2" ] (fun m ->
          let z = B.param m 0 "z" in
          let x = B.local m "x" in
          let w = B.local m "w" in
          B.load m x z fg;
          src m ~tag:"s" w;
          B.store m x ffld (B.v w));
      B.meth "main" ~static:true (fun m ->
          let a = B.local m "a" and b = B.local m "b" in
          let o = B.local m "o" and v = B.local m "v" in
          B.newc m a "t.A2" [];
          B.newc m o "t.Obj" [];
          B.store m a fg (B.v o);
          B.load m b a fg;
          B.scall m "t.F2" "foo" [ B.v a ];
          B.load m v b ffld;
          snk m ~tag:"k" v);
    ]

let test_figure2_aliasing () =
  check_flows "Figure 2: b.f tainted through deep aliasing" [ figure2 () ]
    [ ("t.F2", "main") ]
    [ ("s", "k") ]

let test_alias_search_off () =
  (* turning the backward analysis off loses the Figure 2 leak *)
  let config = { Config.default with Config.alias_search = false } in
  let r = analyze ~config [ figure2 () ] [ ("t.F2", "main") ] in
  Alcotest.(check (list (pair string string))) "missed without aliasing" []
    (flow_pairs r)

(* ---------------- wrappers & natives ---------------- *)

let test_stringbuilder_wrapper () =
  let c =
    B.cls "t.A"
      [
        B.meth "main" ~static:true (fun m ->
            let sb = B.local m "sb" and x = B.local m "x" and out = B.local m "out" in
            B.newc m sb "java.lang.StringBuilder" [];
            src m ~tag:"s" x;
            B.vcall m sb "java.lang.StringBuilder" "append" [ B.v x ];
            B.vcall m ~ret:out sb "java.lang.StringBuilder" "toString" [];
            snk m ~tag:"k" out);
      ]
  in
  check_flows "StringBuilder shortcut rules" [ c ] [ ("t.A", "main") ]
    [ ("s", "k") ]

let test_collection_wrapper () =
  let c =
    B.cls "t.A"
      [
        B.meth "main" ~static:true (fun m ->
            let l = B.local m "l" ~ty:(T.Ref "java.util.ArrayList") in
            let x = B.local m "x" and y = B.local m "y" in
            B.newc m l "java.util.ArrayList" [];
            src m ~tag:"s" x;
            B.vcall m l "java.util.ArrayList" "add" [ B.v x ];
            B.vcall m ~ret:y l "java.util.ArrayList" "get" [ B.i 0 ];
            snk m ~tag:"k" y);
      ]
  in
  check_flows "collection whole-container rule" [ c ] [ ("t.A", "main") ]
    [ ("s", "k") ]

let test_arraycopy_native () =
  let c =
    B.cls "t.A"
      [
        B.meth "main" ~static:true (fun m ->
            let a = B.local m "a" and b = B.local m "b" in
            let x = B.local m "x" and y = B.local m "y" in
            B.newarray m a T.Char (B.i 8);
            B.newarray m b T.Char (B.i 8);
            src m ~tag:"s" x;
            B.astore m a (B.i 0) (B.v x);
            B.scall m "java.lang.System" "arraycopy"
              [ B.v a; B.i 0; B.v b; B.i 0; B.i 8 ];
            B.aload m y b (B.i 0);
            snk m ~tag:"k" y);
      ]
  in
  check_flows "System.arraycopy native rule" [ c ] [ ("t.A", "main") ]
    [ ("s", "k") ]

let test_sanitizing_rule () =
  (* a modelled method with no effects does not propagate: String.length *)
  let c =
    B.cls "t.A"
      [
        B.meth "main" ~static:true (fun m ->
            let x = B.local m "x" ~ty:(T.Ref "java.lang.String") in
            let n = B.local m "n" in
            src m ~tag:"s" x;
            B.vcall m ~ret:n x "java.lang.String" "length" [];
            snk m ~tag:"k" n);
      ]
  in
  check_flows "empty-effect rule blocks flow" [ c ] [ ("t.A", "main") ] []

(* ---------------- access-path length ablation ---------------- *)

let deep_chain_cls () =
  let fa = B.fld "t.N" "a" in
  B.cls "t.A"
    [
      B.meth "main" ~static:true (fun m ->
          let o = B.local m "o" and x = B.local m "x" in
          let c1 = B.local m "c1" and c2 = B.local m "c2" and c3 = B.local m "c3" in
          let r1 = B.local m "r1" and r2 = B.local m "r2" and r3 = B.local m "r3" in
          let v = B.local m "v" in
          B.newc m o "t.N" [];
          B.newc m c1 "t.N" [];
          B.newc m c2 "t.N" [];
          B.newc m c3 "t.N" [];
          B.store m o fa (B.v c1);
          B.store m c1 fa (B.v c2);
          B.store m c2 fa (B.v c3);
          src m ~tag:"s" x;
          B.store m c3 fa (B.v x);
          (* read back o.a.a.a.a *)
          B.load m r1 o fa;
          B.load m r2 r1 fa;
          B.load m r3 r2 fa;
          B.load m v r3 fa;
          snk m ~tag:"k" v);
    ]

let test_deep_chain_default_k () =
  check_flows "depth-4 chain found at k=5" [ deep_chain_cls () ]
    [ ("t.A", "main") ]
    [ ("s", "k") ]

let test_deep_chain_small_k_still_sound () =
  (* truncation widens, so small k keeps the leak (soundness), it only
     costs precision *)
  let config = { Config.default with Config.max_access_path = 1 } in
  let r = analyze ~config [ deep_chain_cls () ] [ ("t.A", "main") ] in
  Alcotest.(check (list (pair string string)))
    "still found at k=1"
    [ ("s", "k") ]
    (flow_pairs r)

let test_small_k_false_positive () =
  (* at k=1, o.a.b collapses with o.a.c: reading the clean sibling
     reports a false positive *)
  let fa = B.fld "t.N" "a" in
  let fb = B.fld "t.N" "b" in
  let fc = B.fld "t.N" "c" in
  let c =
    B.cls "t.A"
      [
        B.meth "main" ~static:true (fun m ->
            let o = B.local m "o" and mid = B.local m "mid" in
            let x = B.local m "x" and r = B.local m "r" and v = B.local m "v" in
            B.newc m o "t.N" [];
            B.newc m mid "t.N" [];
            B.store m o fa (B.v mid);
            src m ~tag:"s" x;
            B.store m mid fb (B.v x);
            (* read o.a.c — clean *)
            B.load m r o fa;
            B.load m v r fc;
            snk m ~tag:"k" v);
      ]
  in
  let r1 = analyze [ c ] [ ("t.A", "main") ] in
  Alcotest.(check (list (pair string string))) "precise at k=5" [] (flow_pairs r1);
  let config = { Config.default with Config.max_access_path = 1 } in
  let r2 = analyze ~config [ c ] [ ("t.A", "main") ] in
  Alcotest.(check (list (pair string string)))
    "imprecise at k=1"
    [ ("s", "k") ]
    (flow_pairs r2)

(* ---------------- virtual dispatch ---------------- *)

let test_virtual_dispatch_flow () =
  let base =
    B.cls "t.Base"
      [
        B.meth "get" ~ret:(T.Ref "java.lang.String") (fun m ->
            let _ = B.this m in
            let x = B.local m "x" in
            B.const m x (B.s "clean");
            B.retv m (B.v x));
      ]
  in
  let sub =
    B.cls "t.Sub" ~super:"t.Base"
      [
        B.meth "get" ~ret:(T.Ref "java.lang.String") (fun m ->
            let _ = B.this m in
            let x = B.local m "x" in
            src m ~tag:"s" x;
            B.retv m (B.v x));
      ]
  in
  let main =
    B.cls "t.A"
      [
        B.meth "main" ~static:true (fun m ->
            let o = B.local m "o" ~ty:(T.Ref "t.Base") in
            let y = B.local m "y" in
            B.newc m o "t.Sub" [];
            B.vcall m ~ret:y o "t.Base" "get" [];
            snk m ~tag:"k" y);
      ]
  in
  check_flows "CHA virtual dispatch" [ base; sub; main ] [ ("t.A", "main") ]
    [ ("s", "k") ]

(* ---------------- path reconstruction ---------------- *)

let test_path_reconstruction () =
  let c =
    B.cls "t.A"
      [
        B.meth "main" ~static:true (fun m ->
            let x = B.local m "x" and y = B.local m "y" in
            src m ~tag:"s" x;
            B.move m y x;
            snk m ~tag:"k" y);
      ]
  in
  let r = analyze [ c ] [ ("t.A", "main") ] in
  match r.Infoflow.r_findings with
  | [ fd ] ->
      Alcotest.(check bool) "path nonempty" true (List.length fd.Bidi.f_path >= 2);
      let last = List.nth fd.Bidi.f_path (List.length fd.Bidi.f_path - 1) in
      Alcotest.(check bool) "path ends at sink" true
        (Fd_callgraph.Icfg.equal_node last fd.Bidi.f_sink_node)
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length fs))

(* appended: activation statements across call boundaries — "activation
   statements are representatives of call trees" (Section 4.2): an
   alias discovered in the caller whose activating heap write sits
   inside a callee must activate when crossing the *call*, not before. *)
let test_activation_through_call () =
  let ff = B.fld "t.Data" "f" in
  let c =
    B.cls "t.ActCall"
      [
        B.meth "taintIt" ~static:true ~params:[ T.Ref "t.Data" ] (fun m ->
            let out = B.param m 0 "out" in
            let s = B.local m "s" in
            src m ~tag:"s" s;
            B.store m out ff (B.v s));
        B.meth "main" ~static:true (fun m ->
            let p = B.local m "p" and q = B.local m "q" in
            let v1 = B.local m "v1" and v2 = B.local m "v2" in
            B.newc m p "t.Data" [];
            B.move m q p;
            (* q.f read BEFORE the call: must stay silent *)
            B.load m v1 q ff;
            snk m ~tag:"k-before" v1;
            B.scall m "t.ActCall" "taintIt" [ B.v p ];
            (* q.f read AFTER the call: tainted via the alias *)
            B.load m v2 q ff;
            snk m ~tag:"k-after" v2);
      ]
  in
  check_flows "activation via the call tree" [ c ]
    [ ("t.ActCall", "main") ]
    [ ("s", "k-after") ]

(* ---------------- per-node results ---------------- *)

(* [Bidi.results_at] for every node of every reachable method, one
   line per node: each taint with its source and derivation trail, in
   the order the engine returns them *)
let render_results_at name (r : Infoflow.result) =
  let module Icfg = Fd_callgraph.Icfg in
  let node_str = Icfg.string_of_node in
  let taint_str (t : Taint.t) =
    Printf.sprintf "%s<-%s[%s]" (Taint.to_string t)
      (node_str t.Taint.source.Taint.si_node)
      (String.concat " " (List.map node_str (Taint.path t)))
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf ("== " ^ name ^ "\n");
  Fd_callgraph.Callgraph.reachable_methods r.Infoflow.r_icfg.Icfg.cg
  |> List.sort (fun a b ->
         let key = Fd_callgraph.Mkey.to_string in
         compare (key a) (key b))
  |> List.iter (fun mk ->
         match Icfg.body r.Infoflow.r_icfg mk with
         | exception Not_found -> ()
         | body ->
             for i = 0 to Body.length body - 1 do
               let n = Icfg.{ n_method = mk; n_idx = i } in
               match Bidi.results_at r.Infoflow.r_engine n with
               | [] -> ()
               | ts ->
                   Buffer.add_string buf
                     (node_str n ^ ": "
                     ^ String.concat " | " (List.map taint_str ts)
                     ^ "\n")
             done);
  Buffer.contents buf

let results_at_fixtures () =
  let plain name cls entry = (name, analyze [ cls ] [ entry ]) in
  let droidbench name =
    match Fd_droidbench.Suite.find name with
    | Some app ->
        (name, Infoflow.analyze_apk app.Fd_droidbench.Bench_app.app_apk)
    | None -> Alcotest.fail (name ^ " missing from the suite")
  in
  [
    plain "Listing 2" (listing2 ()) ("t.L2", "main");
    plain "Listing 3" (listing3 ()) ("t.L3", "main");
    plain "Figure 2" (figure2 ()) ("t.F2", "main");
    droidbench "FieldSensitivity3";
  ]

(* pins the per-node result lists — contents and order — against the
   recorded rendering in [results_at.expected]; on a mismatch the
   current rendering is written to [results_at.actual] for diffing *)
let test_results_at_pinned () =
  let fixtures = results_at_fixtures () in
  let actual =
    String.concat "" (List.map (fun (n, r) -> render_results_at n r) fixtures)
  in
  let expected =
    In_channel.with_open_bin "results_at.expected" In_channel.input_all
  in
  if not (String.equal expected actual) then
    Out_channel.with_open_bin "results_at.actual" (fun oc ->
        Out_channel.output_string oc actual);
  Alcotest.(check string) "results_at per node" expected actual;
  (* nodes the forward solver never reached have no results *)
  let _, r = List.hd fixtures in
  let mkey name =
    Fd_callgraph.Mkey.{ mk_class = "t.L2"; mk_name = name; mk_arity = 0 }
  in
  let unreached = Fd_callgraph.Icfg.{ n_method = mkey "absent"; n_idx = 0 } in
  Alcotest.(check int) "unreached node" 0
    (List.length (Bidi.results_at r.Infoflow.r_engine unreached));
  let entry = Fd_callgraph.Icfg.start_node r.Infoflow.r_icfg (mkey "main") in
  Alcotest.(check int) "entry holds only the zero fact" 0
    (List.length (Bidi.results_at r.Infoflow.r_engine entry))

(* ---------------- timing ---------------- *)

(* regression: [st_time] was [Sys.time], the CPU time of the whole
   process, so with analyses running in two domains each read up to
   twice its own wall time (and so did [TotalRuntimeSeconds] and serve
   [solve_ms]).  Two domains start together and each analyses its own
   copy of 20 apps; every [st_time] must fit inside the wall time
   measured around its call. *)
let test_st_time_is_wall_time () =
  Infoflow.warm_templates ();
  let apps =
    Fd_appgen.Generator.corpus ~profile:Fd_appgen.Generator.Malware ~seed:5 20
  in
  let started = Atomic.make 0 in
  let worker () =
    let loaded =
      List.map
        (fun (ga : Fd_appgen.Generator.gen_app) ->
          Fd_frontend.Apk.load ga.Fd_appgen.Generator.ga_apk)
        apps
    in
    Atomic.incr started;
    while Atomic.get started < 2 do
      Domain.cpu_relax ()
    done;
    List.map
      (fun l ->
        let t0 = Unix.gettimeofday () in
        let r = Infoflow.analyze_loaded l in
        (r.Infoflow.r_stats.Infoflow.st_time, Unix.gettimeofday () -. t0))
      loaded
  in
  let other = Domain.spawn worker in
  let mine = worker () in
  List.iter
    (fun (st, wall) ->
      if st > wall then
        Alcotest.failf "st_time %.6f s exceeds the call's wall time %.6f s" st
          wall)
    (mine @ Domain.join other)

let () =
  Alcotest.run "fd_core"
    [
      ( "access-paths",
        [
          Alcotest.test_case "basics" `Quick test_ap_basic;
          Alcotest.test_case "rebase" `Quick test_ap_rebase;
          Alcotest.test_case "truncation" `Quick test_ap_truncation;
        ] );
      ( "flows",
        [
          Alcotest.test_case "direct" `Quick test_direct_flow;
          Alcotest.test_case "no flow" `Quick test_no_flow;
          Alcotest.test_case "local strong update" `Quick test_local_strong_update;
          Alcotest.test_case "new kills" `Quick test_new_kills;
          Alcotest.test_case "no heap strong update" `Quick
            test_no_heap_strong_update;
          Alcotest.test_case "field sensitivity" `Quick test_field_sensitivity;
          Alcotest.test_case "whole object at sink" `Quick
            test_whole_object_at_sink;
          Alcotest.test_case "array whole-taint" `Quick test_array_whole_taint;
        ] );
      ( "interprocedural",
        [
          Alcotest.test_case "return flow" `Quick test_return_flow;
          Alcotest.test_case "param flow" `Quick test_param_flow;
          Alcotest.test_case "context sensitivity" `Quick
            test_context_sensitivity_plain;
          Alcotest.test_case "static fields" `Quick test_static_field_flow;
          Alcotest.test_case "virtual dispatch" `Quick test_virtual_dispatch_flow;
        ] );
      ( "paper-programs",
        [
          Alcotest.test_case "Listing 2 (context injection)" `Quick
            test_listing2_context_injection;
          Alcotest.test_case "Listing 2 naive ablation" `Quick
            test_listing2_naive_handover;
          Alcotest.test_case "Listing 3 (activation)" `Quick
            test_listing3_flow_sensitivity;
          Alcotest.test_case "Listing 3 Andromeda ablation" `Quick
            test_listing3_andromeda_style;
          Alcotest.test_case "Figure 2 (aliasing)" `Quick test_figure2_aliasing;
          Alcotest.test_case "alias search off" `Quick test_alias_search_off;
          Alcotest.test_case "activation through calls" `Quick
            test_activation_through_call;
        ] );
      ( "library-models",
        [
          Alcotest.test_case "StringBuilder" `Quick test_stringbuilder_wrapper;
          Alcotest.test_case "collections" `Quick test_collection_wrapper;
          Alcotest.test_case "arraycopy" `Quick test_arraycopy_native;
          Alcotest.test_case "sanitizing empty rule" `Quick test_sanitizing_rule;
        ] );
      ( "access-path-length",
        [
          Alcotest.test_case "deep chain at k=5" `Quick test_deep_chain_default_k;
          Alcotest.test_case "soundness at k=1" `Quick
            test_deep_chain_small_k_still_sound;
          Alcotest.test_case "precision loss at k=1" `Quick
            test_small_k_false_positive;
        ] );
      ( "reporting",
        [ Alcotest.test_case "path reconstruction" `Quick test_path_reconstruction ] );
      ( "results-at",
        [
          Alcotest.test_case "per-node results pinned" `Quick
            test_results_at_pinned;
        ] );
      ( "timing",
        [
          Alcotest.test_case "st_time is wall time across domains" `Quick
            test_st_time_is_wall_time;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_rebase_roundtrip; prop_truncate_widens ] );
    ]

(** The modelled Android framework skeleton.

    FlowDroid does not analyse the Android platform code itself;
    library behaviour enters the analysis through explicit models
    (Section 5 of the paper: "Defining shortcuts", "Native Calls").
    What the analysis *does* need from the framework is its shape:

    - the class hierarchy (so that an app class is recognisable as an
      activity, a listener implementation, ...),
    - the callback interfaces and their methods (so that callback
      discovery can find handler registrations), and
    - the set of framework methods an app may override to receive
      framework-driven calls (DroidBench's MethodOverride cases).

    This module registers that skeleton into a {!Fd_ir.Scene.t} as
    phantom classes. *)

open Fd_ir
module T = Types

let obj = T.Ref T.object_class
let str = T.Ref "java.lang.String"

let phantom ?super ?(interfaces = []) ?(is_interface = false) ?(methods = [])
    name =
  Jclass.mk name
    ~super:(Some (Option.value super ~default:T.object_class))
    ~interfaces ~is_interface ~methods ~phantom:true

let am name ?(params = []) ?(ret = T.Void) cls =
  Jclass.mk_method ~abstract:true (T.mk_method ~params ~ret cls name)

(** Component base classes, in the paper's Section 3 taxonomy. *)
let activity_class = "android.app.Activity"

(** Framework-scheduled worker classes with linked lifecycle methods
    (extension features: FlowDroid's successors model these). *)
let async_task_class = "android.os.AsyncTask"

let fragment_class = "android.app.Fragment"

(** Fragment lifecycle methods, in framework order. *)
let fragment_lifecycle =
  [
    ("onAttach", [ T.Ref "android.app.Activity" ]);
    ("onCreate", [ T.Ref "android.os.Bundle" ]);
    ("onCreateView", [ T.Ref "android.os.Bundle" ]);
    ("onStart", []);
    ("onResume", []);
    ("onPause", []);
    ("onStop", []);
    ("onDestroyView", []);
    ("onDestroy", []);
    ("onDetach", []);
  ]

let service_class = "android.app.Service"
let receiver_class = "android.content.BroadcastReceiver"
let provider_class = "android.content.ContentProvider"
let application_class = "android.app.Application"

(** Callback interfaces with their callback methods: the "well-known
    callback interfaces" FlowDroid scans registrations for. *)
let callback_interfaces =
  [
    ( "android.view.View$OnClickListener",
      [ ("onClick", [ T.Ref "android.view.View" ]) ] );
    ( "android.view.View$OnLongClickListener",
      [ ("onLongClick", [ T.Ref "android.view.View" ]) ] );
    ( "android.view.View$OnTouchListener",
      [ ("onTouch", [ T.Ref "android.view.View"; T.Ref "android.view.MotionEvent" ]) ] );
    ( "android.location.LocationListener",
      [
        ("onLocationChanged", [ T.Ref "android.location.Location" ]);
        ("onProviderDisabled", [ str ]);
        ("onProviderEnabled", [ str ]);
        ("onStatusChanged", [ str; T.Int; T.Ref "android.os.Bundle" ]);
      ] );
    ( "android.content.DialogInterface$OnClickListener",
      [ ("onClick", [ T.Ref "android.content.DialogInterface"; T.Int ]) ] );
    ( "android.widget.AdapterView$OnItemClickListener",
      [ ("onItemClick", [ obj; T.Ref "android.view.View"; T.Int; T.Long ]) ] );
    ( "android.content.SharedPreferences$OnSharedPreferenceChangeListener",
      [ ("onSharedPreferenceChanged",
         [ T.Ref "android.content.SharedPreferences"; str ]) ] );
    ( "java.lang.Runnable", [ ("run", []) ] );
    ( "android.os.Handler$Callback",
      [ ("handleMessage", [ T.Ref "android.os.Message" ]) ] );
  ]

(** Framework methods that register a callback listener: the scan for
    imperative registrations looks for calls to these.  Each entry is
    (method name, interface registered).  The declaring class is not
    constrained — Android spreads registration methods over many
    classes ([View], [LocationManager], [Button], ...), and FlowDroid
    likewise matches them by the listener's formal parameter type. *)
let registration_methods =
  [
    ("setOnClickListener", "android.view.View$OnClickListener");
    ("setOnLongClickListener", "android.view.View$OnLongClickListener");
    ("setOnTouchListener", "android.view.View$OnTouchListener");
    ("requestLocationUpdates", "android.location.LocationListener");
    ("removeUpdates", "android.location.LocationListener");
    ("setOnItemClickListener", "android.widget.AdapterView$OnItemClickListener");
    ("registerOnSharedPreferenceChangeListener",
     "android.content.SharedPreferences$OnSharedPreferenceChangeListener");
    ("post", "java.lang.Runnable");
    ("postDelayed", "java.lang.Runnable");
    ("runOnUiThread", "java.lang.Runnable");
  ]

(** Overridable framework callbacks per base class: an application
    method overriding one of these is called by the framework even
    though it is registered nowhere (MethodOverride1).  Lifecycle
    methods are handled separately by {!Fd_lifecycle}. *)
let overridable_callbacks =
  [
    ( activity_class,
      [
        "onLowMemory"; "onBackPressed"; "onKeyDown"; "onKeyUp";
        "onTouchEvent"; "onTrackballEvent"; "onUserInteraction";
        "onActivityResult"; "onCreateOptionsMenu"; "onOptionsItemSelected";
        "onCreateContextMenu"; "onContextItemSelected"; "onNewIntent";
        "onWindowFocusChanged"; "onAttachedToWindow"; "onConfigurationChanged";
      ] );
    (service_class, [ "onLowMemory"; "onTrimMemory"; "onConfigurationChanged" ]);
    (application_class, [ "onLowMemory"; "onTrimMemory"; "onConfigurationChanged" ]);
    (receiver_class, []);
    (provider_class, [ "onLowMemory"; "onConfigurationChanged" ]);
  ]

(** The widget classes whose XML declarations the layout parser
    understands, with their superclass links. *)
let widget_hierarchy =
  [
    ("android.view.View", T.object_class);
    ("android.widget.TextView", "android.view.View");
    ("android.widget.EditText", "android.widget.TextView");
    ("android.widget.Button", "android.widget.TextView");
    ("android.widget.ImageView", "android.view.View");
    ("android.view.ViewGroup", "android.view.View");
    ("android.widget.LinearLayout", "android.view.ViewGroup");
    ("android.widget.RelativeLayout", "android.view.ViewGroup");
    ("android.widget.ListView", "android.view.ViewGroup");
  ]

(** [install scene] registers the framework skeleton into [scene].
    Idempotent: already-present classes are left untouched, so an app
    may ship a richer stub of a framework class. *)
let install scene =
  let add c = if not (Scene.mem scene c.Jclass.c_name) then Scene.add_class scene c in
  add (Jclass.mk T.object_class ~super:None ~phantom:true);
  (* core platform classes *)
  add (phantom "android.content.Context");
  add (phantom "android.content.ContextWrapper" ~super:"android.content.Context");
  add (phantom activity_class ~super:"android.content.ContextWrapper");
  add (phantom service_class ~super:"android.content.ContextWrapper");
  add (phantom application_class ~super:"android.content.ContextWrapper");
  add (phantom receiver_class);
  add (phantom provider_class);
  List.iter (fun (w, sup) -> add (phantom w ~super:sup)) widget_hierarchy;
  add (phantom async_task_class);
  add (phantom fragment_class);
  add (phantom "android.app.FragmentTransaction");
  add (phantom "android.telephony.TelephonyManager");
  add (phantom "android.telephony.SmsManager");
  add (phantom "android.location.LocationManager");
  add (phantom "android.location.Location");
  add (phantom "android.util.Log");
  add (phantom "android.content.SharedPreferences");
  add (phantom "android.content.SharedPreferences$Editor");
  add (phantom "android.content.Intent");
  add (phantom "android.os.Bundle");
  add (phantom "android.os.Handler");
  add (phantom "android.os.Message");
  add (phantom "android.view.MotionEvent");
  add (phantom "android.content.DialogInterface");
  add (phantom "java.lang.String");
  add (phantom "java.lang.StringBuilder");
  add (phantom "java.lang.StringBuffer");
  add (phantom "java.lang.System");
  add (phantom "java.lang.Thread" ~interfaces:[ "java.lang.Runnable" ]);
  add (phantom "java.util.ArrayList" ~interfaces:[ "java.util.List" ]);
  add (phantom "java.util.LinkedList" ~interfaces:[ "java.util.List" ]);
  add (phantom "java.util.HashMap" ~interfaces:[ "java.util.Map" ]);
  add (phantom "java.util.HashSet" ~interfaces:[ "java.util.Set" ]);
  add (phantom "java.util.List" ~is_interface:true);
  add (phantom "java.util.Map" ~is_interface:true);
  add (phantom "java.util.Set" ~is_interface:true);
  add (phantom "java.io.OutputStream");
  add (phantom "java.io.FileOutputStream" ~super:"java.io.OutputStream");
  add (phantom "java.net.URL");
  add (phantom "java.net.URLConnection");
  add (phantom "java.net.HttpURLConnection" ~super:"java.net.URLConnection");
  (* callback interfaces, with their methods declared so that callback
     discovery can enumerate handler entry points *)
  List.iter
    (fun (iname, meths) ->
      add
        (phantom iname ~is_interface:true
           ~methods:(List.map (fun (mn, ps) -> am mn ~params:ps iname) meths)))
    callback_interfaces

(** [fresh_scene ()] is a new scene with the skeleton installed.  The
    skeleton is built once into a template and copied per call — the
    install itself is pure, and every analysis run starts from one.
    The template also carries the skeleton classes' supertypes: they
    never change, and registering an application class keeps them
    (see {!Scene}). *)
let fresh_scene =
  let template =
    Fd_util.Once.make (fun () ->
        let sc = Scene.create () in
        install sc;
        List.iter
          (fun (c : Jclass.t) -> ignore (Scene.supertypes sc c.Jclass.c_name))
          (Scene.all_classes sc);
        sc)
  in
  fun () -> Scene.copy (Fd_util.Once.force template)

(** [warm ()] forces the framework-skeleton template eagerly, so a
    long-lived process (the serve daemon) pays the one-time install
    cost at startup instead of on its first request. *)
let warm () = ignore (fresh_scene ())

(** [component_kind_of scene cls] classifies an application class by
    its framework superclass, or [None] if it is not a component. *)
type component_kind = Activity | Service | Receiver | Provider

let string_of_component_kind = function
  | Activity -> "activity"
  | Service -> "service"
  | Receiver -> "receiver"
  | Provider -> "provider"

let component_kind_of scene cls =
  if Scene.is_subtype scene cls activity_class then Some Activity
  else if Scene.is_subtype scene cls service_class then Some Service
  else if Scene.is_subtype scene cls receiver_class then Some Receiver
  else if Scene.is_subtype scene cls provider_class then Some Provider
  else None

(** [registered_interface name] is the callback interface a
    registration method installs, if [name] is one. *)
let registered_interface name = List.assoc_opt name registration_methods

(** [is_callback_interface scene cls] holds when [cls] is (a subtype
    of) one of the modelled callback interfaces. *)
let is_callback_interface scene cls =
  List.exists
    (fun (iname, _) -> Scene.is_subtype scene cls iname)
    callback_interfaces

(** [callback_methods_of scene cls] is the callback methods an
    instance of [cls] exposes: for every modelled callback interface
    [cls] implements, the concrete implementations found on [cls].
    Returns (interface, class-declaring, method) triples. *)
let callback_methods_of scene cls =
  List.concat_map
    (fun (iname, meths) ->
      if Scene.is_subtype scene cls iname then
        List.filter_map
          (fun (mn, ps) ->
            match Scene.resolve_concrete scene cls (mn, ps) with
            | Some (decl, m) when Jclass.has_body m -> Some (iname, decl, m)
            | _ -> None)
          meths
      else [])
    callback_interfaces

(** [overridden_framework_callbacks scene cls] is the methods of [cls]
    (or inherited, declared with bodies in application code) that
    override a known overridable framework method of one of [cls]'s
    framework superclasses. *)
let overridden_framework_callbacks scene cls =
  let supers = Scene.supertypes scene cls in
  let names =
    List.concat_map
      (fun (base, names) -> if List.mem base supers then names else [])
      overridable_callbacks
  in
  match Scene.find_class scene cls with
  | None -> []
  | Some c ->
      List.filter
        (fun (m : Jclass.jmethod) ->
          Jclass.has_body m && List.mem m.Jclass.jm_sig.T.m_name names)
        c.Jclass.c_methods

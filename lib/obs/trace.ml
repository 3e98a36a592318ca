(** Span-based phase tracing (see the interface).

    Each domain records into its own store ([Domain.DLS]), so tracing
    from inside a {!Fd_util.Pool} worker is safe and lock-free on the
    hot path; stores register themselves in a global list on first
    use.  A store keeps a running total per span name, always, and the
    span tree only once {!reset} has armed recording: a process that
    never exports a trace (the serve daemon, library users) keeps a
    few totals instead of one record per span.  Read-outs merge the
    stores in worker order: {!aggregate} sums the totals, {!spans} and
    the exports rebase parent indices into the merged array.  Within
    one store, spans sit in start order, so a parent always precedes
    its children. *)

type span = {
  sp_name : string;
  sp_start : float;
  sp_dur : float;
  sp_depth : int;
  sp_parent : int;
}

let dummy_span =
  { sp_name = ""; sp_start = 0.; sp_dur = 0.; sp_depth = 0; sp_parent = -1 }

(* the running total of one span name *)
type total = { t_name : string; mutable t_sec : float; mutable t_count : int }

(* an open span: its start time, and its index in [ds_spans], or -1
   when it is not recorded *)
type frame = { f_name : string; f_start : float; f_idx : int }

(* one per-domain span store: the owning domain mutates it without
   locking; other domains only read it under [stores_lock] via the
   merge functions below *)
type dstore = {
  ds_tid : int;  (** stable thread id for the Chrome export *)
  mutable ds_spans : span array;
  mutable ds_count : int;
  mutable ds_stack : frame list;  (** open spans, innermost first *)
  mutable ds_totals : total list;  (** closed spans per name *)
}

let stores_lock = Mutex.create ()
let stores : dstore list ref = ref []
let next_tid = Atomic.make 1
let epoch = Atomic.make nan

(* whether stores record the span tree; armed by the first [reset] *)
let recording = Atomic.make false

let dls_key =
  Domain.DLS.new_key (fun () ->
      let ds =
        {
          ds_tid = Atomic.fetch_and_add next_tid 1;
          ds_spans = Array.make 64 dummy_span;
          ds_count = 0;
          ds_stack = [];
          ds_totals = [];
        }
      in
      Mutex.lock stores_lock;
      stores := ds :: !stores;
      Mutex.unlock stores_lock;
      ds)

let my () = Domain.DLS.get dls_key
let now () = Unix.gettimeofday ()

(* the epoch is shared so timestamps line up across domains; it is set
   by whichever domain opens the first span after a reset *)
let ensure_epoch t =
  if Float.is_nan (Atomic.get epoch) then begin
    Mutex.lock stores_lock;
    if Float.is_nan (Atomic.get epoch) then Atomic.set epoch t;
    Mutex.unlock stores_lock
  end

let push ds sp =
  if ds.ds_count = Array.length ds.ds_spans then begin
    let bigger = Array.make (2 * ds.ds_count) sp in
    Array.blit ds.ds_spans 0 bigger 0 ds.ds_count;
    ds.ds_spans <- bigger
  end;
  ds.ds_spans.(ds.ds_count) <- sp;
  ds.ds_count <- ds.ds_count + 1;
  ds.ds_count - 1

let begin_span name =
  let ds = my () in
  let t = now () in
  let idx =
    if not (Atomic.get recording) then -1
    else begin
      ensure_epoch t;
      push ds
        {
          sp_name = name;
          sp_start = t -. Atomic.get epoch;
          sp_dur = 0.;
          sp_depth = List.length ds.ds_stack;
          sp_parent = (match ds.ds_stack with [] -> -1 | f :: _ -> f.f_idx);
        }
    end
  in
  ds.ds_stack <- { f_name = name; f_start = t; f_idx = idx } :: ds.ds_stack

let add_total ds name dur =
  match List.find_opt (fun tt -> String.equal tt.t_name name) ds.ds_totals with
  | Some tt ->
      tt.t_sec <- tt.t_sec +. dur;
      tt.t_count <- tt.t_count + 1
  | None ->
      ds.ds_totals <- { t_name = name; t_sec = dur; t_count = 1 } :: ds.ds_totals

let end_span () =
  let ds = my () in
  match ds.ds_stack with
  | [] -> invalid_arg "Trace.end_span: no open span"
  | f :: rest ->
      ds.ds_stack <- rest;
      let dur = now () -. f.f_start in
      add_total ds f.f_name dur;
      if f.f_idx >= 0 then
        ds.ds_spans.(f.f_idx) <- { (ds.ds_spans.(f.f_idx)) with sp_dur = dur }

let with_span name f =
  begin_span name;
  Fun.protect ~finally:end_span f

let depth () = List.length (my ()).ds_stack

(* all stores, oldest tid first, snapshotted under the lock *)
let store_list () =
  Mutex.lock stores_lock;
  let ss = List.sort (fun a b -> compare a.ds_tid b.ds_tid) !stores in
  Mutex.unlock stores_lock;
  ss

(* merge every store into one array of [(span, tid)], parent indices
   rebased onto the merged array *)
let merged () =
  let ss = store_list () in
  let total = List.fold_left (fun n ds -> n + ds.ds_count) 0 ss in
  let out = Array.make total (dummy_span, 0) in
  let off = ref 0 in
  List.iter
    (fun ds ->
      for i = 0 to ds.ds_count - 1 do
        let sp = ds.ds_spans.(i) in
        let sp =
          if sp.sp_parent < 0 then sp
          else { sp with sp_parent = sp.sp_parent + !off }
        in
        out.(!off + i) <- (sp, ds.ds_tid)
      done;
      off := !off + ds.ds_count)
    ss;
  out

let spans () = Array.to_list (Array.map fst (merged ()))

let aggregate () =
  let tbl : (string, total) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun ds ->
      List.iter
        (fun tt ->
          match Hashtbl.find_opt tbl tt.t_name with
          | Some acc ->
              acc.t_sec <- acc.t_sec +. tt.t_sec;
              acc.t_count <- acc.t_count + tt.t_count
          | None ->
              Hashtbl.replace tbl tt.t_name
                { t_name = tt.t_name; t_sec = tt.t_sec; t_count = tt.t_count })
        ds.ds_totals)
    (store_list ());
  Hashtbl.fold (fun name tt acc -> (name, tt.t_sec, tt.t_count) :: acc) tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let reset () =
  Mutex.lock stores_lock;
  List.iter
    (fun ds ->
      ds.ds_count <- 0;
      ds.ds_stack <- [];
      ds.ds_totals <- [])
    !stores;
  Atomic.set epoch nan;
  Atomic.set recording true;
  Mutex.unlock stores_lock

let to_chrome_json () =
  let events =
    Array.to_list
      (Array.map
         (fun (sp, tid) ->
           Json.Obj
             [
               ("name", Json.String sp.sp_name);
               ("cat", Json.String "flowdroid");
               ("ph", Json.String "X");
               ("ts", Json.Float (sp.sp_start *. 1e6));
               ("dur", Json.Float (sp.sp_dur *. 1e6));
               ("pid", Json.Int 1);
               ("tid", Json.Int tid);
             ])
         (merged ()))
  in
  Json.Obj
    [ ("traceEvents", Json.List events); ("displayTimeUnit", Json.String "ms") ]

let to_chrome_string () = Json.to_string ~indent:1 (to_chrome_json ())

let summary () =
  let buf = Buffer.create 256 in
  let all = merged () in
  Array.iter
    (fun (sp, _) ->
      let share =
        if sp.sp_parent < 0 then ""
        else
          let p, _ = all.(sp.sp_parent) in
          if p.sp_dur > 0. then
            Printf.sprintf "  (%.0f%% of %s)" (100. *. sp.sp_dur /. p.sp_dur)
              p.sp_name
          else ""
      in
      Buffer.add_string buf
        (Printf.sprintf "%s%-*s %10.3f ms%s\n"
           (String.make (2 * sp.sp_depth) ' ')
           (32 - (2 * sp.sp_depth))
           sp.sp_name (sp.sp_dur *. 1e3) share))
    all;
  Buffer.contents buf

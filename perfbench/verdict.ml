(* Verdicts: one canonical line per reported flow, scoring against the
   planted ground truth, and the digest that folds a workload's
   verdicts into one value. *)

open Fd_core

(* the same rendering for an in-process finding and a serve reply's
   flow object (source description, sink node, sink tag) *)
let line ~source ~sink ~tag =
  Printf.sprintf "%s -> %s%s" source sink
    (match tag with Some t -> " @" ^ t | None -> "")

type t = {
  lines : string list;  (** sorted *)
  flows : (string option option * string option) list;
      (** (source tag if the reporter knows it, sink tag) *)
}

let of_findings (fs : Bidi.finding list) =
  {
    lines =
      List.map
        (fun (f : Bidi.finding) ->
          line ~source:f.Bidi.f_source.Taint.si_desc
            ~sink:(Fd_callgraph.Icfg.string_of_node f.Bidi.f_sink_node)
            ~tag:f.Bidi.f_sink_tag)
        fs
      |> List.sort compare;
    flows =
      List.map
        (fun (f : Bidi.finding) ->
          (Some f.Bidi.f_source.Taint.si_tag, f.Bidi.f_sink_tag))
        fs;
  }

(* a serve reply's ["flows"] list; replies carry no source tag *)
let of_reply_flows flows =
  let str k v =
    match Fd_obs.Json.member k v with
    | Some (Fd_obs.Json.String s) -> Some s
    | _ -> None
  in
  let parsed =
    List.map
      (fun v ->
        ( line
            ~source:(Option.value (str "source" v) ~default:"?")
            ~sink:(Option.value (str "sink" v) ~default:"?")
            ~tag:(str "tag" v),
          (None, str "tag" v) ))
      flows
  in
  { lines = List.sort compare (List.map fst parsed); flows = List.map snd parsed }

(* planted leaks recovered: a planted (source tag, sink tag) is found
   when a flow reaches its sink tag from a matching source (a reporter
   that does not carry source tags matches on the sink alone; sink
   tags are unique per planted leak) *)
let found v planted =
  List.length
    (List.filter
       (fun (src, snk) ->
         List.exists
           (fun (fsrc, fsnk) ->
             fsnk = Some snk
             &&
             match (src, fsrc) with
             | None, _ | _, None -> true
             | Some s, Some t -> t = Some s)
           v.flows)
       planted)

(* one digest over (item id, verdict lines) pairs, order-independent *)
let digest pairs =
  List.sort compare pairs
  |> List.map (fun (id, lines) -> id ^ "\n" ^ String.concat "\n" lines)
  |> String.concat "\n--\n" |> Digest.string |> Digest.to_hex

(* serve-open: the flowdroid_serve daemon (2 workers, summary store in
   a fresh directory) under an open-loop Poisson schedule at two fixed
   rates, driven from this process over two connections.  Requests
   are pipelined: each is written when it falls due, whatever is still
   in flight, and its latency runs from that due time. *)

module Json = Fd_obs.Json
module Prng = Fd_util.Prng
module Gen = Fd_appgen.Generator

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* wire: 4-byte big-endian length + one JSON document                  *)
(* ------------------------------------------------------------------ *)

let rec really_write fd b ofs len =
  if len > 0 then
    let n = Unix.write fd b ofs len in
    really_write fd b (ofs + n) (len - n)

let rec really_read fd b ofs len =
  if len > 0 then begin
    let n = Unix.read fd b ofs len in
    if n = 0 then raise End_of_file;
    really_read fd b (ofs + n) (len - n)
  end

let write_frame fd s =
  let len = String.length s in
  let b = Bytes.create (4 + len) in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  Bytes.blit_string s 0 b 4 len;
  really_write fd b 0 (4 + len)

let read_frame fd =
  let h = Bytes.create 4 in
  really_read fd h 0 4;
  let len = Int32.to_int (Bytes.get_int32_be h 0) in
  let b = Bytes.create len in
  really_read fd b 0 len;
  Json.parse_string (Bytes.unsafe_to_string b)

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  try
    Unix.connect fd (Unix.ADDR_UNIX socket);
    fd
  with e ->
    Unix.close fd;
    raise e

let call socket verb =
  let fd = connect socket in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      write_frame fd (Json.to_string (Json.Obj [ ("verb", Json.String verb) ]));
      read_frame fd)

let member_int k v =
  match Json.member k v with Some (Json.Int i) -> i | _ -> 0

let member_str k v =
  match Json.member k v with Some (Json.String s) -> s | _ -> ""

(* ------------------------------------------------------------------ *)
(* daemon lifecycle                                                    *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; socket : string; stats_out : string }

let spawn ~exe ~dir =
  Unix.mkdir dir 0o755;
  let socket = Filename.concat dir "s.sock" in
  let stats_out = Filename.concat dir "stats.json" in
  let argv =
    [|
      exe; "--socket"; socket; "--workers"; "2"; "--summary-store";
      Filename.concat dir "store"; "--stats-out"; stats_out; "-q";
    |]
  in
  let t0 = now () in
  let pid = Unix.create_process exe argv Unix.stdin Unix.stderr Unix.stderr in
  let d = { pid; socket; stats_out } in
  (* boot ends when the first ping is answered *)
  let rec await () =
    match call socket "ping" with
    | v when member_str "verb" v = "pong" -> now () -. t0
    | _ | (exception (Unix.Unix_error _ | End_of_file)) ->
        if now () -. t0 > 60. then failwith "flowdroid_serve did not answer ping";
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "flowdroid_serve exited during boot");
        Unix.sleepf 0.001;
        await ()
  in
  match await () with
  | boot -> (d, boot)
  | exception e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      raise e

(* drain through the protocol and reap; SIGKILL after 30 s *)
let stop d =
  (try ignore (call d.socket "drain")
   with Unix.Unix_error _ | End_of_file -> ());
  let t0 = now () in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ ->
        if now () -. t0 > 30. then begin
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] d.pid)
        end
        else begin
          Unix.sleepf 0.01;
          reap ()
        end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
  in
  reap ()

let kill d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ()

(* peak resident set of the daemon, from the kernel's high-water mark *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> 0.
            | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
                Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB"
                  (fun kb -> float_of_int kb /. 1024.)
            | _ -> scan ()
          in
          scan ())

(* ------------------------------------------------------------------ *)
(* the request mix                                                     *)
(* ------------------------------------------------------------------ *)

(* share of requests per kind: fresh Play and malware apps (each first
   seen, so its summaries are store writes), ICC-tier single apps,
   ICC-tier collusion pairs, and a family sharing one library chain
   (store reads).  Play apps, the realistic 5-23-class kind, are most
   of the mix: the median then falls well inside one kind, and each
   request carries enough work that scheduler jitter of a millisecond
   or two does not set its latency. *)
type kind = Malware | Play | Icc | Pair | Family

let mix = [ (Play, 0.70); (Malware, 0.12); (Icc, 0.06); (Pair, 0.04); (Family, 0.08) ]
(* share of Play and malware requests that re-submit an app the daemon
   has already analysed (its summaries are store reads); the rest are
   first seen and write theirs *)
let share_seen = 0.5

let family_size = 6
let family_depth = 15

type request = {
  id : int;
  due : float;  (** seconds after the schedule starts *)
  phase : int;  (** 0 = low rate, 1 = high rate *)
  item : Inputs.item;
  frame : string;
}

let app_json (a : Inputs.app) =
  Json.Obj
    [
      ("name", Json.String a.Inputs.name);
      ("manifest", Json.String a.Inputs.manifest);
      ( "layouts",
        Json.List
          (List.map
             (fun (n, x) -> Json.Obj [ ("name", Json.String n); ("xml", Json.String x) ])
             a.Inputs.layouts) );
      ("sources", Json.List (List.map (fun s -> Json.String s) a.Inputs.sources));
    ]

let frame_of ~id (it : Inputs.item) =
  Json.to_string
    (Json.Obj
       ([ ("verb", Json.String "analyze"); ("id", Json.Int id) ]
       @ (match it.Inputs.apps with
         | [ a ] -> [ ("app", app_json a) ]
         | apps -> [ ("apps", Json.List (List.map app_json apps)) ])
       @ if it.Inputs.icc then [ ("icc", Json.Bool true) ] else []))

(* the items of one seeded stream: fresh apps of each kind, and the
   family members in turn; [k] names the family's shared chain *)
let item_stream ~gen_seed ~k ~tag =
  let tagged (it : Inputs.item) = { it with Inputs.id = tag ^ ":" ^ it.Inputs.id } in
  let n_std = ref 0 and n_icc = ref 0 and n_pair = ref 0 and n_fam = ref 0 in
  let take r =
    let i = !r in
    incr r;
    i
  in
  let family =
    Array.init family_size (fun i ->
        Inputs.chain_item
          ~id:(Printf.sprintf "family%d-%d" k i)
          ~pkg:(Printf.sprintf "family%d.app%d" k i)
          ~k ~depth:family_depth
          ~sink:(if i mod 2 = 0 then Inputs.Sms else Inputs.Log))
  in
  function
  | Malware ->
      tagged (Inputs.of_gen (Gen.generate ~profile:Gen.Malware ~seed:gen_seed (take n_std)))
  | Play -> tagged (Inputs.of_gen (Gen.generate ~profile:Gen.Play ~seed:gen_seed (take n_std)))
  | Icc -> tagged (Inputs.of_icc_gen (Gen.generate ~profile:Gen.Icc ~seed:gen_seed (take n_icc)))
  | Pair -> tagged (Inputs.of_pair (Gen.collusion_pair ~seed:gen_seed (take n_pair)))
  | Family -> family.(take n_fam mod family_size)

(* [n] kinds in the mix's shares, shuffled *)
let kinds rng n =
  let counts =
    List.map (fun (k, share) -> (k, int_of_float (share *. float_of_int n))) mix
  in
  let short = n - List.fold_left (fun a (_, c) -> a + c) 0 counts in
  List.concat_map
    (fun (k, c) -> List.init (if k = Play then c + short else c) (fun _ -> k))
    counts
  |> Prng.shuffle rng

(* the warm-up set, answered before timing starts: the daemon's first
   requests pay for heap growth and cold code, which a long-lived
   server pays once.  Its Play and malware apps come back in the
   timed mix as re-submissions; the family is the schedule's own, so
   its shared chain is in the store before the first timed request *)
let warm_counts = [ (Play, 280); (Malware, 50); (Icc, 25); (Pair, 15); (Family, 30) ]

let warm_items ~seed =
  let next = item_stream ~gen_seed:(seed + 2_000_003) ~k:0 ~tag:"seen" in
  List.map (fun (kind, n) -> (kind, List.init n (fun _ -> next kind))) warm_counts

(* [schedule ~seed ~phases]: for each (rate, seconds) phase, back to
   back, rate * seconds arrivals placed as a Poisson process given its
   count (sorted uniform times), carrying the mix's shares exactly;
   fixing the count and the shares keeps the offered work the same
   for every seed, while the arrival times and the apps vary *)
let schedule ~seed ~phases =
  let rng = Prng.create (seed lxor 0x5e7e) in
  let fresh = item_stream ~gen_seed:(seed + 1_000_003) ~k:0 ~tag:"new" in
  let seen = warm_items ~seed in
  let next kind =
    match (kind, List.assoc_opt kind seen) with
    | (Play | Malware), Some pool when Prng.float rng 1.0 < share_seen ->
        List.nth pool (Prng.int rng (List.length pool))
    | _ -> fresh kind
  in
  let id = ref 0 and start = ref 0. in
  List.concat
    (List.mapi
       (fun phase (rate, seconds) ->
         let n = int_of_float (Float.round (rate *. seconds)) in
         let times =
           List.init n (fun _ -> !start +. Prng.float rng seconds) |> List.sort compare
         in
         start := !start +. seconds;
         List.map2
           (fun due kind ->
             let item = next kind in
             let r = { id = !id; due; phase; item; frame = frame_of ~id:!id item } in
             incr id;
             r)
           times (kinds rng n))
       phases)
  |> Array.of_list

let warm_up d ~seed =
  let items = List.concat_map snd (warm_items ~seed) in
  let fd = connect d.socket in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      (* two in flight, one per worker *)
      let frames = List.mapi (fun i it -> frame_of ~id:i it) items in
      write_frame fd (List.hd frames);
      List.iter (fun f -> write_frame fd f; ignore (read_frame fd)) (List.tl frames);
      ignore (read_frame fd))

(* ------------------------------------------------------------------ *)
(* open-loop load generator                                            *)
(* ------------------------------------------------------------------ *)

type sample = {
  req : request;
  reply : Json.t option;
  ok : bool;  (** answered with a precise verdict *)
  late_ms : float;  (** how late the generator sent it *)
  latency_ms : float;
      (** reply time - due time; a request that was refused, failed or
          got no answer counts as the generator's give-up time *)
  rtt_ms : float;  (** reply time - send time *)
  in_flight : int;  (** requests sent but unanswered when it was sent *)
}

let give_up_s = 20.

let succeeded = function
  | Some v ->
      (match Json.member "ok" v with Some (Json.Bool true) -> true | _ -> false)
      && member_str "completeness" v = "precise"
  | None -> false

(* [drive d ~origin reqs] sends [reqs] (dues counted from [origin]) on
   two connections and collects every reply, waiting up to
   [give_up_s] after the last send *)
let drive d ~origin reqs =
  let n = Array.length reqs in
  let slot_of = Hashtbl.create n in
  Array.iteri (fun i r -> Hashtbl.replace slot_of r.id i) reqs;
  let sent = Array.make n 0. and replied = Array.make n 0. in
  let replies = Array.make n None and in_flight = Array.make n 0 in
  let lock = Mutex.create () and answered = ref 0 in
  let conns = [| connect d.socket; connect d.socket |] in
  let reader fd =
    try
      while true do
        let v = read_frame fd in
        let t = now () in
        match Hashtbl.find_opt slot_of (member_int "id" v) with
        | Some i ->
            Mutex.lock lock;
            if replies.(i) = None then begin
              replied.(i) <- t;
              replies.(i) <- Some v;
              incr answered
            end;
            Mutex.unlock lock
        | None -> ()
      done
    with End_of_file | Unix.Unix_error _ | Json.Parse_error _ -> ()
  in
  let readers = Array.map (Thread.create reader) conns in
  let t0 = now () +. 0.05 in
  let due i = t0 +. reqs.(i).due -. origin in
  Array.iteri
    (fun i r ->
      let wait = due i -. now () in
      if wait > 0. then Thread.delay wait;
      Mutex.lock lock;
      in_flight.(i) <- i - !answered;
      Mutex.unlock lock;
      sent.(i) <- now ();
      try write_frame conns.(i land 1) r.frame with Unix.Unix_error _ -> ())
    reqs;
  let horizon = now () +. give_up_s in
  let rec await () =
    Mutex.lock lock;
    let got = !answered in
    Mutex.unlock lock;
    if got < n && now () < horizon then begin
      Thread.delay 0.005;
      await ()
    end
  in
  await ();
  Array.iter
    (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    conns;
  Array.iter Thread.join readers;
  Array.iter Unix.close conns;
  Array.init n (fun i ->
      let ok = succeeded replies.(i) in
      {
        req = reqs.(i);
        reply = replies.(i);
        ok;
        late_ms = (sent.(i) -. due i) *. 1000.;
        latency_ms =
          (if ok then (replied.(i) -. due i) *. 1000. else give_up_s *. 1000.);
        rtt_ms = (replied.(i) -. sent.(i)) *. 1000.;
        in_flight = in_flight.(i);
      })

let flows s =
  match s.reply with
  | Some v -> (
      match Json.member "flows" v with Some (Json.List l) -> l | _ -> [])
  | None -> []

(* Differential-validation campaigns: static engine vs dynamic oracle
   vs planted ground truth over seeded generated corpora.  Exits
   non-zero when any leak key lands in a DIVERGENCE bucket, so the
   binary doubles as the CI gate's workhorse. *)
open Cmdliner
module Cli = Fd_cli.Cli
module Gen = Fd_appgen.Generator
module Dc = Fd_diffcheck.Diffcheck
module Verdict = Fd_diffcheck.Verdict
module Minimize = Fd_diffcheck.Minimize

type which = One of Gen.profile | Both

let profile =
  let which_conv =
    Arg.enum
      [
        ("play", One Gen.Play);
        ("malware", One Gen.Malware);
        ("icc", One Gen.Icc);
        ("both", Both);
      ]
  in
  Arg.(
    value & opt which_conv Both
    & info [ "profile" ]
        ~doc:
          "Corpus profile: play, malware, icc (intent-heavy ICC \
           scenarios), or both (play + malware).")

let seed =
  Arg.(value & opt int 20140609 & info [ "seed" ] ~doc:"Corpus seed.")

let count =
  Arg.(
    value & opt int 200
    & info [ "count" ] ~docv:"N" ~doc:"Apps to generate per profile.")

let minimize_flag =
  Arg.(
    value & flag
    & info [ "minimize" ]
        ~doc:"Delta-debug every divergent app down to a minimal \
              reproducer and print it.")

let json =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Emit one machine-readable JSON object per campaign \
              instead of tables.")

let emit_explained =
  Arg.(
    value & opt (some string) None
    & info [ "emit-explained" ] ~docv:"DIR"
        ~doc:"For the first occurrence of every explained-FN/FP \
              bucket, delta-debug the app down to a minimal \
              reproducer and save it as an on-disk app under \
              $(docv)/<category>/ (regression corpus for the \
              documented limitations).")

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let campaign_json ~passes (c : Dc.campaign) =
  let buckets =
    String.concat ","
      (List.map
         (fun (k, n) -> Printf.sprintf "\"%s\":%d" (json_escape k) n)
         (Dc.bucket_counts c))
  in
  let divs =
    String.concat ","
      (List.concat_map
         (fun (ar : Dc.app_report) ->
           List.map
             (fun (v : Verdict.leak_verdict) ->
               Printf.sprintf
                 "{\"app\":\"%s\",\"key\":\"%s\",\"bucket\":\"%s\"}"
                 (json_escape ar.Dc.ar_name)
                 (json_escape (Verdict.string_of_key v.Verdict.v_key))
                 (json_escape (Verdict.string_of_bucket v.Verdict.v_bucket)))
             (Dc.divergences ar))
         (Dc.divergent_reports c))
  in
  (* the "precision" field appears only when a pass is on, so the
     default JSON stays bit-identical *)
  let precision_field =
    if Fd_core.Config.precision_enabled passes then
      Printf.sprintf "\"precision\":\"%s\","
        (json_escape (Fd_core.Config.string_of_precision passes))
    else ""
  in
  Printf.sprintf
    "{\"profile\":\"%s\",\"seed\":%d,%s\"apps\":%d,\"keys\":%d,\
     \"digest\":\"%s\",\"buckets\":{%s},\"divergences\":[%s]}"
    (Gen.string_of_profile c.Dc.cp_profile)
    c.Dc.cp_seed precision_field
    (List.length c.Dc.cp_reports)
    (Dc.total_keys c) (Dc.digest c) buckets divs

(* re-generate a divergent app by name to recover its gen_app record
   (reports only carry names; generation is deterministic) *)
let regenerate ~profile ~seed ~count name =
  List.find_opt
    (fun (ga : Gen.gen_app) -> ga.Gen.ga_name = name)
    (Gen.corpus ~profile ~seed count)

let minimize_divergences ~config ~profile ~seed ~count (c : Dc.campaign) =
  List.iter
    (fun (ar : Dc.app_report) ->
      match regenerate ~profile ~seed ~count ar.Dc.ar_name with
      | None -> ()
      | Some ga ->
          List.iter
            (fun (v : Verdict.leak_verdict) ->
              let small =
                Minimize.minimize ~config ~expected:ga.Gen.ga_expected
                  ~limits:ga.Gen.ga_limits ~target:v ga.Gen.ga_apk
              in
              Printf.printf
                "--- minimized reproducer: %s %s %s (%d stmts) ---\n%s\n"
                ar.Dc.ar_name
                (Verdict.string_of_key v.Verdict.v_key)
                (Verdict.string_of_bucket v.Verdict.v_bucket)
                (Minimize.stmt_count small)
                (Minimize.reproducer_text small))
            (Dc.divergences ar))
    (Dc.divergent_reports c)

(* one minimized reproducer per explained bucket label: the canonical
   on-disk witness of each documented limitation category *)
let emit_explained_repros ~config ~profile ~seed ~count ~dir (c : Dc.campaign) =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (ar : Dc.app_report) ->
      List.iter
        (fun (v : Verdict.leak_verdict) ->
          match v.Verdict.v_bucket with
          | Verdict.Explained_fn _ | Verdict.Explained_fp _
            when not (Hashtbl.mem seen v.Verdict.v_bucket) -> (
              match regenerate ~profile ~seed ~count ar.Dc.ar_name with
              | None -> ()
              | Some ga ->
                  Hashtbl.add seen v.Verdict.v_bucket ();
                  let small =
                    Minimize.minimize ~config ~expected:ga.Gen.ga_expected
                      ~limits:ga.Gen.ga_limits ~target:v ga.Gen.ga_apk
                  in
                  let label = Verdict.string_of_bucket v.Verdict.v_bucket in
                  let cat =
                    match v.Verdict.v_bucket with
                    | Verdict.Explained_fn l ->
                        "fn-" ^ Gen.string_of_limitation l
                    | Verdict.Explained_fp l ->
                        "fp-" ^ Gen.string_of_limitation l
                    | _ -> assert false
                  in
                  let d = Filename.concat dir cat in
                  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
                  Minimize.save ~dir:d small;
                  let oc = open_out (Filename.concat d "REPRO.txt") in
                  Printf.fprintf oc
                    "app: %s\nkey: %s\nbucket: %s\nstmts: %d\nseed: %d\n"
                    ar.Dc.ar_name
                    (Verdict.string_of_key v.Verdict.v_key)
                    label
                    (Minimize.stmt_count small)
                    seed;
                  close_out oc;
                  Printf.printf "emitted %s (%d stmts) -> %s\n" label
                    (Minimize.stmt_count small) d)
          | _ -> ())
        ar.Dc.ar_verdicts)
    c.Dc.cp_reports

let pairs =
  Arg.(
    value & opt int 0
    & info [ "pairs" ] ~docv:"N"
        ~doc:"Also run a collusion-pair campaign: $(docv) generated \
              sender/receiver app pairs analysed in one merged Scene \
              each, validated against the planted cross-app ground \
              truth.")

let run which seed count do_min json emit_dir pairs (c : Cli.t) =
  let module Config = Fd_core.Config in
  Cli.run ~name:"diff_runner" c @@ fun () ->
  let config = c.Cli.config and jobs = c.Cli.jobs in
  let passes = config.Config.precision in
  let enabled = Config.precision_enabled passes in
  let profiles =
    match which with One p -> [ p ] | Both -> [ Gen.Play; Gen.Malware ]
  in
  let n_div = ref 0 in
  List.iter
    (fun profile ->
      let c = Dc.campaign ~config ~jobs ~profile ~seed ~n:count () in
      n_div :=
        !n_div
        + List.fold_left
            (fun a ar -> a + List.length (Dc.divergences ar))
            0 c.Dc.cp_reports;
      if json then print_endline (campaign_json ~passes c)
      else begin
        (* precision line only when a pass is on: the default table
           stays bit-identical *)
        if enabled then
          Printf.printf "precision: %s\n" (Config.string_of_precision passes);
        print_string (Dc.render c)
      end;
      if do_min then minimize_divergences ~config ~profile ~seed ~count c;
      Option.iter
        (fun dir -> emit_explained_repros ~config ~profile ~seed ~count ~dir c)
        emit_dir)
    profiles;
  if pairs > 0 then begin
    let c = Dc.pair_campaign ~config ~jobs ~seed ~n:pairs () in
    n_div :=
      !n_div
      + List.fold_left
          (fun a ar -> a + List.length (Dc.divergences ar))
          0 c.Dc.cp_reports;
    if json then print_endline (campaign_json ~passes c)
    else begin
      Printf.printf "collusion pairs (merged two-app scenes):\n";
      print_string (Dc.render c)
    end
  end;
  (* verdicts from cancelled (partial) solves are not divergence
     evidence: after an interrupt the run exits 4 without a verdict *)
  if !n_div > 0 && not (Fd_resilience.Budget.cancelling_all ()) then begin
    Printf.eprintf "diff_runner: %d divergent leak key(s)\n" !n_div;
    1
  end
  else 0

let cmd =
  Cmd.v
    (Cmd.info "diff_runner" ~exits:Cli.exits
       ~doc:
         "Differential validation: static IFDS vs dynamic interpreter \
          vs planted ground truth over generated corpora.")
    Term.(
      const run $ profile $ seed $ count $ minimize_flag $ json
      $ emit_explained $ pairs $ Cli.term Cli.diff_runner)

let () = exit (Cmd.eval' cmd)

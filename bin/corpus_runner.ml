(* RQ3: analyse the generated Play-profile / malware-profile corpora
   and report runtime + leak statistics. *)
open Cmdliner
module Cli = Fd_cli.Cli

let profile =
  let profile_conv =
    Arg.enum
      [ ("play", Fd_appgen.Generator.Play);
        ("malware", Fd_appgen.Generator.Malware);
        ("icc", Fd_appgen.Generator.Icc) ]
  in
  Arg.(value & opt profile_conv Fd_appgen.Generator.Malware
       & info [ "profile" ] ~doc:"Corpus profile: play, malware or icc.")

let n =
  Arg.(value & opt int 100 & info [ "n" ] ~doc:"Number of apps to generate.")

let seed =
  Arg.(value & opt int 20140609 & info [ "seed" ] ~doc:"Corpus seed.")

let run profile n seed (c : Cli.t) =
  Cli.run ~name:"corpus_runner" c @@ fun () ->
  let t =
    Fd_eval.Corpus.run ~config:c.Cli.config ~jobs:c.Cli.jobs ~profile ~seed ~n ()
  in
  print_string (Fd_eval.Corpus.render t);
  (* per-app outcome rows for anything that did not complete cleanly *)
  List.iter
    (fun (s : Fd_eval.Corpus.app_stat) ->
      if not (Fd_resilience.Outcome.is_complete s.Fd_eval.Corpus.as_outcome)
      then
        Printf.printf "  %-24s outcome: %s\n" s.Fd_eval.Corpus.as_name
          (Fd_resilience.Outcome.to_string s.Fd_eval.Corpus.as_outcome))
    t.Fd_eval.Corpus.c_stats;
  0

let cmd =
  Cmd.v
    (Cmd.info "corpus_runner" ~exits:Cli.exits
       ~doc:"RQ3 corpus analysis (generated Play/malware apps)")
    Term.(const run $ profile $ n $ seed $ Cli.term Cli.corpus_runner)

let () = exit (Cmd.eval' cmd)

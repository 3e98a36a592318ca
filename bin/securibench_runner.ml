(* Regenerates Table 2: SecuriBench-µ results for FlowDroid. *)
open Cmdliner
module Cli = Fd_cli.Cli

let main (c : Cli.t) =
  Cli.run ~name:"securibench_runner" c @@ fun () ->
  let t = Fd_eval.Securibench_table.run ~jobs:c.Cli.jobs () in
  print_string (Fd_eval.Securibench_table.render t);
  (* list any deviations from the expected counts, for debugging *)
  List.iter
    (fun (name, v) ->
      if v.Fd_eval.Scoring.fn > 0 || v.Fd_eval.Scoring.fp > 0 then
        Printf.printf "  %-18s tp=%d fp=%d fn=%d\n" name v.Fd_eval.Scoring.tp
          v.Fd_eval.Scoring.fp v.Fd_eval.Scoring.fn)
    t.Fd_eval.Securibench_table.per_case;
  (* per-case termination states: list the cases the barrier had to
     degrade or give up on, then the overall distribution *)
  let outcomes = t.Fd_eval.Securibench_table.per_case_outcomes in
  List.iter
    (fun (name, o) ->
      if not (Fd_resilience.Outcome.is_complete o) then
        Printf.printf "  %-18s outcome: %s\n" name
          (Fd_resilience.Outcome.to_string o))
    outcomes;
  let dist =
    List.fold_left
      (fun acc (_, o) ->
        let key =
          match o with
          | Fd_resilience.Outcome.Crashed _ -> "crashed"
          | o -> Fd_resilience.Outcome.to_string o
        in
        let prev = Option.value (List.assoc_opt key acc) ~default:0 in
        (key, prev + 1) :: List.remove_assoc key acc)
      [] outcomes
    |> List.sort compare
  in
  Printf.printf "outcomes: %s\n"
    (String.concat ", "
       (List.map (fun (k, n) -> Printf.sprintf "%s: %d" k n) dist));
  0

let cmd =
  Cmd.v
    (Cmd.info "securibench_runner" ~exits:Cli.exits
       ~doc:"Table 2: SecuriBench-µ results for FlowDroid.")
    Term.(const main $ Cli.term Cli.securibench_runner)

let () = exit (Cmd.eval' cmd)

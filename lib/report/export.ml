module Scheme = Pacstack_harden.Scheme
module Server = Pacstack_workloads.Server
module Games = Pacstack_acs.Games
module Reuse = Pacstack_attacker.Reuse
module Adversary = Pacstack_attacker.Adversary

let write_csv ~dir ~name rows =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir name in
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun row -> Out_channel.output_string oc (String.concat "," row ^ "\n")) rows);
  path

let table1 ?seed ?scale ~dir () =
  write_csv ~dir ~name:"table1.csv"
    ([ "violation"; "masking"; "bits"; "theory"; "measured" ]
    :: List.map
         (fun (r : Plans.table1_row) ->
           [
             Plans.violation_name r.Plans.violation;
             string_of_bool r.Plans.masked;
             string_of_int r.Plans.bits;
             Printf.sprintf "%.3e" r.Plans.theory;
             Printf.sprintf "%.3e" r.Plans.measured.Games.rate;
           ])
         (Plans.compute ?seed ?scale Plans.table1))

let all ?seed ?scale ~dir () =
  let table1 = table1 ?seed ?scale ~dir () in
  let o = Plans.compute Plans.spec in
  let figure5 =
    write_csv ~dir ~name:"figure5.csv"
      (("benchmark" :: "calls_per_ki"
       :: List.map (fun (scheme, _, _) -> Scheme.to_string scheme) o.Plans.table2)
      :: List.map
           (fun (name, density, per_scheme) ->
             name :: Printf.sprintf "%.2f" density
             :: List.map (fun (_, oh) -> Printf.sprintf "%.3f" oh) per_scheme)
           o.Plans.figure5)
  in
  let table2 =
    write_csv ~dir ~name:"table2.csv"
      ([ "scheme"; "specrate_pct"; "specspeed_pct" ]
      :: List.map
           (fun (scheme, rate, speed) ->
             [ Scheme.to_string scheme; Printf.sprintf "%.3f" rate; Printf.sprintf "%.3f" speed ])
           o.Plans.table2)
  in
  let table3 =
    write_csv ~dir ~name:"table3.csv"
      ([ "workers"; "scheme"; "req_per_sec"; "sigma"; "overhead_pct" ]
      :: List.map
           (fun ((r : Server.result), overhead) ->
             [
               string_of_int r.Server.workers;
               Scheme.to_string r.Server.scheme;
               Printf.sprintf "%.0f" r.Server.req_per_sec;
               Printf.sprintf "%.0f" r.Server.sigma;
               Printf.sprintf "%.2f" overhead;
             ])
           (Plans.compute Plans.server))
  in
  let attacks =
    write_csv ~dir ~name:"attacks.csv"
      ([ "strategy"; "scheme"; "outcome" ]
      :: List.concat_map
           (fun (strategy, row) ->
             List.map
               (fun (scheme, outcome) ->
                 [
                   Reuse.strategy_to_string strategy;
                   Scheme.to_string scheme;
                   Adversary.outcome_to_string outcome;
                 ])
               row)
           (Reuse.matrix ()))
  in
  [ table1; figure5; table2; table3; attacks ]

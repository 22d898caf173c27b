module Rng = Pacstack_util.Rng
module Analysis = Pacstack_acs.Analysis
module Games = Pacstack_acs.Games
module Scheme = Pacstack_harden.Scheme
module Speclike = Pacstack_workloads.Speclike
module Server = Pacstack_workloads.Server
module Bruteforce = Pacstack_attacker.Bruteforce
module Inject_engine = Pacstack_inject.Engine
module Stats = Pacstack_util.Stats
module Fleet = Pacstack_fleet.Fleet
module Fleet_arrival = Pacstack_fleet.Arrival
module Fleet_json = Pacstack_fleet.Json
module Campaign = Pacstack_campaign.Campaign
module Plan = Pacstack_campaign.Plan
module Shard = Pacstack_campaign.Shard
module Checkpoint = Pacstack_campaign.Checkpoint
module Progress = Pacstack_campaign.Progress
module Json = Pacstack_campaign.Json

let scaled scale trials = max 1 (int_of_float ((float_of_int trials *. scale) +. 0.5))

(* --- Table 1 ------------------------------------------------------------ *)

let table1_cells =
  [
    (Analysis.On_graph, false, 8, 20_000);
    (Analysis.On_graph, true, 8, 60_000);
    (Analysis.Off_graph_to_call_site, false, 8, 200_000);
    (Analysis.Off_graph_to_call_site, true, 8, 200_000);
    (Analysis.Off_graph_arbitrary, false, 5, 400_000);
    (Analysis.Off_graph_arbitrary, true, 5, 400_000);
  ]

let cell_label (kind, masked, _, _) =
  Format.asprintf "%a/%s" Analysis.pp_violation_kind kind
    (if masked then "masked" else "unmasked")

let table1_plan ?(scale = 1.0) ?(shards_per_cell = 8) ~seed () =
  (* specs.(shard_index) tells the shard which cell it belongs to; the
     shard structure is a pure function of (cells, scale, shards_per_cell),
     never of worker count, which is what makes parallel runs replayable *)
  let specs =
    Array.of_list
      (List.concat
         (List.mapi
            (fun cell ((kind, masked, bits, trials) as row) ->
              let trials = scaled scale trials in
              let parts = min shards_per_cell trials in
              Array.to_list
                (Array.mapi
                   (fun i part ->
                     (Printf.sprintf "%s#%d" (cell_label row) i, part, cell, kind, masked, bits))
                   (Plan.split_trials ~trials ~shards:parts)))
            table1_cells))
  in
  Plan.make ~name:"table1" ~seed
    ~shards:(Array.map (fun (label, trials, _, _, _, _) -> (label, trials)) specs)
    ~run:(fun shard rng ->
      let _, trials, cell, kind, masked, bits = specs.(shard.Shard.index) in
      (cell, Games.violation_success ~masked ~kind ~bits ~harvest:600 ~trials rng))

let table1_codec =
  {
    Checkpoint.encode =
      (fun (cell, (e : Games.estimate)) ->
        Json.Obj
          [
            ("cell", Json.Int cell);
            ("successes", Json.Int e.Games.successes);
            ("trials", Json.Int e.Games.trials);
          ]);
    decode =
      (fun json ->
        match
          ( Option.bind (Json.member "cell" json) Json.to_int,
            Option.bind (Json.member "successes" json) Json.to_int,
            Option.bind (Json.member "trials" json) Json.to_int )
        with
        | Some cell, Some successes, Some trials ->
          Some (cell, Games.estimate ~successes ~trials)
        | _ -> None);
  }

let table1_estimates outcome =
  let cells = Array.make (List.length table1_cells) None in
  Campaign.fold outcome ~init:() ~f:(fun () (cell, est) ->
      cells.(cell) <-
        Some (match cells.(cell) with None -> est | Some acc -> Games.merge_estimates acc est));
  Array.map Option.get cells

(* --- birthday harvest --------------------------------------------------- *)

let birthday_plan ?(scale = 1.0) ?(shards = 8) ~seed () =
  let trials = scaled scale 400 in
  let shards = min shards trials in
  let parts = Plan.split_trials ~trials ~shards in
  Plan.make ~name:"birthday" ~seed
    ~shards:(Array.mapi (fun i part -> (Printf.sprintf "harvest#%d" i, part)) parts)
    ~run:(fun shard rng -> Games.birthday_total ~bits:16 ~trials:shard.Shard.trials rng)

let int_codec =
  {
    Checkpoint.encode = (fun total -> Json.Int total);
    decode = Json.to_int;
  }

let birthday_codec = int_codec

let birthday_mean ~plan outcome =
  float_of_int (Campaign.fold outcome ~init:0 ~f:( + ))
  /. float_of_int (Plan.total_trials plan)

(* --- guessing games and the machine brute force ------------------------- *)

let guessing_rows =
  [
    (Games.Divide_and_conquer, 8, 4000);
    (Games.Reseeded, 8, 4000);
    (Games.Independent, 6, 600);
  ]

let guessing_plan ?(scale = 1.0) ?(shards_per_strategy = 4) ~seed () =
  let specs =
    Array.of_list
      (List.concat
         (List.mapi
            (fun row (strategy, bits, trials) ->
              let trials = scaled scale trials in
              let parts = min shards_per_strategy trials in
              Array.to_list
                (Array.mapi
                   (fun i part ->
                     ( Format.asprintf "%a#%d" Games.pp_guess_strategy strategy i,
                       part, row, strategy, bits ))
                   (Plan.split_trials ~trials ~shards:parts)))
            guessing_rows))
  in
  Plan.make ~name:"guessing" ~seed
    ~shards:(Array.map (fun (label, trials, _, _, _) -> (label, trials)) specs)
    ~run:(fun shard rng ->
      let _, trials, row, strategy, bits = specs.(shard.Shard.index) in
      (row, Games.guessing_total ~strategy ~bits ~trials rng))

let guessing_codec =
  {
    Checkpoint.encode =
      (fun (row, total) -> Json.Obj [ ("strategy", Json.Int row); ("guesses", Json.Int total) ]);
    decode =
      (fun json ->
        match
          ( Option.bind (Json.member "strategy" json) Json.to_int,
            Option.bind (Json.member "guesses" json) Json.to_int )
        with
        | Some row, Some total -> Some (row, total)
        | _ -> None);
  }

let guessing_means ~plan outcome =
  let rows = List.length guessing_rows in
  let totals = Array.make rows 0 and trials = Array.make rows 0 in
  Array.iteri
    (fun i (row, total) ->
      totals.(row) <- totals.(row) + total;
      trials.(row) <- trials.(row) + plan.Plan.shards.(i).Shard.trials)
    (Campaign.results_exn outcome);
  Array.map2 (fun t n -> float_of_int t /. float_of_int (max 1 n)) totals trials

let bruteforce_plan ?(scale = 1.0) ?(pac_bits = 6) ?(shards = 5) ~seed () =
  let trials = scaled scale 15 in
  let shards = min shards trials in
  let parts = Plan.split_trials ~trials ~shards in
  Plan.make ~name:"bruteforce" ~seed
    ~shards:(Array.mapi (fun i part -> (Printf.sprintf "siblings#%d" i, part)) parts)
    ~run:(fun shard rng -> Bruteforce.total_guesses ~pac_bits ~trials:shard.Shard.trials rng)

let bruteforce_codec = int_codec

(* --- differential fuzzing ------------------------------------------------ *)

module Fuzz_driver = Pacstack_fuzz.Driver
module Fuzz_oracle = Pacstack_fuzz.Oracle

(* Shard = contiguous seed range.  Seed [i]'s program derives from
   (campaign seed, i) alone — see Driver.seed_rng — so the report is
   bit-identical at any worker count and any shard split. *)
let fuzz_plan ?schemes ?optimize ?(seeds = 200) ?(shards = 8) ~seed () =
  let cfg =
    {
      Fuzz_oracle.default_config with
      schemes = Option.value schemes ~default:Fuzz_oracle.default_config.schemes;
      optimize = Option.value optimize ~default:Fuzz_oracle.default_config.optimize;
    }
  in
  let shards = max 1 (min shards seeds) in
  let parts = Plan.split_trials ~trials:seeds ~shards in
  let ranges =
    let lo = ref 0 in
    Array.map
      (fun part ->
        let range = (!lo, !lo + part) in
        lo := !lo + part;
        range)
      parts
  in
  Plan.make ~name:"fuzz" ~seed
    ~shards:
      (Array.map (fun (lo, hi) -> (Printf.sprintf "seeds[%d,%d)" lo hi, hi - lo)) ranges)
    ~run:(fun shard _rng ->
      let lo, hi = ranges.(shard.Shard.index) in
      Fuzz_driver.run_range cfg ~campaign_seed:seed ~lo ~hi)

let fuzz_codec =
  let failure_to_json (f : Fuzz_driver.failure) =
    Json.Obj
      [
        ("seed", Json.Int f.Fuzz_driver.seed);
        ("scheme", Json.String f.Fuzz_driver.scheme);
        ("optimize", Json.Bool f.Fuzz_driver.optimize);
        ("site", Json.String f.Fuzz_driver.site);
        ("expected", Json.String f.Fuzz_driver.expected);
        ("actual", Json.String f.Fuzz_driver.actual);
      ]
  in
  let failure_of_json json =
    let str k = Option.bind (Json.member k json) Json.to_str in
    let int k = Option.bind (Json.member k json) Json.to_int in
    match
      ( int "seed", str "scheme",
        Option.bind (Json.member "optimize" json) Json.to_bool,
        str "site", str "expected", str "actual" )
    with
    | Some seed, Some scheme, Some optimize, Some site, Some expected, Some actual ->
      Some { Fuzz_driver.seed; scheme; optimize; site; expected; actual }
    | _ -> None
  in
  {
    Checkpoint.encode =
      (fun (s : Fuzz_driver.stats) ->
        Json.Obj
          [
            ("programs", Json.Int s.Fuzz_driver.programs);
            ("runs", Json.Int s.Fuzz_driver.runs);
            ("skipped", Json.Int s.Fuzz_driver.skipped);
            ("crashes", Json.Int s.Fuzz_driver.crashes);
            ("failures", Json.List (List.map failure_to_json s.Fuzz_driver.failures));
          ]);
    decode =
      (fun json ->
        let int k = Option.bind (Json.member k json) Json.to_int in
        match
          ( int "programs", int "runs", int "skipped", int "crashes",
            Json.member "failures" json )
        with
        | Some programs, Some runs, Some skipped, Some crashes, Some (Json.List fs) ->
          let failures = List.filter_map failure_of_json fs in
          if List.length failures = List.length fs then
            Some { Fuzz_driver.programs; runs; skipped; crashes; failures }
          else None
        | _ -> None);
  }

let fuzz_totals outcome =
  Campaign.fold outcome ~init:Fuzz_driver.empty ~f:Fuzz_driver.merge

let fuzz_stats_json (s : Fuzz_driver.stats) =
  match fuzz_codec.Checkpoint.encode s with
  | Json.Obj fields -> fields
  | other -> [ ("stats", other) ]

(* --- fault injection ------------------------------------------------------ *)

(* Shard = contiguous fault range. Up to 4096 faults that is 8 shards;
   beyond, shards hold at most 512 faults, so a campaign's checkpoint
   granularity and in-flight memory stay bounded however long it runs. *)
let inject_plan ?schemes ?(pac_bits = 4) ?tamper ?(faults = 120) ?shards ~seed () =
  let cfg =
    {
      Inject_engine.default_config with
      pac_bits;
      schemes = Option.value schemes ~default:Inject_engine.default_config.schemes;
      tamper;
    }
  in
  let shards =
    match shards with
    | Some n -> max 1 (min n faults)
    | None -> max (min faults 8) ((faults + 511) / 512)
  in
  let parts = Plan.split_trials ~trials:faults ~shards in
  let ranges =
    let lo = ref 0 in
    Array.map
      (fun part ->
        let range = (!lo, !lo + part) in
        lo := !lo + part;
        range)
      parts
  in
  Plan.make ~name:"inject" ~seed
    ~shards:
      (Array.map (fun (lo, hi) -> (Printf.sprintf "faults[%d,%d)" lo hi, hi - lo)) ranges)
    ~run:(fun shard _rng ->
      let lo, hi = ranges.(shard.Shard.index) in
      Inject_engine.run_range cfg ~campaign_seed:seed ~first:lo ~count:(hi - lo))

let inject_codec =
  { Checkpoint.encode = Inject_engine.stats_to_json; decode = Inject_engine.stats_of_json }

let inject_compaction ~keep = { Checkpoint.merge = Inject_engine.merge; keep }

let inject_totals outcome =
  Campaign.fold outcome ~init:Inject_engine.empty ~f:Inject_engine.merge

(* Every reported rate carries a Wilson 95% interval ((0, 1) for an
   empty cell): at rare-event scales the point estimate alone (often
   exactly 0) says nothing about what the sample size actually excludes. *)
let cell_total (c : Inject_engine.cell) =
  c.Inject_engine.detected + c.Inject_engine.benign + c.Inject_engine.silent

let silent_rate (c : Inject_engine.cell) =
  let total = cell_total c in
  if total = 0 then 0.0 else float_of_int c.Inject_engine.silent /. float_of_int total

let inject_stats_json (s : Inject_engine.stats) =
  let rates =
    List.map
      (fun (name, (c : Inject_engine.cell)) ->
        let lo, hi = Stats.wilson ~successes:c.Inject_engine.silent ~trials:(cell_total c) in
        Json.Obj
          [
            ("scheme", Json.String name);
            ("trials", Json.Int (cell_total c));
            ("silent_rate", Json.Float (silent_rate c));
            ("wilson_lo", Json.Float lo);
            ("wilson_hi", Json.Float hi);
          ])
      s.Inject_engine.cells
  in
  (match Inject_engine.stats_to_json s with
  | Json.Obj fields -> fields
  | other -> [ ("stats", other) ])
  @ [
      ("silent_rates", Json.List rates);
      ("repro_dropped", Json.Int (Inject_engine.repro_dropped s));
    ]

(* The detection-rate table: per scheme, how the campaign's faults
   classified, the silent rate with its Wilson interval, and how long
   detected corruption lived (mean, and p95 from the log2 histogram). *)
let pp_inject_table fmt (s : Inject_engine.stats) =
  Format.fprintf fmt "%-24s %9s %9s %9s %11s %25s %9s %9s@." "scheme" "detected" "benign"
    "silent" "silent-rate" "wilson-95%" "mean-lat" "p95-lat";
  List.iter
    (fun (name, (c : Inject_engine.cell)) ->
      let lo, hi = Stats.wilson ~successes:c.Inject_engine.silent ~trials:(cell_total c) in
      let mean, p95 =
        match Inject_engine.latency_percentile c 95.0 with
        | None -> ("-", "-")
        | Some p95 ->
          ( Printf.sprintf "%.1f"
              (float_of_int c.Inject_engine.latency_sum /. float_of_int c.Inject_engine.detected),
            Printf.sprintf "%.0f" p95 )
      in
      Format.fprintf fmt "%-24s %9d %9d %9d %11.3e %25s %9s %9s@." name c.Inject_engine.detected
        c.Inject_engine.benign c.Inject_engine.silent (silent_rate c)
        (Printf.sprintf "[%.3e, %.3e]" lo hi)
        mean p95)
    s.Inject_engine.cells;
  let dropped = Inject_engine.repro_dropped s in
  if dropped > 0 then
    Format.fprintf fmt "(%d silent reproducer%s beyond the %d-per-scheme cap not retained)@."
      dropped
      (if dropped = 1 then "" else "s")
      Inject_engine.repro_cap

(* The long-format detection-rate table: every (injection site, scheme)
   cell, site-major, with the detection rate and its Wilson interval —
   the headline site x scheme comparison across the scheme family. *)
let pp_inject_site_table fmt (s : Inject_engine.stats) =
  Format.fprintf fmt "@.%-16s %-24s %9s %9s %9s %10s %23s@." "site" "scheme" "detected"
    "benign" "silent" "det-rate" "wilson-95%";
  let last_site = ref "" in
  List.iter
    (fun ((site, name), (c : Inject_engine.cell)) ->
      let total = cell_total c in
      let rate =
        if total = 0 then 0.0 else float_of_int c.Inject_engine.detected /. float_of_int total
      in
      let lo, hi = Stats.wilson ~successes:c.Inject_engine.detected ~trials:total in
      if !last_site <> "" && !last_site <> site then Format.fprintf fmt "@.";
      last_site := site;
      Format.fprintf fmt "%-16s %-24s %9d %9d %9d %10.3f %23s@." site name
        c.Inject_engine.detected c.Inject_engine.benign c.Inject_engine.silent rate
        (Printf.sprintf "[%.4f, %.4f]" lo hi))
    s.Inject_engine.site_cells

let quarantine_json (outcome : _ Campaign.outcome) =
  ( "quarantined",
    Json.List
      (List.map
         (fun (q : Campaign.quarantine) ->
           Json.Obj
             [
               ("shard", Json.Int q.Campaign.shard);
               ("label", Json.String q.Campaign.label);
               ("attempts", Json.Int q.Campaign.attempts);
               ("error", Json.String q.Campaign.error);
             ])
         outcome.Campaign.quarantined) )

(* --- overhead sweeps ----------------------------------------------------- *)

let spec_schemes = Scheme.all

let spec_plan ~seed () =
  let cells =
    Array.of_list (Speclike.sweep_cells ~variants:[ Speclike.Rate ] ~schemes:spec_schemes)
  in
  Plan.make ~name:"spec" ~seed
    ~shards:
      (Array.map
         (fun (variant, bench, scheme) ->
           ( Printf.sprintf "%s/%s/%s" (Speclike.variant_to_string variant) bench
               (Scheme.to_string scheme),
             1 ))
         cells)
    ~run:(fun shard _rng ->
      let variant, bench, scheme = cells.(shard.Shard.index) in
      Speclike.measure_cell ~variant ~scheme bench)

let variant_of_string = function
  | "rate" -> Some Speclike.Rate
  | "speed" -> Some Speclike.Speed
  | _ -> None

let spec_codec =
  {
    Checkpoint.encode =
      (fun (m : Speclike.measurement) ->
        Json.Obj
          [
            ("bench", Json.String m.Speclike.bench);
            ("variant", Json.String (Speclike.variant_to_string m.Speclike.variant));
            ("scheme", Json.String (Scheme.to_string m.Speclike.scheme));
            ("cycles", Json.Int m.Speclike.cycles);
            ("instructions", Json.Int m.Speclike.instructions);
            ("mem_ops", Json.Int m.Speclike.mem_ops);
            ("checksum", Json.String (Int64.to_string m.Speclike.checksum));
          ]);
    decode =
      (fun json ->
        let str k = Option.bind (Json.member k json) Json.to_str in
        let int k = Option.bind (Json.member k json) Json.to_int in
        match
          ( str "bench",
            Option.bind (str "variant") variant_of_string,
            Option.bind (str "scheme") Scheme.of_string,
            int "cycles", int "instructions", int "mem_ops",
            Option.bind (str "checksum") Int64.of_string_opt )
        with
        | Some bench, Some variant, Some scheme, Some cycles, Some instructions,
          Some mem_ops, Some checksum ->
          Some { Speclike.bench; variant; scheme; cycles; instructions; mem_ops; checksum }
        | _ -> None);
  }

let server_plan ~seed () =
  let cells = Array.of_list (Server.sweep_cells ()) in
  Plan.make ~name:"server" ~seed
    ~shards:
      (Array.map
         (fun (workers, scheme) ->
           (Printf.sprintf "%dw/%s" workers (Scheme.to_string scheme), 1))
         cells)
    ~run:(fun shard _rng ->
      let workers, scheme = cells.(shard.Shard.index) in
      Server.measure ~scheme ~workers ())

let server_codec =
  {
    Checkpoint.encode =
      (fun (r : Server.result) ->
        Json.Obj
          [
            ("scheme", Json.String (Scheme.to_string r.Server.scheme));
            ("workers", Json.Int r.Server.workers);
            ("req_per_sec", Json.Float r.Server.req_per_sec);
            ("sigma", Json.Float r.Server.sigma);
            ("cycles_per_request", Json.Float r.Server.cycles_per_request);
            ("mem_ops_per_request", Json.Float r.Server.mem_ops_per_request);
          ]);
    decode =
      (fun json ->
        let flt k = Option.bind (Json.member k json) Json.to_float in
        match
          ( Option.bind (Option.bind (Json.member "scheme" json) Json.to_str) Scheme.of_string,
            Option.bind (Json.member "workers" json) Json.to_int,
            flt "req_per_sec", flt "sigma", flt "cycles_per_request", flt "mem_ops_per_request" )
        with
        | Some scheme, Some workers, Some req_per_sec, Some sigma, Some cycles_per_request,
          Some mem_ops_per_request ->
          Some
            { Server.scheme; workers; req_per_sec; sigma; cycles_per_request; mem_ops_per_request }
        | _ -> None);
  }

(* --- uniform CLI entries -------------------------------------------------- *)

type entry = {
  name : string;
  doc : string;
  default_seed : int64;
  execute :
    workers:int ->
    seed:int64 ->
    checkpoint:string option ->
    progress:Progress.sink ->
    Format.formatter ->
    Json.t;
}

let with_checkpoint checkpoint codec = Option.map (fun path -> (path, codec)) checkpoint

let outcome_header (o : _ Campaign.outcome) =
  [
    ("campaign", Json.String o.Campaign.plan_name);
    ("seed", Json.String (Int64.to_string o.Campaign.seed));
    ("workers", Json.Int o.Campaign.workers);
    ("elapsed_s", Json.Float o.Campaign.elapsed_s);
    ("resumed_shards", Json.Int o.Campaign.resumed);
  ]

let table1_entry =
  {
    name = "table1";
    doc = "Table 1 violation-success probabilities";
    default_seed = 1L;
    execute =
      (fun ~workers ~seed ~checkpoint ~progress fmt ->
        let plan = table1_plan ~seed () in
        let outcome =
          Campaign.run ~workers ~progress ?checkpoint:(with_checkpoint checkpoint table1_codec)
            plan
        in
        let per_cell = table1_estimates outcome in
        Format.fprintf fmt "%-34s %-8s %-6s %-12s %-12s@." "violation" "masking" "b"
          "paper(theory)" "measured";
        List.iteri
          (fun i (kind, masked, bits, _) ->
            Format.fprintf fmt "%-34s %-8b %-6d %-12.2e %-12.2e@."
              (Format.asprintf "%a" Analysis.pp_violation_kind kind)
              masked bits
              (Analysis.table1_success_probability ~masked kind ~bits)
              per_cell.(i).Games.rate)
          table1_cells;
        Json.Obj
          (outcome_header outcome
          @ [
              ( "cells",
                Json.List
                  (List.mapi
                     (fun i (kind, masked, bits, _) ->
                       Json.Obj
                         [
                           ("violation", Json.String (Format.asprintf "%a" Analysis.pp_violation_kind kind));
                           ("masked", Json.Bool masked);
                           ("bits", Json.Int bits);
                           ("successes", Json.Int per_cell.(i).Games.successes);
                           ("trials", Json.Int per_cell.(i).Games.trials);
                           ("rate", Json.Float per_cell.(i).Games.rate);
                         ])
                     table1_cells) );
            ]));
  }

let birthday_entry =
  {
    name = "birthday";
    doc = "§6.2.1 tokens harvested until a PAC collision";
    default_seed = 2L;
    execute =
      (fun ~workers ~seed ~checkpoint ~progress fmt ->
        let plan = birthday_plan ~seed () in
        let outcome =
          Campaign.run ~workers ~progress
            ?checkpoint:(with_checkpoint checkpoint birthday_codec) plan
        in
        let mean = birthday_mean ~plan outcome in
        Format.fprintf fmt
          "tokens harvested until PAC collision (b=16): measured %.1f, paper ~%.1f@." mean
          (Analysis.collision_harvest_mean ~bits:16);
        Json.Obj
          (outcome_header outcome
          @ [ ("mean_harvest", Json.Float mean); ("bits", Json.Int 16) ]));
  }

let expected_guesses strategy bits =
  match strategy with
  | Games.Divide_and_conquer -> Analysis.guesses_divide_and_conquer ~bits
  | Games.Reseeded -> Analysis.guesses_reseeded ~bits
  | Games.Independent -> Analysis.guesses_independent ~bits

let guessing_entry =
  {
    name = "guessing";
    doc = "§4.3 guessing strategies (model-level)";
    default_seed = 3L;
    execute =
      (fun ~workers ~seed ~checkpoint ~progress fmt ->
        let plan = guessing_plan ~seed () in
        let outcome =
          Campaign.run ~workers ~progress
            ?checkpoint:(with_checkpoint checkpoint guessing_codec) plan
        in
        let means = guessing_means ~plan outcome in
        Format.fprintf fmt "%-38s %-6s %12s %12s@." "strategy" "b" "measured" "expected";
        List.iteri
          (fun i (strategy, bits, _) ->
            Format.fprintf fmt "%-38s %-6d %12.0f %12.0f@."
              (Format.asprintf "%a" Games.pp_guess_strategy strategy)
              bits means.(i) (expected_guesses strategy bits))
          guessing_rows;
        Json.Obj
          (outcome_header outcome
          @ [
              ( "strategies",
                Json.List
                  (List.mapi
                     (fun i (strategy, bits, _) ->
                       Json.Obj
                         [
                           ( "strategy",
                             Json.String (Format.asprintf "%a" Games.pp_guess_strategy strategy) );
                           ("bits", Json.Int bits);
                           ("mean_guesses", Json.Float means.(i));
                           ("expected", Json.Float (expected_guesses strategy bits));
                         ])
                     guessing_rows) );
            ]));
  }

let bruteforce_entry =
  {
    name = "bruteforce";
    doc = "§4.3 end-to-end forked-sibling attack on the machine";
    default_seed = 3L;
    execute =
      (fun ~workers ~seed ~checkpoint ~progress fmt ->
        let plan = bruteforce_plan ~seed () in
        let outcome =
          Campaign.run ~workers ~progress
            ?checkpoint:(with_checkpoint checkpoint bruteforce_codec) plan
        in
        let trials = Plan.total_trials plan in
        let mean = float_of_int (Campaign.fold outcome ~init:0 ~f:( + )) /. float_of_int trials in
        Format.fprintf fmt
          "end-to-end forked-sibling attack (machine, b=6): %.0f guesses/success (expectation %.0f)@."
          mean (2.0 ** 6.0);
        Json.Obj
          (outcome_header outcome
          @ [
              ("pac_bits", Json.Int 6);
              ("trials", Json.Int trials);
              ("mean_guesses", Json.Float mean);
            ]));
  }

let spec_entry =
  {
    name = "spec";
    doc = "SPECrate-like overhead sweep (benchmark x scheme grid)";
    default_seed = 0L;
    execute =
      (fun ~workers ~seed ~checkpoint ~progress fmt ->
        let plan = spec_plan ~seed () in
        let outcome =
          Campaign.run ~workers ~progress ?checkpoint:(with_checkpoint checkpoint spec_codec)
            plan
        in
        let results = Campaign.results_exn outcome in
        let baseline_of bench =
          let m =
            Array.to_list results
            |> List.find (fun (m : Speclike.measurement) ->
                   m.Speclike.bench = bench && Scheme.equal m.Speclike.scheme Scheme.unprotected)
          in
          m
        in
        Format.fprintf fmt "%-14s %-24s %12s %10s@." "benchmark" "scheme" "cycles" "overhead";
        Array.iter
          (fun (m : Speclike.measurement) ->
            Format.fprintf fmt "%-14s %-24s %12d %9.2f%%@." m.Speclike.bench
              (Scheme.to_string m.Speclike.scheme)
              m.Speclike.cycles
              (Speclike.overhead_pct ~baseline:(baseline_of m.Speclike.bench) m))
          results;
        Json.Obj
          (outcome_header outcome
          @ [
              ( "cells",
                Json.List
                  (Array.to_list
                     (Array.map
                        (fun (m : Speclike.measurement) ->
                          Json.Obj
                            [
                              ("bench", Json.String m.Speclike.bench);
                              ("scheme", Json.String (Scheme.to_string m.Speclike.scheme));
                              ("cycles", Json.Int m.Speclike.cycles);
                              ( "overhead_pct",
                                Json.Float
                                  (Speclike.overhead_pct ~baseline:(baseline_of m.Speclike.bench) m)
                              );
                            ])
                        results)) );
            ]));
  }

let server_entry =
  {
    name = "server";
    doc = "Table 3 server-throughput sweep (workers x scheme grid)";
    default_seed = 0L;
    execute =
      (fun ~workers ~seed ~checkpoint ~progress fmt ->
        let plan = server_plan ~seed () in
        let outcome =
          Campaign.run ~workers ~progress ?checkpoint:(with_checkpoint checkpoint server_codec)
            plan
        in
        let results = Campaign.results_exn outcome in
        let baseline_of workers =
          Array.to_list results
          |> List.find (fun (r : Server.result) ->
                 r.Server.workers = workers && Scheme.equal r.Server.scheme Scheme.unprotected)
        in
        Format.fprintf fmt "%-8s %-18s %12s %10s@." "workers" "scheme" "req/s" "overhead";
        Array.iter
          (fun (r : Server.result) ->
            Format.fprintf fmt "%-8d %-18s %11.1fk %9.1f%%@." r.Server.workers
              (Scheme.to_string r.Server.scheme)
              (r.Server.req_per_sec /. 1000.0)
              (Server.overhead_pct ~baseline:(baseline_of r.Server.workers) r))
          results;
        Json.Obj
          (outcome_header outcome
          @ [
              ( "cells",
                Json.List
                  (Array.to_list
                     (Array.map
                        (fun (r : Server.result) ->
                          Json.Obj
                            [
                              ("workers", Json.Int r.Server.workers);
                              ("scheme", Json.String (Scheme.to_string r.Server.scheme));
                              ("req_per_sec", Json.Float r.Server.req_per_sec);
                              ( "overhead_pct",
                                Json.Float
                                  (Server.overhead_pct ~baseline:(baseline_of r.Server.workers) r)
                              );
                            ])
                        results)) );
            ]));
  }

let fuzz_entry =
  {
    name = "fuzz";
    doc = "differential fuzzing of the mini-C pipeline against the reference interpreter";
    default_seed = 1L;
    execute =
      (fun ~workers ~seed ~checkpoint ~progress fmt ->
        let plan = fuzz_plan ~seed () in
        let outcome =
          Campaign.run ~workers ~progress ?checkpoint:(with_checkpoint checkpoint fuzz_codec)
            plan
        in
        let totals = fuzz_totals outcome in
        Format.fprintf fmt "%a@." Fuzz_driver.pp_stats totals;
        Format.fprintf fmt "throughput: %.1f programs/s@."
          (float_of_int totals.Fuzz_driver.programs /. max 1e-9 outcome.Campaign.elapsed_s);
        (match Pacstack_fuzz.Triage.buckets (Fuzz_driver.triage_entries totals) with
        | [] -> ()
        | buckets ->
          Format.fprintf fmt "@[<v>divergence buckets:@,%a@]@."
            Pacstack_fuzz.Triage.pp_buckets buckets);
        Json.Obj (outcome_header outcome @ fuzz_stats_json totals));
  }

(* --- fleet simulation ----------------------------------------------------- *)

let fleet_execute cfg ~workers ~seed ~checkpoint ~progress fmt =
  let cfg = { cfg with Fleet.seed } in
  let plan = Fleet.plan cfg in
  let outcome =
    Campaign.run ~workers ~progress
      ?checkpoint:(with_checkpoint checkpoint Fleet_json.checkpoint_codec) plan
  in
  let rows = Fleet.tabulate cfg outcome in
  Format.fprintf fmt "fleet: %d connections, %.2f virtual s, %s arrivals, %d cells x %d cores@."
    cfg.Fleet.connections cfg.Fleet.duration_s
    (Fleet_arrival.to_string cfg.Fleet.arrival)
    cfg.Fleet.cells cfg.Fleet.cores;
  Fleet.pp_table cfg fmt rows;
  match Fleet_json.table_to_json cfg rows with
  | Json.Obj fields -> Json.Obj (outcome_header outcome @ fields @ [ quarantine_json outcome ])
  | other -> other

let fleet_entry =
  {
    name = "fleet";
    doc = "fleet-scale open-loop traffic with per-scheme tail latency";
    default_seed = Fleet.default.Fleet.seed;
    execute = fleet_execute Fleet.default;
  }

(* --- fault injection runner ------------------------------------------------ *)

let inject_execute ?schemes ?(pac_bits = 4) ?(faults = 120) ?policy ?(compact_every = 256)
    ~workers ~seed ~checkpoint ~progress fmt =
  let outcome =
    Campaign.run ~workers ~progress ?policy
      ?checkpoint:(with_checkpoint checkpoint inject_codec)
      ?compaction:(Option.map (fun _ -> inject_compaction ~keep:compact_every) checkpoint)
      (inject_plan ?schemes ~pac_bits ~faults ~seed ())
  in
  let totals = inject_totals outcome in
  Format.fprintf fmt "inject: %d faults x %d schemes at pac_bits=%d, seed %Ld@."
    totals.Inject_engine.faults
    (List.length totals.Inject_engine.cells)
    pac_bits seed;
  pp_inject_table fmt totals;
  pp_inject_site_table fmt totals;
  List.iter
    (fun (q : Campaign.quarantine) ->
      Format.fprintf fmt "quarantined shard %d (%s) after %d attempts: %s@." q.Campaign.shard
        q.Campaign.label q.Campaign.attempts q.Campaign.error)
    outcome.Campaign.quarantined;
  ( totals,
    Json.Obj (outcome_header outcome @ inject_stats_json totals @ [ quarantine_json outcome ]) )

let inject_entry =
  {
    name = "inject";
    doc = "deterministic fault injection across the hardening schemes";
    default_seed = 7L;
    execute =
      (fun ~workers ~seed ~checkpoint ~progress fmt ->
        snd (inject_execute ~workers ~seed ~checkpoint ~progress fmt));
  }

let entries =
  [
    table1_entry; birthday_entry; guessing_entry; bruteforce_entry; spec_entry;
    server_entry; fuzz_entry; inject_entry; fleet_entry;
  ]

let find name = List.find_opt (fun e -> e.name = name) entries

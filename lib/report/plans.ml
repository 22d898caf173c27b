module Analysis = Pacstack_acs.Analysis
module Games = Pacstack_acs.Games
module Scheme = Pacstack_harden.Scheme
module Speclike = Pacstack_workloads.Speclike
module Server = Pacstack_workloads.Server
module Bruteforce = Pacstack_attacker.Bruteforce
module Inject_engine = Pacstack_inject.Engine
module Fuzz_driver = Pacstack_fuzz.Driver
module Fuzz_oracle = Pacstack_fuzz.Oracle
module Stats = Pacstack_util.Stats
module Sketch = Pacstack_util.Sketch
module Fleet = Pacstack_fleet.Fleet
module Fleet_arrival = Pacstack_fleet.Arrival
module Fleet_json = Pacstack_fleet.Json
module Machine = Pacstack_machine.Machine
module Compile = Pacstack_minic.Compile
module Campaign = Pacstack_campaign.Campaign
module Plan = Pacstack_campaign.Plan
module Shard = Pacstack_campaign.Shard
module Checkpoint = Pacstack_campaign.Checkpoint
module Progress = Pacstack_campaign.Progress
module Json = Pacstack_campaign.Json

let scaled scale trials = max 1 (int_of_float ((float_of_int trials *. scale) +. 0.5))

(* --- shard layouts ---------------------------------------------------------- *)

(* Every layout is a pure function of the experiment's parameters, never
   of the worker count: that is what makes parallel runs and resumed
   manifests replayable. *)

(* [trials] split near-equally over at most [shards] shards [label#i]. *)
let split ~label ~trials ~shards =
  Array.mapi
    (fun i part -> (Printf.sprintf "%s#%d" label i, part))
    (Plan.split_trials ~trials ~shards:(min shards trials))

(* One [split] per row of a table; a shard reports [(row index, result)]. *)
let rows_plan ~name ~scale ~per_row ~label ~trials ~run ~seed rows =
  let specs =
    Array.concat
      (List.mapi
         (fun index row ->
           Array.map
             (fun shard -> (shard, (index, row)))
             (split ~label:(label row) ~trials:(scaled scale (trials row)) ~shards:per_row))
         rows)
  in
  Plan.make ~name ~seed ~shards:(Array.map fst specs) ~run:(fun shard rng ->
      let index, row = snd specs.(shard.Shard.index) in
      (index, run row ~trials:shard.Shard.trials rng))

(* Contiguous [lo, hi) ranges covering [0, total), labelled [what[lo,hi)]. *)
let range_plan ~name ~what ~total ~shards ~seed run =
  let ranges =
    let lo = ref 0 in
    Array.map
      (fun part ->
        let range = (!lo, !lo + part) in
        lo := !lo + part;
        range)
      (Plan.split_trials ~trials:total ~shards)
  in
  Plan.make ~name ~seed
    ~shards:(Array.map (fun (lo, hi) -> (Printf.sprintf "%s[%d,%d)" what lo hi, hi - lo)) ranges)
    ~run:(fun shard _rng ->
      let lo, hi = ranges.(shard.Shard.index) in
      run ~lo ~hi)

(* --- experiments ------------------------------------------------------------ *)

type ('r, 'rows) experiment = {
  name : string;
  doc : string;
  default_seed : int64;
  plan : scale:float -> seed:int64 -> 'r Plan.t;
  codec : 'r Checkpoint.codec;
  rows : 'r Plan.t -> 'r Campaign.outcome -> 'rows;
  pp : Format.formatter -> 'rows -> unit;
  json : 'rows -> (string * Json.t) list;
}

let outcome_rows ?(scale = 1.0) ?workers ?progress ?policy ?compaction ?checkpoint ?seed x =
  let plan = x.plan ~scale ~seed:(Option.value seed ~default:x.default_seed) in
  let outcome =
    Campaign.run ?workers ?progress ?policy ?compaction
      ?checkpoint:(Option.map (fun path -> (path, x.codec)) checkpoint)
      plan
  in
  (outcome, x.rows plan outcome)

let compute ?scale ?workers ?progress ?seed x =
  snd (outcome_rows ?scale ?workers ?progress ?seed x)

let execute ?scale ?workers ?progress ?policy ?compaction ?checkpoint ?seed x fmt =
  let o, rows = outcome_rows ?scale ?workers ?progress ?policy ?compaction ?checkpoint ?seed x in
  x.pp fmt rows;
  ( rows,
    Json.Obj
      ([
         ("campaign", Json.String o.Campaign.plan_name);
         ("seed", Json.String (Int64.to_string o.Campaign.seed));
         ("workers", Json.Int o.Campaign.workers);
         ("elapsed_s", Json.Float o.Campaign.elapsed_s);
         ("resumed_shards", Json.Int o.Campaign.resumed);
       ]
      @ x.json rows) )

let section fmt title = Format.fprintf fmt "@.=== %s ===@." title

let quarantine_json quarantined =
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
         quarantined) )

let int_codec = { Checkpoint.encode = (fun total -> Json.Int total); decode = Json.to_int }

(* Summed per-shard totals over the plan's trials. *)
let mean_per_trial plan outcome =
  float_of_int (Campaign.fold outcome ~init:0 ~f:( + )) /. float_of_int (Plan.total_trials plan)

(* --- Table 1 ---------------------------------------------------------------- *)

let table1_cells =
  [
    (Analysis.On_graph, false, 8, 20_000);
    (Analysis.On_graph, true, 8, 60_000);
    (Analysis.Off_graph_to_call_site, false, 8, 200_000);
    (Analysis.Off_graph_to_call_site, true, 8, 200_000);
    (Analysis.Off_graph_arbitrary, false, 5, 400_000);
    (Analysis.Off_graph_arbitrary, true, 5, 400_000);
  ]

let violation_name kind = Format.asprintf "%a" Analysis.pp_violation_kind kind

type table1_row = {
  violation : Analysis.violation_kind;
  masked : bool;
  bits : int;
  theory : float;
  measured : Games.estimate;
}

let table1 =
  {
    name = "table1";
    doc = "Table 1 violation-success probabilities";
    default_seed = 1L;
    plan =
      (fun ~scale ~seed ->
        rows_plan ~name:"table1" ~scale ~per_row:8 ~seed table1_cells
          ~label:(fun (kind, masked, _, _) ->
            violation_name kind ^ if masked then "/masked" else "/unmasked")
          ~trials:(fun (_, _, _, trials) -> trials)
          ~run:(fun (kind, masked, bits, _) ~trials rng ->
            Games.violation_success ~masked ~kind ~bits ~harvest:600 ~trials rng));
    codec =
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
      };
    rows =
      (fun _ outcome ->
        (* each cell's shards pooled into one estimate *)
        let measured = Array.make (List.length table1_cells) None in
        Campaign.fold outcome ~init:() ~f:(fun () (cell, est) ->
            measured.(cell) <-
              Some
                (match measured.(cell) with
                | None -> est
                | Some acc -> Games.merge_estimates acc est));
        List.mapi
          (fun i (violation, masked, bits, _) ->
            {
              violation;
              masked;
              bits;
              theory = Analysis.table1_success_probability ~masked violation ~bits;
              measured = Option.get measured.(i);
            })
          table1_cells);
    pp =
      (fun fmt rows ->
        Format.fprintf fmt "%-34s %-8s %-6s %-12s %-12s@." "violation" "masking" "b"
          "paper(theory)" "measured";
        List.iter
          (fun r ->
            Format.fprintf fmt "%-34s %-8b %-6d %-12.2e %-12.2e@." (violation_name r.violation)
              r.masked r.bits r.theory r.measured.Games.rate)
          rows);
    json =
      (fun rows ->
        [
          ( "cells",
            Json.List
              (List.map
                 (fun r ->
                   Json.Obj
                     [
                       ("violation", Json.String (violation_name r.violation));
                       ("masked", Json.Bool r.masked);
                       ("bits", Json.Int r.bits);
                       ("successes", Json.Int r.measured.Games.successes);
                       ("trials", Json.Int r.measured.Games.trials);
                       ("rate", Json.Float r.measured.Games.rate);
                     ])
                 rows) );
        ]);
  }

(* --- §6.2.1 birthday harvest ------------------------------------------------- *)

let birthday =
  {
    name = "birthday";
    doc = "§6.2.1 tokens harvested until a PAC collision";
    default_seed = 2L;
    plan =
      (fun ~scale ~seed ->
        Plan.make ~name:"birthday" ~seed
          ~shards:(split ~label:"harvest" ~trials:(scaled scale 400) ~shards:8)
          ~run:(fun shard rng -> Games.birthday_total ~bits:16 ~trials:shard.Shard.trials rng));
    codec = int_codec;
    rows = mean_per_trial;
    pp =
      (fun fmt mean ->
        Format.fprintf fmt
          "tokens harvested until PAC collision (b=16): measured %.1f, paper ~%.1f@." mean
          (Analysis.collision_harvest_mean ~bits:16));
    json = (fun mean -> [ ("mean_harvest", Json.Float mean); ("bits", Json.Int 16) ]);
  }

(* --- §4.3 guessing games and the machine brute force ------------------------- *)

let guessing_rows =
  [
    (Games.Divide_and_conquer, 8, 4000);
    (Games.Reseeded, 8, 4000);
    (Games.Independent, 6, 600);
  ]

let strategy_name strategy = Format.asprintf "%a" Games.pp_guess_strategy strategy

let expected_guesses strategy bits =
  match strategy with
  | Games.Divide_and_conquer -> Analysis.guesses_divide_and_conquer ~bits
  | Games.Reseeded -> Analysis.guesses_reseeded ~bits
  | Games.Independent -> Analysis.guesses_independent ~bits

let guessing =
  {
    name = "guessing";
    doc = "§4.3 guessing strategies (model-level)";
    default_seed = 3L;
    plan =
      (fun ~scale ~seed ->
        rows_plan ~name:"guessing" ~scale ~per_row:4 ~seed guessing_rows
          ~label:(fun (strategy, _, _) -> strategy_name strategy)
          ~trials:(fun (_, _, trials) -> trials)
          ~run:(fun (strategy, bits, _) ~trials rng ->
            Games.guessing_total ~strategy ~bits ~trials rng));
    codec =
      {
        Checkpoint.encode =
          (fun (row, total) ->
            Json.Obj [ ("strategy", Json.Int row); ("guesses", Json.Int total) ]);
        decode =
          (fun json ->
            match
              ( Option.bind (Json.member "strategy" json) Json.to_int,
                Option.bind (Json.member "guesses" json) Json.to_int )
            with
            | Some row, Some total -> Some (row, total)
            | _ -> None);
      };
    rows =
      (fun plan outcome ->
        let rows = List.length guessing_rows in
        let totals = Array.make rows 0 and trials = Array.make rows 0 in
        Array.iteri
          (fun i (row, total) ->
            totals.(row) <- totals.(row) + total;
            trials.(row) <- trials.(row) + plan.Plan.shards.(i).Shard.trials)
          (Campaign.results_exn outcome);
        List.mapi
          (fun i (strategy, bits, _) ->
            ( strategy,
              bits,
              float_of_int totals.(i) /. float_of_int (max 1 trials.(i)),
              expected_guesses strategy bits ))
          guessing_rows);
    pp =
      (fun fmt rows ->
        Format.fprintf fmt "%-38s %-6s %12s %12s@." "strategy" "b" "measured" "expected";
        List.iter
          (fun (strategy, bits, mean, expected) ->
            Format.fprintf fmt "%-38s %-6d %12.0f %12.0f@." (strategy_name strategy) bits mean
              expected)
          rows);
    json =
      (fun rows ->
        [
          ( "strategies",
            Json.List
              (List.map
                 (fun (strategy, bits, mean, expected) ->
                   Json.Obj
                     [
                       ("strategy", Json.String (strategy_name strategy));
                       ("bits", Json.Int bits);
                       ("mean_guesses", Json.Float mean);
                       ("expected", Json.Float expected);
                     ])
                 rows) );
        ]);
  }

let bruteforce_bits = 6

let bruteforce =
  {
    name = "bruteforce";
    doc = "§4.3 end-to-end forked-sibling attack on the machine";
    default_seed = 3L;
    plan =
      (fun ~scale ~seed ->
        Plan.make ~name:"bruteforce" ~seed
          ~shards:(split ~label:"siblings" ~trials:(scaled scale 15) ~shards:5)
          ~run:(fun shard rng ->
            Bruteforce.total_guesses ~pac_bits:bruteforce_bits ~trials:shard.Shard.trials rng));
    codec = int_codec;
    rows = (fun plan outcome -> (Plan.total_trials plan, mean_per_trial plan outcome));
    pp =
      (fun fmt (_, mean) ->
        Format.fprintf fmt
          "end-to-end forked-sibling attack (machine, b=%d): %.0f guesses/success (expectation %.0f)@."
          bruteforce_bits mean
          (Stats.expected_guesses_geometric ~bits:bruteforce_bits));
    json =
      (fun (trials, mean) ->
        [
          ("pac_bits", Json.Int bruteforce_bits);
          ("trials", Json.Int trials);
          ("mean_guesses", Json.Float mean);
        ]);
  }

(* --- differential fuzzing ------------------------------------------------------ *)

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

(* Seed [i]'s program derives from (campaign seed, i) alone — see
   Driver.seed_rng — so the report is bit-identical at any worker count
   and any shard split. *)
let fuzz ?schemes ?optimize ?(seeds = 200) () =
  let cfg =
    {
      Fuzz_oracle.default_config with
      schemes = Option.value schemes ~default:Fuzz_oracle.default_config.schemes;
      optimize = Option.value optimize ~default:Fuzz_oracle.default_config.optimize;
    }
  in
  {
    name = "fuzz";
    doc = "differential fuzzing of the mini-C pipeline against the reference interpreter";
    default_seed = 1L;
    plan =
      (fun ~scale:_ ~seed ->
        range_plan ~name:"fuzz" ~what:"seeds" ~total:seeds ~shards:(max 1 (min 8 seeds)) ~seed
          (fun ~lo ~hi -> Fuzz_driver.run_range cfg ~campaign_seed:seed ~lo ~hi));
    codec = fuzz_codec;
    rows =
      (fun _ outcome ->
        ( Campaign.fold outcome ~init:Fuzz_driver.empty ~f:Fuzz_driver.merge,
          outcome.Campaign.elapsed_s ));
    pp =
      (fun fmt (totals, elapsed_s) ->
        Format.fprintf fmt "%a@." Fuzz_driver.pp_stats totals;
        Format.fprintf fmt "throughput: %.1f programs/s@."
          (float_of_int totals.Fuzz_driver.programs /. max 1e-9 elapsed_s);
        match Pacstack_fuzz.Triage.buckets totals.Fuzz_driver.failures with
        | [] -> ()
        | buckets ->
          Format.fprintf fmt "@[<v>divergence buckets:@,%a@]@." Pacstack_fuzz.Triage.pp_buckets
            buckets);
    json =
      (fun (totals, _) ->
        match fuzz_codec.Checkpoint.encode totals with
        | Json.Obj fields -> fields
        | other -> [ ("stats", other) ]);
  }

(* --- fault injection ----------------------------------------------------------- *)

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
  range_plan ~name:"inject" ~what:"faults" ~total:faults ~shards ~seed (fun ~lo ~hi ->
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

let inject ?schemes ?(pac_bits = 4) ?(faults = 120) () =
  {
    name = "inject";
    doc = "deterministic fault injection across the hardening schemes";
    default_seed = 7L;
    plan = (fun ~scale:_ ~seed -> inject_plan ?schemes ~pac_bits ~faults ~seed ());
    codec = inject_codec;
    rows =
      (fun _ outcome ->
        (inject_totals outcome, outcome.Campaign.seed, outcome.Campaign.quarantined));
    pp =
      (fun fmt ((s : Inject_engine.stats), seed, quarantined) ->
        Format.fprintf fmt "inject: %d faults x %d schemes at pac_bits=%d, seed %Ld@."
          s.Inject_engine.faults (List.length s.Inject_engine.cells) pac_bits seed;
        (* The detection-rate table: per scheme, how the campaign's faults
           classified, the silent rate with its Wilson interval, and how
           long detected corruption lived (mean, and p95 from the latency
           sketch). *)
        Format.fprintf fmt "%-24s %9s %9s %9s %11s %25s %9s %9s@." "scheme" "detected" "benign"
          "silent" "silent-rate" "wilson-95%" "mean-lat" "p95-lat";
        List.iter
          (fun (name, (c : Inject_engine.cell)) ->
            let lo, hi = Stats.wilson ~successes:c.Inject_engine.silent ~trials:(cell_total c) in
            let mean, p95 =
              if c.Inject_engine.detected = 0 then ("-", "-")
              else
                let l = c.Inject_engine.latency in
                ( Printf.sprintf "%.1f" (Sketch.mean l),
                  Printf.sprintf "%.0f" (Sketch.percentile l 95.0) )
            in
            Format.fprintf fmt "%-24s %9d %9d %9d %11.3e %25s %9s %9s@." name
              c.Inject_engine.detected c.Inject_engine.benign c.Inject_engine.silent
              (silent_rate c)
              (Printf.sprintf "[%.3e, %.3e]" lo hi)
              mean p95)
          s.Inject_engine.cells;
        let dropped = Inject_engine.repro_dropped s in
        if dropped > 0 then
          Format.fprintf fmt
            "(%d silent reproducer%s beyond the %d-per-scheme cap not retained)@." dropped
            (if dropped = 1 then "" else "s")
            Inject_engine.repro_cap;
        (* The long-format detection-rate table: every (injection site,
           scheme) cell, site-major, with the detection rate and its
           Wilson interval — the headline site x scheme comparison across
           the scheme family. *)
        Format.fprintf fmt "@.%-16s %-24s %9s %9s %9s %10s %23s@." "site" "scheme" "detected"
          "benign" "silent" "det-rate" "wilson-95%";
        let last_site = ref "" in
        List.iter
          (fun ((site, name), (c : Inject_engine.cell)) ->
            let total = cell_total c in
            let rate =
              if total = 0 then 0.0
              else float_of_int c.Inject_engine.detected /. float_of_int total
            in
            let lo, hi = Stats.wilson ~successes:c.Inject_engine.detected ~trials:total in
            if !last_site <> "" && !last_site <> site then Format.fprintf fmt "@.";
            last_site := site;
            Format.fprintf fmt "%-16s %-24s %9d %9d %9d %10.3f %23s@." site name
              c.Inject_engine.detected c.Inject_engine.benign c.Inject_engine.silent rate
              (Printf.sprintf "[%.4f, %.4f]" lo hi))
          s.Inject_engine.site_cells;
        List.iter
          (fun (q : Campaign.quarantine) ->
            Format.fprintf fmt "quarantined shard %d (%s) after %d attempts: %s@."
              q.Campaign.shard q.Campaign.label q.Campaign.attempts q.Campaign.error)
          quarantined);
    json =
      (fun (s, _, quarantined) ->
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
            quarantine_json quarantined;
          ]);
  }

(* --- fleet simulation ------------------------------------------------------------ *)

let fleet cfg =
  {
    name = "fleet";
    doc = "fleet-scale open-loop traffic with per-scheme tail latency";
    default_seed = cfg.Fleet.seed;
    plan = (fun ~scale:_ ~seed -> Fleet.plan { cfg with Fleet.seed });
    codec = Fleet_json.checkpoint_codec;
    rows =
      (fun plan outcome ->
        let cfg = { cfg with Fleet.seed = plan.Plan.seed } in
        (cfg, Fleet.tabulate cfg outcome, outcome.Campaign.quarantined));
    pp =
      (fun fmt (cfg, rows, _) ->
        Format.fprintf fmt
          "fleet: %d connections, %.2f virtual s, %s arrivals, %d cells x %d cores@."
          cfg.Fleet.connections cfg.Fleet.duration_s
          (Fleet_arrival.to_string cfg.Fleet.arrival)
          cfg.Fleet.cells cfg.Fleet.cores;
        Fleet.pp_table cfg fmt rows);
    json =
      (fun (cfg, rows, quarantined) ->
        (match Fleet_json.table_to_json cfg rows with
        | Json.Obj fields -> fields
        | other -> [ ("table", other) ])
        @ [ quarantine_json quarantined ]);
  }

(* --- Figure 5, Table 2 and the C++ rows ------------------------------------ *)

let schemes_measured =
  [ Scheme.pacstack; Scheme.pacstack_nomask; Scheme.shadow_stack; Scheme.branch_protection;
    Scheme.stack_protector; Scheme.pcan; Scheme.zipper; Scheme.pactight; Scheme.parts ]

(* the paper reports the C++ benchmarks separately, for PACStack alone *)
let cpp_schemes = [ Scheme.pacstack; Scheme.pacstack_nomask ]

(* Runs [bench]'s unprotected Rate build to its halt under a [run_until]
   observer that calls [on_call m] at each call boundary, before the
   [bl]/[blr] executes, and returns the halted machine. Figure 5's
   calls/ki and the SP-modifier section both count through it. *)
let observe_calls bench ~on_call =
  let program = Compile.compile ~scheme:Scheme.unprotected (bench.Speclike.program Speclike.Rate) in
  let m = Machine.load program in
  let image = Machine.image m in
  let observe m =
    (match Pacstack_machine.Image.fetch image (Machine.pc m) with
    | Some (Pacstack_isa.Instr.Bl _ | Pacstack_isa.Instr.Blr _) -> on_call m
    | _ -> ());
    false
  in
  match Machine.run_until ~fuel:100_000_000 m ~stop:observe with
  | Some (Machine.Halted 0) -> m
  | _ -> failwith (bench.Speclike.name ^ ": observed run failed")

let call_counts bench =
  let calls = ref 0 in
  let m = observe_calls bench ~on_call:(fun _ -> incr calls) in
  (!calls, Machine.instructions_retired m)

(* keyed by canonical name: the registry is open, and the paper only
   reports numbers for the schemes it measured *)
let paper_table2 scheme =
  match Scheme.to_string scheme with
  | "pacstack" -> Some (2.75, 3.28)
  | "pacstack-nomask" -> Some (0.86, 1.56)
  | "shadow-call-stack" -> Some (0.85, 0.77)
  | "branch-protection" -> Some (0.43, 0.72)
  | "stack-protector-strong" -> Some (0.43, 0.25)
  | "baseline" -> Some (0.0, 0.0)
  | _ -> None

let paper_cpp scheme =
  match Scheme.to_string scheme with
  | "pacstack" -> "2.0%"
  | "pacstack-nomask" -> "0.9%"
  | _ -> "-"

type overheads = {
  figure5 : (string * float * (Scheme.t * float) list) list;
  table2 : (Scheme.t * float * float) list;
  cpp : (Scheme.t * float) list;
}

let spec =
  {
    name = "spec";
    doc = "Figure 5, Table 2 and the C++ rows (SPEC-like variant x kernel x scheme cells)";
    default_seed = 0L;
    plan =
      (fun ~scale:_ ~seed ->
        (* every cell the three tables read, each kernel's unprotected
           build included *)
        let grid variant benches schemes =
          List.concat_map
            (fun bench ->
              List.map (fun scheme -> (variant, bench, scheme)) (Scheme.unprotected :: schemes))
            benches
        in
        let cells =
          Array.of_list
            (grid Speclike.Rate Speclike.all schemes_measured
            @ grid Speclike.Speed Speclike.all schemes_measured
            @ grid Speclike.Rate Speclike.cpp cpp_schemes)
        in
        Plan.make ~name:"spec" ~seed
          ~shards:
            (Array.map
               (fun (variant, bench, scheme) ->
                 ( Printf.sprintf "%s/%s/%s" (Speclike.variant_to_string variant)
                     bench.Speclike.name (Scheme.to_string scheme),
                   1 ))
               cells)
          ~run:(fun shard _rng ->
            let variant, bench, scheme = cells.(shard.Shard.index) in
            Speclike.measure ~scheme variant bench));
    codec =
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
            let variant = function
              | "rate" -> Some Speclike.Rate
              | "speed" -> Some Speclike.Speed
              | _ -> None
            in
            match
              ( str "bench",
                Option.bind (str "variant") variant,
                Option.bind (str "scheme") Scheme.of_string,
                int "cycles", int "instructions", int "mem_ops",
                Option.bind (str "checksum") Int64.of_string_opt )
            with
            | Some bench, Some variant, Some scheme, Some cycles, Some instructions,
              Some mem_ops, Some checksum ->
              Some { Speclike.bench; variant; scheme; cycles; instructions; mem_ops; checksum }
            | _ -> None);
      };
    rows =
      (fun _ outcome ->
        let results = Campaign.results_exn outcome in
        let measured variant (bench : Speclike.benchmark) scheme =
          Option.get
            (Array.find_opt
               (fun (m : Speclike.measurement) ->
                 m.Speclike.variant = variant
                 && String.equal m.Speclike.bench bench.Speclike.name
                 && Scheme.equal m.Speclike.scheme scheme)
               results)
        in
        (* Per kernel, each scheme's overhead over the unprotected build;
           every build must print the baseline's checksum. *)
        let overheads variant benches schemes =
          List.map
            (fun bench ->
              let baseline = measured variant bench Scheme.unprotected in
              ( bench,
                List.map
                  (fun scheme ->
                    let m = measured variant bench scheme in
                    if not (Int64.equal m.Speclike.checksum baseline.Speclike.checksum) then
                      failwith
                        (bench.Speclike.name ^ ": checksum mismatch under "
                       ^ Scheme.to_string scheme);
                    (scheme, Speclike.overhead_pct ~baseline m))
                  schemes ))
            benches
        in
        (* geometric mean of (1 + overhead) ratios over the kernels,
           reported back as a percentage *)
        let geomean table scheme =
          let ratios = List.map (fun (_, per) -> 1.0 +. (List.assoc scheme per /. 100.0)) table in
          (Stats.geometric_mean ratios -. 1.0) *. 100.0
        in
        let rate = overheads Speclike.Rate Speclike.all schemes_measured in
        let speed = overheads Speclike.Speed Speclike.all schemes_measured in
        let cpp = overheads Speclike.Rate Speclike.cpp cpp_schemes in
        {
          (* calls/ki: calls per 1000 instructions of the baseline build —
             the paper's §7.1 "overhead is proportional to call
             frequency" evidence *)
          figure5 =
            List.map
              (fun (bench, per) ->
                let calls, instructions = call_counts bench in
                ( bench.Speclike.name,
                  1000.0 *. float_of_int calls /. float_of_int instructions,
                  per ))
              rate;
          table2 = List.map (fun s -> (s, geomean rate s, geomean speed s)) schemes_measured;
          cpp = List.map (fun s -> (s, geomean cpp s)) cpp_schemes;
        });
    pp =
      (fun fmt o ->
        section fmt "Figure 5: per-benchmark overhead w.r.t. baseline (%, SPECrate-like)";
        Format.fprintf fmt "%-12s %10s" "benchmark" "calls/ki";
        List.iter (fun (s, _, _) -> Format.fprintf fmt " %18s" (Scheme.to_string s)) o.table2;
        Format.fprintf fmt "@.";
        List.iter
          (fun (name, density, per_scheme) ->
            Format.fprintf fmt "%-12s %10.1f" name density;
            List.iter (fun (_, oh) -> Format.fprintf fmt " %17.2f%%" oh) per_scheme;
            Format.fprintf fmt "@.")
          o.figure5;
        section fmt "Table 2: geometric mean of overheads";
        Format.fprintf fmt "%-24s %14s %14s %20s@." "scheme" "SPECrate" "SPECspeed"
          "paper (rate/speed)";
        List.iter
          (fun (scheme, rate, speed) ->
            let paper =
              match paper_table2 scheme with
              | Some (p_rate, p_speed) -> Format.asprintf "%.2f%%/%.2f%%" p_rate p_speed
              | None -> "-"
            in
            Format.fprintf fmt "%-24s %13.2f%% %13.2f%% %20s@." (Scheme.to_string scheme) rate
              speed paper)
          o.table2;
        Format.fprintf fmt "@.C++-like benchmarks (omnetpp, leela, xalancbmk):@.";
        List.iter
          (fun (scheme, oh) ->
            Format.fprintf fmt "  %-15s %5.2f%%  (paper %s)@." (Scheme.to_string scheme) oh
              (paper_cpp scheme))
          o.cpp);
    json =
      (fun o ->
        let scheme s = ("scheme", Json.String (Scheme.to_string s)) in
        [
          ( "figure5",
            Json.List
              (List.map
                 (fun (name, density, per_scheme) ->
                   Json.Obj
                     [
                       ("bench", Json.String name);
                       ("calls_per_ki", Json.Float density);
                       ( "overhead_pct",
                         Json.Obj
                           (List.map
                              (fun (s, oh) -> (Scheme.to_string s, Json.Float oh))
                              per_scheme) );
                     ])
                 o.figure5) );
          ( "table2",
            Json.List
              (List.map
                 (fun (s, rate, speed) ->
                   Json.Obj
                     [ scheme s; ("specrate_pct", Json.Float rate); ("specspeed_pct", Json.Float speed) ])
                 o.table2) );
          ( "cpp",
            Json.List
              (List.map (fun (s, oh) -> Json.Obj [ scheme s; ("overhead_pct", Json.Float oh) ]) o.cpp)
          );
        ]);
  }

(* --- Table 3 ---------------------------------------------------------------------- *)

(* the paper's req/s (and overhead) per (workers, scheme) cell *)
let paper_table3 workers scheme =
  match (workers, Scheme.to_string scheme) with
  | 4, "baseline" -> "14.2k"
  | 4, "pacstack-nomask" -> "13.7k (3.5%)"
  | 4, "pacstack" -> "13.5k (4.9%)"
  | 8, "baseline" -> "30.7k"
  | 8, "pacstack-nomask" -> "28.6k (6.8%)"
  | 8, "pacstack" -> "27.2k (11.4%)"
  | _ -> "-"

let server =
  {
    name = "server";
    doc = "Table 3 server-throughput sweep (workers x scheme grid)";
    default_seed = 0L;
    plan =
      (fun ~scale:_ ~seed ->
        let cells = Array.of_list (Server.sweep_cells ()) in
        Plan.make ~name:"server" ~seed
          ~shards:
            (Array.map
               (fun (workers, scheme) ->
                 (Printf.sprintf "%dw/%s" workers (Scheme.to_string scheme), 1))
               cells)
          ~run:(fun shard _rng ->
            let workers, scheme = cells.(shard.Shard.index) in
            Server.measure ~scheme ~workers ()));
    codec =
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
                flt "req_per_sec", flt "sigma", flt "cycles_per_request",
                flt "mem_ops_per_request" )
            with
            | Some scheme, Some workers, Some req_per_sec, Some sigma, Some cycles_per_request,
              Some mem_ops_per_request ->
              Some
                { Server.scheme; workers; req_per_sec; sigma; cycles_per_request; mem_ops_per_request }
            | _ -> None);
      };
    rows =
      (fun _ outcome ->
        (* each cell next to its overhead over the same worker count's
           unprotected cell *)
        let results = Array.to_list (Campaign.results_exn outcome) in
        List.map
          (fun (r : Server.result) ->
            let baseline =
              List.find
                (fun (b : Server.result) ->
                  b.Server.workers = r.Server.workers
                  && Scheme.equal b.Server.scheme Scheme.unprotected)
                results
            in
            (r, Server.overhead_pct ~baseline r))
          results);
    pp =
      (fun fmt rows ->
        Format.fprintf fmt "%-8s %-18s %12s %8s %10s %18s@." "workers" "scheme" "req/s" "sigma"
          "overhead" "paper req/s (oh)";
        List.iter
          (fun ((r : Server.result), overhead) ->
            Format.fprintf fmt "%-8d %-18s %11.1fk %8.0f %9.1f%% %18s@." r.Server.workers
              (Scheme.to_string r.Server.scheme)
              (r.Server.req_per_sec /. 1000.0)
              r.Server.sigma overhead
              (paper_table3 r.Server.workers r.Server.scheme))
          rows);
    json =
      (fun rows ->
        [
          ( "cells",
            Json.List
              (List.map
                 (fun ((r : Server.result), overhead) ->
                   Json.Obj
                     [
                       ("workers", Json.Int r.Server.workers);
                       ("scheme", Json.String (Scheme.to_string r.Server.scheme));
                       ("req_per_sec", Json.Float r.Server.req_per_sec);
                       ("overhead_pct", Json.Float overhead);
                     ])
                 rows) );
        ]);
  }

(* --- uniform CLI entries ---------------------------------------------------------- *)

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

let entry (x : _ experiment) =
  {
    name = x.name;
    doc = x.doc;
    default_seed = x.default_seed;
    execute =
      (fun ~workers ~seed ~checkpoint ~progress fmt ->
        snd (execute ~workers ~seed ?checkpoint ~progress x fmt));
  }

let entries =
  [
    entry table1;
    entry birthday;
    entry guessing;
    entry bruteforce;
    entry spec;
    entry server;
    entry (fuzz ());
    entry (inject ());
    entry (fleet Fleet.default);
  ]

let find name = List.find_opt (fun e -> e.name = name) entries

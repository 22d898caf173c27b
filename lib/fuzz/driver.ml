(* The fuzzing driver: seed discipline, per-seed verdicts, mergeable
   statistics.

   Seed discipline: fuzz seed [i] of a campaign with seed [S] derives
   its generator rng as [split (create (S + i))] — a fresh SplitMix64
   stream per seed, independent of worker count and of how seeds are
   partitioned into shards.  Re-running any seed in isolation (e.g. to
   reproduce or shrink a failure) regenerates the identical program
   from just [(S, i)]. *)

module Ast = Pacstack_minic.Ast
module Rng = Pacstack_util.Rng

let seed_rng ~campaign_seed i =
  Rng.split (Rng.create (Int64.add campaign_seed (Int64.of_int i)))

let program_of_seed ?vuln ~campaign_seed i =
  Gen.generate ?vuln (seed_rng ~campaign_seed i)

(* One failure record, flat and serialisable.  The program itself is
   not stored: it is regenerable from (campaign_seed, seed). *)
type failure = {
  seed : int;
  scheme : string;
  optimize : bool;
  site : string;
  expected : string;
  actual : string;
}

type stats = {
  programs : int; (* seeds fuzzed *)
  runs : int; (* machine executions compared against the oracle *)
  skipped : int; (* seeds skipped for fuel on either side *)
  crashes : int; (* harness exceptions (compile error on generated code) *)
  failures : failure list; (* divergences, in seed order *)
}

let empty = { programs = 0; runs = 0; skipped = 0; crashes = 0; failures = [] }

let merge a b =
  {
    programs = a.programs + b.programs;
    runs = a.runs + b.runs;
    skipped = a.skipped + b.skipped;
    crashes = a.crashes + b.crashes;
    failures = a.failures @ b.failures;
  }

let failure_of_divergence ~seed (d : Oracle.divergence) =
  {
    seed;
    scheme = Pacstack_harden.Scheme.to_string d.scheme;
    optimize = d.optimize;
    site = Oracle.site_to_string d.site;
    expected = Trace.to_string d.expected;
    actual = Trace.to_string d.actual;
  }

module Obs = Pacstack_obs.Obs

(* One guarded call per seed; the verdict trace event is keyed by the
   seed index, which campaign sharding assigns to exactly one worker —
   the property the deterministic trace merge relies on. *)
let obs_seed i verdict (s : stats) =
  if Obs.enabled () then begin
    Obs.Metrics.incr "fuzz.programs";
    Obs.Metrics.incr ~by:s.runs "fuzz.runs";
    Obs.Metrics.incr ~by:s.skipped "fuzz.skipped";
    Obs.Metrics.incr ~by:s.crashes "fuzz.crashes";
    Obs.Metrics.incr ~by:(List.length s.failures) "fuzz.divergences";
    Obs.Metrics.incr ("fuzz.verdict." ^ verdict);
    Obs.Trace.emit ~key:i "fuzz.seed"
      [ ("verdict", Obs.Json.String verdict); ("runs", Obs.Json.Int s.runs) ]
  end;
  s

let run_seed cfg ~campaign_seed i : stats =
  match
    let p = program_of_seed ~campaign_seed i in
    Oracle.check cfg p
  with
  | Oracle.Agree runs -> obs_seed i "agree" { empty with programs = 1; runs }
  | Oracle.Skipped _ -> obs_seed i "skip" { empty with programs = 1; skipped = 1 }
  | Oracle.Disagree { runs; divergences } ->
    obs_seed i "divergence"
      {
        empty with
        programs = 1;
        runs;
        failures = List.map (failure_of_divergence ~seed:i) divergences;
      }
  | exception _ -> obs_seed i "crash" { empty with programs = 1; crashes = 1 }

(* Fuzz the half-open seed range [lo, hi). *)
let run_range cfg ~campaign_seed ~lo ~hi : stats =
  let acc = ref empty in
  for i = lo to hi - 1 do
    acc := merge !acc (run_seed cfg ~campaign_seed i)
  done;
  !acc

let pp_stats fmt (s : stats) =
  Format.fprintf fmt
    "@[<v>programs %d, machine runs %d, skipped %d, crashes %d, divergences %d@]"
    s.programs s.runs s.skipped s.crashes (List.length s.failures)

(** Campaign plans for the paper's Monte-Carlo experiments and sweeps.

    Each plan turns one experiment into independent shards for the
    {!Pacstack_campaign} engine: the Table 1 violation games, the §6.2.1
    birthday harvest, the §4.3 guessing games, the end-to-end machine
    brute force, and the SPEC-like / server overhead sweeps. Every plan
    comes with a checkpoint codec and a merge helper, plus a uniform
    {!entry} wrapper that the CLI's [campaign] subcommand and {!Report}
    drive.

    [?scale] on the stochastic plans multiplies trial counts (down for
    tests and micro-benchmarks, up for production-size hunts) without
    changing the shard structure. *)

module Campaign = Pacstack_campaign.Campaign
module Plan = Pacstack_campaign.Plan
module Checkpoint = Pacstack_campaign.Checkpoint
module Progress = Pacstack_campaign.Progress
module Json = Pacstack_campaign.Json

(** {1 Table 1 — violation-success probabilities} *)

val table1_cells : (Pacstack_acs.Analysis.violation_kind * bool * int * int) list
(** The six Table 1 cells as [(kind, masked, bits, trials)]. *)

val table1_plan :
  ?scale:float -> ?shards_per_cell:int -> seed:int64 -> unit ->
  (int * Pacstack_acs.Games.estimate) Plan.t
(** Each cell's trials split over [shards_per_cell] (default 8) shards;
    a shard reports [(cell_index, estimate)]. *)

val table1_codec : (int * Pacstack_acs.Games.estimate) Checkpoint.codec

val table1_estimates :
  (int * Pacstack_acs.Games.estimate) Campaign.outcome -> Pacstack_acs.Games.estimate array
(** Per-cell pooled estimates, in {!table1_cells} order. *)

(** {1 §6.2.1 — birthday harvest} *)

val birthday_plan : ?scale:float -> ?shards:int -> seed:int64 -> unit -> int Plan.t
(** Shards report summed harvest counts; default 8 shards over 400
    trials at [b = 16]. *)

val birthday_codec : int Checkpoint.codec

val birthday_mean : plan:int Plan.t -> int Campaign.outcome -> float
(** Mean tokens harvested until collision, over the plan's total trials. *)

(** {1 §4.3 — guessing games and the machine brute force} *)

val guessing_rows : (Pacstack_acs.Games.guess_strategy * int * int) list
(** [(strategy, bits, trials)] — the three strategies Report prints. *)

val guessing_plan :
  ?scale:float -> ?shards_per_strategy:int -> seed:int64 -> unit -> (int * int) Plan.t
(** Shards report [(strategy_index, summed_guesses)]. *)

val guessing_codec : (int * int) Checkpoint.codec

val guessing_means : plan:(int * int) Plan.t -> (int * int) Campaign.outcome -> float array
(** Mean guesses per strategy, in {!guessing_rows} order. *)

val bruteforce_plan :
  ?scale:float -> ?pac_bits:int -> ?shards:int -> seed:int64 -> unit -> int Plan.t
(** The end-to-end forked-sibling attack on the simulated machine;
    default 5 shards of 3 trials at [pac_bits = 6]. *)

val bruteforce_codec : int Checkpoint.codec

(** {1 Differential fuzzing} *)

val fuzz_plan :
  ?schemes:Pacstack_harden.Scheme.t list ->
  ?optimize:bool list ->
  ?seeds:int ->
  ?shards:int ->
  seed:int64 ->
  unit ->
  Pacstack_fuzz.Driver.stats Plan.t
(** Differential fuzzing of the mini-C pipeline: each shard fuzzes a
    contiguous seed range (default 200 seeds over 8 shards) under the
    given schemes and optimizer settings (defaults: all six schemes,
    peephole off and on).  Seed [i]'s program depends only on the
    campaign seed and [i], so results are identical at any worker
    count. *)

val fuzz_codec : Pacstack_fuzz.Driver.stats Checkpoint.codec

val fuzz_totals :
  Pacstack_fuzz.Driver.stats Campaign.outcome -> Pacstack_fuzz.Driver.stats
(** Merge all shard statistics. *)

val fuzz_stats_json : Pacstack_fuzz.Driver.stats -> (string * Json.t) list
(** The merged statistics as JSON object fields (worker-count
    independent — no timing). *)

(** {1 Fault injection} *)

val inject_plan :
  ?schemes:Pacstack_harden.Scheme.t list ->
  ?pac_bits:int ->
  ?tamper:(Pacstack_machine.Machine.t -> unit) ->
  ?faults:int ->
  ?shards:int ->
  seed:int64 ->
  unit ->
  Pacstack_inject.Engine.stats Plan.t
(** Deterministic fault injection: each shard folds a contiguous fault
    range (default 120 faults) into constant-size
    {!Pacstack_inject.Engine.stats}, under the given schemes (default
    all) at [pac_bits] (default 4, so the 2^-b collision events of the
    reuse analysis are observable). The shard count defaults to
    [max (min faults 8) (ceil (faults / 512))]: 8 shards up to 4096
    faults, at most 512 faults per shard beyond; [shards] overrides it.
    Fault [i] depends only on the campaign seed and [i] — identical at
    any worker count. [tamper] is the test-only planted-fault hook of
    {!Pacstack_inject.Engine.config}. *)

val inject_codec : Pacstack_inject.Engine.stats Checkpoint.codec
(** Checkpoint codec; corrupted lines decode to [None] and re-run (see
    {!Pacstack_inject.Engine.stats_of_json}). *)

val inject_compaction : keep:int -> Pacstack_inject.Engine.stats Checkpoint.compaction
(** Checkpoint compaction policy: merge is
    {!Pacstack_inject.Engine.merge} (associative and commutative, as
    compaction requires). *)

val inject_totals :
  Pacstack_inject.Engine.stats Campaign.outcome -> Pacstack_inject.Engine.stats
(** Merge all shard statistics, including the compacted blob of a
    resumed manifest (quarantined shards contribute nothing). *)

val inject_stats_json : Pacstack_inject.Engine.stats -> (string * Json.t) list
(** The merged statistics as JSON object fields, plus per-scheme
    [silent_rates] with Wilson 95% bounds and the count of reproducers
    dropped by the per-scheme cap. *)

val pp_inject_table : Format.formatter -> Pacstack_inject.Engine.stats -> unit
(** The per-scheme detection-rate table: silent rates as Wilson 95%
    intervals, mean and p95 detection latency. *)

val pp_inject_site_table : Format.formatter -> Pacstack_inject.Engine.stats -> unit
(** The long-format (injection site x scheme) detection-rate table with
    Wilson 95% intervals, site-major in {!Pacstack_inject.Fault.all_sites}
    order. *)

val inject_execute :
  ?schemes:Pacstack_harden.Scheme.t list ->
  ?pac_bits:int ->
  ?faults:int ->
  ?policy:Campaign.policy ->
  ?compact_every:int ->
  workers:int ->
  seed:int64 ->
  checkpoint:string option ->
  progress:Progress.sink ->
  Format.formatter ->
  Pacstack_inject.Engine.stats * Json.t
(** Runs the {!inject_plan} campaign, prints the per-scheme and
    per-site tables and any quarantined shard, and returns the merged
    statistics with their JSON — the shared engine behind the [inject]
    subcommand, the [campaign inject] entry and [Report.injection]. A
    [checkpoint] manifest is compacted whenever [compact_every]
    (default 256) uncompacted shard lines accumulate. *)

val quarantine_json : _ Campaign.outcome -> string * Json.t
(** The outcome's quarantined shards as a JSON field. *)

(** {1 Fleet simulation} *)

val fleet_execute :
  Pacstack_fleet.Fleet.config ->
  workers:int ->
  seed:int64 ->
  checkpoint:string option ->
  progress:Progress.sink ->
  Format.formatter ->
  Json.t
(** Runs the fleet campaign ({!Pacstack_fleet.Fleet.plan}) for the given
    configuration ([seed] overrides the config's), prints the per-scheme
    latency table, and returns the merged table as JSON — the shared
    engine behind both the [campaign fleet] entry (default config) and
    the dedicated [fleet] subcommand (parsed flags). *)

(** {1 Overhead sweeps} *)

val spec_plan : seed:int64 -> unit -> Pacstack_workloads.Speclike.measurement Plan.t
(** One shard per (benchmark × scheme) cell of the SPECrate-like sweep,
    baseline included. Deterministic — the shard RNG is unused. *)

val spec_codec : Pacstack_workloads.Speclike.measurement Checkpoint.codec

val server_plan : seed:int64 -> unit -> Pacstack_workloads.Server.result Plan.t
(** One shard per (workers × scheme) Table 3 cell. *)

val server_codec : Pacstack_workloads.Server.result Checkpoint.codec

(** {1 Uniform CLI entries} *)

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
      (** Runs the campaign, prints a human-readable summary to the
          formatter, and returns the merged results as JSON. *)
}

val entries : entry list
val find : string -> entry option

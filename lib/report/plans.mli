(** Campaign plans for the paper's Monte-Carlo experiments and sweeps,
    and the one computation behind each of their tables.

    Each plan turns one experiment into independent shards for the
    {!Pacstack_campaign} engine: the Table 1 violation games, the §6.2.1
    birthday harvest, the §4.3 guessing games, the end-to-end machine
    brute force, differential fuzzing, fault injection, the fleet and the
    SPEC-like / server overhead sweeps. An {!experiment} bundles a plan
    with its checkpoint codec, the function that turns the campaign
    outcome into the experiment's rows, and the text and JSON renderers
    of those rows; {!Report}, {!Export}, the CLI's [campaign] entries and
    its dedicated subcommands all go through {!compute} or {!execute}, so
    a table reads the same in every format.

    [?scale] multiplies trial counts (down for tests and
    micro-benchmarks, up for production-size hunts) without changing
    the shard structure. *)

module Campaign = Pacstack_campaign.Campaign
module Plan = Pacstack_campaign.Plan
module Checkpoint = Pacstack_campaign.Checkpoint
module Progress = Pacstack_campaign.Progress
module Json = Pacstack_campaign.Json

(** {1 Experiments} *)

type ('r, 'rows) experiment = {
  name : string;
  doc : string;
  default_seed : int64;
  plan : scale:float -> seed:int64 -> 'r Plan.t;
  codec : 'r Checkpoint.codec;
  rows : 'r Plan.t -> 'r Campaign.outcome -> 'rows;
      (** the experiment's rows, the only place they are computed *)
  pp : Format.formatter -> 'rows -> unit;  (** text renderer *)
  json : 'rows -> (string * Json.t) list;  (** JSON renderer *)
}

val compute :
  ?scale:float -> ?workers:int -> ?progress:Progress.sink -> ?seed:int64 ->
  (_, 'rows) experiment -> 'rows
(** Runs the experiment's plan (default scale 1, 1 worker, the
    experiment's default seed) and returns its rows. Identical for any
    worker count. *)

val execute :
  ?scale:float -> ?workers:int -> ?progress:Progress.sink -> ?checkpoint:string ->
  ?seed:int64 -> (_, 'rows) experiment -> Format.formatter -> 'rows * Json.t
(** {!compute}, checkpointing to the [checkpoint] manifest when given,
    then prints the rows and returns them with their JSON (the campaign
    header — name, seed, workers, elapsed, resumed shards — then the
    experiment's fields). *)

(** {1 Table 1 — violation-success probabilities} *)

val table1_cells : (Pacstack_acs.Analysis.violation_kind * bool * int * int) list
(** The six Table 1 cells as [(kind, masked, bits, trials)]. *)

val table1_plan :
  ?scale:float -> seed:int64 -> unit -> (int * Pacstack_acs.Games.estimate) Plan.t
(** Each cell's trials split over 8 shards; a shard reports
    [(cell_index, estimate)]. *)

val table1_codec : (int * Pacstack_acs.Games.estimate) Checkpoint.codec

val table1_estimates :
  (int * Pacstack_acs.Games.estimate) Campaign.outcome -> Pacstack_acs.Games.estimate array
(** Per-cell pooled estimates, in {!table1_cells} order. *)

val violation_name : Pacstack_acs.Analysis.violation_kind -> string

type table1_row = {
  violation : Pacstack_acs.Analysis.violation_kind;
  masked : bool;
  bits : int;
  theory : float;  (** closed form, {!Pacstack_acs.Analysis.table1_success_probability} *)
  measured : Pacstack_acs.Games.estimate;  (** pooled Monte-Carlo estimate *)
}

val table1 : (int * Pacstack_acs.Games.estimate, table1_row list) experiment
(** One row per {!table1_cells} entry; default seed 1. *)

(** {1 §6.2.1 and §4.3 — harvest, guessing and brute force} *)

val birthday_plan : ?scale:float -> seed:int64 -> unit -> int Plan.t
(** Shards report summed harvest counts; 8 shards over 400 trials at
    [b = 16]. *)

val birthday_codec : int Checkpoint.codec

val birthday : (int, float) experiment
(** Mean tokens harvested until a PAC collision; default seed 2. *)

val guessing :
  ( int * int,
    (Pacstack_acs.Games.guess_strategy * int * float * float) list )
  experiment
(** [(strategy, bits, mean guesses, expected guesses)] for the
    divide-and-conquer, re-seeded and independent strategies, each
    split over 4 shards; default seed 3. *)

val bruteforce : (int, int * float) experiment
(** The end-to-end forked-sibling attack on the simulated machine at
    [pac_bits = 6], 5 shards over 15 trials: [(trials, mean guesses)];
    default seed 3. *)

(** {1 Differential fuzzing} *)

val fuzz_plan :
  ?schemes:Pacstack_harden.Scheme.t list ->
  ?optimize:bool list ->
  ?seeds:int ->
  seed:int64 ->
  unit ->
  Pacstack_fuzz.Driver.stats Plan.t
(** Differential fuzzing of the mini-C pipeline: each shard fuzzes a
    contiguous seed range (default 200 seeds over 8 shards) under the
    given schemes and optimizer settings (defaults: every registered
    scheme, peephole off and on). Seed [i]'s program depends only on the
    campaign seed and [i], so results are identical at any worker
    count. *)

val fuzz_totals :
  Pacstack_fuzz.Driver.stats Campaign.outcome -> Pacstack_fuzz.Driver.stats
(** Merge all shard statistics. *)

val fuzz_stats_json : Pacstack_fuzz.Driver.stats -> (string * Json.t) list
(** The merged statistics as JSON object fields (worker-count
    independent — no timing). *)

val fuzz :
  ?schemes:Pacstack_harden.Scheme.t list ->
  ?optimize:bool list ->
  ?seeds:int ->
  unit ->
  (Pacstack_fuzz.Driver.stats, Pacstack_fuzz.Driver.stats * float) experiment
(** {!fuzz_plan} as an experiment: rows are the merged statistics and
    the campaign's wall-clock seconds; the text adds throughput and the
    divergence buckets. Default seed 1. *)

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

val inject_execute :
  ?schemes:Pacstack_harden.Scheme.t list ->
  ?pac_bits:int ->
  ?faults:int ->
  ?policy:Campaign.policy ->
  ?compact_every:int ->
  ?workers:int ->
  ?progress:Progress.sink ->
  ?checkpoint:string ->
  seed:int64 ->
  Format.formatter ->
  Pacstack_inject.Engine.stats * Json.t
(** Runs the {!inject_plan} campaign and prints a header line, the
    per-scheme table (silent rates as Wilson 95% intervals, mean and
    p95 detection latency), the (site x scheme) detection-rate table and
    any quarantined shard; returns the merged statistics with their JSON
    (per-scheme [silent_rates] with Wilson bounds, [repro_dropped],
    [quarantined]) — the shared engine behind the [inject] subcommand,
    the [campaign inject] entry and [Report.injection]. A [checkpoint]
    manifest is compacted whenever [compact_every] (default 256)
    uncompacted shard lines accumulate. *)

(** {1 Fleet simulation} *)

val fleet_execute :
  Pacstack_fleet.Fleet.config ->
  ?workers:int ->
  ?progress:Progress.sink ->
  ?checkpoint:string ->
  seed:int64 ->
  Format.formatter ->
  Json.t
(** Runs the fleet campaign ({!Pacstack_fleet.Fleet.plan}) for the given
    configuration ([seed] overrides the config's), prints the per-scheme
    latency table, and returns the merged table as JSON — the shared
    engine behind both the [campaign fleet] entry (default config) and
    the dedicated [fleet] subcommand (parsed flags). *)

(** {1 Overhead sweeps} *)

val spec :
  ( Pacstack_workloads.Speclike.measurement,
    (Pacstack_workloads.Speclike.measurement * float) list )
  experiment
(** One shard per (benchmark x scheme) cell of the SPECrate-like sweep,
    baseline included; each row carries its overhead %% over the same
    benchmark's baseline cell. Deterministic — the shard RNG is unused. *)

val server :
  (Pacstack_workloads.Server.result, (Pacstack_workloads.Server.result * float) list) experiment
(** One shard per {!Pacstack_workloads.Server.sweep_cells} (workers x
    scheme) cell of Table 3; each row carries its throughput overhead %%
    over the same worker count's baseline. The rows behind the
    [campaign server] summary and Table 3's text and CSV. *)

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

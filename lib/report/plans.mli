(** Campaign plans for the paper's Monte-Carlo experiments and sweeps,
    and the one computation behind each of their tables.

    Each plan turns one experiment into independent shards for the
    {!Pacstack_campaign} engine: the Table 1 violation games, the §6.2.1
    birthday harvest, the §4.3 guessing games, the end-to-end machine
    brute force, differential fuzzing, fault injection, the fleet,
    Figure 5 / Table 2 and Table 3. An {!experiment} bundles a plan with
    its checkpoint codec, the function that turns the campaign outcome
    into the experiment's rows, and the text and JSON renderers of those
    rows; {!Report}, {!Export}, the CLI's [campaign] entries and its
    dedicated subcommands all go through {!compute} or {!execute}, so a
    table reads the same in every format.

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
  ?scale:float -> ?workers:int -> ?progress:Progress.sink -> ?policy:Campaign.policy ->
  ?compaction:'r Checkpoint.compaction -> ?checkpoint:string -> ?seed:int64 ->
  ('r, 'rows) experiment -> Format.formatter -> 'rows * Json.t
(** {!compute}, checkpointing to the [checkpoint] manifest when given
    (compacted under [compaction]; shards retried and quarantined under
    [policy], see {!Campaign.run}), then prints the rows and returns
    them with their JSON (the campaign header — name, seed, workers,
    elapsed, resumed shards — then the experiment's fields). *)

val section : Format.formatter -> string -> unit
(** A report section's title line, [=== title ===], after a blank line. *)

(** {1 Table 1 — violation-success probabilities} *)

val violation_name : Pacstack_acs.Analysis.violation_kind -> string

type table1_row = {
  violation : Pacstack_acs.Analysis.violation_kind;
  masked : bool;
  bits : int;
  theory : float;  (** closed form, {!Pacstack_acs.Analysis.table1_success_probability} *)
  measured : Pacstack_acs.Games.estimate;  (** pooled Monte-Carlo estimate *)
}

val table1 : (int * Pacstack_acs.Games.estimate, table1_row list) experiment
(** One row per Table 1 cell (six: on-graph, off-graph to a call site,
    off-graph to an arbitrary address, each unmasked and masked), each
    cell's trials split over 8 shards; default seed 1. *)

(** {1 §6.2.1 and §4.3 — harvest, guessing and brute force} *)

val birthday : (int, float) experiment
(** Mean tokens harvested until a PAC collision at [b = 16], 8 shards
    over 400 trials; default seed 2. *)

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

val fuzz :
  ?schemes:Pacstack_harden.Scheme.t list ->
  ?optimize:bool list ->
  ?seeds:int ->
  unit ->
  (Pacstack_fuzz.Driver.stats, Pacstack_fuzz.Driver.stats * float) experiment
(** Differential fuzzing of the mini-C pipeline: each shard fuzzes a
    contiguous seed range (default 200 seeds over 8 shards) under the
    given schemes and optimizer settings (defaults: every registered
    scheme, peephole off and on). Seed [i]'s program depends only on the
    campaign seed and [i], so results are identical at any worker
    count. Rows are the merged statistics and the campaign's wall-clock
    seconds; the text adds throughput and the divergence buckets, the
    JSON holds the statistics alone. Default seed 1. *)

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

val inject :
  ?schemes:Pacstack_harden.Scheme.t list ->
  ?pac_bits:int ->
  ?faults:int ->
  unit ->
  ( Pacstack_inject.Engine.stats,
    Pacstack_inject.Engine.stats * int64 * Campaign.quarantine list )
  experiment
(** {!inject_plan} as an experiment: rows are the merged statistics, the
    campaign seed and the quarantined shards. The text is a header line,
    the per-scheme table (silent rates as Wilson 95% intervals, mean and
    p95 detection latency), the (site x scheme) detection-rate table and
    any quarantined shard; the JSON adds per-scheme [silent_rates] with
    Wilson bounds, [repro_dropped] and [quarantined] to the statistics.
    Default seed 7. *)

(** {1 Fleet simulation} *)

val fleet :
  Pacstack_fleet.Fleet.config ->
  ( Pacstack_fleet.Fleet.stats,
    Pacstack_fleet.Fleet.config * Pacstack_fleet.Fleet.stats list * Campaign.quarantine list )
  experiment
(** The fleet campaign ({!Pacstack_fleet.Fleet.plan}) for the given
    configuration, whose seed the campaign seed replaces (and is the
    default seed): rows are that configuration, the per-scheme table and
    the quarantined shards. The text is a header line and the
    per-scheme latency table; the JSON is the merged table and
    [quarantined]. *)

(** {1 Figure 5, Table 2 and Table 3} *)

type overheads = {
  figure5 : (string * float * (Pacstack_harden.Scheme.t * float) list) list;
      (** per SPECrate-like kernel: name, calls per 1000 instructions
          of the baseline build, and each measured scheme's overhead %% *)
  table2 : (Pacstack_harden.Scheme.t * float * float) list;
      (** per measured scheme: geometric-mean overhead %% over SPECrate
          and over SPECspeed *)
  cpp : (Pacstack_harden.Scheme.t * float) list;
      (** PACStack with and without masking: geometric-mean overhead %%
          over the C++-like kernels, which the paper reports
          separately *)
}

val spec : (Pacstack_workloads.Speclike.measurement, overheads) experiment
(** One shard per (variant, kernel, scheme) cell that Figure 5, Table 2
    and the C++ rows read, each kernel's unprotected build included:
    Rate and Speed x the eight C kernels x the baseline and nine
    measured schemes, and Rate x the three C++-like kernels x the
    baseline and both PACStack variants (169 cells). The rows check that
    every build prints its baseline's checksum. The text is Figure 5
    (one column per [table2] scheme), Table 2 and the C++ means, with
    the paper's numbers beside them. Deterministic — the shard RNG is
    unused. *)

val call_counts : Pacstack_workloads.Speclike.benchmark -> int * int
(** Calls ([bl]/[blr] boundaries) and retired instructions of the
    kernel's unprotected SPECrate-like build, run to its halt under a
    call-boundary observer: Figure 5's calls/ki is [1000 * calls /
    instructions]. *)

val observe_calls :
  Pacstack_workloads.Speclike.benchmark ->
  on_call:(Pacstack_machine.Machine.t -> unit) ->
  Pacstack_machine.Machine.t
(** Runs the kernel's unprotected SPECrate-like build to its halt under a
    [run_until] observer that calls [on_call m] at each call boundary,
    before the [bl]/[blr] executes, and returns the halted machine.
    Behind {!call_counts} and [Report.sp_collisions]. *)

val server :
  (Pacstack_workloads.Server.result, (Pacstack_workloads.Server.result * float) list) experiment
(** One shard per {!Pacstack_workloads.Server.sweep_cells} (workers x
    scheme) cell of Table 3; each row carries its throughput overhead %%
    over the same worker count's baseline. The text is Table 3's rows —
    req/s, sigma, overhead and the paper's cell — and the rows are
    Table 3's CSV too. *)

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

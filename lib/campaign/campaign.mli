(** The campaign engine: executes a {!Plan} on a pool of domains or of
    forked worker processes, with optional checkpoint/resume, crash
    tolerance and structured {!Progress} events.

    Determinism contract: for a fixed plan (name, seed, shards), the
    aggregated results are identical whatever [workers] is, whichever
    {!isolation} executor ran them, whether or not the run was
    interrupted and resumed, and in what order shards happened to
    finish — every shard's generator is derived from the campaign seed
    and its index only (see {!Shard.rng}), and results are reported in
    shard-index order. Retries re-derive the same generator, so a shard
    that succeeds on attempt 3 returns exactly what a first-attempt
    success would have. *)

type isolation =
  | Domains
      (** shards share the address space on an OCaml 5 domain pool —
          cheapest, but a segfault or OOM kill ends the campaign *)
  | Processes
      (** each shard attempt runs in a forked child ({!Procpool}): a
          crashed, killed or hung shard is an isolated retryable
          failure, and repeated abnormal deaths shrink concurrency
          instead of crashing the run. Shard results must be
          marshallable (plain data). *)

type policy = {
  retries : int;  (** extra attempts per shard after the first *)
  backoff_s : int -> float;
      (** seconds to sleep before retry [n] (1-based). Must be a pure
          function of its argument for the deterministic-backoff
          guarantee. *)
  isolation : isolation;  (** which executor runs the shards *)
  shard_timeout_s : float option;
      (** wall-clock deadline per shard attempt, enforced by SIGKILL —
          only meaningful under [Processes]; [Domains] has no per-shard
          deadline *)
}

val default_policy : policy
(** Tolerant: 2 retries with 5ms/10ms exponential backoff, [Domains]
    isolation, no wall-clock timeout. *)

type quarantine = {
  shard : int;  (** shard index in the plan *)
  label : string;
  attempts : int;  (** attempts made, all failed *)
  error : string;  (** the last attempt's exception, printed *)
  backtrace : string;  (** empty under [Processes] (it died elsewhere) *)
}

type 'r outcome = {
  plan_name : string;
  seed : int64;
  results : 'r option array;
      (** one entry per shard in shard-index order; [None] marks a
          quarantined shard or one folded into [merged] *)
  merged : 'r option;
      (** fold of shards restored from a compacted checkpoint; their
          individual entries in [results] are [None]. [None] unless the
          run resumed from a compacted manifest. *)
  quarantined : quarantine list;  (** in shard-index order; [] normally *)
  elapsed_s : float;  (** wall-clock for this run (resumed shards cost 0) *)
  resumed : int;  (** shards restored from the checkpoint manifest *)
  workers : int;
}

val results_exn : 'r outcome -> 'r array
(** The plain results array for callers that cannot tolerate a missing
    shard; raises [Failure] naming every quarantined shard, or stating
    that results were compacted away ([merged] is [Some]) — use {!fold}
    for aggregate statistics. *)

val run :
  ?workers:int ->
  ?progress:Progress.sink ->
  ?checkpoint:string * 'r Checkpoint.codec ->
  ?compaction:'r Checkpoint.compaction ->
  ?policy:policy ->
  'r Plan.t ->
  'r outcome
(** [run plan] executes every shard of [plan] and returns the merged
    outcome.

    [workers] defaults to [1]: sequential, in the calling domain, no
    parallelism anywhere — the mode reports use by default so their
    output is reproducible on any machine. With [workers > 1] shards are
    distributed over an OCaml 5 domain pool, or over forked worker
    processes when [policy.isolation = Processes].

    [checkpoint] gives a manifest path and a result codec: previously
    completed shards are loaded instead of re-run, and each newly
    finished shard is appended and flushed, so killing the process loses
    at most the shards in flight. Raises {!Checkpoint.Stale_manifest} if
    the manifest at the path belongs to a different campaign.
    [compaction] (requires [checkpoint]) bounds manifest size: see
    {!Checkpoint.compaction}. Results folded into a compacted manifest
    come back through [merged], so downstream aggregation must go
    through {!fold} with an associative, commutative merge.

    [policy] (default {!default_policy}) controls crash tolerance: a
    shard attempt that fails — raising in-process, or dying to a
    signal/OOM/timeout under [Processes] — is retried after a
    deterministic backoff, and after [retries] failed retries the shard
    is quarantined: recorded in the manifest, reported in [quarantined],
    its [results] entry [None]. Every other shard still runs, is
    checkpointed and is bit-identical to an untroubled run.

    [progress] receives structured events; it is synchronized
    automatically when [workers > 1]. *)

val fold : 'r outcome -> init:'a -> f:('a -> 'r -> 'a) -> 'a
(** Folds the compacted blob ([merged], if any) and then per-shard
    results in shard-index order, skipping quarantined shards — the
    merge step. [f] must be associative and commutative for an
    order-independent total (commutativity only matters when resuming
    from compacted manifests, where per-shard ordering is lost). *)

(** Fork-based process pool: run each task attempt in its own child
    process so a segfault, OOM kill or hung shard is an isolated,
    retryable failure instead of the end of the campaign.

    The parent is a single-threaded [Unix.select] event loop; children
    marshal an [('a, string) result] back over a pipe and [_exit]. The
    pool enforces an optional wall-clock deadline per attempt, retries
    failed attempts after a deterministic backoff, and shrinks its own
    concurrency — never below one — every time a child dies abnormally,
    so a sick machine degrades throughput instead of crashing the run.

    Must be called from a program state where no other domains are
    running: OCaml 5 forbids [fork] while domains are active. [Campaign]
    uses this pool and the Domain pool as alternative executors, never
    together. Task results travel through [Marshal], so they must be
    marshallable (plain data — no closures, no custom blocks). *)

type 'a outcome =
  | Done of 'a
  | Gave_up of { attempts : int; error : string }
      (** every attempt failed; [error] is the last attempt's failure *)

val run :
  workers:int ->
  ?timeout_s:float ->
  ?retries:int ->
  ?backoff_s:(int -> float) ->
  ?on_start:(task:int -> unit) ->
  ?on_result:(task:int -> elapsed_s:float -> 'a -> unit) ->
  ?on_retry:(task:int -> attempt:int -> error:string -> unit) ->
  ?on_give_up:(task:int -> attempts:int -> error:string -> unit) ->
  ?on_degrade:(live:int -> deaths:int -> unit) ->
  tasks:int ->
  (task:int -> attempt:int -> 'a) ->
  'a outcome array
(** [run ~workers ~tasks f] executes [f ~task ~attempt] (attempts are
    1-based) for every [task] in [[0, tasks)], each attempt in a forked
    child, at most [workers] children at a time, and returns the
    per-task outcomes. [timeout_s] SIGKILLs an attempt past its
    wall-clock deadline; a timed-out, signalled or otherwise
    result-less child counts as an abnormal death, shrinking the live
    worker cap to [max 1 (workers - deaths)] ([on_degrade] fires on each
    shrink). A failed attempt [n <= retries] is re-queued no earlier
    than [backoff_s n] seconds later ([on_retry]); past that the task is
    given up ([on_give_up]).
    [on_start] fires once per task at its first spawn; [on_result]
    reports the value and wall-clock seconds since that first spawn.
    All callbacks run in the parent, in the event-loop thread.
    Raises [Invalid_argument] if [workers < 1], [tasks < 0] or
    [retries < 0]. *)

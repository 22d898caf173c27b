(** The deterministic fault-injection engine: applies a {!Fault.spec} to
    the {!Victim} under each hardening scheme mid-run and classifies the
    outcome against an un-faulted reference execution. *)

module Scheme = Pacstack_harden.Scheme
module Machine = Pacstack_machine.Machine
module Json = Pacstack_campaign.Json

type config = {
  pac_bits : int;
      (** PAC width of the simulated machine; the default 4 makes the
          2^-b collision events of the reuse analysis observable at
          small campaign sizes *)
  fuel : int;  (** per-run instruction budget *)
  schemes : Scheme.t list;  (** schemes every fault is evaluated under *)
  tamper : (Machine.t -> unit) option;
      (** test-only: replaces the site corruption at the injection
          point — used to plant a known-silent fault and check the
          campaign gate catches it. Never set in production. *)
}

val default_config : config
(** [pac_bits = 4], default fuel, every registered scheme, no tamper. *)

exception Misrouted_site of { index : int; site : Fault.site }
(** A structured site ([Signal_frame]/[Reload_window]) reached the
    generic xor-a-slot injector instead of its dedicated replay — a
    dispatch bug, not a property of the fault. The registered printer
    names the fault index and site, so a worker crash surfaces as a
    [Pool] [Crashed] outcome that identifies the culprit instead of
    [Assert_failure]. *)

type classification =
  | Detected of { cause : string; latency : int }
      (** trapped (or runtime abort: canary 134, sigreturn kill 139);
          [latency] is cycles from injection to detection *)
  | Benign  (** trace identical to the un-faulted reference *)
  | Silent  (** trace diverged with no trap — the headline metric *)

val classification_to_string : classification -> string

type result = {
  spec : Fault.spec;
  scheme : Scheme.t;
  classification : classification;
}

val prepared_victim : Scheme.t -> signal:bool -> Machine.prepared
(** The scheme's compiled and prepared {!Victim.program} (or, with
    [~signal:true], {!Victim.signal_program}), kept for the life of the
    process. The first call for a (scheme, victim) compiles and prepares
    it under a lock, so it happens exactly once per process whatever the
    number of domains, and the [harden.emit.*] counters count one
    compile per (scheme, victim); later calls return the same value.
    Schemes whose victims compile to equal images
    ({!Pacstack_machine.Image.equal}) share one physical value. Nothing
    is compiled before the first call. *)

val run_fault : config -> campaign_seed:int64 -> int -> result list
(** Derives fault [index] and runs it under every configured scheme, in
    config order, on the {!prepared_victim}s. Pure in (config, seed,
    index): same inputs, same classifications, on any worker, in any
    range and whether the victims were prepared already or not. *)

(** {1 Mergeable campaign statistics}

    Constant-size sufficient statistics: a summary's size is bounded by
    the scheme and site counts, not by the number of faults folded in,
    so one type serves every campaign size. *)

type cell = {
  detected : int;
  benign : int;
  silent : int;
  latency : Pacstack_util.Sketch.t;
      (** detection latencies in cycles, one sample per detection, over
          32 power-of-two buckets ({!Pacstack_util.Sketch.pow2}); the
          mean and the p95 of the inject table come from here *)
}

type reproducer = { fault : int; scheme : string; site : string }
(** Everything needed to replay a silent corruption:
    [run_fault cfg ~campaign_seed fault]. *)

val repro_cap : int
(** Max reproducers retained per scheme (32). *)

type stats = {
  faults : int;  (** faults executed (each fault runs every scheme) *)
  cells : (string * cell) list;  (** per scheme name, registry order *)
  site_cells : ((string * string) * cell) list;
      (** per (site name, scheme name), sorted by (site order in
          {!Fault.all_sites}, scheme order) — the long-format
          detection-rate table *)
  silents : reproducer list;
      (** per scheme, the reproducers of the {!repro_cap} smallest
          silent fault indices; sorted by (fault, scheme) *)
}

val empty : stats

val add_result : stats -> result -> stats
(** Folds one classification into the statistics in constant space (the
    [faults] counter is the caller's to bump, as {!run_range} does). *)

val merge : stats -> stats -> stats
(** Associative and commutative: counters and histograms add pointwise,
    and keep-K-smallest-per-scheme truncation commutes with union — so
    neither shard merge order nor a resume from a compacted checkpoint
    can change the campaign result. *)

val repro_dropped : stats -> int
(** Silent events whose reproducers the per-scheme cap did not retain
    (derived, not stored). *)

val run_range : config -> campaign_seed:int64 -> first:int -> count:int -> stats
(** Runs faults [first .. first + count - 1] — one campaign shard — as a
    fold of {!run_fault} over the range, in fault order, with
    {!add_result}, so its statistics, trace events and reproducers are
    those of the one-fault calls. When observability is enabled, also
    feeds detection latencies into the ["inject.detect_latency"]
    {!Pacstack_obs.Obs} histogram (20 buckets over 0..32768 cycles). *)

val stats_to_json : stats -> Json.t

val stats_of_json : Json.t -> stats option
(** Inverse of {!stats_to_json}. Returns [None] for statistics no
    campaign can produce — a negative count, a histogram of the wrong
    length or whose mass is not [detected], more retained reproducers
    than silents for a scheme — so a corrupted checkpoint line re-runs
    its shard instead of poisoning the totals. *)

val reproducer_to_json : reproducer -> Json.t

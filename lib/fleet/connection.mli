(** Per-connection state and the per-cell service-cost memo.

    A connection is deliberately tiny — just its arrival stream — so a
    cell can hold thousands. The expensive part of a request, running the
    compiled handshake on the cycle-exact machine, is memoized per
    (scheme, size class): machine execution is deterministic, so the
    cost of a 72-record request under a scheme is the same whichever
    connection issues it, and each cell measures it exactly once on a
    freshly loaded machine (cheap: untouched pages share the zero page
    until written — see lib/machine/memory.ml). A cell therefore runs the
    machine once per size class it sees, and under a protected scheme
    once more per class for the unprotected baseline
    ({!Costs.distinct}): at most 18 runs under the Jittered mix's 9
    classes ({!Arrival.size_mix}), 2 under Fixed. It then serves every
    other request from the memo: ~1,000 requests per cell under
    [Fleet.default] (7,956 over its 8 cells), ~19,900 in perfbench's
    [fleet] cells. *)

type cost = { cycles : float; mem_ops : float }
(** One request's machine-measured cost under the cell's scheme. *)

(** The per-cell calibration table. Not shared across cells or domains —
    each campaign shard builds its own, keeping shards free of shared
    mutable state as the {!Pacstack_campaign.Plan} contract requires. *)
module Costs : sig
  type t

  val create : scheme:Pacstack_harden.Scheme.t -> t

  val request : t -> records:int -> cost
  (** The scheme's cost for a [records]-sized response, measured on first
      use ({!Pacstack_workloads.Server.Kernel.measure_request}) and
      memoized. *)

  val extra_mem : t -> records:int -> float
  (** Memory operations the scheme adds over the unprotected build of the
      same request — the quantity the contention model charges (never
      negative). Calibrates the unprotected baseline lazily too. *)

  val distinct : t -> int
  (** Size classes calibrated so far (machine runs = [2 * distinct] for
      protected schemes, counting the unprotected baselines). *)
end

type t = { gen : Arrival.gen  (** the connection's arrival stream *) }

val start : Arrival.t -> seed:int64 -> conn:int -> t
(** Connection [conn] of a fleet seeded with [seed]; its entire behaviour
    derives from those two values ({!Arrival.start}). *)

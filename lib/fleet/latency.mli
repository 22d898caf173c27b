(** The fleet's request-latency sketch: a {!Pacstack_util.Sketch} over
    fixed geometric edges in virtual cycles.

    The fleet never retains per-request records — a shard folds every
    completed request into one of these, and shard results merge by
    integer bucket addition (associative, order-fixed by the campaign
    fold), so the merged table is bit-identical at any worker count and
    the memory footprint is independent of how many requests ran. *)

include module type of struct
  include Pacstack_util.Sketch
end

val edges : float array
(** 128 geometric buckets from 10^3 to 10^9 cycles (~11% relative
    width — the resolution of every reported percentile). Samples
    outside clamp to the edge buckets. *)

val empty : t
(** No requests, over {!edges}. *)

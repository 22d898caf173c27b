(** Constant-size histograms: count, sum, min and max of a sample stream
    plus counts over fixed bucket edges.

    One type serves every tail statistic in the repository: the fleet's
    request latencies (geometric edges), the fault-injection detection
    latencies (power-of-two edges) and the observability histograms
    (linear edges). A sketch is plain immutable data (no closures), so a
    shard result holding one marshals across process isolation, and
    {!merge} adds bucket counts pointwise, so merged results do not
    depend on worker count or fold order. The checkpoint codec of the
    [{count,sum,min,max,counts}] object lives in
    [Pacstack_campaign.Json]. *)

type t = {
  edges : float array;
      (** strictly increasing; bucket [i] holds [[edges.(i), edges.(i+1))] *)
  count : int;
  sum : float;
  min : float;  (** [infinity] when empty *)
  max : float;  (** [neg_infinity] when empty *)
  counts : int array;  (** one cell per bucket: [Array.length edges - 1] *)
}
(** Treat the arrays as immutable: {!record} and {!merge} copy. *)

(** {1 Edges} *)

val linear : lo:float -> hi:float -> buckets:int -> float array
(** [buckets] equal-width buckets from [lo] to [hi]; the edges are
    [lo +. (hi -. lo) *. i /. buckets], with the last exactly [hi]. *)

val geometric : lo:float -> hi:float -> buckets:int -> float array
(** [buckets] buckets of constant relative width: edge [i] is
    [lo *. r ** i] with [r = (hi /. lo) ** (1 /. buckets)]. *)

val pow2 : buckets:int -> float array
(** [[0; 1; 2; 4; ...; 2^(buckets-1)]]: bucket 0 holds [[0, 1)] and
    bucket [b >= 1] holds [[2^(b-1), 2^b)]. *)

(** {1 Sketches} *)

val empty : float array -> t
(** No samples over the given edges. Raises [Invalid_argument] unless
    there are at least two edges and they strictly increase. *)

val bucket : t -> float -> int
(** The bucket a sample lands in. Samples below the first edge, and NaN,
    clamp to bucket 0; samples at or above the last edge clamp to the
    last bucket. *)

val record : t -> float -> t
(** Folds one sample into its {!bucket}, the count, the sum and the
    extremes (a NaN sample makes the sum and extremes NaN). *)

val merge : t -> t -> t
(** Pointwise sum of two sketches over equal edges (raises
    [Invalid_argument] otherwise). Associative and commutative on the
    counts and extremes; on [sum] as far as float addition is. *)

val mean : t -> float
(** [sum / count]; raises [Invalid_argument] when empty. *)

val percentile : t -> float -> float
(** [percentile t p], [p] in [[0, 100]]: interpolated inside the bucket
    that holds the rank ({!Stats.weighted_percentile}), so within one
    bucket width of the exact answer, then clamped to the observed
    [[min, max]]. Raises [Invalid_argument] when empty. *)

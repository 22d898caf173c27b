(** Descriptive statistics and closed-form probability helpers used by the
    benchmark harness and the security experiments. *)

val mean : float list -> float
(** Arithmetic mean; raises [Invalid_argument] on the empty list. *)

val geometric_mean : float list -> float
(** Geometric mean of positive values; raises [Invalid_argument] on an empty
    list or a non-positive element. *)

val stddev : float list -> float
(** Sample standard deviation (n-1 denominator); 0 for fewer than 2 values. *)

val percentile : float list -> float -> float
(** [percentile xs p] with [p] in [0, 100], linear interpolation.
    Raises [Invalid_argument] if [xs] is empty, if [p] is NaN or outside
    [0, 100], or if any element is NaN (NaN has no rank). *)

val weighted_percentile : bounds:float array -> counts:int array -> float -> float
(** [weighted_percentile ~bounds ~counts p]: the [p]-th percentile of a
    histogram with [counts.(i)] samples in bucket
    [[bounds.(i), bounds.(i+1))] — [bounds] has one more entry than
    [counts] and must be strictly increasing. Linear interpolation inside
    the bucket containing the rank, so the answer is within one bucket
    width of {!percentile} on the raw samples. This is the
    sufficient-statistics path: the fleet simulator folds millions of
    request latencies into constant-size bucket counts and still reports
    tails. Raises [Invalid_argument] on an empty histogram, malformed
    bounds or an out-of-range [p]. *)

val wilson : successes:int -> trials:int -> float * float
(** [wilson ~successes ~trials] is the 95 % Wilson score interval
    [(lo, hi)] for a binomial proportion, clamped to [[0, 1]].
    [trials = 0] returns [(0., 1.)] — no evidence constrains nothing —
    which is what the rare-event campaign tables need for empty cells.
    Raises [Invalid_argument] if [trials < 0] or [successes] is outside
    [[0, trials]]. *)

val overhead_pct : baseline:float -> measured:float -> float
(** [(measured - baseline) / baseline * 100]. *)

val expected_guesses_geometric : bits:int -> float
(** Mean of the geometric distribution with success probability 2^-b. *)

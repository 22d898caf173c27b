(** Deterministic pseudo-random number generation (SplitMix64).

    Every stochastic component of the simulator (key generation, workload
    data, Monte-Carlo experiments) draws from an explicit [Rng.t] so runs
    are reproducible from a seed. *)

type t

val create : int64 -> t
(** [create seed] is a fresh generator. Equal seeds yield equal streams. *)

val split : t -> t
(** [split t] derives an independent generator and advances [t]. *)

val split_n : t -> int -> t array
(** [split_n t n] derives [n] independent generators in order, advancing
    [t] by [n] draws. [split_n t n = Array.init n (fun _ -> split t)]
    evaluated left to right; raises [Invalid_argument] for [n < 0]. The
    campaign sharder keys shard [i] of an [n]-shard plan to
    [(split_n (create campaign_seed) n).(i)], so a shard's stream depends
    only on the campaign seed and the shard's index. *)

val copy : t -> t

val next64 : t -> int64
(** Uniform 64-bit word. *)

val peek : t -> int -> int64
(** [peek t k] is what [next64 t] returns after [k] other draws, without
    advancing [t]: [peek t 0] is the next draw. O(1). Raises
    [Invalid_argument] for [k < 0]. *)

val skip : t -> int -> unit
(** [skip t n] advances [t] past [n] draws, as [n] calls of [next64]
    would. O(1). Raises [Invalid_argument] for [n < 0]. *)

val bits : t -> int -> int64
(** [bits t n] is a uniform [n]-bit word, [0 <= n <= 64]. *)

val int : t -> int -> int
(** [int t n] is uniform in [0, n), [n > 0]. *)

val bool : t -> bool

val float : t -> float
(** Uniform in [0, 1). *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

(** Monte-Carlo instantiations of the paper's security games (§6.2,
    Appendix A), used to regenerate Table 1 and the §6.2.1/§4.3 numbers.

    All games draw from an explicit RNG and a fresh MAC key per trial
    (matching the paper's assumption that every program run gets new PA
    keys). *)

type estimate = {
  successes : int;
  trials : int;
  rate : float;
  ci_low : float;
  ci_high : float;  (** 95 % Wilson interval *)
}

val pp_estimate : Format.formatter -> estimate -> unit

val estimate : successes:int -> trials:int -> estimate
(** Wraps a raw (successes, trials) count, deriving rate and interval.
    Raises [Invalid_argument] when [trials <= 0]. *)

val merge_estimates : estimate -> estimate -> estimate
(** Pools two binomial samples. Associative and commutative, so shard
    estimates from a parallel campaign merge to the same total in any
    order; rate and interval are recomputed from the pooled counts. *)

(** {1 §6.2.1 — collisions} *)

val birthday_total : ?bits:int -> trials:int -> Pacstack_util.Rng.t -> int
(** The summed number of tokens an adversary harvests before two
    (unmasked) tokens collide, over [trials] runs. [bits] defaults to 16;
    the paper's expected mean is ≈ 321 per run. Shard totals add; divide
    by the summed trials for the campaign mean. *)

val violation_success :
  masked:bool ->
  kind:Analysis.violation_kind ->
  bits:int ->
  ?harvest:int ->
  trials:int ->
  Pacstack_util.Rng.t -> estimate
(** One Table 1 cell: the adversary's measured success rate at the given
    violation. For [On_graph] the adversary first harvests [harvest]
    (default 2000) authenticated return addresses along distinct paths;
    without masking it exploits any visible collision, with masking it
    must pick blindly. *)

(** {1 Appendix A — mask indistinguishability} *)

val mask_distinguisher_advantage :
  bits:int -> queries:int -> trials:int -> Pacstack_util.Rng.t -> float
(** Advantage of a collision-statistics distinguisher at telling masked
    real tokens from uniform random strings. The Appendix A theorem says
    this bounds the collision-finding advantage; masking is sound iff this
    is ≈ 0. *)

type theorem1 = {
  collision_advantage : float;
  distinguisher_advantage : float;
  bound : float;  (** 2 x distinguisher advantage + sampling slack *)
  holds : bool;
}

val theorem1_check :
  bits:int -> queries:int -> trials:int -> Pacstack_util.Rng.t -> theorem1
(** Empirical check of Appendix A Theorem 1: the measured advantage at
    finding unmasked-token collisions from masked observations stays below
    twice the distinguisher advantage (plus Monte-Carlo slack). *)

(** {1 §4.3 — brute-force guessing} *)

type guess_strategy =
  | Divide_and_conquer
      (** shared keys across pre-forked siblings, no re-seeding *)
  | Reseeded  (** the paper's mitigation: per-fork/thread chain re-seed *)
  | Independent  (** both tokens guessed jointly *)

val pp_guess_strategy : Format.formatter -> guess_strategy -> unit

val guessing_total :
  strategy:guess_strategy -> bits:int -> trials:int -> Pacstack_util.Rng.t -> int
(** The summed number of guesses until the adversary can jump to an
    arbitrary address, over [trials] attacks. Expected means per attack:
    ≈ 2^b, 2^(b+1) and 2^(2b) respectively (§4.3). Shard totals add;
    divide by the summed trials for the campaign mean. *)

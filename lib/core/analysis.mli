(** Closed-form security bounds from §4.3, §6.2 and Table 1. *)

type violation_kind =
  | On_graph
      (** the substituted [aret] follows the call graph (harvestable) *)
  | Off_graph_to_call_site
      (** leaves the call graph but targets a valid call-site return *)
  | Off_graph_arbitrary
      (** leaves the call graph to an address never used as a return *)

val pp_violation_kind : Format.formatter -> violation_kind -> unit

val table1_success_probability : masked:bool -> violation_kind -> bits:int -> float
(** The maximum adversary success probability of Table 1:
    on-graph 1 (unmasked) or 2^-b (masked); off-graph to call-site 2^-b;
    off-graph arbitrary 2^-2b. *)

val collision_harvest_mean : bits:int -> float
(** Mean number of harvested tokens before two collide,
    √(π·2^b/2) (§6.2.1) — ≈ 321 for b = 16. *)

(** Expected number of guesses for the §4.3 brute-force strategies. *)

val guesses_divide_and_conquer : bits:int -> float
(** Shared keys, no re-seeding: the two stages are separable and each
    answer is fixed across siblings, so enumeration without replacement
    gives 2·(2^b+1)/2 ≈ 2^b. *)

val guesses_reseeded : bits:int -> float
(** Per-fork/thread re-seeding: each guess faces fresh randomness, two
    sequential geometric stages of mean 2^b: 2^(b+1). *)

val guesses_independent : bits:int -> float
(** Both tokens must be guessed in one shot: 2^(2b). *)

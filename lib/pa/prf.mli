(** The tweakable MAC [H_k] used throughout the paper.

    [H_k(P, M)] is a keyed function of a 64-bit pointer value [P] and a
    64-bit modifier [M]. ARMv8.3-A hardware computes it with QARMA-64;
    the paper's security analysis (§6 and Appendix A) models it as a
    random oracle, and that model is all any experiment here relies on.
    So [H_k] is a keyed SplitMix64-style mixer: two dependent finalizer
    rounds over the data, the modifier and a 64-bit secret. Cycle costs
    do not depend on MAC values (see [Pacstack_isa.Instr.cycles]). *)

type t

val create : Pacstack_util.Word64.t -> t
(** The MAC keyed by a 64-bit secret. *)

val of_rng : Pacstack_util.Rng.t -> t
(** A fresh random key: exactly one [Rng.next64] from the generator. *)

val mac64 : t -> data:Pacstack_util.Word64.t -> modifier:Pacstack_util.Word64.t -> Pacstack_util.Word64.t
(** Full 64-bit MAC output. *)

val mac : t -> bits:int -> data:Pacstack_util.Word64.t -> modifier:Pacstack_util.Word64.t -> Pacstack_util.Word64.t
(** [mac t ~bits ~data ~modifier] is the [bits]-bit authentication token
    (the low [bits] bits of {!mac64}), [1 <= bits <= 32]. *)

val equal : t -> t -> bool
(** Key equality. *)

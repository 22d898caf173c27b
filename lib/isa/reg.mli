(** General-purpose registers of the simulated AArch64 subset.

    [X 0]..[X 30] plus [SP] and the zero register [XZR]. The conventional
    roles the paper relies on are exposed as named values. *)

type t = X of int | SP | XZR

val x : int -> t
(** [x n] for [0 <= n <= 30]; raises [Invalid_argument] otherwise.
    Returns one shared value per register and allocates nothing. *)

val lr : t
(** X30, the link register. *)

val fp : t
(** X29, the frame pointer. *)

val cr : t
(** X28, the PACStack chain register holding the latest authenticated
    return address (§5.1). *)

val shadow : t
(** X18, the ShadowCallStack base register. *)

val scratch : t
(** X15, the caller-clobbered temporary PACStack uses for masks
    (Listing 3). *)

val equal : t -> t -> bool
val compare : t -> t -> int
val to_string : t -> string
val of_string : string -> t option
val pp : Format.formatter -> t -> unit

val is_callee_saved : t -> bool
(** X19–X28, SP and FP per the AAPCS64 convention. *)

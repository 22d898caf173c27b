(** The five ARMv8.3-A pointer-authentication keys.

    Keys live at EL1: the kernel generates a fresh set per process on
    [exec] and user space can use but never read them (§2.2). *)

type which = IA | IB | DA | DB | GA

val all : which list
val which_to_string : which -> string
val pp_which : Format.formatter -> which -> unit

type t

val generate : Pacstack_util.Rng.t -> t
(** Fresh random key set: five [Prf.of_rng] draws from the generator. *)

val get : t -> which -> Prf.t

val equal : t -> t -> bool
(** Key-material equality — used by tests to check the kernel really does
    regenerate keys on [exec]. *)

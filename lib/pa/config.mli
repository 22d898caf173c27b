(** Virtual-address layout governing where pointer authentication codes
    live inside a 64-bit pointer.

    With a 39-bit user virtual address space (the paper's default Linux
    configuration, §2.2) and no address tags, bits \[39, 54\] hold the PAC
    — 16 bits. Bit 55 selects the user/kernel half (always 0 here: we only
    model user pointers) and the remaining top bits are reserved. The PAC
    width is configurable downwards so that security experiments can use a
    small [b] where 2^-b events are observable. *)

type t = private {
  va_size : int;   (** significant address bits, e.g. 39 *)
  pac_bits : int;  (** PAC width [b]; at most [min 32 (55 - va_size)] *)
}

val make : ?va_size:int -> ?pac_bits:int -> unit -> t
(** Defaults: [va_size = 39], [pac_bits = min 32 (55 - va_size)] (16 at
    the default [va_size]). Raises [Invalid_argument] if the PAC does not
    fit or is wider than the 32 bits {!Prf.mac} produces. *)

val default : t
(** [make ()]. *)

val with_pac_bits : t -> int -> t

val pac_lo : t -> int
(** Lowest bit index of the PAC field (= [va_size]). *)

val error_bit : t -> int
(** The well-known high-order bit an [aut] failure flips to make the
    pointer non-canonical: bit 63. *)

val pp : Format.formatter -> t -> unit

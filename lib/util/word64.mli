(** 64-bit word utilities shared by the pointer-authentication layer and
    the machine simulator.

    All values are [int64] treated as unsigned 64-bit words. *)

type t = int64

val equal : t -> t -> bool

(** {1 Bit access} *)

val bit : t -> int -> bool
(** [bit w i] is bit [i] of [w], [0 <= i < 64], bit 0 the least significant. *)

val set_bit : t -> int -> bool -> t
(** [set_bit w i v] is [w] with bit [i] forced to [v]. *)

val flip_bit : t -> int -> t

val extract : t -> lo:int -> width:int -> t
(** [extract w ~lo ~width] is the [width]-bit field of [w] starting at bit
    [lo], right-aligned. [width] may be 0 (yielding [0L]) up to [64 - lo]. *)

val insert : t -> lo:int -> width:int -> t -> t
(** [insert w ~lo ~width v] replaces the [width]-bit field of [w] at [lo]
    with the low [width] bits of [v]. *)

val mask : int -> t
(** [mask n] is a word with the [n] low bits set, [0 <= n <= 64]. *)

(** {1 Rotations} *)

val rotl : t -> int -> t

(** {1 Counting} *)

val popcount : t -> int
val hamming : t -> t -> int
(** [hamming a b] is the number of differing bits. *)

(** {1 Formatting} *)

val pp : Format.formatter -> t -> unit
(** [0x] and 16 lowercase hex digits, zero-padded. *)

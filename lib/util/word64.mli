(** 64-bit word utilities shared by the pointer-authentication layer and
    the machine simulator.

    All values are [int64] treated as unsigned 64-bit words. *)

type t = int64

val equal : t -> t -> bool
val compare : t -> t -> int

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

(** {1 Rotations and shifts} *)

val rotl : t -> int -> t
val rotr : t -> int -> t
val shift_right_logical : t -> int -> t

(** {1 Counting} *)

val popcount : t -> int
val hamming : t -> t -> int
(** [hamming a b] is the number of differing bits. *)

val parity : t -> int

(** {1 Nibbles}

    A 64-bit word as 16 4-bit cells, cell 0 being the most significant
    nibble (big-endian cell order, as in the QARMA specification). *)

val nibble : t -> int -> int
(** [nibble w i] is cell [i] (0 = most significant), in [0, 15]. *)

val set_nibble : t -> int -> int -> t

val of_nibbles : int array -> t
(** [of_nibbles cells] packs 16 cells, [cells.(0)] most significant. *)

val to_nibbles : t -> int array

(** {1 Bytes} *)

val byte : t -> int -> int
(** [byte w i] is byte [i], byte 0 the least significant. *)

val set_byte : t -> int -> int -> t

(** {1 Formatting} *)

val to_hex : t -> string
(** 16 lowercase hex digits, zero-padded. *)

val of_hex : string -> t
(** Parses up to 16 hex digits; raises [Invalid_argument] on bad input. *)

val pp : Format.formatter -> t -> unit

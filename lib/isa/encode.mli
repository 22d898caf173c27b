(** Binary encoding of the instruction set.

    Instructions encode to fixed 32-bit words (as on AArch64), with two
    side tables playing the role of literal pools: a constant pool for
    immediates and a symbol pool for label references. The machine
    fills each executable page with the encoded words on its first data
    access, so the code an adversary can read through the W⊕X lens is
    real bytes, and the disassembler reproduces the assembly listing.

    Encoding limits (checked, {!Unencodable} on violation): memory-operand
    offsets fit 12 signed bits for single transfers and 6 signed
    8-byte-scaled bits for pair transfers; [svc] immediates fit 8 bits;
    at most 2^14 distinct constants and symbols per program. *)

exception Unencodable of string

type pools = {
  constants : int64 array;  (** immediate literal pool *)
  symbols : string array;  (** label/symbol pool *)
}

val encode : Instr.t array -> int32 array * pools
(** Encodes an instruction sequence, word [i] from instruction [i],
    building the pools. *)

val validate : Instr.t array -> unit
(** Raises {!Unencodable} exactly when {!encode} would, with the same
    message. Below 2^14 instructions the pools cannot overflow, so it
    makes the per-instruction range checks alone and builds no words;
    a longer sequence is encoded in full. *)

val decode : int32 -> pools -> Instr.t
(** Decodes one word against the pools; raises [Invalid_argument] on a
    malformed word. *)

val decode_all : int32 array -> pools -> Instr.t list

val disassemble : int32 array -> pools -> string
(** One instruction per line, in {!Asm} concrete syntax. *)

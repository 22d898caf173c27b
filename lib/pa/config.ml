type t = { va_size : int; pac_bits : int }

let make ?(va_size = 39) ?pac_bits () =
  if va_size < 16 || va_size > 52 then invalid_arg "Pa.Config.make: va_size";
  (* The PAC field spans bits [va_size, 54], and [Prf.mac] yields at most
     32 bits. *)
  let max_bits = min 32 (55 - va_size) in
  let pac_bits = Option.value pac_bits ~default:max_bits in
  if pac_bits < 1 || pac_bits > max_bits then invalid_arg "Pa.Config.make: pac_bits";
  { va_size; pac_bits }

let default = make ()
let with_pac_bits t bits = make ~va_size:t.va_size ~pac_bits:bits ()
let[@inline] pac_lo t = t.va_size
let[@inline] error_bit _ = 63
let pp fmt t = Format.fprintf fmt "va_size=%d pac_bits=%d" t.va_size t.pac_bits

type t = int64

let equal = Int64.equal
let compare = Int64.unsigned_compare

(* The range checks of the inlined helpers raise directly: a call to
   [invalid_arg] would be a branch returning a boxed value, and ocamlopt
   then boxes the int64 result on every path (see DESIGN.md,
   "Threaded-code execution"). *)
let[@inline] mask n =
  if n < 0 || n > 64 then raise (Invalid_argument "Word64.mask")
  else if n = 64 then -1L
  else Int64.sub (Int64.shift_left 1L n) 1L

let[@inline] bit w i =
  if i < 0 || i > 63 then raise (Invalid_argument "Word64.bit")
  else Int64.logand (Int64.shift_right_logical w i) 1L = 1L

let[@inline] set_bit w i v =
  let m = Int64.shift_left 1L i in
  if v then Int64.logor w m else Int64.logand w (Int64.lognot m)

let[@inline] flip_bit w i = Int64.logxor w (Int64.shift_left 1L i)

let[@inline] extract w ~lo ~width =
  if lo < 0 || width < 0 || lo + width > 64 then raise (Invalid_argument "Word64.extract")
  else Int64.logand (Int64.shift_right_logical w lo) (mask width)

let[@inline] insert w ~lo ~width v =
  if lo < 0 || width < 0 || lo + width > 64 then raise (Invalid_argument "Word64.insert")
  else
    let m = Int64.shift_left (mask width) lo in
    let v = Int64.shift_left (Int64.logand v (mask width)) lo in
    Int64.logor (Int64.logand w (Int64.lognot m)) v

let[@inline] rotl w n =
  let n = ((n mod 64) + 64) mod 64 in
  if n = 0 then w
  else Int64.logor (Int64.shift_left w n) (Int64.shift_right_logical w (64 - n))

let rotr w n = rotl w (64 - (((n mod 64) + 64) mod 64))

let shift_right_logical = Int64.shift_right_logical

let popcount w =
  let rec go acc w = if w = 0L then acc else go (acc + 1) (Int64.logand w (Int64.sub w 1L)) in
  go 0 w

let hamming a b = popcount (Int64.logxor a b)
let parity w = popcount w land 1

let nibble w i =
  if i < 0 || i > 15 then invalid_arg "Word64.nibble"
  else Int64.to_int (extract w ~lo:(4 * (15 - i)) ~width:4)

let set_nibble w i v =
  if i < 0 || i > 15 then invalid_arg "Word64.set_nibble"
  else insert w ~lo:(4 * (15 - i)) ~width:4 (Int64.of_int (v land 0xf))

let of_nibbles cells =
  if Array.length cells <> 16 then invalid_arg "Word64.of_nibbles";
  Array.fold_left (fun acc c -> Int64.logor (Int64.shift_left acc 4) (Int64.of_int (c land 0xf))) 0L cells

let to_nibbles w = Array.init 16 (nibble w)

let byte w i =
  if i < 0 || i > 7 then invalid_arg "Word64.byte"
  else Int64.to_int (extract w ~lo:(8 * i) ~width:8)

let set_byte w i v =
  if i < 0 || i > 7 then invalid_arg "Word64.set_byte"
  else insert w ~lo:(8 * i) ~width:8 (Int64.of_int (v land 0xff))

let to_hex w = Printf.sprintf "%016Lx" w

let of_hex s =
  let s = if String.length s >= 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X') then String.sub s 2 (String.length s - 2) else s in
  if String.length s = 0 || String.length s > 16 then invalid_arg "Word64.of_hex";
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "Word64.of_hex"
  in
  String.fold_left (fun acc c -> Int64.logor (Int64.shift_left acc 4) (Int64.of_int (digit c))) 0L s

let pp fmt w = Format.fprintf fmt "0x%s" (to_hex w)

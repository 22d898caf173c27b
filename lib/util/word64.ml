type t = int64

let equal = Int64.equal

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

let popcount w =
  let rec go acc w = if w = 0L then acc else go (acc + 1) (Int64.logand w (Int64.sub w 1L)) in
  go 0 w

let hamming a b = popcount (Int64.logxor a b)

let pp fmt w = Format.fprintf fmt "0x%016Lx" w

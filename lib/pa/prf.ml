module Word64 = Pacstack_util.Word64
module Rng = Pacstack_util.Rng

type t = Word64.t

let create secret = secret
let of_rng rng = Rng.next64 rng

(* SplitMix64 finalizer: a high-quality 64-bit mixer. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Two dependent mixing rounds bind data, modifier and key. *)
let[@inline] mac64 secret ~data ~modifier =
  let a = mix (Int64.logxor data secret) in
  let b = mix (Int64.logxor modifier (Int64.add secret 0x9e3779b97f4a7c15L)) in
  mix (Int64.logxor a (Word64.rotl b 17))

let[@inline] mac t ~bits ~data ~modifier =
  if bits < 1 || bits > 32 then invalid_arg "Prf.mac: bits";
  Int64.logand (mac64 t ~data ~modifier) (Word64.mask bits)

let equal = Word64.equal

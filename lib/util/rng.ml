type t = { mutable state : int64 }

let golden_gamma = 0x9e3779b97f4a7c15L

(* SplitMix64 (Steele, Lea, Flood 2014): additive state, mix on output. *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = seed }

let next64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

(* The state is additive, so draw [k] from now and a skip of [n] draws
   are one multiply-add each. *)
let peek t k =
  if k < 0 then invalid_arg "Rng.peek";
  mix (Int64.add t.state (Int64.mul (Int64.of_int (k + 1)) golden_gamma))

let skip t n =
  if n < 0 then invalid_arg "Rng.skip";
  t.state <- Int64.add t.state (Int64.mul (Int64.of_int n) golden_gamma)

let split t = create (next64 t)

let split_n t n =
  if n < 0 then invalid_arg "Rng.split_n"
  else if n = 0 then [||]
  else begin
    let a = Array.make n t in
    for i = 0 to n - 1 do
      a.(i) <- split t
    done;
    a
  end

let copy t = { state = t.state }

let bits t n =
  if n < 0 || n > 64 then invalid_arg "Rng.bits"
  else if n = 0 then 0L
  else Int64.shift_right_logical (next64 t) (64 - n)

let int t n =
  if n <= 0 then invalid_arg "Rng.int";
  (* Rejection sampling on the top bits to avoid modulo bias. *)
  let rec width k = if 1 lsl k >= n then k else width (k + 1) in
  let k = width 1 in
  let rec draw () =
    let v = Int64.to_int (bits t k) in
    if v < n then v else draw ()
  in
  draw ()

let bool t = bits t 1 = 1L

let float t =
  (* 53 uniform bits scaled to [0, 1). *)
  Int64.to_float (bits t 53) *. (1.0 /. 9007199254740992.0)

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose";
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

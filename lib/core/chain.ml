module Word64 = Pacstack_util.Word64
module Config = Pacstack_pa.Config
module Pointer = Pacstack_pa.Pointer
module Pac = Pacstack_pa.Pac
module Prf = Pacstack_pa.Prf

type t = {
  cfg : Config.t;
  prf : Prf.t;
  masked : bool;
  seed : Word64.t;
  mutable current : Word64.t;
  mutable stack : Word64.t list;  (* newest first; stored arets *)
  mutable depth : int;
}

type violation = { depth : int; expected : Word64.t; got : Word64.t }

let create ?(masked = true) ?(seed = 0L) ~cfg prf =
  { cfg; prf; masked; seed; current = seed; stack = []; depth = 0 }

let config t = t.cfg
let masked t = t.masked
let depth (t : t) = t.depth
let current t = t.current

let mask_value t ~modifier =
  (* H_k(0, aret_{i-1}) confined to the token field, as pacia(0, m)
     produces (§5.2). *)
  Pac.add t.cfg t.prf 0L ~modifier

let aret_of t ~ret ~modifier =
  let signed = Pac.add t.cfg t.prf ret ~modifier in
  if t.masked then Int64.logxor signed (mask_value t ~modifier) else signed

let push t ~ret =
  if not (Pointer.is_canonical t.cfg ret) || Word64.equal ret 0L then
    invalid_arg "Chain.push: return address must be canonical and non-zero";
  let aret = aret_of t ~ret ~modifier:t.current in
  t.stack <- t.current :: t.stack;
  t.current <- aret;
  t.depth <- t.depth + 1

let pop t =
  match t.stack with
  | [] -> invalid_arg "Chain.pop: empty chain"
  | prev :: rest ->
    let aret = t.current in
    let unmasked = if t.masked then Int64.logxor aret (mask_value t ~modifier:prev) else aret in
    t.stack <- rest;
    t.current <- prev;
    t.depth <- t.depth - 1;
    (match Pac.auth t.cfg t.prf unmasked ~modifier:prev with
    | Pac.Valid ret -> Ok ret
    | Pac.Invalid _ ->
      let expected =
        Pac.compute t.cfg t.prf ~address:(Pointer.address t.cfg unmasked) ~modifier:prev
      in
      Error { depth = t.depth + 1; expected; got = Pointer.pac_field t.cfg unmasked })

let stored t = Array.of_list (List.rev t.stack)

let tamper t i v =
  let arr = Array.of_list t.stack in
  let n = Array.length arr in
  if i < 0 || i >= n then invalid_arg "Chain.tamper";
  arr.(n - 1 - i) <- v;
  t.stack <- Array.to_list arr

let clone t = { t with stack = t.stack }

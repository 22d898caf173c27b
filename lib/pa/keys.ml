type which = IA | IB | DA | DB | GA

let all = [ IA; IB; DA; DB; GA ]

let which_to_string = function
  | IA -> "APIAKey"
  | IB -> "APIBKey"
  | DA -> "APDAKey"
  | DB -> "APDBKey"
  | GA -> "APGAKey"

let pp_which fmt w = Format.pp_print_string fmt (which_to_string w)

type t = { ia : Prf.t; ib : Prf.t; da : Prf.t; db : Prf.t; ga : Prf.t }

(* ocamlopt evaluates a record literal right to left, so GA's key is the
   first draw and IA's the last; test_pa's frozen vectors pin that order. *)
let generate rng =
  let fresh () = Prf.of_rng rng in
  { ia = fresh (); ib = fresh (); da = fresh (); db = fresh (); ga = fresh () }

let get t = function
  | IA -> t.ia
  | IB -> t.ib
  | DA -> t.da
  | DB -> t.db
  | GA -> t.ga

let equal a b = List.for_all (fun w -> Prf.equal (get a w) (get b w)) all

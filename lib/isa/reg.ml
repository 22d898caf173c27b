type t = X of int | SP | XZR

(* One shared value per register, so [x] allocates nothing: a compiled
   program holds one block per register, not one per operand. *)
let xs = Array.init 31 (fun n -> X n)

let x n = if n < 0 || n > 30 then invalid_arg "Reg.x" else Array.unsafe_get xs n

let lr = xs.(30)
let fp = xs.(29)
let cr = xs.(28)
let shadow = xs.(18)
let scratch = xs.(15)

let equal a b =
  match a, b with
  | X n, X m -> n = m
  | SP, SP | XZR, XZR -> true
  | X _, (SP | XZR) | SP, (X _ | XZR) | XZR, (X _ | SP) -> false

let rank = function X n -> n | SP -> 31 | XZR -> 32
let compare a b = Int.compare (rank a) (rank b)

let to_string = function
  | X 29 -> "fp"
  | X 30 -> "lr"
  | X n -> "x" ^ string_of_int n
  | SP -> "sp"
  | XZR -> "xzr"

let of_string s =
  match String.lowercase_ascii s with
  | "sp" -> Some SP
  | "xzr" -> Some XZR
  | "fp" -> Some fp
  | "lr" -> Some lr
  | s when String.length s >= 2 && s.[0] = 'x' -> (
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some n when n >= 0 && n <= 30 -> Some (x n)
    | Some _ | None -> None)
  | _ -> None

let pp fmt r = Format.pp_print_string fmt (to_string r)

let is_callee_saved = function
  | X n -> n >= 19 && n <= 29
  | SP -> true
  | XZR -> false

module Instr = Pacstack_isa.Instr

type entry = {
  mutable cycles : int;
  mutable instructions : int;
  mutable activations : int;
}

type t = {
  table : (string, entry) Hashtbl.t;
  edges : (string * string, int) Hashtbl.t;
  (* sorted (first, past, name) for binary search, plus a one-entry cache *)
  bounds : (int64 * int64 * string) array;
  mutable cached : (int64 * int64 * string) option;
  mutable total_instr : int;
  mutable total_calls : int;
  mutable pending_call : string option;  (* caller of an in-flight bl/blr *)
}

let function_of t addr =
  let hit (lo, hi, _) = Int64.unsigned_compare addr lo >= 0 && Int64.unsigned_compare addr hi < 0 in
  match t.cached with
  | Some ((_, _, name) as c) when hit c -> Some name
  | _ ->
    let rec search lo hi =
      if lo >= hi then None
      else
        let mid = (lo + hi) / 2 in
        let ((first, past, name) as c) = t.bounds.(mid) in
        if Int64.unsigned_compare addr first < 0 then search lo mid
        else if Int64.unsigned_compare addr past >= 0 then search (mid + 1) hi
        else begin
          t.cached <- Some c;
          Some name
        end
    in
    search 0 (Array.length t.bounds)

let entry t name =
  match Hashtbl.find_opt t.table name with
  | Some e -> e
  | None ->
    let e = { cycles = 0; instructions = 0; activations = 0 } in
    Hashtbl.replace t.table name e;
    e

let trace t pc instr =
  match function_of t pc with
  | None -> ()
  | Some name ->
    let e = entry t name in
    e.cycles <- e.cycles + Instr.cycles instr;
    e.instructions <- e.instructions + 1;
    t.total_instr <- t.total_instr + 1;
    (* the previous instruction was a call landing here *)
    (match t.pending_call with
    | Some caller ->
      e.activations <- e.activations + 1;
      t.total_calls <- t.total_calls + 1;
      let key = (caller, name) in
      Hashtbl.replace t.edges key (1 + Option.value (Hashtbl.find_opt t.edges key) ~default:0);
      t.pending_call <- None
    | None -> ());
    (match instr with
    | Instr.Bl _ | Instr.Blr _ -> t.pending_call <- Some name
    | _ -> ())

let create image =
  let bounds =
    Array.of_list (List.map (fun (name, first, past) -> (first, past, name)) (Image.functions image))
  in
  Array.sort (fun (a, _, _) (b, _, _) -> Int64.unsigned_compare a b) bounds;
  {
    table = Hashtbl.create 32;
    edges = Hashtbl.create 32;
    bounds;
    cached = None;
    total_instr = 0;
    total_calls = 0;
    pending_call = None;
  }

(* An observer: it records the instruction at each boundary and never
   stops the run. *)
let run ?fuel m =
  let image = Machine.image m in
  let t = create image in
  let observe m =
    let pc = Machine.pc m in
    (match Image.fetch image pc with Some instr -> trace t pc instr | None -> ());
    false
  in
  match Machine.run_until ?fuel m ~stop:observe with
  | Some outcome -> (outcome, t)
  | None -> invalid_arg "Profile.run: the observer stopped the run"

let entry_of t name = Hashtbl.find_opt t.table name

let call_edges t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.edges []
  |> List.sort (fun (_, a) (_, b) -> Int.compare b a)

let total_calls t = t.total_calls

let call_density t =
  if t.total_instr = 0 then 0.0
  else 1000.0 *. float_of_int t.total_calls /. float_of_int t.total_instr

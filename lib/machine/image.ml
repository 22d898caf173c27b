module Word64 = Pacstack_util.Word64
module Program = Pacstack_isa.Program
module Instr = Pacstack_isa.Instr
module Encode = Pacstack_isa.Encode

type t = {
  code : Instr.t array;
  (* The binary encoding, made on the first [encoded]. Machines on
     several domains may share an image: two that race here both encode
     the same code and publish equal values, so the race is benign. *)
  encoding : (int32 array * Encode.pools) option Atomic.t;
  globals : (string, Word64.t) Hashtbl.t;
  locals : (string * string, Word64.t) Hashtbl.t;  (* (function, label) *)
  bounds : (string * Word64.t * Word64.t) list;    (* name, first, past-last *)
  data_size : int;                                 (* bytes of data objects *)
  entry : Word64.t option;                         (* the entry symbol's address *)
  entries : (Word64.t, unit) Hashtbl.t;            (* function entry points *)
  fetch_trap : exn;      (* preformatted out-of-image trap, raised as-is *)
}

let code_base = 0x0000_0001_0000L
let data_base = 0x0000_0020_0000L
let stack_top = 0x0000_7fff_f000L
let stack_size = 1 lsl 20
let shadow_base = 0x0000_6000_0000L
let shadow_size = 1 lsl 16

let runtime_stubs existing =
  let stub name body = { Program.name; body = List.map (fun i -> Program.Ins i) body } in
  let need n = not (List.exists (fun f -> f.Program.name = n) existing) in
  List.concat
    [
      (if need "__halt" then [ stub "__halt" [ Instr.Hlt ] ] else []);
      (if need "__sigreturn_trampoline" then
         [ stub "__sigreturn_trampoline" [ Instr.Svc 5; Instr.Hlt ] ]
       else []);
    ]

let canary_name = "__stack_chk_guard"

let build (p : Program.t) =
  let funcs = p.funcs @ runtime_stubs p.funcs in
  let data =
    if List.exists (fun (d : Program.data) -> d.dname = canary_name) p.data then p.data
    else p.data @ [ { Program.dname = canary_name; size = 8 } ]
  in
  let globals = Hashtbl.create 32 in
  let locals = Hashtbl.create 32 in
  (* The code array starts from a constant and is filled in one pass
     over [int] slot numbers: OCaml 5 forces a minor collection to
     create a major-heap array from a young initial value (DESIGN.md,
     "Loading"), and a boxed address per instruction is waste. *)
  let n =
    List.fold_left
      (fun n (f : Program.func) ->
        List.fold_left (fun n -> function Program.Ins _ -> n + 1 | Program.Lbl _ -> n) n f.body)
      0 funcs
  in
  let code = Array.make n Instr.Nop in
  let addr slot = Int64.add code_base (Int64.of_int (4 * slot)) in
  let next = ref 0 in
  let bounds = ref [] in
  List.iter
    (fun (f : Program.func) ->
      let first = addr !next in
      Hashtbl.replace globals f.name first;
      List.iter
        (function
          | Program.Lbl l -> Hashtbl.replace locals (f.name, l) (addr !next)
          | Program.Ins i ->
            code.(!next) <- i;
            incr next)
        f.body;
      bounds := (f.name, first, addr !next) :: !bounds)
    funcs;
  (* data objects, 16-byte aligned *)
  let daddr = ref data_base in
  List.iter
    (fun (d : Program.data) ->
      Hashtbl.replace globals d.dname !daddr;
      let size = (d.size + 15) land lnot 15 in
      daddr := Int64.add !daddr (Int64.of_int size))
    data;
  Encode.validate code;
  let entries = Hashtbl.create 16 in
  List.iter (fun (_, first, _) -> Hashtbl.replace entries first ()) !bounds;
  (* Formatted once here instead of on every raise: the message names the
     image bounds rather than the faulting PC, which the trap's (pc) site
     context already carries. *)
  let fetch_trap =
    Trap.Fault
      (Trap.Undefined
         (Printf.sprintf "fetch outside code image [%Lx..%Lx)" code_base (addr n)))
  in
  {
    code; encoding = Atomic.make None; globals; locals; bounds = List.rev !bounds;
    data_size = Int64.to_int (Int64.sub !daddr data_base);
    entry = Hashtbl.find_opt globals p.entry; entries; fetch_trap;
  }

(* Every binding of [a] is in [b] with the same address, and neither
   holds more ([build] binds each key once). *)
let table_equal a b =
  Hashtbl.length a = Hashtbl.length b
  && Hashtbl.fold
       (fun k v ok ->
         ok && match Hashtbl.find_opt b k with Some w -> Int64.equal v w | None -> false)
       a true

(* The cheap, usually differing fields first; [entries] and [fetch_trap]
   derive from [bounds] and [code], and [encoding] from [code]. *)
let equal a b =
  Array.length a.code = Array.length b.code
  && a.data_size = b.data_size
  && Option.equal Int64.equal a.entry b.entry
  && a.bounds = b.bounds
  && a.code = b.code
  && table_equal a.globals b.globals
  && table_equal a.locals b.locals

let fetch t addr =
  let off = Int64.sub addr code_base in
  if Int64.logand off 3L <> 0L
     || Int64.unsigned_compare off (Int64.of_int (4 * Array.length t.code)) >= 0
  then None
  else Some t.code.(Int64.to_int off lsr 2)

(* The interpreter's per-step fetch: a bounds-checked read of the
   predecoded instruction array, no [Option] box. Out-of-image or
   misaligned PCs raise the per-image preformatted trap — the old
   [Printf.sprintf] here allocated and formatted on every raise, which
   the fuzz campaigns hit constantly (every wild-PC program ends in this
   trap). *)
let fetch_exn t addr =
  let off = Int64.sub addr code_base in
  if Int64.logand off 3L <> 0L
     || Int64.unsigned_compare off (Int64.of_int (4 * Array.length t.code)) >= 0
  then raise t.fetch_trap
  else Array.unsafe_get t.code (Int64.to_int off lsr 2)

let instructions t = t.code

let symbol t name = Hashtbl.find_opt t.globals name

let function_at t addr =
  List.find_map
    (fun (name, first, past) ->
      if Int64.unsigned_compare addr first >= 0 && Int64.unsigned_compare addr past < 0 then Some name
      else None)
    t.bounds

let resolve t ~from label =
  let local =
    match function_at t from with
    | Some f -> Hashtbl.find_opt t.locals (f, label)
    | None -> None
  in
  match local with Some a -> Some a | None -> symbol t label

let entry t =
  match t.entry with
  | Some a -> a
  | None -> invalid_arg "Image.entry"

let required t name =
  match symbol t name with
  | Some a -> a
  | None -> invalid_arg ("Image: missing runtime stub " ^ name)

let halt_addr t = required t "__halt"
let sigreturn_trampoline t = required t "__sigreturn_trampoline"

let code_size t = 4 * Array.length t.code
let data_size t = t.data_size

let encoded t =
  match Atomic.get t.encoding with
  | Some e -> e
  | None ->
    let e = Encode.encode t.code in
    Atomic.set t.encoding (Some e);
    e

let is_function_entry t addr = Hashtbl.mem t.entries addr

let disassemble t =
  let words, pools = encoded t in
  Encode.disassemble words pools

module Instr = Pacstack_isa.Instr
module Reg = Pacstack_isa.Reg
module Cond = Pacstack_isa.Cond
module Program = Pacstack_isa.Program
module Scheme = Pacstack_harden.Scheme
module Runtime = Pacstack_harden.Runtime

exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let temp_count = 6  (* X9..X14 *)
let max_args = 6

let align8 n = (n + 7) land lnot 7
let align16 n = (n + 15) land lnot 15

(* Per-function layout: parameter and local slots are SP-relative offsets
   into the locals region; the spill area for expression temporaries sits
   above them. *)
type layout = {
  slots : (string, int) Hashtbl.t;
  arrays : (string, int) Hashtbl.t;  (* array base offsets *)
  spill_base : int;
  locals_bytes : int;
}

let layout_of (f : Ast.fdef) =
  let slots = Hashtbl.create 16 in
  let arrays = Hashtbl.create 4 in
  let off = ref 0 in
  let declare name bytes =
    if Hashtbl.mem slots name || Hashtbl.mem arrays name then
      error "%s: duplicate variable %s" f.fname name;
    let o = !off in
    off := o + align8 bytes;
    o
  in
  List.iter (fun p -> Hashtbl.replace slots p (declare p 8)) f.params;
  List.iter
    (function
      | Ast.Scalar s -> Hashtbl.replace slots s (declare s 8)
      | Ast.Array (s, bytes) ->
        if bytes <= 0 then error "%s: array %s has size %d" f.fname s bytes;
        Hashtbl.replace arrays s (declare s bytes))
    f.locals;
  let makes_calls = Ast.calls_in_body f.body in
  let spill_base = !off in
  let total = !off + (if makes_calls then 8 * temp_count else 0) in
  { slots; arrays; spill_base; locals_bytes = align16 total }

let traits_of (f : Ast.fdef) layout =
  Scheme.traits ~is_leaf:(not (Ast.calls_in_body f.body)) ~has_arrays:(Ast.has_arrays f)
    ~locals_bytes:layout.locals_bytes ()

let function_traits f = traits_of f (layout_of f)

let temp d = Reg.x (9 + d)

let sp_slot off = { Instr.base = Reg.SP; offset = off; index = Instr.Offset }
let deref r = { Instr.base = r; offset = 0; index = Instr.Offset }

type ctx = {
  fname : string;
  layout : layout;
  scheme : Scheme.t;
  mutable next_label : int;
}

let fresh_label ctx =
  let n = ctx.next_label in
  ctx.next_label <- n + 1;
  Printf.sprintf ".L%d" n

let slot_of ctx name =
  match Hashtbl.find_opt ctx.layout.slots name with
  | Some o -> o
  | None -> error "%s: unknown variable %s" ctx.fname name

let relop_cond = function
  | Ast.Eq -> Cond.EQ
  | Ast.Ne -> Cond.NE
  | Ast.Lt -> Cond.LT
  | Ast.Le -> Cond.LE
  | Ast.Gt -> Cond.GT
  | Ast.Ge -> Cond.GE

let binop_instr op rd rn rm =
  let rmop = Instr.Reg rm in
  match (op : Ast.binop) with
  | Ast.Add -> Instr.Add (rd, rn, rmop)
  | Ast.Sub -> Instr.Sub (rd, rn, rmop)
  | Ast.Mul -> Instr.Mul (rd, rn, rm)
  | Ast.Div -> Instr.Udiv (rd, rn, rm)
  | Ast.And -> Instr.And_ (rd, rn, rmop)
  | Ast.Or -> Instr.Orr (rd, rn, rmop)
  | Ast.Xor -> Instr.Eor (rd, rn, rmop)
  | Ast.Shl -> Instr.Lsl_ (rd, rn, rmop)
  | Ast.Shr -> Instr.Lsr_ (rd, rn, rmop)

(* Spill the [live] lowest temporaries around a call; the temporaries above
   them hold already-evaluated arguments and are consumed before the
   callee can clobber them. *)
let spill_temps ctx live =
  List.init live (fun k -> Instr.Str (temp k, sp_slot (ctx.layout.spill_base + (8 * k))))

let reload_temps ctx live =
  List.init live (fun k -> Instr.Ldr (temp k, sp_slot (ctx.layout.spill_base + (8 * k))))

let rec compile_expr ctx d (e : Ast.expr) =
  if d >= temp_count then error "%s: expression too deep (max %d temporaries)" ctx.fname temp_count;
  let dst = temp d in
  match e with
  | Ast.Int v -> [ Instr.Mov (dst, Instr.Imm v) ]
  | Ast.Var s -> [ Instr.Ldr (dst, sp_slot (slot_of ctx s)) ]
  | Ast.Addr_local s -> (
    let off =
      match Hashtbl.find_opt ctx.layout.arrays s with
      | Some o -> Some o
      | None -> Hashtbl.find_opt ctx.layout.slots s
    in
    match off with
    | Some o -> [ Instr.Add (dst, Reg.SP, Instr.Imm (Int64.of_int o)) ]
    | None -> error "%s: unknown local %s" ctx.fname s)
  | Ast.Addr_global s -> [ Instr.Adr (dst, s) ]
  | Ast.Addr_func s ->
    (* code pointers are sealed at creation under the sealing schemes
       (PACTight/PARTS); fnptr_call authenticates before the blr *)
    Instr.Adr (dst, s) :: Scheme.fnptr_seal ctx.scheme dst
  | Ast.Load e -> compile_expr ctx d e @ [ Instr.Ldr (dst, deref dst) ]
  | Ast.Load_byte e -> compile_expr ctx d e @ [ Instr.Ldrb (dst, deref dst) ]
  | Ast.Binop (op, a, b) ->
    compile_expr ctx d a @ compile_expr ctx (d + 1) b @ [ binop_instr op dst dst (temp (d + 1)) ]
  | Ast.Call (f, args) -> compile_call ctx d ~target:(`Direct f) args
  | Ast.Call_ptr (fe, args) ->
    compile_expr ctx d fe @ compile_call ctx (d + 1) ~target:(`Indirect (temp d)) args
    @ [ Instr.Mov (dst, Instr.Reg (temp (d + 1))) ]

and compile_call ctx d ~target args =
  let n = List.length args in
  if n > max_args then error "%s: too many call arguments (%d > %d)" ctx.fname n max_args;
  let arg_code = List.concat (List.mapi (fun i a -> compile_expr ctx (d + i) a) args) in
  let moves = List.init n (fun i -> Instr.Mov (Reg.x i, Instr.Reg (temp (d + i)))) in
  let call =
    match target with
    | `Direct f -> [ Instr.Bl f ]
    | `Indirect r -> Scheme.fnptr_call ctx.scheme r
  in
  arg_code @ spill_temps ctx d @ moves @ call @ reload_temps ctx d
  @ [ Instr.Mov (temp d, Instr.Reg (Reg.x 0)) ]

let compile_cond ctx (Ast.Rel (op, a, b)) ~false_target =
  compile_expr ctx 0 a @ compile_expr ctx 1 b
  @ [ Instr.Cmp (temp 0, Instr.Reg (temp 1));
      Instr.Bcond (Cond.negate (relop_cond op), false_target) ]

let return_label = ".Lret"

(* Tail call: run the scheme epilogue but replace the returning instruction
   with a plain branch (Listing 8). [retaa] splits into [autiasp; b]. *)
let tail_branch epilogue target =
  let rec patch = function
    | [] -> error "internal: epilogue without return"
    | [ Instr.Ret _ ] -> [ Instr.B target ]
    | [ Instr.Retaa ] -> [ Instr.Autiasp; Instr.B target ]
    | i :: rest -> i :: patch rest
  in
  patch epilogue

let rec compile_stmt ctx ~epilogue (s : Ast.stmt) =
  let ins l = List.map (fun i -> Program.Ins i) l in
  match s with
  | Ast.Let (x, e) ->
    ins (compile_expr ctx 0 e @ [ Instr.Str (temp 0, sp_slot (slot_of ctx x)) ])
  | Ast.Store (addr, v) ->
    ins (compile_expr ctx 0 addr @ compile_expr ctx 1 v @ [ Instr.Str (temp 1, deref (temp 0)) ])
  | Ast.Store_byte (addr, v) ->
    ins (compile_expr ctx 0 addr @ compile_expr ctx 1 v @ [ Instr.Strb (temp 1, deref (temp 0)) ])
  | Ast.Expr e -> ins (compile_expr ctx 0 e)
  | Ast.If (c, then_, else_) ->
    let lelse = fresh_label ctx and lend = fresh_label ctx in
    List.concat
      [
        ins (compile_cond ctx c ~false_target:lelse);
        compile_body ctx ~epilogue then_;
        [ Program.Ins (Instr.B lend); Program.Lbl lelse ];
        compile_body ctx ~epilogue else_;
        [ Program.Lbl lend ];
      ]
  | Ast.While (c, body) ->
    let lhead = fresh_label ctx and lend = fresh_label ctx in
    List.concat
      [
        [ Program.Lbl lhead ];
        ins (compile_cond ctx c ~false_target:lend);
        compile_body ctx ~epilogue body;
        [ Program.Ins (Instr.B lhead); Program.Lbl lend ];
      ]
  | Ast.Return None -> [ Program.Ins (Instr.B return_label) ]
  | Ast.Return (Some e) ->
    ins (compile_expr ctx 0 e @ [ Instr.Mov (Reg.x 0, Instr.Reg (temp 0)); Instr.B return_label ])
  | Ast.Tail_call (f, args) ->
    let n = List.length args in
    if n > max_args then error "%s: too many tail-call arguments" ctx.fname;
    let arg_code = List.concat (List.mapi (fun i a -> compile_expr ctx i a) args) in
    let moves = List.init n (fun i -> Instr.Mov (Reg.x i, Instr.Reg (temp i))) in
    ins (arg_code @ moves @ tail_branch epilogue f)
  | Ast.Setjmp (x, bufaddr) ->
    ins
      (compile_expr ctx 0 bufaddr
      @ [
          Instr.Mov (Reg.x 0, Instr.Reg (temp 0));
          Instr.Bl (Runtime.setjmp_entry ctx.scheme);
          Instr.Str (Reg.x 0, sp_slot (slot_of ctx x));
        ])
  | Ast.Longjmp (bufaddr, v) ->
    ins
      (compile_expr ctx 0 bufaddr @ compile_expr ctx 1 v
      @ [
          Instr.Mov (Reg.x 0, Instr.Reg (temp 0));
          Instr.Mov (Reg.x 1, Instr.Reg (temp 1));
          Instr.Bl (Runtime.longjmp_entry ctx.scheme);
        ])
  | Ast.Hook name -> [ Program.Ins (Instr.Hook name) ]
  | Ast.Print e ->
    ins (compile_expr ctx 0 e @ [ Instr.Mov (Reg.x 0, Instr.Reg (temp 0)); Instr.Svc 1 ])
  | Ast.Block b -> compile_body ctx ~epilogue b
  | Ast.Halt e ->
    ins (compile_expr ctx 0 e @ [ Instr.Mov (Reg.x 0, Instr.Reg (temp 0)); Instr.Hlt ])
  | Ast.Try _ | Ast.Throw _ ->
    error "%s: Try/Throw must be desugared (Compile runs Exceptions.desugar automatically)"
      ctx.fname

and compile_body ctx ~epilogue body =
  List.concat_map (compile_stmt ctx ~epilogue) body

let compile_fdef ~scheme (f : Ast.fdef) =
  if List.length f.params > max_args then error "%s: too many parameters" f.fname;
  let layout = layout_of f in
  let traits = traits_of f layout in
  let ctx = { fname = f.fname; layout; scheme; next_label = 0 } in
  let epilogue = Scheme.epilogue scheme traits in
  let param_stores =
    List.mapi (fun i p -> Instr.Str (Reg.x i, sp_slot (slot_of ctx p))) f.params
  in
  let items =
    List.concat
      [
        List.map (fun i -> Program.Ins i) (Scheme.prologue scheme traits @ param_stores);
        compile_body ctx ~epilogue f.body;
        [ Program.Lbl return_label ];
        List.map (fun i -> Program.Ins i) epilogue;
      ]
  in
  Program.func f.fname items

let compile ~scheme ?(overrides = []) ?(optimize = false) (p : Ast.program) =
  let p = Exceptions.desugar p in
  let scheme_of f =
    match List.assoc_opt f.Ast.fname overrides with Some s -> s | None -> scheme
  in
  let post f = if optimize then Peephole.function_pass f else f in
  let funcs = List.map (fun f -> post (compile_fdef ~scheme:(scheme_of f) f)) p.fundefs in
  (* the canary guard object referenced by Stack_protector epilogues,
     unless the program declares its own *)
  let guard = "__stack_chk_guard" in
  let globals = if List.mem_assoc guard p.globals then p.globals else p.globals @ [ (guard, 8) ] in
  let data = List.map (fun (dname, size) -> { Program.dname; size }) globals in
  try Program.make ~data ~entry:p.main (funcs @ Runtime.functions)
  with Invalid_argument m -> error "%s" m

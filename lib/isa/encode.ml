exception Unencodable of string

type pools = { constants : int64 array; symbols : string array }

(* Word layout: op[31:26] a[25:20] b[19:14] c[13:8] d[7:0]. Field use is
   per-opcode; immediates and labels are 14-bit pool indices in (c << 8 | d),
   memory offsets are immediate-encoded (12-bit signed for single
   transfers packed into c[3:0] and d, 6-bit 8-byte-scaled for pairs in
   the low bits of c and d). *)

let op_bits = 6
let reg_bits = 6

(* opcode numbers; the _i suffix marks immediate-operand variants *)
let op_add = 1
and op_add_i = 2
and op_sub = 3
and op_sub_i = 4
and op_mul = 5
and op_udiv = 6
and op_and = 7
and op_and_i = 8
and op_orr = 9
and op_orr_i = 10
and op_eor = 11
and op_eor_i = 12
and op_lsl = 13
and op_lsl_i = 14
and op_lsr = 15
and op_lsr_i = 16
and op_mov = 17
and op_mov_i = 18
and op_cmp = 19
and op_cmp_i = 20
and op_adr = 21
and op_ldr = 22
and op_str = 23
and op_ldrb = 24
and op_strb = 25
and op_ldp = 26
and op_stp = 27
and op_b = 28
and op_bcond = 29
and op_cbz = 30
and op_cbnz = 31
and op_bl = 32
and op_blr = 33
and op_br = 34
and op_ret = 35
and op_retaa = 36
and op_pacia = 37
and op_autia = 38
and op_paciasp = 39
and op_autiasp = 40
and op_xpaci = 41
and op_pacga = 42
and op_svc = 43
and op_nop = 44
and op_hlt = 45
and op_hook = 46

let reg_code = function Reg.X n -> n | Reg.SP -> 31 | Reg.XZR -> 32

let reg_of_code = function
  | n when n >= 0 && n <= 30 -> Reg.x n
  | 31 -> Reg.SP
  | 32 -> Reg.XZR
  | n -> invalid_arg (Printf.sprintf "Encode: bad register code %d" n)

let cond_code = function
  | Cond.EQ -> 0
  | Cond.NE -> 1
  | Cond.LT -> 2
  | Cond.LE -> 3
  | Cond.GT -> 4
  | Cond.GE -> 5
  | Cond.HS -> 6
  | Cond.LO -> 7

let cond_of_code = function
  | 0 -> Cond.EQ
  | 1 -> Cond.NE
  | 2 -> Cond.LT
  | 3 -> Cond.LE
  | 4 -> Cond.GT
  | 5 -> Cond.GE
  | 6 -> Cond.HS
  | 7 -> Cond.LO
  | n -> invalid_arg (Printf.sprintf "Encode: bad condition code %d" n)

let index_code = function Instr.Offset -> 0 | Instr.Pre -> 1 | Instr.Post -> 2

let index_of_code = function
  | 0 -> Instr.Offset
  | 1 -> Instr.Pre
  | 2 -> Instr.Post
  | n -> invalid_arg (Printf.sprintf "Encode: bad index mode %d" n)

let pool_limit = 1 lsl 14

(* A pool builder: interns each value once, in first-use order, over a
   typed table (no polymorphic hashing of the int64 or string keys). *)
module Pool (Key : Hashtbl.HashedType) = struct
  module Ids = Hashtbl.Make (Key)

  type t = { ids : int Ids.t; mutable rev : Key.t list }

  let create () = { ids = Ids.create 32; rev = [] }

  let id p v =
    match Ids.find_opt p.ids v with
    | Some i -> i
    | None ->
      let i = Ids.length p.ids in
      if i >= pool_limit then raise (Unencodable "pool overflow");
      Ids.replace p.ids v i;
      p.rev <- v :: p.rev;
      i

  let contents p = Array.of_list (List.rev p.rev)
end

module Consts = Pool (Int64)
module Syms = Pool (String)

type builder = { consts : Consts.t; syms : Syms.t }

let const_id bld v = Consts.id bld.consts v
let sym_id bld v = Syms.id bld.syms v

let word ~op ~a ~b ~c ~d =
  if op < 0 || op >= 1 lsl op_bits then invalid_arg "Encode.word: op";
  assert (a >= 0 && a < 1 lsl reg_bits);
  assert (b >= 0 && b < 1 lsl reg_bits);
  assert (c >= 0 && c < 64);
  assert (d >= 0 && d < 256);
  Int32.of_int ((op lsl 26) lor (a lsl 20) lor (b lsl 14) lor (c lsl 8) lor d)

let word_idx ~op ~a ~b ~idx =
  if idx < 0 || idx >= pool_limit then raise (Unencodable "pool index");
  word ~op ~a ~b ~c:(idx lsr 8) ~d:(idx land 0xff)

(* The range checks of one instruction, made before its word is built
   (see [encode_one]) and alone by [validate]: the pools aside, these
   are everything the encoding refuses. *)
let check_one (instr : Instr.t) =
  match instr with
  | Instr.Ldr (_, { Instr.offset; _ }) | Instr.Str (_, { Instr.offset; _ })
  | Instr.Ldrb (_, { Instr.offset; _ }) | Instr.Strb (_, { Instr.offset; _ }) ->
    if offset < -2048 || offset > 2047 then
      raise (Unencodable (Printf.sprintf "memory offset %d out of 12-bit range" offset))
  | Instr.Ldp (_, _, { Instr.offset; _ }) | Instr.Stp (_, _, { Instr.offset; _ }) ->
    if offset land 7 <> 0 then raise (Unencodable "pair offset must be 8-byte aligned");
    let scaled = offset asr 3 in
    if scaled < -32 || scaled > 31 then
      raise (Unencodable (Printf.sprintf "pair offset %d out of scaled 6-bit range" offset))
  | Instr.Svc n -> if n < 0 || n > 255 then raise (Unencodable "svc immediate out of range")
  | _ -> ()

(* single-transfer memory operand: c = mode:2 | offset[11:8], d = offset[7:0] *)
let word_mem ~op ~a ({ Instr.base; offset; index } : Instr.mem) =
  let off12 = offset land 0xfff in
  word ~op ~a ~b:(reg_code base) ~c:((index_code index lsl 4) lor (off12 lsr 8)) ~d:(off12 land 0xff)

(* pair transfer: c = mode:2 | rt2[5:2]? — instead: a=rt1, b=rt2, c = base
   packed with mode is impossible in 6 bits, so c = mode:2 | scaled
   offset:4 high bits and d = base:6 | scaled offset low 2 bits. *)
let word_pair ~op ~rt1 ~rt2 ({ Instr.base; offset; index } : Instr.mem) =
  let off6 = (offset asr 3) land 0x3f in
  word ~op ~a:(reg_code rt1) ~b:(reg_code rt2)
    ~c:((index_code index lsl 4) lor (off6 lsr 2))
    ~d:((reg_code base lsl 2) lor (off6 land 3))

let encode_one bld instr =
  check_one instr;
  let r = reg_code in
  let rrr op rd rn rm = word ~op ~a:(r rd) ~b:(r rn) ~c:(r rm) ~d:0 in
  let rr_operand opr opi rd rn = function
    | Instr.Reg rm -> word ~op:opr ~a:(r rd) ~b:(r rn) ~c:(r rm) ~d:0
    | Instr.Imm v -> word_idx ~op:opi ~a:(r rd) ~b:(r rn) ~idx:(const_id bld v)
  in
  match (instr : Instr.t) with
  | Instr.Add (rd, rn, o) -> rr_operand op_add op_add_i rd rn o
  | Instr.Sub (rd, rn, o) -> rr_operand op_sub op_sub_i rd rn o
  | Instr.Mul (rd, rn, rm) -> rrr op_mul rd rn rm
  | Instr.Udiv (rd, rn, rm) -> rrr op_udiv rd rn rm
  | Instr.And_ (rd, rn, o) -> rr_operand op_and op_and_i rd rn o
  | Instr.Orr (rd, rn, o) -> rr_operand op_orr op_orr_i rd rn o
  | Instr.Eor (rd, rn, o) -> rr_operand op_eor op_eor_i rd rn o
  | Instr.Lsl_ (rd, rn, o) -> rr_operand op_lsl op_lsl_i rd rn o
  | Instr.Lsr_ (rd, rn, o) -> rr_operand op_lsr op_lsr_i rd rn o
  | Instr.Mov (rd, o) -> rr_operand op_mov op_mov_i rd Reg.XZR o
  | Instr.Cmp (rn, o) -> rr_operand op_cmp op_cmp_i Reg.XZR rn o
  | Instr.Adr (rd, l) -> word_idx ~op:op_adr ~a:(r rd) ~b:0 ~idx:(sym_id bld l)
  | Instr.Ldr (rt, m) -> word_mem ~op:op_ldr ~a:(r rt) m
  | Instr.Str (rt, m) -> word_mem ~op:op_str ~a:(r rt) m
  | Instr.Ldrb (rt, m) -> word_mem ~op:op_ldrb ~a:(r rt) m
  | Instr.Strb (rt, m) -> word_mem ~op:op_strb ~a:(r rt) m
  | Instr.Ldp (r1, r2, m) -> word_pair ~op:op_ldp ~rt1:r1 ~rt2:r2 m
  | Instr.Stp (r1, r2, m) -> word_pair ~op:op_stp ~rt1:r1 ~rt2:r2 m
  | Instr.B l -> word_idx ~op:op_b ~a:0 ~b:0 ~idx:(sym_id bld l)
  | Instr.Bcond (c, l) -> word_idx ~op:op_bcond ~a:(cond_code c) ~b:0 ~idx:(sym_id bld l)
  | Instr.Cbz (rt, l) -> word_idx ~op:op_cbz ~a:(r rt) ~b:0 ~idx:(sym_id bld l)
  | Instr.Cbnz (rt, l) -> word_idx ~op:op_cbnz ~a:(r rt) ~b:0 ~idx:(sym_id bld l)
  | Instr.Bl l -> word_idx ~op:op_bl ~a:0 ~b:0 ~idx:(sym_id bld l)
  | Instr.Blr rt -> word ~op:op_blr ~a:(r rt) ~b:0 ~c:0 ~d:0
  | Instr.Br rt -> word ~op:op_br ~a:(r rt) ~b:0 ~c:0 ~d:0
  | Instr.Ret rt -> word ~op:op_ret ~a:(r rt) ~b:0 ~c:0 ~d:0
  | Instr.Retaa -> word ~op:op_retaa ~a:0 ~b:0 ~c:0 ~d:0
  | Instr.Pacia (rd, rn) -> word ~op:op_pacia ~a:(r rd) ~b:(r rn) ~c:0 ~d:0
  | Instr.Autia (rd, rn) -> word ~op:op_autia ~a:(r rd) ~b:(r rn) ~c:0 ~d:0
  | Instr.Paciasp -> word ~op:op_paciasp ~a:0 ~b:0 ~c:0 ~d:0
  | Instr.Autiasp -> word ~op:op_autiasp ~a:0 ~b:0 ~c:0 ~d:0
  | Instr.Xpaci rt -> word ~op:op_xpaci ~a:(r rt) ~b:0 ~c:0 ~d:0
  | Instr.Pacga (rd, rn, rm) -> rrr op_pacga rd rn rm
  | Instr.Svc n -> word ~op:op_svc ~a:0 ~b:0 ~c:0 ~d:n
  | Instr.Nop -> word ~op:op_nop ~a:0 ~b:0 ~c:0 ~d:0
  | Instr.Hlt -> word ~op:op_hlt ~a:0 ~b:0 ~c:0 ~d:0
  | Instr.Hook l -> word_idx ~op:op_hook ~a:0 ~b:0 ~idx:(sym_id bld l)

(* The word array starts from a constant, not from [Array.map]'s first
   word: OCaml 5 forces a minor collection to create a major-heap array
   from a young initial value. *)
let encode instrs =
  let bld = { consts = Consts.create (); syms = Syms.create () } in
  let words = Array.make (Array.length instrs) 0l in
  Array.iteri (fun i instr -> words.(i) <- encode_one bld instr) instrs;
  (words, { constants = Consts.contents bld.consts; symbols = Syms.contents bld.syms })

(* Each instruction interns at most one pool entry, so only a sequence
   of [pool_limit] or more can overflow a pool; it is encoded in full. *)
let validate instrs =
  if Array.length instrs >= pool_limit then ignore (encode instrs)
  else Array.iter check_one instrs

let sign_extend v bits =
  let shift = 64 - bits in
  Int64.to_int (Int64.shift_right (Int64.shift_left (Int64.of_int v) shift) shift)

let decode w pools =
  let w = Int32.to_int w land 0xffffffff in
  let op = (w lsr 26) land 0x3f in
  let a = (w lsr 20) land 0x3f in
  let b = (w lsr 14) land 0x3f in
  let c = (w lsr 8) land 0x3f in
  let d = w land 0xff in
  let idx = (c lsl 8) lor d in
  let const () =
    if idx >= Array.length pools.constants then invalid_arg "Encode.decode: constant index"
    else pools.constants.(idx)
  in
  let sym () =
    if idx >= Array.length pools.symbols then invalid_arg "Encode.decode: symbol index"
    else pools.symbols.(idx)
  in
  let mem () =
    let index = index_of_code (c lsr 4) in
    let offset = sign_extend (((c land 0xf) lsl 8) lor d) 12 in
    { Instr.base = reg_of_code b; offset; index }
  in
  let pair_mem () =
    let index = index_of_code (c lsr 4) in
    let scaled = sign_extend (((c land 0xf) lsl 2) lor (d land 3)) 6 in
    { Instr.base = reg_of_code (d lsr 2); offset = scaled * 8; index }
  in
  let ra () = reg_of_code a and rb () = reg_of_code b and rc () = reg_of_code c in
  match op with
  | o when o = op_add -> Instr.Add (ra (), rb (), Instr.Reg (rc ()))
  | o when o = op_add_i -> Instr.Add (ra (), rb (), Instr.Imm (const ()))
  | o when o = op_sub -> Instr.Sub (ra (), rb (), Instr.Reg (rc ()))
  | o when o = op_sub_i -> Instr.Sub (ra (), rb (), Instr.Imm (const ()))
  | o when o = op_mul -> Instr.Mul (ra (), rb (), rc ())
  | o when o = op_udiv -> Instr.Udiv (ra (), rb (), rc ())
  | o when o = op_and -> Instr.And_ (ra (), rb (), Instr.Reg (rc ()))
  | o when o = op_and_i -> Instr.And_ (ra (), rb (), Instr.Imm (const ()))
  | o when o = op_orr -> Instr.Orr (ra (), rb (), Instr.Reg (rc ()))
  | o when o = op_orr_i -> Instr.Orr (ra (), rb (), Instr.Imm (const ()))
  | o when o = op_eor -> Instr.Eor (ra (), rb (), Instr.Reg (rc ()))
  | o when o = op_eor_i -> Instr.Eor (ra (), rb (), Instr.Imm (const ()))
  | o when o = op_lsl -> Instr.Lsl_ (ra (), rb (), Instr.Reg (rc ()))
  | o when o = op_lsl_i -> Instr.Lsl_ (ra (), rb (), Instr.Imm (const ()))
  | o when o = op_lsr -> Instr.Lsr_ (ra (), rb (), Instr.Reg (rc ()))
  | o when o = op_lsr_i -> Instr.Lsr_ (ra (), rb (), Instr.Imm (const ()))
  | o when o = op_mov -> Instr.Mov (ra (), Instr.Reg (rc ()))
  | o when o = op_mov_i -> Instr.Mov (ra (), Instr.Imm (const ()))
  | o when o = op_cmp -> Instr.Cmp (rb (), Instr.Reg (rc ()))
  | o when o = op_cmp_i -> Instr.Cmp (rb (), Instr.Imm (const ()))
  | o when o = op_adr -> Instr.Adr (ra (), sym ())
  | o when o = op_ldr -> Instr.Ldr (ra (), mem ())
  | o when o = op_str -> Instr.Str (ra (), mem ())
  | o when o = op_ldrb -> Instr.Ldrb (ra (), mem ())
  | o when o = op_strb -> Instr.Strb (ra (), mem ())
  | o when o = op_ldp -> Instr.Ldp (ra (), rb (), pair_mem ())
  | o when o = op_stp -> Instr.Stp (ra (), rb (), pair_mem ())
  | o when o = op_b -> Instr.B (sym ())
  | o when o = op_bcond -> Instr.Bcond (cond_of_code a, sym ())
  | o when o = op_cbz -> Instr.Cbz (ra (), sym ())
  | o when o = op_cbnz -> Instr.Cbnz (ra (), sym ())
  | o when o = op_bl -> Instr.Bl (sym ())
  | o when o = op_blr -> Instr.Blr (ra ())
  | o when o = op_br -> Instr.Br (ra ())
  | o when o = op_ret -> Instr.Ret (ra ())
  | o when o = op_retaa -> Instr.Retaa
  | o when o = op_pacia -> Instr.Pacia (ra (), rb ())
  | o when o = op_autia -> Instr.Autia (ra (), rb ())
  | o when o = op_paciasp -> Instr.Paciasp
  | o when o = op_autiasp -> Instr.Autiasp
  | o when o = op_xpaci -> Instr.Xpaci (ra ())
  | o when o = op_pacga -> Instr.Pacga (ra (), rb (), rc ())
  | o when o = op_svc -> Instr.Svc d
  | o when o = op_nop -> Instr.Nop
  | o when o = op_hlt -> Instr.Hlt
  | o when o = op_hook -> Instr.Hook (sym ())
  | o -> invalid_arg (Printf.sprintf "Encode.decode: unknown opcode %d" o)

let decode_all words pools = Array.to_list (Array.map (fun w -> decode w pools) words)

let disassemble words pools =
  String.concat "\n" (List.map Instr.to_string (decode_all words pools))

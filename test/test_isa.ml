(* Tests for the ISA layer: registers, condition codes, instruction cost
   model, the assembler's print/parse roundtrip and program validation. *)

module Word64 = Pacstack_util.Word64
module Reg = Pacstack_isa.Reg
module Cond = Pacstack_isa.Cond
module Instr = Pacstack_isa.Instr
module Program = Pacstack_isa.Program
module Asm = Pacstack_isa.Asm

let qtest name count gen prop = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

let full64 =
  QCheck2.Gen.(
    map2 (fun a b -> Int64.logxor (Int64.of_int a) (Int64.shift_left (Int64.of_int b) 31)) int int)

(* --- Reg -------------------------------------------------------------------- *)

let test_reg_roundtrip () =
  let all = Reg.SP :: Reg.XZR :: List.init 31 Reg.x in
  List.iter
    (fun r ->
      match Reg.of_string (Reg.to_string r) with
      | Some r' -> Alcotest.(check bool) (Reg.to_string r) true (Reg.equal r r')
      | None -> Alcotest.fail ("unparseable " ^ Reg.to_string r))
    all

let test_reg_aliases () =
  Alcotest.(check bool) "lr = x30" true (Reg.equal Reg.lr (Reg.x 30));
  Alcotest.(check bool) "fp = x29" true (Reg.equal Reg.fp (Reg.x 29));
  Alcotest.(check bool) "cr = x28" true (Reg.equal Reg.cr (Reg.x 28));
  Alcotest.(check bool) "shadow = x18" true (Reg.equal Reg.shadow (Reg.x 18));
  Alcotest.(check bool) "parse lr" true (Reg.of_string "LR" = Some Reg.lr);
  Alcotest.(check bool) "reject x31" true (Reg.of_string "x31" = None);
  Alcotest.check_raises "x 31 invalid" (Invalid_argument "Reg.x") (fun () -> ignore (Reg.x 31))

let test_callee_saved () =
  Alcotest.(check bool) "x19 saved" true (Reg.is_callee_saved (Reg.x 19));
  Alcotest.(check bool) "x28 saved" true (Reg.is_callee_saved Reg.cr);
  Alcotest.(check bool) "x18 not saved" false (Reg.is_callee_saved Reg.shadow);
  Alcotest.(check bool) "x0 not saved" false (Reg.is_callee_saved (Reg.x 0));
  Alcotest.(check bool) "sp saved" true (Reg.is_callee_saved Reg.SP)

(* --- Cond ------------------------------------------------------------------- *)

let all_conds = Cond.[ EQ; NE; LT; LE; GT; GE; HS; LO ]

let test_cond_negate_involution () =
  List.iter
    (fun c ->
      Alcotest.(check string) "negate twice" (Cond.to_string c)
        (Cond.to_string (Cond.negate (Cond.negate c))))
    all_conds

let test_cond_string_roundtrip () =
  List.iter
    (fun c ->
      Alcotest.(check bool) (Cond.to_string c) true (Cond.of_string (Cond.to_string c) = Some c))
    all_conds

let prop_cond_semantics =
  qtest "flags agree with Int64 comparisons" 500
    QCheck2.Gen.(tup2 full64 full64)
    (fun (a, b) ->
      let f = Cond.of_compare a b in
      Cond.holds Cond.EQ f = (Int64.equal a b)
      && Cond.holds Cond.NE f = (not (Int64.equal a b))
      && Cond.holds Cond.LT f = (Int64.compare a b < 0)
      && Cond.holds Cond.GE f = (Int64.compare a b >= 0)
      && Cond.holds Cond.GT f = (Int64.compare a b > 0)
      && Cond.holds Cond.LE f = (Int64.compare a b <= 0)
      && Cond.holds Cond.HS f = (Int64.unsigned_compare a b >= 0)
      && Cond.holds Cond.LO f = (Int64.unsigned_compare a b < 0))

let test_cond_negation_semantics () =
  let f = Cond.of_compare 3L 7L in
  List.iter
    (fun c ->
      Alcotest.(check bool) "negation flips" (Cond.holds c f) (not (Cond.holds (Cond.negate c) f)))
    all_conds

(* --- Instr ------------------------------------------------------------------- *)

let instr_gen =
  let open QCheck2.Gen in
  let reg = map Reg.x (int_range 0 30) in
  let operand = oneof [ map (fun r -> Instr.Reg r) reg; map (fun i -> Instr.Imm (Int64.of_int i)) (int_range (-4096) 4096) ] in
  let index = oneofl [ Instr.Offset; Instr.Pre; Instr.Post ] in
  (* offsets mostly within a pair's range, and past the 12-bit single
     transfer's too *)
  let offset = oneof [ int_range (-256) 256; int_range (-4096) 4096 ] in
  let mem = map3 (fun base offset index -> { Instr.base; offset; index }) reg offset index in
  let label = oneofl [ "foo"; "bar"; ".L1" ] in
  let cond = oneofl all_conds in
  oneof
    [
      map3 (fun a b c -> Instr.Add (a, b, c)) reg reg operand;
      map3 (fun a b c -> Instr.Sub (a, b, c)) reg reg operand;
      map3 (fun a b c -> Instr.Mul (a, b, c)) reg reg reg;
      map3 (fun a b c -> Instr.Udiv (a, b, c)) reg reg reg;
      map3 (fun a b c -> Instr.And_ (a, b, c)) reg reg operand;
      map3 (fun a b c -> Instr.Orr (a, b, c)) reg reg operand;
      map3 (fun a b c -> Instr.Eor (a, b, c)) reg reg operand;
      map3 (fun a b c -> Instr.Lsl_ (a, b, c)) reg reg operand;
      map3 (fun a b c -> Instr.Lsr_ (a, b, c)) reg reg operand;
      map2 (fun a b -> Instr.Mov (a, b)) reg operand;
      map2 (fun a b -> Instr.Cmp (a, b)) reg operand;
      map2 (fun a b -> Instr.Adr (a, b)) reg label;
      map2 (fun a b -> Instr.Ldr (a, b)) reg mem;
      map2 (fun a b -> Instr.Str (a, b)) reg mem;
      map2 (fun a b -> Instr.Ldrb (a, b)) reg mem;
      map2 (fun a b -> Instr.Strb (a, b)) reg mem;
      map3 (fun a b c -> Instr.Ldp (a, b, c)) reg reg mem;
      map3 (fun a b c -> Instr.Stp (a, b, c)) reg reg mem;
      map (fun l -> Instr.B l) label;
      map2 (fun c l -> Instr.Bcond (c, l)) cond label;
      map2 (fun r l -> Instr.Cbz (r, l)) reg label;
      map2 (fun r l -> Instr.Cbnz (r, l)) reg label;
      map (fun l -> Instr.Bl l) label;
      map (fun r -> Instr.Blr r) reg;
      map (fun r -> Instr.Br r) reg;
      return (Instr.Ret Reg.lr);
      return Instr.Retaa;
      map2 (fun a b -> Instr.Pacia (a, b)) reg reg;
      map2 (fun a b -> Instr.Autia (a, b)) reg reg;
      return Instr.Paciasp;
      return Instr.Autiasp;
      map (fun r -> Instr.Xpaci r) reg;
      map3 (fun a b c -> Instr.Pacga (a, b, c)) reg reg reg;
      map (fun n -> Instr.Svc n) (int_range 0 9);
      return Instr.Nop;
      return Instr.Hlt;
      map (fun l -> Instr.Hook l) label;
    ]

let prop_asm_roundtrip =
  qtest "print/parse instruction roundtrip" 1000 instr_gen (fun ins ->
      Asm.parse_instr (Instr.to_string ins) = ins)

let test_cycles_model () =
  Alcotest.(check int) "alu" 1 (Instr.cycles (Instr.Nop));
  Alcotest.(check int) "load" 4 (Instr.cycles (Instr.Ldr (Reg.x 0, { Instr.base = Reg.SP; offset = 0; index = Instr.Offset })));
  Alcotest.(check int) "pair" 5 (Instr.cycles (Instr.Ldp (Reg.x 0, Reg.x 1, { Instr.base = Reg.SP; offset = 0; index = Instr.Offset })));
  Alcotest.(check int) "pac" 3 (Instr.cycles Instr.Paciasp);
  Alcotest.(check int) "retaa" 5 (Instr.cycles Instr.Retaa);
  Alcotest.(check int) "hook free" 0 (Instr.cycles (Instr.Hook "h"));
  Alcotest.(check int) "svc" 100 (Instr.cycles (Instr.Svc 0))

let test_reads_label () =
  Alcotest.(check (option string)) "bl" (Some "f") (Instr.reads_label (Instr.Bl "f"));
  Alcotest.(check (option string)) "adr" (Some "d") (Instr.reads_label (Instr.Adr (Reg.x 0, "d")));
  Alcotest.(check (option string)) "ret" None (Instr.reads_label (Instr.Ret Reg.lr))

(* --- Encode ----------------------------------------------------------------------- *)

module Encode = Pacstack_isa.Encode

(* The message [f] refuses a sequence with, if it does. *)
let refusal f instrs =
  match f instrs with exception Encode.Unencodable msg -> Some msg | _ -> None

let prop_encode_roundtrip =
  (* out-of-range memory offsets are legitimately rejected, by [validate]
     (what [Machine.prepare] checks) exactly as by [encode]; everything
     encodable must roundtrip exactly *)
  qtest "encode/decode roundtrip" 800 instr_gen (fun ins ->
      let validated = refusal Encode.validate [| ins |] in
      match Encode.encode [| ins |] with
      | words, pools -> validated = None && Encode.decode words.(0) pools = ins
      | exception Encode.Unencodable msg -> (
        validated = Some msg
        &&
        match ins with
        | Instr.Ldr (_, { Instr.offset; _ }) | Instr.Str (_, { Instr.offset; _ })
        | Instr.Ldrb (_, { Instr.offset; _ }) | Instr.Strb (_, { Instr.offset; _ }) ->
          offset < -2048 || offset > 2047
        | Instr.Ldp (_, _, { Instr.offset; _ }) | Instr.Stp (_, _, { Instr.offset; _ }) ->
          offset land 7 <> 0 || offset < -256 || offset > 248
        | _ -> false))

(* Valid-operand generator: every operand inside the documented encoding
   limits (single-transfer offsets fit 12 signed bits, pair offsets are
   8-aligned in 6 signed scaled bits, svc fits 8 bits), registers
   including SP and XZR as bases. Under this generator [encode] must
   never reject, so the roundtrip property has no escape hatch. *)
let valid_instr_gen =
  let open QCheck2.Gen in
  let reg = map Reg.x (int_range 0 30) in
  let any_reg = oneof [ reg; oneofl [ Reg.SP; Reg.XZR ] ] in
  let operand =
    oneof [ map (fun r -> Instr.Reg r) reg; map (fun i -> Instr.Imm i) full64 ]
  in
  let index = oneofl [ Instr.Offset; Instr.Pre; Instr.Post ] in
  let mem =
    map3
      (fun base offset index -> { Instr.base; offset; index })
      any_reg (int_range (-2048) 2047) index
  in
  let pair_mem =
    map3
      (fun base k index -> { Instr.base; offset = 8 * k; index })
      any_reg (int_range (-32) 31) index
  in
  let label = oneofl [ "foo"; "bar"; ".L1"; "a_long_symbol_name" ] in
  let cond = oneofl all_conds in
  oneof
    [
      map3 (fun a b c -> Instr.Add (a, b, c)) reg reg operand;
      map3 (fun a b c -> Instr.Sub (a, b, c)) reg reg operand;
      map3 (fun a b c -> Instr.Mul (a, b, c)) reg reg reg;
      map3 (fun a b c -> Instr.Udiv (a, b, c)) reg reg reg;
      map3 (fun a b c -> Instr.And_ (a, b, c)) reg reg operand;
      map3 (fun a b c -> Instr.Orr (a, b, c)) reg reg operand;
      map3 (fun a b c -> Instr.Eor (a, b, c)) reg reg operand;
      map3 (fun a b c -> Instr.Lsl_ (a, b, c)) reg reg operand;
      map3 (fun a b c -> Instr.Lsr_ (a, b, c)) reg reg operand;
      map2 (fun a b -> Instr.Mov (a, b)) reg operand;
      map2 (fun a b -> Instr.Cmp (a, b)) reg operand;
      map2 (fun a b -> Instr.Adr (a, b)) reg label;
      map2 (fun a b -> Instr.Ldr (a, b)) reg mem;
      map2 (fun a b -> Instr.Str (a, b)) reg mem;
      map2 (fun a b -> Instr.Ldrb (a, b)) reg mem;
      map2 (fun a b -> Instr.Strb (a, b)) reg mem;
      map3 (fun a b c -> Instr.Ldp (a, b, c)) reg reg pair_mem;
      map3 (fun a b c -> Instr.Stp (a, b, c)) reg reg pair_mem;
      map (fun l -> Instr.B l) label;
      map2 (fun c l -> Instr.Bcond (c, l)) cond label;
      map2 (fun r l -> Instr.Cbz (r, l)) reg label;
      map2 (fun r l -> Instr.Cbnz (r, l)) reg label;
      map (fun l -> Instr.Bl l) label;
      map (fun r -> Instr.Blr r) reg;
      map (fun r -> Instr.Br r) reg;
      return (Instr.Ret Reg.lr);
      return Instr.Retaa;
      map2 (fun a b -> Instr.Pacia (a, b)) reg any_reg;
      map2 (fun a b -> Instr.Autia (a, b)) reg any_reg;
      return Instr.Paciasp;
      return Instr.Autiasp;
      map (fun r -> Instr.Xpaci r) reg;
      map3 (fun a b c -> Instr.Pacga (a, b, c)) reg reg reg;
      map (fun n -> Instr.Svc n) (int_range 0 255);
      return Instr.Nop;
      return Instr.Hlt;
      map (fun l -> Instr.Hook l) label;
    ]

let prop_encode_roundtrip_valid =
  qtest "encode/decode roundtrip, valid operands" 2000 valid_instr_gen (fun ins ->
      let words, pools = Encode.encode [| ins |] in
      Encode.decode words.(0) pools = ins)

(* One instance of every constructor with extreme-but-legal operands,
   encoded as one sequence: deterministic coverage of the whole ISA,
   independent of generator luck. *)
let test_encode_all_constructors () =
  let m = { Instr.base = Reg.SP; offset = 2047; index = Instr.Offset } in
  let m' = { Instr.base = Reg.x 30; offset = -2048; index = Instr.Pre } in
  let pm = { Instr.base = Reg.SP; offset = -256; index = Instr.Post } in
  let pm' = { Instr.base = Reg.x 0; offset = 248; index = Instr.Offset } in
  let every =
    [
      Instr.Add (Reg.x 0, Reg.x 30, Instr.Imm Int64.min_int);
      Instr.Sub (Reg.x 1, Reg.x 2, Instr.Reg (Reg.x 3));
      Instr.Mul (Reg.x 4, Reg.x 5, Reg.x 6);
      Instr.Udiv (Reg.x 7, Reg.x 8, Reg.x 9);
      Instr.And_ (Reg.x 10, Reg.x 11, Instr.Imm (-1L));
      Instr.Orr (Reg.x 12, Reg.x 13, Instr.Reg Reg.XZR);
      Instr.Eor (Reg.x 14, Reg.x 15, Instr.Imm Int64.max_int);
      Instr.Lsl_ (Reg.x 16, Reg.x 17, Instr.Imm 63L);
      Instr.Lsr_ (Reg.x 18, Reg.x 19, Instr.Reg (Reg.x 20));
      Instr.Mov (Reg.x 21, Instr.Imm 0x123456789abcdefL);
      Instr.Cmp (Reg.x 22, Instr.Imm 0L);
      Instr.Adr (Reg.x 23, "sym");
      Instr.Ldr (Reg.x 24, m);
      Instr.Str (Reg.x 25, m');
      Instr.Ldrb (Reg.x 26, m);
      Instr.Strb (Reg.x 27, m');
      Instr.Ldp (Reg.x 28, Reg.x 29, pm);
      Instr.Stp (Reg.x 0, Reg.x 1, pm');
      Instr.B "sym";
      Instr.Bcond (Cond.LO, "sym");
      Instr.Cbz (Reg.x 2, "sym");
      Instr.Cbnz (Reg.x 3, "other");
      Instr.Bl "other";
      Instr.Blr (Reg.x 4);
      Instr.Br (Reg.x 5);
      Instr.Ret (Reg.x 30);
      Instr.Retaa;
      Instr.Pacia (Reg.x 6, Reg.SP);
      Instr.Autia (Reg.x 7, Reg.SP);
      Instr.Paciasp;
      Instr.Autiasp;
      Instr.Xpaci (Reg.x 8);
      Instr.Pacga (Reg.x 9, Reg.x 10, Reg.x 11);
      Instr.Svc 255;
      Instr.Nop;
      Instr.Hlt;
      Instr.Hook "h";
    ]
  in
  let words, pools = Encode.encode (Array.of_list every) in
  Alcotest.(check int) "one word each" (List.length every) (Array.length words);
  Alcotest.(check bool) "decode_all inverts every constructor" true
    (Encode.decode_all words pools = every)

let test_encode_sequence () =
  let instrs =
    [
      Instr.Mov (Reg.x 0, Instr.Imm 0x123456789abcdefL);
      Instr.Add (Reg.x 1, Reg.x 0, Instr.Imm 5L);
      Instr.Stp (Reg.fp, Reg.lr, { Instr.base = Reg.SP; offset = -16; index = Instr.Pre });
      Instr.Bl "callee";
      Instr.Ldp (Reg.fp, Reg.lr, { Instr.base = Reg.SP; offset = 16; index = Instr.Post });
      Instr.Ret Reg.lr;
    ]
  in
  let words, pools = Encode.encode (Array.of_list instrs) in
  Alcotest.(check int) "one word per instruction" (List.length instrs) (Array.length words);
  Alcotest.(check bool) "decode_all inverts" true (Encode.decode_all words pools = instrs)

let test_encode_pools_interned () =
  let instrs =
    [ Instr.Mov (Reg.x 0, Instr.Imm 7L); Instr.Mov (Reg.x 1, Instr.Imm 7L); Instr.B "l"; Instr.Bl "l" ]
  in
  let _, pools = Encode.encode (Array.of_list instrs) in
  Alcotest.(check int) "constant interned" 1 (Array.length pools.Encode.constants);
  Alcotest.(check int) "symbol interned" 1 (Array.length pools.Encode.symbols)

(* [validate] refuses exactly what [encode] refuses, with its message,
   at every limit: the range checks, and past 2^14 distinct constants
   the pool overflow that only a full encoding finds. *)
let test_encode_limits () =
  let agree what instrs =
    Alcotest.(check (option string)) (what ^ ": validate agrees")
      (refusal Encode.encode instrs) (refusal Encode.validate instrs)
  in
  let reject i =
    if refusal Encode.encode [| i |] = None then Alcotest.fail "expected Unencodable";
    agree (Instr.to_string i) [| i |]
  in
  let accept i =
    if refusal Encode.encode [| i |] <> None then Alcotest.fail "expected encodable";
    agree (Instr.to_string i) [| i |]
  in
  let at offset = { Instr.base = Reg.SP; offset; index = Instr.Offset } in
  reject (Instr.Ldr (Reg.x 0, at 5000));
  reject (Instr.Ldr (Reg.x 0, at 2048));
  reject (Instr.Strb (Reg.x 0, at (-2049)));
  accept (Instr.Ldr (Reg.x 0, at 2047));
  accept (Instr.Strb (Reg.x 0, at (-2048)));
  reject (Instr.Ldp (Reg.x 0, Reg.x 1, at 12));
  reject (Instr.Stp (Reg.x 0, Reg.x 1, at 512));
  reject (Instr.Stp (Reg.x 0, Reg.x 1, at (-264)));
  accept (Instr.Ldp (Reg.x 0, Reg.x 1, at 248));
  accept (Instr.Stp (Reg.x 0, Reg.x 1, at (-256)));
  reject (Instr.Svc 300);
  reject (Instr.Svc (-1));
  accept (Instr.Svc 255);
  let constants n = Array.init n (fun i -> Instr.Mov (Reg.x 0, Instr.Imm (Int64.of_int i))) in
  agree "2^14 distinct constants" (constants (1 lsl 14));
  Alcotest.(check (option string)) "2^14 + 1 distinct constants" (Some "pool overflow")
    (refusal Encode.validate (constants ((1 lsl 14) + 1)))

let test_disassemble () =
  let instrs = [ Instr.Paciasp; Instr.Nop; Instr.Retaa ] in
  let words, pools = Encode.encode (Array.of_list instrs) in
  Alcotest.(check string) "disassembly" "paciasp\nnop\nretaa" (Encode.disassemble words pools)

(* --- Program / Asm -------------------------------------------------------------- *)

let simple_src =
  ".data buf 64\n.entry main\n.func main\n  mov x0, #0\nloop:\n  add x0, x0, #1\n  cmp x0, #3\n  b.lt loop\n  hlt\n.endfunc\n"

let test_asm_parse_program () =
  let p = Asm.parse simple_src in
  Alcotest.(check string) "entry" "main" p.Program.entry;
  Alcotest.(check int) "one data object" 1 (List.length p.Program.data);
  Alcotest.(check int) "5 instructions" 5 (Program.instruction_count p)

let test_asm_program_roundtrip () =
  let p = Asm.parse simple_src in
  let p2 = Asm.parse (Asm.print p) in
  Alcotest.(check string) "same printed form" (Asm.print p) (Asm.print p2)

let test_asm_comments () =
  let p = Asm.parse ".entry main\n.func main ; comment\n  nop // trailing\n  hlt\n.endfunc\n" in
  Alcotest.(check int) "comments stripped" 2 (Program.instruction_count p)

let expect_parse_error src =
  match Asm.parse src with
  | exception Asm.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected parse error"

let test_asm_errors () =
  expect_parse_error ".func f\n nop\n.endfunc\n";  (* no entry *)
  expect_parse_error ".entry f\n.func f\n bogus x0\n.endfunc\n";
  expect_parse_error ".entry f\n.func f\n nop\n";  (* missing endfunc *)
  expect_parse_error ".entry f\nnop\n";  (* instruction outside func *)
  expect_parse_error ".entry f\n.func f\n mov x0, #zz\n.endfunc\n"

let test_program_validation () =
  let f name body = Program.func name (List.map (fun i -> Program.Ins i) body) in
  Alcotest.check_raises "missing entry"
    (Invalid_argument "Program: entry symbol nope undefined") (fun () ->
      ignore (Program.make ~entry:"nope" [ f "main" [ Instr.Hlt ] ]));
  Alcotest.check_raises "duplicate symbol"
    (Invalid_argument "Program: duplicate function symbol main") (fun () ->
      ignore (Program.make ~entry:"main" [ f "main" [ Instr.Hlt ]; f "main" [ Instr.Nop ] ]));
  Alcotest.check_raises "unknown label"
    (Invalid_argument "Program: unknown label nowhere in main") (fun () ->
      ignore (Program.make ~entry:"main" [ f "main" [ Instr.B "nowhere" ] ]));
  Alcotest.check_raises "duplicate label"
    (Invalid_argument "Program: duplicate label l in main") (fun () ->
      ignore
        (Program.make ~entry:"main"
           [ Program.func "main" [ Program.Lbl "l"; Program.Lbl "l"; Program.Ins Instr.Hlt ] ]));
  Alcotest.check_raises "bad data size"
    (Invalid_argument "Program: data d has size 0") (fun () ->
      ignore
        (Program.make ~entry:"main" ~data:[ { Program.dname = "d"; size = 0 } ]
           [ f "main" [ Instr.Hlt ] ]))

let test_program_cross_function_symbols () =
  (* labels can reference other functions and data *)
  let p =
    Program.make ~entry:"main"
      ~data:[ { Program.dname = "buf"; size = 8 } ]
      [
        Program.func "main"
          [ Program.Ins (Instr.Adr (Reg.x 0, "buf")); Program.Ins (Instr.Bl "helper");
            Program.Ins Instr.Hlt ];
        Program.func "helper" [ Program.Ins (Instr.Ret Reg.lr) ];
      ]
  in
  Alcotest.(check (list string)) "symbols" [ "main"; "helper"; "buf" ] (Program.symbols p)

(* --- Symbol table ------------------------------------------------------------ *)

(* Program.make is the one symbol check: functions and data share one
   namespace, and map_funcs re-validates what a rewrite produces. *)
let test_symbol_data_clash () =
  let main = Program.func "main" [ Program.Ins Instr.Hlt ] in
  Alcotest.check_raises "data named like a function"
    (Invalid_argument "Program: duplicate data symbol main") (fun () ->
      ignore (Program.make ~entry:"main" ~data:[ { Program.dname = "main"; size = 8 } ] [ main ]));
  Alcotest.check_raises "data defined twice"
    (Invalid_argument "Program: duplicate data symbol buf") (fun () ->
      ignore
        (Program.make ~entry:"main"
           ~data:[ { Program.dname = "buf"; size = 8 }; { Program.dname = "buf"; size = 16 } ]
           [ main ]))

let test_symbol_map_funcs_revalidates () =
  let p =
    Program.make ~entry:"main"
      [
        Program.func "main" [ Program.Ins (Instr.Bl "helper"); Program.Ins Instr.Hlt ];
        Program.func "helper" [ Program.Ins (Instr.Ret Reg.lr) ];
      ]
  in
  let renamed =
    Program.map_funcs
      (fun f -> if f.Program.name = "helper" then { f with Program.name = "helper2" } else f)
  in
  Alcotest.check_raises "rewrite leaves a call dangling"
    (Invalid_argument "Program: unknown label helper in main") (fun () -> ignore (renamed p));
  Alcotest.(check bool) "identity rewrite keeps the program" true
    (Program.map_funcs (fun f -> f) p = p)

let () =
  Alcotest.run "isa"
    [
      ( "reg",
        [
          Alcotest.test_case "string roundtrip" `Quick test_reg_roundtrip;
          Alcotest.test_case "aliases" `Quick test_reg_aliases;
          Alcotest.test_case "callee-saved" `Quick test_callee_saved;
        ] );
      ( "cond",
        [
          Alcotest.test_case "negate involution" `Quick test_cond_negate_involution;
          Alcotest.test_case "string roundtrip" `Quick test_cond_string_roundtrip;
          prop_cond_semantics;
          Alcotest.test_case "negation semantics" `Quick test_cond_negation_semantics;
        ] );
      ( "instr",
        [
          prop_asm_roundtrip;
          Alcotest.test_case "cycle model" `Quick test_cycles_model;
          Alcotest.test_case "reads_label" `Quick test_reads_label;
        ] );
      ( "encode",
        [
          prop_encode_roundtrip;
          prop_encode_roundtrip_valid;
          Alcotest.test_case "every constructor" `Quick test_encode_all_constructors;
          Alcotest.test_case "sequence" `Quick test_encode_sequence;
          Alcotest.test_case "pool interning" `Quick test_encode_pools_interned;
          Alcotest.test_case "limits" `Quick test_encode_limits;
          Alcotest.test_case "disassembly" `Quick test_disassemble;
        ] );
      ( "asm+program",
        [
          Alcotest.test_case "parse program" `Quick test_asm_parse_program;
          Alcotest.test_case "program roundtrip" `Quick test_asm_program_roundtrip;
          Alcotest.test_case "comments" `Quick test_asm_comments;
          Alcotest.test_case "parse errors" `Quick test_asm_errors;
          Alcotest.test_case "validation" `Quick test_program_validation;
          Alcotest.test_case "cross-function symbols" `Quick test_program_cross_function_symbols;
        ] );
      ( "symbol-table",
        [
          Alcotest.test_case "function/data clash" `Quick test_symbol_data_clash;
          Alcotest.test_case "map_funcs revalidates" `Quick test_symbol_map_funcs_revalidates;
        ] );
    ]

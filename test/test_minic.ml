(* Tests for the mini-C compiler: front-end validation, code-generation
   semantics checked by execution, and a cross-scheme equivalence property
   on randomly generated programs (hardening must never change program
   behaviour). *)

module Ast = Pacstack_minic.Ast
module B = Pacstack_minic.Build
module Compile = Pacstack_minic.Compile
module Scheme = Pacstack_harden.Scheme
module Machine = Pacstack_machine.Machine
module Trap = Pacstack_machine.Trap
module Frame = Pacstack_harden.Frame

let qtest name count gen prop = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

let run_program ?(scheme = Scheme.unprotected) prog =
  let compiled = Compile.compile ~scheme prog in
  let m = Machine.load compiled in
  match Machine.run ~fuel:1_000_000 m with
  | Machine.Halted 0 -> Machine.output m
  | Machine.Halted c -> Alcotest.fail (Printf.sprintf "exit %d" c)
  | Machine.Faulted f -> Alcotest.fail (Trap.to_string f)
  | Machine.Out_of_fuel -> Alcotest.fail "fuel"

let expect ?scheme prog out = Alcotest.(check (list int64)) "output" out (run_program ?scheme prog)

let main ?locals body = Ast.program [ Ast.fdef "main" ?locals body ]

(* --- semantics -------------------------------------------------------------- *)

let test_arith () =
  expect
    (main
       B.[
         print ((i 2 + i 3) * i 4);
         print (i 10 - i 3);
         print (i 17 / i 5);
         print (i 12 land i 10);
         print (i 12 lor i 10);
         print (i 12 lxor i 10);
         print (i 3 lsl i 4);
         print (i 48 lsr i 4);
         ret (i 0);
       ])
    [ 20L; 7L; 3L; 8L; 14L; 6L; 48L; 3L ]

let test_locals_and_if () =
  expect
    (main ~locals:[ Ast.Scalar "x"; Ast.Scalar "y" ]
       B.[
         set "x" (i 5);
         set "y" (i 7);
         if_ (v "x" < v "y") [ print (i 1) ] [ print (i 2) ];
         if_ (v "x" == v "y") [ print (i 3) ] [ print (i 4) ];
         if_ (v "x" != v "y") [ print (i 5) ] [];
         ret (i 0);
       ])
    [ 1L; 4L; 5L ]

let test_while_and_for () =
  expect
    (main ~locals:[ Ast.Scalar "k"; Ast.Scalar "s" ]
       B.[
         set "s" (i 0);
         set "k" (i 0);
         while_ (v "k" < i 5) [ set "s" (v "s" + v "k"); set "k" (v "k" + i 1) ];
         print (v "s");
         for_ "k" ~from:(i 1) ~below:(i 4) [ set "s" (v "s" * v "k") ];
         print (v "s");
         ret (i 0);
       ])
    [ 10L; 60L ]

let test_arrays () =
  expect
    (main ~locals:[ Ast.Array ("a", 32); Ast.Scalar "k"; Ast.Scalar "s" ]
       B.[
         for_ "k" ~from:(i 0) ~below:(i 4) [ store (idx "a" (v "k" lsl i 3)) (v "k" * v "k") ];
         set "s" (i 0);
         for_ "k" ~from:(i 0) ~below:(i 4) [ set "s" (v "s" + load (idx "a" (v "k" lsl i 3))) ];
         print (v "s");
         store8 (idx "a" (i 1)) (i 300);
         print (load8 (idx "a" (i 1)));
         ret (i 0);
       ])
    [ 14L; 44L ]

let test_globals () =
  expect
    (Ast.program ~globals:[ ("g", 16) ]
       [
         Ast.fdef "main"
           B.[
             store (glob "g") (i 11);
             store (glob "g" + i 8) (i 31);
             print (load (glob "g") + load (glob "g" + i 8));
             ret (i 0);
           ];
       ])
    [ 42L ]

let test_calls () =
  expect
    (Ast.program
       [
         Ast.fdef "add" ~params:[ "a"; "b" ] B.[ ret (v "a" + v "b") ];
         Ast.fdef "main" B.[ print (call "add" [ i 40; i 2 ]); ret (i 0) ];
       ])
    [ 42L ]

let test_six_args () =
  expect
    (Ast.program
       [
         Ast.fdef "pack" ~params:[ "a"; "b"; "c"; "d"; "e"; "f" ]
           B.[ ret (v "a" + (v "b" * i 10) + (v "c" * i 100) + (v "d" * i 1000) + (v "e" * i 10000) + (v "f" * i 100000)) ];
         Ast.fdef "main"
           B.[ print (call "pack" [ i 1; i 2; i 3; i 4; i 5; i 6 ]); ret (i 0) ];
       ])
    [ 654321L ]

let test_nested_calls_spill () =
  (* calls nested inside argument lists force temporaries to be spilled
     around the inner calls *)
  expect
    (Ast.program
       [
         Ast.fdef "double" ~params:[ "x" ] B.[ ret (v "x" * i 2) ];
         Ast.fdef "add" ~params:[ "a"; "b" ] B.[ ret (v "a" + v "b") ];
         Ast.fdef "main"
           B.[
             print (call "add" [ call "double" [ i 3 ]; call "double" [ i 4 ] ]);
             print (call "double" [ i 100 ] + call "add" [ call "double" [ i 1 ]; i 5 ]);
             ret (i 0);
           ];
       ])
    [ 14L; 207L ]

let test_call_ptr () =
  expect
    (Ast.program
       [
         Ast.fdef "inc" ~params:[ "x" ] B.[ ret (v "x" + i 1) ];
         Ast.fdef "main" ~locals:[ Ast.Scalar "f" ]
           B.[
             set "f" (fn "inc");
             print (Ast.Call_ptr (v "f", [ i 9 ]));
             ret (i 0);
           ];
       ])
    [ 10L ]

let test_recursion () =
  expect
    (Ast.program
       [
         Ast.fdef "fact" ~params:[ "n" ] ~locals:[ Ast.Scalar "r" ]
           B.[
             if_ (v "n" <= i 1) [ ret (i 1) ] [];
             set "r" (call "fact" [ v "n" - i 1 ]);
             ret (v "n" * v "r");
           ];
         Ast.fdef "main" B.[ print (call "fact" [ i 10 ]); ret (i 0) ];
       ])
    [ 3628800L ]

let test_tail_call_all_schemes () =
  let prog =
    Ast.program
      [
        Ast.fdef "count" ~params:[ "n"; "acc" ]
          B.[
            if_ (v "n" == i 0) [ ret (v "acc") ] [];
            Ast.Tail_call ("count", [ v "n" - i 1; v "acc" + i 2 ]);
          ];
        Ast.fdef "main" B.[ print (call "count" [ i 50; i 0 ]); ret (i 0) ];
      ]
  in
  List.iter (fun scheme -> expect ~scheme prog [ 100L ]) Scheme.all

let test_setjmp_all_schemes () =
  let prog =
    Ast.program ~globals:[ ("jb", 128) ]
      [
        Ast.fdef "thrower" B.[ Ast.Longjmp (glob "jb", i 13); ret (i 99) ];
        Ast.fdef "main" ~locals:[ Ast.Scalar "r"; Ast.Scalar "x" ]
          B.[
            Ast.Setjmp ("r", glob "jb");
            if_ (v "r" != i 0) [ print (v "r"); ret (i 0) ] [];
            set "x" (call "thrower" []);
            print (v "x");
            ret (i 0);
          ];
      ]
  in
  List.iter (fun scheme -> expect ~scheme prog [ 13L ]) Scheme.all

let test_block () =
  expect (main B.[ Ast.Block [ print (i 1); Ast.Block [ print (i 2) ] ]; ret (i 0) ]) [ 1L; 2L ]

(* --- front-end validation ------------------------------------------------------ *)

let expect_error f =
  match f () with
  | exception Compile.Error _ -> ()
  | _ -> Alcotest.fail "expected Compile.Error"

let test_unknown_variable () =
  expect_error (fun () -> Compile.compile ~scheme:Scheme.unprotected (main B.[ ret (v "nope") ]))

let test_duplicate_variable () =
  expect_error (fun () ->
      Compile.compile ~scheme:Scheme.unprotected
        (main ~locals:[ Ast.Scalar "x"; Ast.Scalar "x" ] B.[ ret (i 0) ]))

let test_too_many_args () =
  expect_error (fun () ->
      Compile.compile ~scheme:Scheme.unprotected
        (Ast.program
           [
             Ast.fdef "f" ~params:[ "a" ] B.[ ret (v "a") ];
             Ast.fdef "main" B.[ ret (call "f" [ i 1; i 2; i 3; i 4; i 5; i 6; i 7 ]) ];
           ]))

let test_expression_too_deep () =
  let rec deep n = if n = 0 then B.i 1 else B.( + ) (deep (n - 1)) (deep (n - 1)) in
  expect_error (fun () ->
      Compile.compile ~scheme:Scheme.unprotected (main B.[ ret (deep 8) ]))

let test_bad_array_size () =
  expect_error (fun () ->
      Compile.compile ~scheme:Scheme.unprotected
        (main ~locals:[ Ast.Array ("a", 0) ] B.[ ret (i 0) ]))

let test_undefined_function () =
  expect_error (fun () ->
      Compile.compile ~scheme:Scheme.unprotected
        (main B.[ print (call "nowhere" [ i 1 ]); ret (i 0) ]))

(* --- traits --------------------------------------------------------------------- *)

let test_function_traits () =
  let leaf = Ast.fdef "f" ~params:[ "x" ] B.[ ret (v "x" + i 1) ] in
  let t = Compile.function_traits leaf in
  Alcotest.(check bool) "leaf" true t.Frame.is_leaf;
  Alcotest.(check bool) "no arrays" false t.Frame.has_arrays;
  let caller = Ast.fdef "g" ~locals:[ Ast.Array ("buf", 24) ] B.[ ret (call "f" [ i 1 ]) ] in
  let t = Compile.function_traits caller in
  Alcotest.(check bool) "non-leaf" false t.Frame.is_leaf;
  Alcotest.(check bool) "arrays" true t.Frame.has_arrays;
  (* 24-byte array padded to 8-alignment, plus 48 spill bytes, 16-aligned *)
  Alcotest.(check int) "locals bytes" 80 t.Frame.locals_bytes

let test_tail_call_counts_as_call () =
  let f = Ast.fdef "f" ~params:[ "x" ] [ Ast.Tail_call ("f", [ B.(v "x") ]) ] in
  Alcotest.(check bool) "tail-caller not leaf" false (Compile.function_traits f).Frame.is_leaf

(* --- semantic checker --------------------------------------------------------------- *)

module Check = Pacstack_minic.Check

let string_contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let has_error diags needle =
  List.exists
    (fun d -> d.Check.severity = Check.Error && string_contains d.Check.message needle)
    diags

let test_check_arity () =
  let prog =
    Ast.program
      [
        Ast.fdef "f" ~params:[ "a"; "b" ] B.[ ret (v "a" + v "b") ];
        Ast.fdef "main" B.[ print (call "f" [ i 1 ]); ret (i 0) ];
      ]
  in
  Alcotest.(check bool) "arity error" true (has_error (Check.program prog) "expected 2");
  match Check.check_exn prog with
  | exception Compile.Error _ -> ()
  | _ -> Alcotest.fail "check_exn accepted bad arity"

let test_check_unreachable () =
  let prog = Ast.program [ Ast.fdef "main" B.[ ret (i 0); print (i 1) ] ] in
  let diags = Check.program prog in
  Alcotest.(check bool) "unreachable warning" true
    (List.exists (fun d -> d.Check.severity = Check.Warning) diags);
  Alcotest.(check int) "warnings are not errors" 0 (List.length (Check.errors prog))

let test_check_uninitialised () =
  let prog =
    Ast.program [ Ast.fdef "main" ~locals:[ Ast.Scalar "x" ] B.[ print (v "x"); ret (i 0) ] ]
  in
  Alcotest.(check bool) "uninitialised read warning" true
    (List.exists
       (fun d -> d.Check.severity = Check.Warning)
       (Check.program prog))

let test_check_duplicate_function () =
  let prog =
    Ast.program
      [ Ast.fdef "main" B.[ ret (i 0) ]; Ast.fdef "main" B.[ ret (i 1) ] ]
  in
  Alcotest.(check bool) "duplicate function" true
    (Check.errors prog <> [])

let test_check_clean_program () =
  let prog =
    Ast.program
      [
        Ast.fdef "f" ~params:[ "a" ] B.[ ret (v "a" + i 1) ];
        Ast.fdef "main" ~locals:[ Ast.Scalar "x" ]
          B.[ set "x" (call "f" [ i 1 ]); print (v "x"); ret (i 0) ];
      ]
  in
  Alcotest.(check int) "no diagnostics" 0 (List.length (Check.program prog))

(* --- exceptions (Try/Throw) ------------------------------------------------------- *)

let exn_prog =
  Ast.program
    [
      Ast.fdef "risky" ~params:[ "n" ]
        B.[
          if_ (v "n" > i 5) [ throw (v "n") ] [];
          ret (v "n" * i 2);
        ];
      Ast.fdef "middle" ~params:[ "n" ] ~locals:[ Ast.Scalar "t" ]
        B.[ set "t" (call "risky" [ v "n" ]); ret (v "t" + i 1) ];
      Ast.fdef "main"
        B.[
          try_
            [ print (call "middle" [ i 3 ]); print (call "middle" [ i 9 ]); print (i 999) ]
            "e"
            [ print (v "e" + i 100) ];
          ret (i 0);
        ];
    ]

let test_exceptions_all_schemes () =
  (* throw propagates across two frames into the handler, under every
     hardening scheme *)
  List.iter (fun scheme -> expect ~scheme exn_prog [ 7L; 109L ]) Scheme.all

let test_exceptions_nested_rethrow () =
  let prog =
    Ast.program
      [
        Ast.fdef "main"
          B.[
            try_
              [ try_ [ throw (i 42) ] "x" [ print (v "x"); throw (i 43) ]; print (i 888) ]
              "y"
              [ print (v "y") ];
            ret (i 0);
          ];
      ]
  in
  expect ~scheme:Scheme.pacstack prog [ 42L; 43L ]

let test_exceptions_uncaught () =
  let prog = Ast.program [ Ast.fdef "main" B.[ throw (i 7); ret (i 0) ] ] in
  let m = Machine.load (Compile.compile ~scheme:Scheme.pacstack prog) in
  match Machine.run ~fuel:100_000 m with
  | Machine.Halted c ->
    Alcotest.(check int) "uncaught exit code" Pacstack_minic.Exceptions.uncaught_exit_code c
  | _ -> Alcotest.fail "expected a halt"

let test_exceptions_throw_zero () =
  let prog =
    Ast.program
      [ Ast.fdef "main" B.[ try_ [ throw (i 0) ] "e" [ print (v "e") ]; ret (i 0) ] ]
  in
  (* longjmp semantics: a thrown 0 arrives as 1 *)
  expect ~scheme:Scheme.pacstack prog [ 1L ]

let test_exceptions_desugar_idempotent () =
  let once = Pacstack_minic.Exceptions.desugar exn_prog in
  let twice = Pacstack_minic.Exceptions.desugar once in
  Alcotest.(check int) "no further rewriting" (List.length once.Ast.fundefs)
    (List.length twice.Ast.fundefs)

(* --- peephole ----------------------------------------------------------------------- *)

module Peephole = Pacstack_minic.Peephole
module Program = Pacstack_isa.Program
module Instr = Pacstack_isa.Instr
module Reg = Pacstack_isa.Reg

let test_peephole_patterns () =
  let mem0 = { Instr.base = Reg.SP; offset = 8; index = Instr.Offset } in
  let f =
    Program.func "f"
      [
        Program.Ins (Instr.Mov (Reg.x 1, Instr.Reg (Reg.x 1)));
        Program.Ins (Instr.Add (Reg.x 2, Reg.x 2, Instr.Imm 0L));
        Program.Ins (Instr.Str (Reg.x 3, mem0));
        Program.Ins (Instr.Ldr (Reg.x 3, mem0));
        Program.Ins (Instr.B ".L0");
        Program.Lbl ".L0";
        Program.Ins (Instr.Ret Reg.lr);
      ]
  in
  let f' = Peephole.function_pass f in
  Alcotest.(check int) "four of six instructions removed" 2
    (List.length (Program.instructions f'));
  Alcotest.(check bool) "store kept" true
    (List.mem (Instr.Str (Reg.x 3, mem0)) (Program.instructions f'))

let test_peephole_preserves_semantics () =
  let out prog optimize =
    let compiled = Compile.compile ~scheme:Scheme.pacstack ~optimize prog in
    let m = Machine.load compiled in
    match Machine.run ~fuel:2_000_000 m with
    | Machine.Halted 0 -> Machine.output m
    | _ -> Alcotest.fail "run failed"
  in
  List.iter
    (fun prog ->
      Alcotest.(check (list int64)) "optimized output equal" (out prog false) (out prog true))
    [ exn_prog ]

(* Property form of semantics preservation: random whole programs from
   the fuzz generator (functions, arrays, indirect calls, setjmp,
   exceptions), compiled with and without the peephole under two
   schemes, must produce identical machine traces. *)
let prop_peephole_preserves =
  let module Oracle = Pacstack_fuzz.Oracle in
  let module Trace = Pacstack_fuzz.Trace in
  qtest "peephole preserves random-program traces" 30
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let prog = Pacstack_fuzz.Driver.program_of_seed ~campaign_seed:23L seed in
      List.for_all
        (fun scheme ->
          Trace.equal
            (Oracle.machine_trace Oracle.default_config ~scheme ~optimize:false prog)
            (Oracle.machine_trace Oracle.default_config ~scheme ~optimize:true prog))
        [ Scheme.unprotected; Scheme.pacstack ])

let test_peephole_reduces () =
  let prog =
    Ast.program
      [
        Ast.fdef "main" ~locals:[ Ast.Scalar "x" ]
          B.[ set "x" (i 5); print (v "x"); ret (i 0) ];
      ]
  in
  let plain = Compile.compile ~scheme:Scheme.unprotected prog in
  let opt = Compile.compile ~scheme:Scheme.unprotected ~optimize:true prog in
  Alcotest.(check bool) "strictly fewer instructions" true
    (Peephole.removed_count plain opt > 0)

(* The peephole as it was before it became one pass, kept as the
   reference: one pass of the three rewrites, rerun until nothing
   changes. *)
module Fixpoint_reference = struct
  let is_self_move = function
    | Instr.Mov (rd, Instr.Reg rs) -> Reg.equal rd rs
    | Instr.Add (rd, rn, Instr.Imm 0L) | Instr.Sub (rd, rn, Instr.Imm 0L) -> Reg.equal rd rn
    | _ -> false

  let redundant_reload a b =
    match a, b with
    | ( Instr.Str (r1, { Instr.base = b1; offset = o1; index = Instr.Offset }),
        Instr.Ldr (r2, { Instr.base = b2; offset = o2; index = Instr.Offset }) ) ->
      Reg.equal r1 r2 && Reg.equal b1 b2 && o1 = o2
    | _ -> false

  let branch_to_next a rest =
    match a, rest with
    | Instr.B target, Program.Lbl l :: _ -> l = target
    | _ -> false

  let rec optimize_items = function
    | [] -> []
    | Program.Ins i :: rest when is_self_move i -> optimize_items rest
    | Program.Ins i :: rest when branch_to_next i rest -> optimize_items rest
    | Program.Ins a :: Program.Ins b :: rest when redundant_reload a b ->
      optimize_items (Program.Ins a :: rest)
    | item :: rest -> item :: optimize_items rest

  let rec fixpoint items =
    let items' = optimize_items items in
    if List.length items' = List.length items then items else fixpoint items'
end

let fuzz_programs = 200

(* The fuzz oracle derives each scheme's peephole variant from one
   unoptimised compile; it must be exactly the optimised compile. *)
let test_peephole_derived_variant () =
  for seed = 0 to fuzz_programs - 1 do
    let prog = Pacstack_fuzz.Driver.program_of_seed ~campaign_seed:1L seed in
    List.iter
      (fun scheme ->
        if
          Peephole.program_pass (Compile.compile ~scheme prog)
          <> Compile.compile ~scheme ~optimize:true prog
        then Alcotest.failf "seed %d / %s: derived variant differs" seed (Scheme.to_string scheme))
      Scheme.all
  done

let check_against_fixpoint what body =
  let single = (Peephole.function_pass (Program.func "f" body)).Program.body in
  if single <> Fixpoint_reference.fixpoint body then
    Alcotest.failf "%s: single pass differs from the fixpoint" what

let test_peephole_single_pass_fuzz () =
  for seed = 0 to fuzz_programs - 1 do
    let prog = Pacstack_fuzz.Driver.program_of_seed ~campaign_seed:1L seed in
    List.iter
      (fun scheme ->
        List.iter
          (fun (f : Program.func) ->
            check_against_fixpoint
              (Printf.sprintf "seed %d / %s / %s" seed (Scheme.to_string scheme) f.name)
              f.body)
          (Compile.compile ~scheme prog).funcs)
      Scheme.all
  done

(* Dense in the three rewrites and in the items that make or break them:
   self moves next to real moves, stores and reloads over two registers
   and two slots (one pre-indexed), and branches and labels over two
   names. *)
let gen_peephole_body =
  let open QCheck2.Gen in
  let reg = oneofl [ Reg.x 9; Reg.x 10 ] in
  let slot =
    oneofl
      [
        { Instr.base = Reg.SP; offset = 8; index = Instr.Offset };
        { Instr.base = Reg.SP; offset = 16; index = Instr.Offset };
        { Instr.base = Reg.SP; offset = 8; index = Instr.Pre };
      ]
  in
  let label = oneofl [ ".L0"; ".L1" ] in
  let item =
    oneof
      [
        map (fun r -> Program.Ins (Instr.Mov (r, Instr.Reg r))) reg;
        map2 (fun a b -> Program.Ins (Instr.Mov (a, Instr.Reg b))) reg reg;
        map (fun r -> Program.Ins (Instr.Add (r, r, Instr.Imm 0L))) reg;
        map (fun r -> Program.Ins (Instr.Sub (r, r, Instr.Imm 0L))) reg;
        map2 (fun r m -> Program.Ins (Instr.Str (r, m))) reg slot;
        map2 (fun r m -> Program.Ins (Instr.Ldr (r, m))) reg slot;
        map (fun l -> Program.Ins (Instr.B l)) label;
        map (fun l -> Program.Lbl l) label;
      ]
  in
  list_size (int_range 0 24) item

let prop_peephole_single_pass =
  qtest "single pass equals the fixpoint on random bodies" 2000 gen_peephole_body
    (fun body ->
      (Peephole.function_pass (Program.func "f" body)).Program.body
      = Fixpoint_reference.fixpoint body)

(* --- per-function scheme overrides -------------------------------------------------- *)

(* A PACStack main calls a library function built as baseline. The
   library function calls another one, so it is non-leaf: PACStack would
   sign its return address if the override were ignored (leaves get no
   instrumentation under any scheme). *)
let test_overrides_mix_schemes () =
  let program =
    Compile.compile ~scheme:Scheme.pacstack ~overrides:[ ("lib_add", Scheme.unprotected) ]
      (Ast.program
         [
           Ast.fdef "lib_inc" ~params:[ "a" ] B.[ ret (v "a" + i 1) ];
           Ast.fdef "lib_add" ~params:[ "a"; "b" ] B.[ ret (call "lib_inc" [ v "a" + v "b" ]) ];
           Ast.fdef "main" B.[ print (call "lib_add" [ i 40; i 1 ]); ret (i 0) ];
         ])
  in
  let signs name =
    match Program.find_func program name with
    | None -> Alcotest.fail ("missing " ^ name)
    | Some f ->
      List.exists (function Instr.Pacia _ -> true | _ -> false) (Program.instructions f)
  in
  Alcotest.(check bool) "main signs with pacia" true (signs "main");
  Alcotest.(check bool) "the baseline override emits no pacia" false (signs "lib_add");
  let m = Machine.load program in
  match Machine.run ~fuel:100_000 m with
  | Machine.Halted 0 -> Alcotest.(check (list int64)) "output" [ 42L ] (Machine.output m)
  | Machine.Halted c -> Alcotest.fail (Printf.sprintf "exit %d" c)
  | Machine.Faulted f -> Alcotest.fail (Trap.to_string f)
  | Machine.Out_of_fuel -> Alcotest.fail "fuel"

(* --- concrete syntax --------------------------------------------------------------- *)

module Parse = Pacstack_minic.Parse

let parse_run ?(scheme = Scheme.pacstack) src = run_program ~scheme (Parse.program src)

let test_parse_basics () =
  Alcotest.(check (list int64)) "arithmetic and precedence"
    [ 14L; 2L; 6L; 3L ]
    (parse_run
       {|fn main() {
           print(2 + 3 * 4);
           print(10 / 4);
           print(1 << 3 >> 1 ^ 2);
           print(7 & 3 | 0);
           return 0;
         }|});
  Alcotest.(check (list int64)) "unary minus" [ -5L ]
    (parse_run "fn main() { print(0 - 2 - 3); return 0; }")

let test_parse_control_flow () =
  Alcotest.(check (list int64)) "if/else, while, for"
    [ 1L; 10L; 24L ]
    (parse_run
       {|fn main() {
           var k; var s;
           if (3 < 4) { print(1); } else { print(2); }
           s = 0; k = 0;
           while (k < 5) { s = s + k; k = k + 1; }
           print(s);
           s = 1;
           for (k = 2; k <= 4; k = k + 1) { s = s * k; }
           print(s);
           return 0;
         }|})

let test_parse_memory () =
  Alcotest.(check (list int64)) "arrays, globals, bytes, deref"
    [ 11L; 22L; 200L; 11L ]
    (parse_run
       {|global g[16];
         fn main() {
           array a[16]; var p;
           a[0] = 11; g[1] = 22;
           print(a[0]); print(g[1]);
           store8(&a + 8, 200);
           print(load8(&a + 8));
           p = &a;
           print(*p);
           return 0;
         }|})

let test_parse_functions () =
  Alcotest.(check (list int64)) "calls, tail calls, fn pointers, exceptions"
    [ 21L; 15L; 4L; 1004L ]
    (parse_run
       {|fn gcd(a, b) {
           var r;
           if (b == 0) { return a; }
           r = a - a / b * b;
           tail gcd(b, r);
         }
         fn add(a, b) { return a + b; }
         fn risky(n) { if (n > 3) { throw n + 1000; } return n * 2; }
         fn main() {
           print(gcd(1071, 462));
           print(call(&add, 7, 8));
           try { print(risky(2)); print(risky(4)); } catch (e) { print(e); }
           return 0;
         }|})

let test_parse_setjmp () =
  Alcotest.(check (list int64)) "setjmp/longjmp surface syntax" [ 5L ]
    (parse_run
       {|global jb[128];
         fn deep(n) { if (n == 0) { longjmp(&jb, 5); } deep(n - 1); return 0; }
         fn main() {
           var r; var x;
           r = setjmp(&jb);
           if (r != 0) { print(r); return 0; }
           x = deep(3);
           return 1;
         }|})

let test_parse_errors () =
  let reject src =
    match Parse.program src with
    | exception Parse.Error _ -> ()
    | _ -> Alcotest.fail ("parsed invalid program: " ^ src)
  in
  reject "fn main() { return 0 }";  (* missing semicolon *)
  reject "fn main() { print(1; return 0; }";
  reject "fn main() { if 1 < 2 { } return 0; }";  (* missing parens *)
  reject "fn main() { var x; var x; return 0; }";
  reject "fn f() { return 0; }";  (* no main *)
  reject "fn main() { x = @; }";
  reject "fn main() { try { } return 0; }";  (* try without catch *)
  reject "fn main() { hook(nope); return 0; }"

let test_parse_error_line () =
  match Parse.program "fn main() {
  var x;
  x = ;
  return 0;
}" with
  | exception Parse.Error (3, _) -> ()
  | exception Parse.Error (l, m) -> Alcotest.fail (Printf.sprintf "wrong line %d: %s" l m)
  | _ -> Alcotest.fail "expected parse error"

let test_parse_comments_and_hex () =
  Alcotest.(check (list int64)) "comments and hex literals" [ 255L ]
    (parse_run "// leading comment
fn main() { print(0xff); // trailing
 return 0; }")

(* --- cross-scheme equivalence on random programs -------------------------------- *)

let gen_program =
  let open QCheck2.Gen in
  (* random straight-line arithmetic over three locals plus helper calls *)
  let expr_leaf = oneof [ map B.i (int_range 0 1000); oneofl [ B.v "x"; B.v "y"; B.v "z" ] ] in
  let op = oneofl [ B.( + ); B.( - ); B.( * ); B.( / ); B.( land ); B.( lxor ) ] in
  let expr1 = map3 (fun f a b -> f a b) op expr_leaf expr_leaf in
  let expr =
    oneof [ expr_leaf; expr1; map (fun e -> B.call "mangle" [ e ]) expr1 ]
  in
  let stmt =
    oneof
      [
        map (fun e -> B.set "x" e) expr;
        map (fun e -> B.set "y" e) expr;
        map (fun e -> B.set "z" e) expr;
        map2 (fun e1 e2 -> B.if_ B.(v "x" < v "y") [ B.set "z" e1 ] [ B.set "z" e2 ]) expr expr;
        map (fun e -> B.print e) expr;
      ]
  in
  let body = list_size (int_range 3 15) stmt in
  map
    (fun body ->
      Ast.program
        [
          Ast.fdef "mangle" ~params:[ "v" ] B.[ ret ((v "v" * i 7) lxor (v "v" lsr i 3)) ];
          Ast.fdef "main"
            ~locals:[ Ast.Scalar "x"; Ast.Scalar "y"; Ast.Scalar "z" ]
            (B.[ set "x" (i 3); set "y" (i 17); set "z" (i 0) ]
            @ body
            @ B.[ print (v "x" + v "y" + v "z"); ret (i 0) ]);
        ])
    body

(* random acyclic call graphs: up to 4 helper functions, each possibly
   calling strictly-later helpers, all invoked from main *)
let gen_callgraph_program =
  let open QCheck2.Gen in
  let n_helpers = int_range 1 4 in
  let body_op = oneofl [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Xor; Ast.Shr ] in
  let helper_body idx callees =
    map2
      (fun op target ->
        let base = Ast.Binop (op, Ast.Var "x", Ast.Int (Int64.of_int (3 + idx))) in
        let e =
          match target with
          | Some callee -> Ast.Binop (Ast.Add, base, Ast.Call (callee, [ Ast.Var "x" ]))
          | None -> base
        in
        [ Ast.Return (Some e) ])
      body_op
      (if callees = [] then return None else option (oneofl callees))
  in
  bind n_helpers (fun n ->
      let names = List.init n (fun i -> Printf.sprintf "h%d" i) in
      let rec build i acc =
        if i >= n then return (List.rev acc)
        else
          let callees = List.filteri (fun j _ -> j > i) names in
          bind (helper_body i callees) (fun body ->
              build (i + 1) (Ast.fdef (List.nth names i) ~params:[ "x" ] body :: acc))
      in
      bind (build 0 []) (fun helpers ->
          map
            (fun seeds ->
              let calls =
                List.concat_map
                  (fun seed ->
                    List.map
                      (fun h -> Ast.Print (Ast.Call (h, [ Ast.Int (Int64.of_int seed) ])))
                      names)
                  seeds
              in
              Ast.program (helpers @ [ Ast.fdef "main" (calls @ [ Ast.Return (Some (Ast.Int 0L)) ]) ]))
            (list_size (int_range 1 3) (int_range 0 100))))

let run_all_schemes prog =
  List.map
    (fun scheme ->
      let m = Machine.load (Compile.compile ~scheme prog) in
      match Machine.run ~fuel:2_000_000 m with
      | Machine.Halted 0 -> Machine.output m
      | _ -> [])
    Scheme.all

let prop_callgraphs_equivalent =
  qtest "random call graphs agree across schemes" 40 gen_callgraph_program (fun prog ->
      match run_all_schemes prog with
      | [] -> false
      | first :: rest -> first <> [] && List.for_all (( = ) first) rest)

let prop_schemes_equivalent =
  qtest "all schemes compute identical outputs" 60 gen_program (fun prog ->
      let outputs =
        List.map
          (fun scheme ->
            let m = Machine.load (Compile.compile ~scheme prog) in
            match Machine.run ~fuel:2_000_000 m with
            | Machine.Halted 0 -> Machine.output m
            | _ -> [])
          Scheme.all
      in
      match outputs with
      | [] -> false
      | first :: rest -> first <> [] && List.for_all (( = ) first) rest)

let () =
  Alcotest.run "minic"
    [
      ( "semantics",
        [
          Alcotest.test_case "arithmetic" `Quick test_arith;
          Alcotest.test_case "locals and if" `Quick test_locals_and_if;
          Alcotest.test_case "while and for" `Quick test_while_and_for;
          Alcotest.test_case "arrays" `Quick test_arrays;
          Alcotest.test_case "globals" `Quick test_globals;
          Alcotest.test_case "calls" `Quick test_calls;
          Alcotest.test_case "six arguments" `Quick test_six_args;
          Alcotest.test_case "nested call spilling" `Quick test_nested_calls_spill;
          Alcotest.test_case "indirect calls" `Quick test_call_ptr;
          Alcotest.test_case "recursion" `Quick test_recursion;
          Alcotest.test_case "tail calls, all schemes" `Quick test_tail_call_all_schemes;
          Alcotest.test_case "setjmp/longjmp, all schemes" `Quick test_setjmp_all_schemes;
          Alcotest.test_case "blocks" `Quick test_block;
        ] );
      ( "validation",
        [
          Alcotest.test_case "unknown variable" `Quick test_unknown_variable;
          Alcotest.test_case "duplicate variable" `Quick test_duplicate_variable;
          Alcotest.test_case "too many arguments" `Quick test_too_many_args;
          Alcotest.test_case "expression too deep" `Quick test_expression_too_deep;
          Alcotest.test_case "bad array size" `Quick test_bad_array_size;
          Alcotest.test_case "undefined function" `Quick test_undefined_function;
        ] );
      ( "traits",
        [
          Alcotest.test_case "traits" `Quick test_function_traits;
          Alcotest.test_case "tail call is a call" `Quick test_tail_call_counts_as_call;
        ] );
      ( "parser",
        [
          Alcotest.test_case "basics" `Quick test_parse_basics;
          Alcotest.test_case "control flow" `Quick test_parse_control_flow;
          Alcotest.test_case "memory" `Quick test_parse_memory;
          Alcotest.test_case "functions" `Quick test_parse_functions;
          Alcotest.test_case "setjmp" `Quick test_parse_setjmp;
          Alcotest.test_case "rejects invalid" `Quick test_parse_errors;
          Alcotest.test_case "error line numbers" `Quick test_parse_error_line;
          Alcotest.test_case "comments and hex" `Quick test_parse_comments_and_hex;
        ] );
      ( "checker",
        [
          Alcotest.test_case "arity" `Quick test_check_arity;
          Alcotest.test_case "unreachable" `Quick test_check_unreachable;
          Alcotest.test_case "uninitialised" `Quick test_check_uninitialised;
          Alcotest.test_case "duplicate function" `Quick test_check_duplicate_function;
          Alcotest.test_case "clean program" `Quick test_check_clean_program;
        ] );
      ( "exceptions",
        [
          Alcotest.test_case "all schemes" `Quick test_exceptions_all_schemes;
          Alcotest.test_case "nested rethrow" `Quick test_exceptions_nested_rethrow;
          Alcotest.test_case "uncaught" `Quick test_exceptions_uncaught;
          Alcotest.test_case "throw zero" `Quick test_exceptions_throw_zero;
          Alcotest.test_case "desugar idempotent" `Quick test_exceptions_desugar_idempotent;
        ] );
      ( "peephole",
        [
          Alcotest.test_case "patterns" `Quick test_peephole_patterns;
          Alcotest.test_case "semantics preserved" `Quick test_peephole_preserves_semantics;
          prop_peephole_preserves;
          Alcotest.test_case "reduces code" `Quick test_peephole_reduces;
          Alcotest.test_case "200 seeds x all schemes: derived variant is the optimised compile"
            `Quick test_peephole_derived_variant;
          Alcotest.test_case "200 seeds x all schemes: single pass is the fixpoint" `Quick
            test_peephole_single_pass_fuzz;
          prop_peephole_single_pass;
        ] );
      ( "mixed-scheme-program",
        [ Alcotest.test_case "non-leaf baseline library" `Quick test_overrides_mix_schemes ] );
      ("equivalence", [ prop_schemes_equivalent; prop_callgraphs_equivalent ]);
    ]

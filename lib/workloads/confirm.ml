module Ast = Pacstack_minic.Ast
module B = Pacstack_minic.Build
module Compile = Pacstack_minic.Compile
module Scheme = Pacstack_harden.Scheme
module Machine = Pacstack_machine.Machine
module Kernel = Pacstack_machine.Kernel
module Trap = Pacstack_machine.Trap
module Rng = Pacstack_util.Rng

type test = {
  name : string;
  description : string;
  program : Ast.program;
  expected : int64 list;
  needs_kernel : bool;
  overrides : (string * Scheme.t) list;
}

let test ?(needs_kernel = false) ?(overrides = []) name description program expected =
  { name; description; program; expected; needs_kernel; overrides }

let widx g e = B.(glob g + (e lsl i 3))

let indirect_call =
  test "indirect_call" "call through a function pointer"
    (Ast.program
       [
         Ast.fdef "twice" ~params:[ "x" ] B.[ ret (v "x" * i 2) ];
         Ast.fdef "main" ~locals:[ Ast.Scalar "p"; Ast.Scalar "r" ]
           B.[
             set "p" (fn "twice");
             set "r" (Ast.Call_ptr (v "p", [ i 21 ]));
             print (v "r");
             ret (i 0);
           ];
       ])
    [ 42L ]

let fptr_table =
  test "fptr_table" "dispatch through a function-pointer table in memory"
    (Ast.program
       ~globals:[ ("table", 16) ]
       [
         Ast.fdef "add3" ~params:[ "x" ] B.[ ret (v "x" + i 3) ];
         Ast.fdef "dbl" ~params:[ "x" ] B.[ ret (v "x" * i 2) ];
         Ast.fdef "main" ~locals:[ Ast.Scalar "k"; Ast.Scalar "acc"; Ast.Scalar "f" ]
           B.[
             store (widx "table" (i 0)) (fn "add3");
             store (widx "table" (i 1)) (fn "dbl");
             set "acc" (i 5);
             for_ "k" ~from:(i 0) ~below:(i 4)
               [
                 set "f" (load (widx "table" (v "k" land i 1)));
                 set "acc" (Ast.Call_ptr (v "f", [ v "acc" ]));
               ];
             print (v "acc");
             ret (i 0);
           ];
       ])
    [ 38L ]

let setjmp_basic =
  test "setjmp_longjmp" "longjmp across several frames"
    (Ast.program
       ~globals:[ ("jb", 128) ]
       [
         Ast.fdef "down" ~params:[ "d" ] ~locals:[ Ast.Scalar "r" ]
           B.[
             if_ (v "d" == i 0) [ Ast.Longjmp (glob "jb", i 7) ] [];
             set "r" (call "down" [ v "d" - i 1 ]);
             ret (v "r");
           ];
         Ast.fdef "main" ~locals:[ Ast.Scalar "r"; Ast.Scalar "x" ]
           B.[
             Ast.Setjmp ("r", glob "jb");
             if_ (v "r" != i 0) [ print (v "r"); ret (i 0) ] [];
             set "x" (call "down" [ i 3 ]);
             ret (v "x");
           ];
       ])
    [ 7L ]

let setjmp_twice =
  test "setjmp_twice" "setjmp observed returning twice with correct values"
    (Ast.program
       ~globals:[ ("jb", 128) ]
       [
         Ast.fdef "main" ~locals:[ Ast.Scalar "r" ]
           B.[
             Ast.Setjmp ("r", glob "jb");
             print (v "r");
             if_ (v "r" == i 0) [ Ast.Longjmp (glob "jb", i 9) ] [];
             ret (i 0);
           ];
       ])
    [ 0L; 9L ]

let tail_call =
  test "tail_call" "tail-recursive accumulation via non-linking branches"
    (Ast.program
       [
         Ast.fdef "sum" ~params:[ "n"; "acc" ]
           B.[
             if_ (v "n" == i 0) [ ret (v "acc") ] [];
             Ast.Tail_call ("sum", [ v "n" - i 1; v "acc" + v "n" ]);
           ];
         Ast.fdef "main" ~locals:[ Ast.Scalar "r" ]
           B.[
             set "r" (call "sum" [ i 5; i 0 ]);
             print (v "r");
             ret (i 0);
           ];
       ])
    [ 15L ]

let deep_recursion =
  test "deep_recursion" "400-deep call chain"
    (Ast.program
       [
         Ast.fdef "down" ~params:[ "d" ] ~locals:[ Ast.Scalar "r" ]
           B.[
             if_ (v "d" == i 0) [ ret (i 0) ] [];
             set "r" (call "down" [ v "d" - i 1 ]);
             ret (v "r" + v "d");
           ];
         Ast.fdef "main" ~locals:[ Ast.Scalar "r" ]
           B.[
             set "r" (call "down" [ i 400 ]);
             print (v "r");
             ret (i 0);
           ];
       ])
    [ 80200L ]

let calling_convention =
  test "calling_convention" "six register arguments"
    (Ast.program
       [
         Ast.fdef "weigh" ~params:[ "a"; "b"; "c"; "d"; "e"; "f" ]
           ~locals:[ Ast.Scalar "s" ]
           B.[
             set "s" (v "a" + (v "b" * i 2) + (v "c" * i 3));
             ret (v "s" + (v "d" * i 4) + (v "e" * i 5) + (v "f" * i 6));
           ];
         Ast.fdef "main" ~locals:[ Ast.Scalar "r" ]
           B.[
             set "r" (call "weigh" [ i 1; i 2; i 3; i 4; i 5; i 6 ]);
             print (v "r");
             ret (i 0);
           ];
       ])
    [ 91L ]

let mutual_recursion =
  test "mutual_recursion" "mutually recursive even/odd"
    (Ast.program
       [
         Ast.fdef "is_even" ~params:[ "n" ] ~locals:[ Ast.Scalar "r" ]
           B.[
             if_ (v "n" == i 0) [ ret (i 1) ] [];
             set "r" (call "is_odd" [ v "n" - i 1 ]);
             ret (v "r");
           ];
         Ast.fdef "is_odd" ~params:[ "n" ] ~locals:[ Ast.Scalar "r" ]
           B.[
             if_ (v "n" == i 0) [ ret (i 0) ] [];
             set "r" (call "is_even" [ v "n" - i 1 ]);
             ret (v "r");
           ];
         Ast.fdef "main" ~locals:[ Ast.Scalar "r" ]
           B.[
             set "r" (call "is_even" [ i 10 ]);
             print (v "r");
             ret (i 0);
           ];
       ])
    [ 1L ]

let signal_delivery =
  test ~needs_kernel:true "signal_delivery" "asynchronous signal and sigreturn"
    (Ast.program
       [
         Ast.fdef "handler" ~params:[ "sig" ] ~locals:[ Ast.Scalar "t" ]
           B.[
             set "t" (call "echo" [ v "sig" + i 100 ]);
             print (v "t");
             ret (i 0);
           ];
         Ast.fdef "echo" ~params:[ "x" ] B.[ ret (v "x") ];
         Ast.fdef "main" ~locals:[ Ast.Scalar "k"; Ast.Scalar "s" ]
           B.[
             set "s" (i 0);
             for_ "k" ~from:(i 0) ~below:(i 100) [ set "s" (v "s" + v "k") ];
             print (v "s");
             ret (i 0);
           ];
       ])
    [ 105L; 4950L ]

let mixed_linkage =
  test
    ~overrides:[ ("legacy", Scheme.unprotected) ]
    "mixed_linkage" "instrumented caller into an uninstrumented library function"
    (Ast.program
       [
         Ast.fdef "legacy" ~params:[ "x" ] ~locals:[ Ast.Scalar "t" ]
           B.[
             set "t" (call "leaf5" [ v "x" ]);
             ret (v "t");
           ];
         Ast.fdef "leaf5" ~params:[ "x" ] B.[ ret (v "x" + i 5) ];
         Ast.fdef "main" ~locals:[ Ast.Scalar "r" ]
           B.[
             set "r" (call "legacy" [ i 10 ]);
             print (v "r");
             ret (i 0);
           ];
       ])
    [ 15L ]

let nested_longjmp =
  test "nested_longjmp" "longjmp to an outer environment across a nested setjmp"
    (Ast.program
       ~globals:[ ("jb1", 128); ("jb2", 128) ]
       [
         Ast.fdef "deep" ~locals:[ Ast.Scalar "z" ]
           B.[
             set "z" (i 1);
             Ast.Longjmp (glob "jb1", i 33);
             ret (v "z");
           ];
         Ast.fdef "mid" ~locals:[ Ast.Scalar "r2"; Ast.Scalar "x" ]
           B.[
             Ast.Setjmp ("r2", glob "jb2");
             if_ (v "r2" != i 0) [ ret (i 999) ] [];
             set "x" (call "deep" []);
             ret (v "x");
           ];
         Ast.fdef "main" ~locals:[ Ast.Scalar "r1"; Ast.Scalar "x" ]
           B.[
             Ast.Setjmp ("r1", glob "jb1");
             if_ (v "r1" != i 0) [ print (v "r1"); ret (i 0) ] [];
             set "x" (call "mid" []);
             ret (v "x");
           ];
       ])
    [ 33L ]

let all =
  [
    indirect_call;
    fptr_table;
    setjmp_basic;
    setjmp_twice;
    tail_call;
    deep_recursion;
    calling_convention;
    mutual_recursion;
    signal_delivery;
    mixed_linkage;
    nested_longjmp;
  ]

type outcome = Pass | Fail of string

let check_output t out =
  if out = t.expected then Pass
  else
    Fail
      (Printf.sprintf "expected [%s], got [%s]"
         (String.concat "; " (List.map Int64.to_string t.expected))
         (String.concat "; " (List.map Int64.to_string out)))

let run ~scheme t =
  match Compile.compile ~scheme ~overrides:t.overrides t.program with
  | exception Compile.Error m -> Fail ("compile error: " ^ m)
  | program -> (
    if not t.needs_kernel then (
      let m = Machine.load program in
      match Machine.run ~fuel:5_000_000 m with
      | Machine.Halted 0 -> check_output t (Machine.output m)
      | Machine.Halted c -> Fail (Printf.sprintf "exit code %d" c)
      | Machine.Faulted f -> Fail ("fault: " ^ Trap.to_string f)
      | Machine.Out_of_fuel -> Fail "out of fuel")
    else
      (* run a while, deliver a signal mid-loop, then run to completion *)
      let kernel = Kernel.create (Rng.create 99L) in
      let proc = Kernel.boot kernel program in
      let m = Kernel.machine proc in
      match Machine.run ~fuel:300 m with
      | Machine.Faulted f -> Fail ("fault during warmup: " ^ Trap.to_string f)
      | Machine.Halted _ | Machine.Out_of_fuel -> (
        Kernel.deliver_signal kernel proc ~handler:"handler" ~signum:5;
        match Machine.run m with
        | Machine.Halted 0 -> check_output t (Machine.output m)
        | Machine.Halted c -> Fail (Printf.sprintf "exit code %d" c)
        | Machine.Faulted f -> Fail ("fault: " ^ Trap.to_string f)
        | Machine.Out_of_fuel -> Fail "out of fuel"))

let run_all ~scheme = List.map (fun t -> (t, run ~scheme t)) all

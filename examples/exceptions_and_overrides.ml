(* Exceptions and per-function scheme overrides under PACStack.

   1. mini-C try/throw is desugared onto the setjmp/longjmp machinery, so
      under PACStack every non-local transfer goes through the Listing 4-5
      wrappers — C++-style exceptions (§9.1) for free.
   2. The application and its "library" are hardened differently within
      one program: [Compile.compile ~overrides] builds the application
      under full PACStack and the library function without masking
      (§9.2's partially instrumented deployment).

   Run with: dune exec examples/exceptions_and_overrides.exe *)

module Ast = Pacstack_minic.Ast
module B = Pacstack_minic.Build
module Compile = Pacstack_minic.Compile
module Scheme = Pacstack_harden.Scheme
module Machine = Pacstack_machine.Machine

(* the "library": parsing that throws on malformed input *)
let parse_digit =
  Ast.fdef "parse_digit" ~params:[ "c" ]
    B.[
      if_ (v "c" < i 48) [ throw (i 400) ] [];
      if_ (v "c" > i 57) [ throw (i 400) ] [];
      ret (v "c" - i 48);
    ]

(* the application: catches the library's exceptions *)
let main =
  Ast.fdef "main" ~locals:[ Ast.Scalar "k"; Ast.Scalar "d" ]
    B.[
      for_ "k" ~from:(i 48) ~below:(i 61)
        [
          try_
            [ set "d" (call "parse_digit" [ v "k" ]); print (v "d") ]
            "err"
            [ print (v "err") ];
        ];
      ret (i 0);
    ]

let () =
  (* the app under full PACStack, the library without masking *)
  let program =
    Compile.compile ~scheme:Scheme.pacstack
      ~overrides:[ ("parse_digit", Scheme.pacstack_nomask) ]
      (Ast.program [ main; parse_digit ])
  in
  let machine = Machine.load program in
  match Machine.run machine with
  | Machine.Halted 0 ->
    Printf.printf "output: %s\n"
      (String.concat " " (List.map Int64.to_string (Machine.output machine)));
    print_endline
      "digits 0-9 parsed, the three out-of-range characters each threw 400 across\n\
       the instrumented library boundary and were caught in main."
  | Machine.Halted c -> Printf.printf "exit %d\n" c
  | Machine.Faulted f -> Printf.printf "fault: %s\n" (Pacstack_machine.Trap.to_string f)
  | Machine.Out_of_fuel -> print_endline "out of fuel"

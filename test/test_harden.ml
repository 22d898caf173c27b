(* Tests for the hardening passes: scheme naming, the exact instruction
   sequences of the paper's listings, leaf/canary heuristics and the
   well-formedness of the runtime support functions. *)

module Instr = Pacstack_isa.Instr
module Reg = Pacstack_isa.Reg
module Program = Pacstack_isa.Program
module Scheme = Pacstack_harden.Scheme
module Runtime = Pacstack_harden.Runtime

let show_seq l = String.concat "; " (List.map Instr.to_string l)
let check_seq = Alcotest.testable (Fmt.of_to_string show_seq) ( = )

(* --- Scheme ------------------------------------------------------------------ *)

let test_scheme_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check bool) (Scheme.to_string s) true
        (match Scheme.of_string (Scheme.to_string s) with
        | Some s' -> Scheme.equal s s'
        | None -> false))
    Scheme.all

let test_scheme_aliases () =
  Alcotest.(check bool) "scs alias" true (Scheme.of_string "scs" = Some Scheme.shadow_stack);
  Alcotest.(check bool) "none alias" true (Scheme.of_string "none" = Some Scheme.unprotected);
  Alcotest.(check bool) "unknown" true (Scheme.of_string "pac" = None)

(* --- Frame -------------------------------------------------------------------- *)

let nonleaf = Scheme.traits ~locals_bytes:32 ()
let leaf = Scheme.traits ~is_leaf:true ~locals_bytes:16 ()
let arrays = Scheme.traits ~has_arrays:true ~locals_bytes:32 ()

let test_traits_validation () =
  Alcotest.check_raises "unaligned locals"
    (Invalid_argument "Scheme.traits: locals_bytes must be 16-byte aligned") (fun () ->
      ignore (Scheme.traits ~locals_bytes:8 ()))

let sp = Reg.SP
let fp = Reg.fp
let lr = Reg.lr
let x28 = Reg.cr
let x15 = Reg.scratch
let mem base offset index = { Instr.base; offset; index }

(* Listing 2: PACStack without masking. *)
let test_pacstack_nomask_listing2 () =
  let t = Scheme.traits () in
  Alcotest.check check_seq "prologue"
    [
      Instr.Str (x28, mem sp (-32) Instr.Pre);
      Instr.Stp (fp, lr, mem sp 16 Instr.Offset);
      Instr.Add (fp, sp, Instr.Imm 16L);
      Instr.Pacia (lr, x28);
      Instr.Mov (x28, Instr.Reg lr);
    ]
    (Scheme.prologue Scheme.pacstack_nomask t);
  Alcotest.check check_seq "epilogue"
    [
      Instr.Mov (lr, Instr.Reg x28);
      Instr.Ldr (fp, mem sp 16 Instr.Offset);
      Instr.Ldr (x28, mem sp 32 Instr.Post);
      Instr.Autia (lr, x28);
      Instr.Ret lr;
    ]
    (Scheme.epilogue Scheme.pacstack_nomask t)

(* Listing 3: the masked variant recreates and clears the mask around every
   use. *)
let test_pacstack_masked_listing3 () =
  let t = Scheme.traits () in
  let prologue = Scheme.prologue Scheme.pacstack t in
  let epilogue = Scheme.epilogue Scheme.pacstack t in
  let mask_seq =
    [
      Instr.Mov (x15, Instr.Reg Reg.XZR);
      Instr.Pacia (x15, x28);
      Instr.Eor (lr, lr, Instr.Reg x15);
      Instr.Mov (x15, Instr.Reg Reg.XZR);
    ]
  in
  let contains ~sub l =
    let rec go = function
      | [] -> false
      | _ :: rest as l -> (List.length l >= List.length sub && List.filteri (fun i _ -> i < List.length sub) l = sub) || go rest
    in
    go l
  in
  Alcotest.(check bool) "prologue masks" true (contains ~sub:mask_seq prologue);
  Alcotest.(check bool) "epilogue unmasks" true (contains ~sub:mask_seq epilogue);
  (* mask never flows anywhere but X15, which is cleared after each use *)
  Alcotest.(check int) "two clears per sequence" 2
    (List.length
       (List.filter (fun i -> i = Instr.Mov (x15, Instr.Reg Reg.XZR)) prologue))

(* Listing 1: -mbranch-protection. *)
let test_branch_protection_listing1 () =
  let t = Scheme.traits () in
  Alcotest.check check_seq "prologue"
    [ Instr.Paciasp; Instr.Stp (fp, lr, mem sp (-16) Instr.Pre); Instr.Mov (fp, Instr.Reg sp) ]
    (Scheme.prologue Scheme.branch_protection t);
  Alcotest.check check_seq "epilogue"
    [ Instr.Ldp (fp, lr, mem sp 16 Instr.Post); Instr.Retaa ]
    (Scheme.epilogue Scheme.branch_protection t)

let test_shadow_stack_sequences () =
  let t = Scheme.traits () in
  (match Scheme.prologue Scheme.shadow_stack t with
  | Instr.Str (r, { Instr.base; offset = 8; index = Instr.Post }) :: _ ->
    Alcotest.(check bool) "pushes LR via X18" true (Reg.equal r lr && Reg.equal base Reg.shadow)
  | _ -> Alcotest.fail "expected shadow push first");
  match List.rev (Scheme.epilogue Scheme.shadow_stack t) with
  | Instr.Ret _ :: Instr.Ldr (r, { Instr.base; offset = -8; index = Instr.Pre }) :: _ ->
    Alcotest.(check bool) "pops LR from X18" true (Reg.equal r lr && Reg.equal base Reg.shadow)
  | _ -> Alcotest.fail "expected shadow pop before ret"

let test_canary_sequences () =
  let t = arrays in
  let prologue = Scheme.prologue Scheme.stack_protector t in
  let epilogue = Scheme.epilogue Scheme.stack_protector t in
  Alcotest.(check bool) "prologue stores canary" true
    (List.exists
       (function Instr.Str (_, { Instr.offset; _ }) -> offset = Scheme.canary_slot t | _ -> false)
       prologue);
  Alcotest.(check bool) "epilogue branches to failure handler" true
    (List.exists
       (function Instr.Bcond (_, l) -> l = Scheme.stack_chk_fail_symbol | _ -> false)
       epilogue)

let test_leaf_frames_minimal () =
  List.iter
    (fun scheme ->
      Alcotest.check check_seq
        (Scheme.to_string scheme ^ " leaf prologue")
        [ Instr.Sub (sp, sp, Instr.Imm 16L) ]
        (Scheme.prologue scheme leaf);
      Alcotest.check check_seq
        (Scheme.to_string scheme ^ " leaf epilogue")
        [ Instr.Add (sp, sp, Instr.Imm 16L); Instr.Ret lr ]
        (Scheme.epilogue scheme leaf))
    [ Scheme.unprotected; Scheme.branch_protection; Scheme.shadow_stack; Scheme.pacstack ]

let test_locals_allocation () =
  let t = Scheme.traits ~locals_bytes:48 () in
  Alcotest.(check bool) "prologue allocates locals" true
    (List.exists (fun i -> i = Instr.Sub (sp, sp, Instr.Imm 48L)) (Scheme.prologue Scheme.pacstack t));
  Alcotest.(check bool) "epilogue releases locals" true
    (List.exists (fun i -> i = Instr.Add (sp, sp, Instr.Imm 48L)) (Scheme.epilogue Scheme.pacstack t))

(* --- Runtime ------------------------------------------------------------------- *)

let test_runtime_wellformed () =
  (* all runtime functions assemble into a valid program *)
  let p =
    Program.make ~entry:Runtime.setjmp_symbol Runtime.functions
  in
  Alcotest.(check bool) "five runtime functions" true (List.length p.Program.funcs = 5)

let test_runtime_entries () =
  Alcotest.(check string) "plain setjmp" Runtime.setjmp_symbol
    (Runtime.setjmp_entry Scheme.unprotected);
  Alcotest.(check string) "pacstack setjmp" Runtime.pacstack_setjmp_symbol
    (Runtime.setjmp_entry Scheme.pacstack);
  Alcotest.(check string) "pacstack longjmp" Runtime.pacstack_longjmp_symbol
    (Runtime.longjmp_entry Scheme.pacstack_nomask);
  Alcotest.(check string) "scs longjmp is plain" Runtime.longjmp_symbol
    (Runtime.longjmp_entry Scheme.shadow_stack)

let test_runtime_jmp_buf_size () =
  Alcotest.(check bool) "slots fit the buffer" true (Runtime.jmp_buf_bytes >= 112)

(* --- Registry ---------------------------------------------------------------- *)

module Oracle = Pacstack_fuzz.Oracle
module Driver = Pacstack_fuzz.Driver
module Fault = Pacstack_inject.Fault
module Engine = Pacstack_inject.Engine

let test_registry_count () =
  Alcotest.(check int) "all lists every registration" (Scheme.registered_count ())
    (List.length Scheme.all);
  Alcotest.(check int) "ten schemes ship" 10 (List.length Scheme.all);
  Alcotest.(check (list string)) "legacy six lead the table"
    (List.map Scheme.to_string Scheme.legacy)
    (List.map Scheme.to_string (List.filteri (fun i _ -> i < 6) Scheme.all))

let qcheck_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"of_string (to_string s) = Some s" ~count:200
       (QCheck2.Gen.oneofl Scheme.all) (fun s ->
         match Scheme.of_string (Scheme.to_string s) with
         | Some s' -> Scheme.equal s s'
         | None -> false))

let test_aliases_resolve () =
  List.iter
    (fun s ->
      let d = Scheme.descriptor s in
      List.iter
        (fun alias ->
          Alcotest.(check bool)
            (Printf.sprintf "alias %S -> %s" alias d.Scheme.name)
            true
            (match Scheme.of_string alias with
            | Some s' -> Scheme.equal s s'
            | None -> false))
        d.Scheme.aliases)
    Scheme.all

let test_duplicate_rejected () =
  let before = Scheme.registered_count () in
  let probe suffix aliases =
    { (Scheme.descriptor Scheme.pacstack) with Scheme.name = "dup-probe-" ^ suffix; aliases }
  in
  (* canonical name taken (case-insensitively) *)
  Alcotest.check_raises "duplicate name"
    (Scheme.Duplicate_scheme { name = "PACStack"; key = "pacstack" })
    (fun () ->
      ignore (Scheme.register { (probe "n" []) with Scheme.name = "PACStack" }));
  (* alias taken by another scheme's alias table *)
  Alcotest.check_raises "duplicate alias"
    (Scheme.Duplicate_scheme { name = "dup-probe-a"; key = "scs" })
    (fun () -> ignore (Scheme.register (probe "a" [ "fresh-alias"; "SCS" ])));
  Alcotest.(check int) "failed registration leaves the table untouched" before
    (Scheme.registered_count ());
  Alcotest.(check bool) "rejected keys stay unclaimed" true
    (Scheme.of_string "dup-probe-a" = None && Scheme.of_string "fresh-alias" = None)

(* The slot a scheme declares as its control surface, as an injection
   site the fault engine can strike. *)
let site_of_slot = function
  | Scheme.Return_slot -> Fault.Ret_slot
  | Scheme.Chain_slot -> Fault.Chain_spill
  | Scheme.Shadow_slot -> Fault.Shadow_slot

(* Every registered scheme — including any future eleventh — must make
   it through the whole evaluation pipeline: frame codegen, the
   differential fuzz oracle, and a fault at its own control slot. *)
let test_registry_conformance () =
  let campaign_seed = 0xC0FFEEL in
  List.iter
    (fun scheme ->
      let name = Scheme.to_string scheme in
      (* codegen over the trait corners used throughout this file *)
      List.iter
        (fun t ->
          let prologue = Scheme.prologue scheme t in
          let epilogue = Scheme.epilogue scheme t in
          Alcotest.(check bool)
            (name ^ ": epilogue returns")
            true
            (match List.rev epilogue with
            | (Instr.Ret _ | Instr.Retaa | Instr.Br _) :: _ -> true
            | _ -> false);
          ignore prologue)
        [ nonleaf; leaf; arrays ];
      (* one fuzz seed through the differential oracle, peephole off/on *)
      (match
         Oracle.check
           { Oracle.default_config with Oracle.schemes = [ scheme ] }
           (Driver.program_of_seed ~campaign_seed 0)
       with
      | Oracle.Agree runs ->
        Alcotest.(check bool) (name ^ ": oracle ran both variants") true (runs >= 2)
      | Oracle.Disagree _ -> Alcotest.failf "%s: oracle divergence on seed 0" name
      | Oracle.Skipped why -> Alcotest.failf "%s: oracle skipped seed 0: %s" name why);
      (* one injection at the scheme's declared control slot *)
      let target = site_of_slot (Scheme.descriptor scheme).Scheme.control_slot in
      let rec find_fault i =
        if i >= 512 then Alcotest.failf "%s: no fault hits %s in 512 derivations" name
            (Fault.site_to_string target)
        else if (Fault.derive ~campaign_seed i).Fault.site = target then i
        else find_fault (i + 1)
      in
      let fault = find_fault 0 in
      match
        Engine.run_fault
          { Engine.default_config with Engine.schemes = [ scheme ] }
          ~campaign_seed fault
      with
      | [ r ] ->
        Alcotest.(check bool) (name ^ ": fault ran at its control slot") true
          (Scheme.equal r.Engine.scheme scheme
          && r.Engine.spec.Fault.site = target)
      | rs -> Alcotest.failf "%s: expected one result, got %d" name (List.length rs))
    Scheme.all

(* The registry is a compile-time surface: descriptor closures run while
   instruction lists are built and must leave no run-time residue. The
   assembler rebuilds a compiled image from its printed text with no
   descriptor anywhere near it, so the two must be structurally equal. *)
let test_registry_leaves_no_residue () =
  let fib =
    Pacstack_minic.(
      Ast.program
        [
          Ast.fdef "fib" ~params:[ "n" ] ~locals:[ Ast.Scalar "a"; Ast.Scalar "b" ]
            Build.
              [
                if_ (v "n" <= i 1) [ ret (v "n") ] [];
                set "a" (call "fib" [ v "n" - i 1 ]);
                set "b" (call "fib" [ v "n" - i 2 ]);
                ret (v "a" + v "b");
              ];
          Ast.fdef "main" ~locals:[ Ast.Scalar "r" ]
            Build.[ set "r" (call "fib" [ i 15 ]); ret (i 0) ];
        ])
  in
  let fuzz = List.init 5 (fun seed -> Driver.program_of_seed ~campaign_seed:1L seed) in
  List.iteri
    (fun k ast ->
      List.iter
        (fun scheme ->
          List.iter
            (fun optimize ->
              let p = Pacstack_minic.Compile.compile ~optimize ~scheme ast in
              Alcotest.(check bool)
                (Printf.sprintf "program %d / %s%s: parse (print p) = p" k
                   (Scheme.to_string scheme)
                   (if optimize then "+peephole" else ""))
                true
                (Pacstack_isa.Asm.parse (Pacstack_isa.Asm.print p) = p))
            [ false; true ])
        Scheme.all)
    (fib :: fuzz)

let () =
  Alcotest.run "harden"
    [
      ( "scheme",
        [
          Alcotest.test_case "string roundtrip" `Quick test_scheme_roundtrip;
          Alcotest.test_case "aliases" `Quick test_scheme_aliases;
        ] );
      ( "frame",
        [
          Alcotest.test_case "traits validation" `Quick test_traits_validation;
          Alcotest.test_case "shadow stack sequences" `Quick test_shadow_stack_sequences;
          Alcotest.test_case "canary sequences" `Quick test_canary_sequences;
          Alcotest.test_case "Listing 2 (nomask)" `Quick test_pacstack_nomask_listing2;
          Alcotest.test_case "Listing 3 (masked)" `Quick test_pacstack_masked_listing3;
          Alcotest.test_case "Listing 1 (branch protection)" `Quick
            test_branch_protection_listing1;
          Alcotest.test_case "leaf frames minimal" `Quick test_leaf_frames_minimal;
          Alcotest.test_case "locals allocation" `Quick test_locals_allocation;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "well-formed" `Quick test_runtime_wellformed;
          Alcotest.test_case "per-scheme entries" `Quick test_runtime_entries;
          Alcotest.test_case "jmp_buf size" `Quick test_runtime_jmp_buf_size;
        ] );
      ( "registry",
        [
          Alcotest.test_case "count pins coverage" `Quick test_registry_count;
          qcheck_roundtrip;
          Alcotest.test_case "aliases resolve" `Quick test_aliases_resolve;
          Alcotest.test_case "duplicates rejected" `Quick test_duplicate_rejected;
          Alcotest.test_case "every scheme end-to-end" `Quick test_registry_conformance;
          Alcotest.test_case "compiled images survive asm roundtrip" `Quick
            test_registry_leaves_no_residue;
        ] );
    ]

(* Tests for the adversary toolkit: the Listing 6 attack matrix is
   asserted cell by cell against the paper's security claims, plus the
   signing-gadget, sigreturn and brute-force experiments. *)

module Word64 = Pacstack_util.Word64
module Rng = Pacstack_util.Rng
module Config = Pacstack_pa.Config
module Prf = Pacstack_pa.Prf
module Scheme = Pacstack_harden.Scheme
module Kernel = Pacstack_machine.Kernel
module Machine = Pacstack_machine.Machine
module Memory = Pacstack_machine.Memory
module Image = Pacstack_machine.Image
module Adversary = Pacstack_attacker.Adversary
module Reuse = Pacstack_attacker.Reuse
module Gadget = Pacstack_attacker.Gadget
module Sigreturn = Pacstack_attacker.Sigreturn
module Bruteforce = Pacstack_attacker.Bruteforce

let outcome =
  Alcotest.testable Adversary.pp_outcome (fun a b ->
      match a, b with
      | Adversary.Detected _, Adversary.Detected _ -> true
      | _ -> a = b)

let check_attack ~scheme ~strategy expected =
  Alcotest.check outcome
    (Printf.sprintf "%s vs %s" (Reuse.strategy_to_string strategy) (Scheme.to_string scheme))
    expected
    (Reuse.attack ~scheme strategy)

(* --- the §6.1 matrix ------------------------------------------------------------ *)

let test_arbitrary_redirect () =
  check_attack ~scheme:Scheme.unprotected ~strategy:Reuse.Arbitrary_redirect Adversary.Hijacked;
  check_attack ~scheme:Scheme.stack_protector ~strategy:Reuse.Arbitrary_redirect
    Adversary.Hijacked;
  (* targeted writes sail past canaries *)
  check_attack ~scheme:Scheme.branch_protection ~strategy:Reuse.Arbitrary_redirect
    (Adversary.Detected "");
  (* an unsigned pointer fails retaa *)
  check_attack ~scheme:Scheme.shadow_stack ~strategy:Reuse.Arbitrary_redirect Adversary.Hijacked;
  (* a software shadow stack falls once its location is known *)
  check_attack ~scheme:Scheme.pacstack_nomask ~strategy:Reuse.Arbitrary_redirect
    (Adversary.Detected "");
  check_attack ~scheme:Scheme.pacstack ~strategy:Reuse.Arbitrary_redirect (Adversary.Detected "")

let test_sibling_reuse () =
  (* the headline: every scheme except PACStack is bent by reusing the
     sibling's (signed) return address — including -mbranch-protection *)
  check_attack ~scheme:Scheme.unprotected ~strategy:Reuse.Sibling_reuse Adversary.Bent;
  check_attack ~scheme:Scheme.stack_protector ~strategy:Reuse.Sibling_reuse Adversary.Bent;
  check_attack ~scheme:Scheme.branch_protection ~strategy:Reuse.Sibling_reuse Adversary.Bent;
  check_attack ~scheme:Scheme.shadow_stack ~strategy:Reuse.Sibling_reuse Adversary.Bent;
  check_attack ~scheme:Scheme.pacstack_nomask ~strategy:Reuse.Sibling_reuse Adversary.No_effect;
  check_attack ~scheme:Scheme.pacstack ~strategy:Reuse.Sibling_reuse Adversary.No_effect

let test_linear_overflow () =
  check_attack ~scheme:Scheme.unprotected ~strategy:Reuse.Linear_overflow Adversary.Hijacked;
  check_attack ~scheme:Scheme.stack_protector ~strategy:Reuse.Linear_overflow
    (Adversary.Detected "");
  (* the canary's home turf *)
  check_attack ~scheme:Scheme.branch_protection ~strategy:Reuse.Linear_overflow
    (Adversary.Detected "");
  check_attack ~scheme:Scheme.pacstack_nomask ~strategy:Reuse.Linear_overflow
    (Adversary.Detected "");
  check_attack ~scheme:Scheme.pacstack ~strategy:Reuse.Linear_overflow (Adversary.Detected "")

let test_matrix_shape () =
  let m = Reuse.matrix () in
  Alcotest.(check int) "three strategies" 3 (List.length m);
  List.iter
    (fun (_, row) ->
      Alcotest.(check int) "all registered schemes" (List.length Scheme.all) (List.length row))
    m

(* --- signing gadget -------------------------------------------------------------- *)

let cfg = Config.default
let prf = Prf.create 0x6ad6e7L

let test_gadget_forges () =
  Alcotest.(check bool) "forgery validates" true
    (Gadget.gadget_forges_valid_pointer cfg prf ~target:0xabc0L ~modifier:0x11L);
  (* without flipping bit p back, the forgery must fail *)
  let forged = Gadget.forge_with_gadget cfg prf ~target:0xabc0L ~modifier:0x11L in
  let unflipped = Word64.flip_bit forged (Config.pac_lo cfg) in
  (match Pacstack_pa.Pac.auth cfg prf unflipped ~modifier:0x11L with
  | Pacstack_pa.Pac.Valid _ -> Alcotest.fail "unflipped forgery validated"
  | Pacstack_pa.Pac.Invalid _ -> ())

let test_gadget_blocked_by_pacstack () =
  Alcotest.check outcome "masked" (Adversary.Detected "") (Gadget.tail_call_attack ~masked:true);
  Alcotest.check outcome "nomask" (Adversary.Detected "")
    (Gadget.tail_call_attack ~masked:false)

(* --- sigreturn -------------------------------------------------------------------- *)

let test_sigreturn_benign () =
  Alcotest.(check bool) "unprotected round-trip" true
    (Sigreturn.benign_roundtrip ~policy:Kernel.Sig_unprotected);
  Alcotest.(check bool) "chained round-trip" true
    (Sigreturn.benign_roundtrip ~policy:Kernel.Sig_chained)

let test_sigreturn_attack () =
  Alcotest.check outcome "unprotected kernel hijacked" Adversary.Hijacked
    (Sigreturn.attack ~policy:Kernel.Sig_unprotected ());
  Alcotest.check outcome "chained kernel detects" (Adversary.Detected "")
    (Sigreturn.attack ~policy:Kernel.Sig_chained ())

let test_sigreturn_attack_without_signal () =
  (* even with no real signal in flight, a forged frame must be refused *)
  Alcotest.check outcome "spontaneous sigreturn detected" (Adversary.Detected "")
    (Sigreturn.attack ~policy:Kernel.Sig_chained ~deliver_real_signal:false ())

(* --- brute force ------------------------------------------------------------------- *)

let test_bruteforce_scaling () =
  let trials = 25 in
  let total = Bruteforce.total_guesses ~pac_bits:5 ~trials (Pacstack_util.Rng.create 7L) in
  let mean = float_of_int total /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "b=5 mean %.0f near 32" mean)
    true
    (mean > 32.0 /. 2.5 && mean < 32.0 *. 2.5)

(* --- forward-edge CFI (assumption A2) ------------------------------------------------ *)

module Fcfi = Pacstack_attacker.Forward_cfi

let test_cfi_blocks_midfunction_pointers () =
  Alcotest.check outcome "mid-function rejected" (Adversary.Detected "")
    (Fcfi.attack ~cfi:true Fcfi.Mid_function)

let test_cfi_admits_wrong_entries () =
  (* coarse CFI cannot tell a wrong-but-valid entry apart — the paper's
     argument for why backward-edge protection is still required *)
  Alcotest.check outcome "wrong entry admitted" Adversary.Hijacked
    (Fcfi.attack ~cfi:true Fcfi.Entry_of_evil)

(* --- §9.2 interop ---------------------------------------------------------------------- *)

let app_functions = [ "main"; "func"; "a"; "b" ]

let test_interop_protected_app () =
  let overrides = List.map (fun f -> (f, Scheme.pacstack)) app_functions in
  Alcotest.check outcome "app-side protection holds" Adversary.No_effect
    (Reuse.attack ~scheme:Scheme.unprotected ~overrides Reuse.Sibling_reuse)

let test_interop_unprotected_app () =
  let overrides = List.map (fun f -> (f, Scheme.unprotected)) app_functions in
  Alcotest.check outcome "unprotected app remains attackable" Adversary.Bent
    (Reuse.attack ~scheme:Scheme.pacstack ~overrides Reuse.Sibling_reuse)

(* --- gadget surface --------------------------------------------------------------------- *)

module Gscan = Pacstack_attacker.Gadget_scan
module Scenarios = Pacstack_workloads.Scenarios

let test_gadget_surface_counts () =
  let victim = Scenarios.listing6 ~rounds:2 in
  let base = Gscan.scan_scheme Scheme.unprotected victim in
  let pac = Gscan.scan_scheme Scheme.pacstack victim in
  let bp = Gscan.scan_scheme Scheme.branch_protection victim in
  let scs = Gscan.scan_scheme Scheme.shadow_stack victim in
  Alcotest.(check int) "same return count" base.Gscan.total_returns pac.Gscan.total_returns;
  Alcotest.(check bool) "baseline has usable gadgets" true (base.Gscan.usable > 0);
  Alcotest.(check bool) "pacstack guards the app returns" true
    (pac.Gscan.pa_guarded >= base.Gscan.usable - 1);
  Alcotest.(check bool) "pacstack leaves at most libc longjmp usable" true
    (pac.Gscan.usable <= 1);
  Alcotest.(check bool) "branch protection guards too" true (bp.Gscan.pa_guarded > 0);
  Alcotest.(check bool) "shadow stack shadows" true (scs.Gscan.shadowed > 0);
  Alcotest.(check int) "nothing unaccounted" base.Gscan.total_returns
    (pac.Gscan.usable + pac.Gscan.pa_guarded + pac.Gscan.shadowed + pac.Gscan.register_resident)

(* --- fuzz: random stack corruption never captures PACStack control flow -------------- *)

let test_random_corruption_never_hijacks () =
  (* the strongest end-to-end property: whatever the adversary scribbles
     over the victim's writable memory while a frame is live, control
     never reaches [evil] under full-width PACStack — at b = 16 a hijack
     needs a 2^-16 event per run, invisible in 150 runs *)
  let rng = Rng.create 0xf422L in
  let victim = Scenarios.listing6 ~rounds:2 in
  let program = Pacstack_minic.Compile.compile ~scheme:Scheme.pacstack victim in
  for _ = 1 to 150 do
    let m = Machine.load ~rng:(Rng.split rng) program in
    Machine.attach_hook m Scenarios.overwrite_hook (fun m ->
        let fp = Machine.get m (Pacstack_isa.Reg.fp) in
        for _ = 1 to 8 do
          (* random word-aligned writes around the live frames *)
          let off = 8 * (Rng.int rng 64 - 32) in
          let addr = Int64.add fp (Int64.of_int off) in
          ignore (Adversary.write m addr (Rng.next64 rng))
        done);
    let outcome = Machine.run ~fuel:300_000 m in
    match Adversary.classify ~expected:[] m outcome with
    | Adversary.Hijacked -> Alcotest.fail "random corruption captured control"
    | Adversary.Bent | Adversary.Detected _ | Adversary.No_effect -> ()
  done

(* --- adversary primitives ------------------------------------------------------------ *)

let test_adversary_respects_wxorx () =
  let prog = Pacstack_isa.Asm.parse ".entry main\n.func main\n  mov x0, #0\n  hlt\n.endfunc" in
  let m = Machine.load prog in
  Alcotest.(check bool) "cannot write code" false (Adversary.write m Image.code_base 0L);
  Alcotest.(check bool) "can read code" true (Adversary.read m Image.code_base <> None);
  Alcotest.(check bool) "unmapped reads as None" true (Adversary.read m 0x123456L = None)

let test_shadow_scan () =
  let prog =
    Pacstack_isa.Asm.parse
      ".entry main\n.func main\n  mov x9, #77\n  str x9, [x18], #8\n  mov x0, #0\n  hlt\n.endfunc"
  in
  let m = Machine.load prog in
  ignore (Machine.run m);
  match Adversary.shadow_top_slot m with
  | Some slot ->
    Alcotest.(check (option int64)) "finds the pushed entry" (Some 77L) (Adversary.read m slot)
  | None -> Alcotest.fail "shadow entry not found"

(* --- Typed failure exceptions ------------------------------------------ *)

(* Listing 6's shape — hooks and all — but with no [evil] landing pad:
   the attack must fail with a payload naming the symbol and scheme, not
   a bare [Failure]. *)
let victim_without_evil =
  let module Ast = Pacstack_minic.Ast in
  let module B = Pacstack_minic.Build in
  Ast.program
    [
      Ast.fdef "a" ~locals:[ Ast.Scalar "t" ]
        B.[ Ast.Hook Scenarios.disclose_hook; set "t" (call "id" [ i 1 ]); ret (v "t") ];
      Ast.fdef "id" ~params:[ "x" ] B.[ ret (v "x") ];
      Ast.fdef "b" ~locals:[ Ast.Scalar "t" ]
        B.[ Ast.Hook Scenarios.overwrite_hook; set "t" (call "id" [ i 2 ]); ret (v "t") ];
      Ast.fdef "main" ~locals:[ Ast.Scalar "x" ]
        B.[
          set "x" (call "a" [] + call "b" []);
          print (v "x");
          ret (i 0);
        ];
    ]

let test_missing_evil_payload () =
  Alcotest.check_raises "payload carries symbol and scheme"
    (Reuse.Missing_evil_function { symbol = "evil"; scheme = Scheme.unprotected })
    (fun () ->
      ignore
        (Reuse.attack ~scheme:Scheme.unprotected ~victim:victim_without_evil
           Reuse.Arbitrary_redirect))

(* A victim that never halts: [benign_output] must identify the broken
   victim/scheme pair instead of failing anonymously. *)
let test_benign_run_failed_payload () =
  let module Ast = Pacstack_minic.Ast in
  let module B = Pacstack_minic.Build in
  let spinner =
    Ast.program
      [
        Ast.fdef "main" ~locals:[ Ast.Scalar "z" ]
          B.[ set "z" (i 1); while_ (v "z" == i 1) []; ret (i 0) ];
      ]
  in
  Alcotest.check_raises "payload carries scheme and outcome"
    (Adversary.Benign_run_failed
       { scheme = Scheme.pacstack; outcome = "benign run out of fuel" })
    (fun () -> ignore (Adversary.benign_output Scheme.pacstack spinner))

let () =
  Alcotest.run "attacker"
    [
      ( "reuse",
        [
          Alcotest.test_case "arbitrary redirect" `Slow test_arbitrary_redirect;
          Alcotest.test_case "sibling reuse" `Slow test_sibling_reuse;
          Alcotest.test_case "linear overflow" `Slow test_linear_overflow;
          Alcotest.test_case "matrix shape" `Slow test_matrix_shape;
        ] );
      ( "gadget",
        [
          Alcotest.test_case "gadget forges PACs" `Quick test_gadget_forges;
          Alcotest.test_case "blocked by PACStack" `Quick test_gadget_blocked_by_pacstack;
        ] );
      ( "sigreturn",
        [
          Alcotest.test_case "benign round-trips" `Quick test_sigreturn_benign;
          Alcotest.test_case "attack outcomes" `Quick test_sigreturn_attack;
          Alcotest.test_case "spontaneous sigreturn" `Quick test_sigreturn_attack_without_signal;
        ] );
      ("bruteforce", [ Alcotest.test_case "guess scaling" `Slow test_bruteforce_scaling ]);
      ( "forward-cfi",
        [
          Alcotest.test_case "mid-function blocked" `Quick test_cfi_blocks_midfunction_pointers;
          Alcotest.test_case "wrong entries admitted" `Quick test_cfi_admits_wrong_entries;
        ] );
      ( "interop",
        [
          Alcotest.test_case "protected app" `Quick test_interop_protected_app;
          Alcotest.test_case "unprotected app" `Quick test_interop_unprotected_app;
        ] );
      ( "gadget-scan",
        [ Alcotest.test_case "surface counts" `Quick test_gadget_surface_counts ] );
      ( "fuzz",
        [
          Alcotest.test_case "random corruption never hijacks" `Slow
            test_random_corruption_never_hijacks;
        ] );
      ( "adversary",
        [
          Alcotest.test_case "W^X binds the adversary" `Quick test_adversary_respects_wxorx;
          Alcotest.test_case "shadow-region scan" `Quick test_shadow_scan;
        ] );
      ( "typed-failures",
        [
          Alcotest.test_case "missing evil function" `Quick test_missing_evil_payload;
          Alcotest.test_case "benign run failed" `Quick test_benign_run_failed_payload;
        ] );
    ]

(* Tests for the differential fuzzer: the tier-1 200-seed smoke pass
   (every scheme, peephole off and on, against the reference
   interpreter), worker-count determinism of the campaign plan, and the
   planted-miscompilation drill — a deliberate wrong-constant mutation
   applied to the compiled program must be caught by the oracle and
   shrunk to a tiny reproducer.  The mutation lives here, in the test;
   nothing in the library plants bugs. *)

module Ast = Pacstack_minic.Ast
module Scheme = Pacstack_harden.Scheme
module Program = Pacstack_isa.Program
module Instr = Pacstack_isa.Instr
module Reg = Pacstack_isa.Reg
module Trace = Pacstack_fuzz.Trace
module Interp = Pacstack_fuzz.Interp
module Gen = Pacstack_fuzz.Gen
module Oracle = Pacstack_fuzz.Oracle
module Shrink = Pacstack_fuzz.Shrink
module Driver = Pacstack_fuzz.Driver
module Triage = Pacstack_fuzz.Triage
module Campaign = Pacstack_campaign.Campaign
module Json = Pacstack_campaign.Json
module Plans = Pacstack_report.Plans
module B = Pacstack_minic.Build

let smoke_seed = 1L (* the tier-1 campaign seed; CI fuzzes others *)

(* --- the interpreter on hand-written programs ---------------------------- *)

let test_interp_basics () =
  let prog =
    Ast.program
      [
        Ast.fdef "add" ~params:[ "a"; "b" ] B.[ ret (v "a" + v "b") ];
        Ast.fdef "main" ~locals:[ Ast.Scalar "r" ]
          B.[ set "r" (call "add" [ i 2; i 3 ]); print (v "r"); ret (i 0) ];
      ]
  in
  let t = Interp.run prog in
  Alcotest.(check bool) "exit 0" true (t.Trace.outcome = Trace.Exit 0);
  Alcotest.(check (list int64)) "output" [ 5L ] t.Trace.output

let test_interp_matches_machine () =
  (* one fixed program with arrays, recursion and control flow *)
  let prog =
    Ast.program
      ~globals:[ ("g", 8) ]
      [
        Ast.fdef "fib" ~params:[ "n" ]
          B.[ if_ (v "n" <= i 1) [ ret (v "n") ] [];
              ret (call "fib" [ v "n" - i 1 ] + call "fib" [ v "n" - i 2 ]) ];
        Ast.fdef "main" ~locals:[ Ast.Scalar "r" ]
          B.[ set "r" (call "fib" [ i 10 ]);
              store (glob "g") (v "r");
              print (load (glob "g"));
              ret (i 0) ];
      ]
  in
  let expected = Interp.run prog in
  Alcotest.(check (list int64)) "fib 10" [ 55L ] expected.Trace.output;
  List.iter
    (fun scheme ->
      let actual = Oracle.machine_trace Oracle.default_config ~scheme ~optimize:true prog in
      Alcotest.(check bool) (Scheme.to_string scheme) true (Trace.equal expected actual))
    Scheme.all

(* --- generator ------------------------------------------------------------ *)

let test_generator_deterministic () =
  List.iter
    (fun i ->
      let a = Driver.program_of_seed ~campaign_seed:smoke_seed i in
      let b = Driver.program_of_seed ~campaign_seed:smoke_seed i in
      Alcotest.(check bool) (Printf.sprintf "seed %d regenerates" i) true (a = b))
    [ 0; 1; 17; 99 ];
  let a = Driver.program_of_seed ~campaign_seed:smoke_seed 0 in
  let b = Driver.program_of_seed ~campaign_seed:2L 0 in
  Alcotest.(check bool) "different campaign seeds differ" false (a = b)

(* --- the 200-seed tier-1 differential pass -------------------------------- *)

let smoke = Plans.fuzz ~seeds:200 ()

let run_smoke ?progress ~workers () =
  let plan = smoke.Plans.plan ~scale:1.0 ~seed:smoke_seed in
  fst (smoke.Plans.rows plan (Campaign.run ~workers ?progress plan))

(* computed once, shared by the pass/determinism tests below (alcotest
   runs cases sequentially in-process, and every saved pass counts) *)
let smoke_w1 = lazy (run_smoke ~workers:1 ())

let test_smoke_200_seeds () =
  let totals = Lazy.force smoke_w1 in
  Alcotest.(check int) "200 programs" 200 totals.Driver.programs;
  Alcotest.(check int) "no crashes" 0 totals.Driver.crashes;
  Alcotest.(check int) "no skips" 0 totals.Driver.skipped;
  (match totals.Driver.failures with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "seed %d diverges under %s%s at %s: expected %s, got %s"
      f.Driver.seed f.Driver.scheme
      (if f.Driver.optimize then "+peephole" else "")
      f.Driver.site f.Driver.expected f.Driver.actual);
  (* every scheme x {peephole off, on} ran for every seed *)
  Alcotest.(check int) "2 x |Scheme.all| machine runs per seed"
    (200 * 2 * List.length Scheme.all)
    totals.Driver.runs

(* Two workers, the main domain and one spawned, split the shards as
   any larger pool does, and fit a 2-vCPU host without contention. *)
let test_smoke_workers_identical () =
  let t1 = Lazy.force smoke_w1 in
  let t2 = Instrumented.run (fun progress -> run_smoke ~progress ~workers:2 ()) in
  Alcotest.(check bool) "merged stats identical" true (t1 = t2);
  let render t = Json.to_string (Json.Obj (smoke.Plans.json (t, 0.0))) in
  Alcotest.(check string) "rendered report identical" (render t1) (render t2)

(* --- planted miscompilation ------------------------------------------------ *)

(* Bump the constant of the first [mov xN, #imm] into a compiler temp
   (x9..x14) in the compiled [main] — a one-instruction wrong-constant
   miscompilation. *)
let plant_wrong_constant (p : Program.t) =
  let is_temp r = List.exists (fun n -> Reg.equal r (Reg.x n)) [ 9; 10; 11; 12; 13; 14 ] in
  let bumped = ref false in
  Program.map_funcs
    (fun f ->
      if not (String.equal f.Program.name "main") then f
      else
        {
          f with
          Program.body =
            List.map
              (function
                | Program.Ins (Instr.Mov (r, Instr.Imm v)) when (not !bumped) && is_temp r ->
                  bumped := true;
                  Program.Ins (Instr.Mov (r, Instr.Imm (Int64.add v 1L)))
                | item -> item)
              f.Program.body;
        })
    p

let planted_cfg =
  {
    Oracle.default_config with
    Oracle.schemes = [ Scheme.unprotected ];
    optimize = [ false ];
    transform = Some plant_wrong_constant;
  }

let test_planted_bug_caught_and_shrunk () =
  (* scan seeds until the mutation is observable (some programs never
     consume the poisoned temp) *)
  let rec hunt i =
    if i >= 50 then Alcotest.fail "planted miscompilation never observed in 50 seeds"
    else
      let prog = Driver.program_of_seed ~campaign_seed:smoke_seed i in
      match Oracle.check planted_cfg prog with
      | Oracle.Disagree { divergences; _ } -> (i, prog, divergences)
      | _ -> hunt (i + 1)
  in
  let seed, prog, ds = hunt 0 in
  Alcotest.(check bool) "at least one divergence" true (ds <> []);
  (* the clean pipeline agrees on the very same program *)
  (match Oracle.check { planted_cfg with Oracle.transform = None } prog with
  | Oracle.Agree _ -> ()
  | _ -> Alcotest.fail "clean pipeline should agree");
  let diverges p =
    match Oracle.check planted_cfg p with Oracle.Disagree _ -> true | _ -> false
  in
  let small = Shrink.shrink ~keep:diverges prog in
  let size = Ast.program_size small in
  Alcotest.(check bool) "shrink kept the divergence" true (diverges small);
  Alcotest.(check bool)
    (Printf.sprintf "seed %d shrunk from %d to %d statements (<= 10)" seed
       (Ast.program_size prog) size)
    true (size <= 10);
  (* triage buckets the divergences coherently *)
  let failures = List.map (Driver.failure_of_divergence ~seed) ds in
  match Triage.buckets failures with
  | [] -> Alcotest.fail "no triage bucket"
  | b :: _ -> Alcotest.(check int) "bucket counts all entries" (List.length failures) b.Triage.count

(* A scheme-conditional miscompilation: the wrong constant is planted
   only where [main] links the pacstack chain ([pacia lr, cr] in its
   prologue). A divergent seed still counts every variant it compared
   as a machine run, not just the divergent ones. *)
let links_chain (p : Program.t) =
  match Program.find_func p "main" with
  | Some f -> List.mem (Instr.Pacia (Reg.lr, Reg.cr)) (Program.instructions f)
  | None -> false

let test_divergent_seed_counts_runs () =
  let cfg =
    {
      Oracle.default_config with
      Oracle.transform = Some (fun p -> if links_chain p then plant_wrong_constant p else p);
    }
  in
  let rec hunt i =
    if i >= 50 then Alcotest.fail "chain-only miscompilation never observed in 50 seeds"
    else
      let s = Driver.run_seed cfg ~campaign_seed:smoke_seed i in
      if s.Driver.failures <> [] then (i, s) else hunt (i + 1)
  in
  let seed, s = hunt 0 in
  Alcotest.(check int) "every variant counted" (2 * List.length Scheme.all) s.Driver.runs;
  let prog = Driver.program_of_seed ~campaign_seed:smoke_seed seed in
  let chained =
    List.filter_map
      (fun scheme ->
        if links_chain (Pacstack_minic.Compile.compile ~scheme prog) then
          Some (Scheme.to_string scheme)
        else None)
      Scheme.all
  in
  Alcotest.(check bool) "only some schemes link the chain" true
    (chained <> [] && List.length chained < List.length Scheme.all);
  List.iter
    (fun (f : Driver.failure) ->
      Alcotest.(check bool) (f.Driver.scheme ^ " links the chain") true
        (List.mem f.Driver.scheme chained))
    s.Driver.failures

(* --- shrinker sanity -------------------------------------------------------- *)

let test_shrink_fixpoint_is_minimal () =
  (* shrinking with an always-true predicate must reach a program the
     reducer cannot shrink further, without looping forever *)
  let prog = Driver.program_of_seed ~campaign_seed:smoke_seed 5 in
  let small = Shrink.shrink ~keep:(fun _ -> true) prog in
  Alcotest.(check bool) "shrunk below original" true
    (Ast.program_size small <= Ast.program_size prog);
  Alcotest.(check bool) "no reduction left" true (Shrink.candidates small = [])

let () =
  Alcotest.run "fuzz"
    [
      ( "interp",
        [
          Alcotest.test_case "basics" `Quick test_interp_basics;
          Alcotest.test_case "matches machine" `Quick test_interp_matches_machine;
        ] );
      ("gen", [ Alcotest.test_case "deterministic" `Quick test_generator_deterministic ]);
      ( "differential",
        [
          Alcotest.test_case "200-seed smoke" `Quick test_smoke_200_seeds;
          Alcotest.test_case "workers-identical" `Quick test_smoke_workers_identical;
        ] );
      ( "planted-bug",
        [
          Alcotest.test_case "caught and shrunk" `Quick test_planted_bug_caught_and_shrunk;
          Alcotest.test_case "divergent seed counts every run" `Quick
            test_divergent_seed_counts_runs;
        ] );
      ("shrink", [ Alcotest.test_case "fixpoint" `Quick test_shrink_fixpoint_is_minimal ]);
    ]

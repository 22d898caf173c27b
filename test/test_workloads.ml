(* Tests for the workload suites: determinism and scheme-independence of
   the SPEC-like kernels, the server model's expected behaviour, and the
   full compatibility matrix. *)

module Scheme = Pacstack_harden.Scheme
module Speclike = Pacstack_workloads.Speclike
module Server = Pacstack_workloads.Server
module Confirm = Pacstack_workloads.Confirm
module Scenarios = Pacstack_workloads.Scenarios
module Compile = Pacstack_minic.Compile
module Machine = Pacstack_machine.Machine
module Memory = Pacstack_machine.Memory

(* --- SPEC-like kernels --------------------------------------------------------- *)

let test_benchmarks_deterministic () =
  List.iter
    (fun b ->
      let m1 = Speclike.measure ~scheme:Scheme.unprotected Speclike.Rate b in
      let m2 = Speclike.measure ~scheme:Scheme.unprotected Speclike.Rate b in
      Alcotest.(check int64) (b.Speclike.name ^ " checksum stable") m1.Speclike.checksum
        m2.Speclike.checksum;
      Alcotest.(check int) (b.Speclike.name ^ " cycles stable") m1.Speclike.cycles
        m2.Speclike.cycles)
    Speclike.all

let test_schemes_preserve_semantics () =
  List.iter
    (fun b ->
      let base = Speclike.measure ~scheme:Scheme.unprotected Speclike.Rate b in
      List.iter
        (fun scheme ->
          let m = Speclike.measure ~scheme Speclike.Rate b in
          Alcotest.(check int64)
            (Printf.sprintf "%s under %s" b.Speclike.name (Scheme.to_string scheme))
            base.Speclike.checksum m.Speclike.checksum)
        Scheme.all)
    Speclike.all

let test_overhead_ordering () =
  (* for every benchmark: 0 <= nomask <= masked, and instrumentation never
     speeds a program up *)
  List.iter
    (fun b ->
      let base = Speclike.measure ~scheme:Scheme.unprotected Speclike.Rate b in
      let nomask = Speclike.measure ~scheme:Scheme.pacstack_nomask Speclike.Rate b in
      let masked = Speclike.measure ~scheme:Scheme.pacstack Speclike.Rate b in
      Alcotest.(check bool) (b.Speclike.name ^ " nomask >= baseline") true
        (nomask.Speclike.cycles >= base.Speclike.cycles);
      Alcotest.(check bool) (b.Speclike.name ^ " masked >= nomask") true
        (masked.Speclike.cycles >= nomask.Speclike.cycles))
    Speclike.all

let test_call_density_spectrum () =
  (* gcc (call-heavy) must show strictly more PACStack overhead than lbm
     (no calls in the hot loop) — the Figure 5 shape *)
  let overhead name =
    let b = Option.get (Speclike.find name) in
    let base = Speclike.measure ~scheme:Scheme.unprotected Speclike.Rate b in
    Speclike.overhead_pct ~baseline:base (Speclike.measure ~scheme:Scheme.pacstack Speclike.Rate b)
  in
  let gcc = overhead "gcc" and lbm = overhead "lbm" in
  Alcotest.(check bool) (Printf.sprintf "gcc %.2f%% >> lbm %.2f%%" gcc lbm) true
    (gcc > 10.0 *. (lbm +. 0.01))

let test_speed_variant_larger () =
  let b = Option.get (Speclike.find "mcf") in
  let rate = Speclike.measure ~scheme:Scheme.unprotected Speclike.Rate b in
  let speed = Speclike.measure ~scheme:Scheme.unprotected Speclike.Speed b in
  Alcotest.(check bool) "speed runs longer" true (speed.Speclike.cycles > 2 * rate.Speclike.cycles)

(* mini-C keeps locals in stack slots and globals in the data region,
   so a kernel's loads and stores alternate between pages that must
   share the data TLB without evicting each other. *)
let test_data_tlb_refill_rate () =
  let b = Option.get (Speclike.find "mcf") in
  List.iter
    (fun scheme ->
      let m = Machine.load (Compile.compile ~scheme (b.Speclike.program Speclike.Rate)) in
      (match Machine.run ~fuel:100_000_000 m with
      | Machine.Halted 0 -> ()
      | _ -> Alcotest.fail ("mcf did not halt under " ^ Scheme.to_string scheme));
      let refills, _ = Memory.tlb_misses (Machine.memory m) in
      let steps = Machine.instructions_retired m in
      Alcotest.(check bool)
        (Printf.sprintf "mcf under %s: %d data-TLB refills in %d steps" (Scheme.to_string scheme)
           refills steps)
        true
        (refills * 1000 < steps))
    Scheme.all

let test_find () =
  Alcotest.(check bool) "finds perlbench" true (Speclike.find "perlbench" <> None);
  Alcotest.(check bool) "finds leela (C++)" true (Speclike.find "leela" <> None);
  Alcotest.(check bool) "rejects unknown" true (Speclike.find "doom" = None);
  Alcotest.(check int) "eight C benchmarks" 8 (List.length Speclike.all);
  Alcotest.(check int) "three C++ benchmarks" 3 (List.length Speclike.cpp)

let test_cpp_semantics_and_overheads () =
  List.iter
    (fun b ->
      let base = Speclike.measure ~scheme:Scheme.unprotected Speclike.Rate b in
      let masked = Speclike.measure ~scheme:Scheme.pacstack Speclike.Rate b in
      Alcotest.(check int64) (b.Speclike.name ^ " checksum") base.Speclike.checksum
        masked.Speclike.checksum;
      let oh = Speclike.overhead_pct ~baseline:base masked in
      Alcotest.(check bool)
        (Printf.sprintf "%s overhead %.2f%% in the paper's C++ ballpark" b.Speclike.name oh)
        true
        (oh > 0.3 && oh < 5.0))
    Speclike.cpp

(* --- server ----------------------------------------------------------------------- *)

let test_server_overheads () =
  let base4 = Server.measure ~scheme:Scheme.unprotected ~workers:4 ~variants:4 () in
  let pac4 = Server.measure ~scheme:Scheme.pacstack ~workers:4 ~variants:4 () in
  let base8 = Server.measure ~scheme:Scheme.unprotected ~workers:8 ~variants:4 () in
  let pac8 = Server.measure ~scheme:Scheme.pacstack ~workers:8 ~variants:4 () in
  let oh4 = Server.overhead_pct ~baseline:base4 pac4 in
  let oh8 = Server.overhead_pct ~baseline:base8 pac8 in
  Alcotest.(check bool) "4-worker overhead positive" true (oh4 > 1.0 && oh4 < 15.0);
  Alcotest.(check bool) "8 workers contend more" true (oh8 > oh4);
  Alcotest.(check bool) "8 workers still faster overall" true
    (base8.Server.req_per_sec > base4.Server.req_per_sec);
  Alcotest.(check bool) "sigma from request jitter" true (base4.Server.sigma > 0.0)

let test_server_validation () =
  Alcotest.check_raises "too few variants" (Invalid_argument "Server.measure") (fun () ->
      ignore (Server.measure ~scheme:Scheme.unprotected ~workers:4 ~variants:1 ()))

(* --- confirm ---------------------------------------------------------------------- *)

let test_confirm_all_pass () =
  List.iter
    (fun scheme ->
      List.iter
        (fun (t, outcome) ->
          match outcome with
          | Confirm.Pass -> ()
          | Confirm.Fail m ->
            Alcotest.fail
              (Printf.sprintf "%s under %s: %s" t.Confirm.name (Scheme.to_string scheme) m))
        (Confirm.run_all ~scheme))
    Scheme.all

let test_confirm_count () =
  Alcotest.(check int) "eleven tests, as in the paper" 11 (List.length Confirm.all)

(* --- scenarios ---------------------------------------------------------------------- *)

let test_scenarios_compile_everywhere () =
  List.iter
    (fun scheme ->
      List.iter
        (fun prog -> ignore (Compile.compile ~scheme prog))
        [
          Scenarios.listing6 ~rounds:2;
          Scenarios.tail_call_victim;
          Scenarios.sigreturn_victim;
          Scenarios.unwind_victim ~depth:3;
        ])
    Scheme.all

let test_listing6_benign_output () =
  (* unattacked victim: each round prints 3, then a final 0 *)
  let m =
    Machine.load (Compile.compile ~scheme:Scheme.pacstack (Scenarios.listing6 ~rounds:3))
  in
  (match Machine.run ~fuel:1_000_000 m with
  | Machine.Halted 0 -> ()
  | _ -> Alcotest.fail "victim failed");
  Alcotest.(check (list int64)) "benign trace" [ 3L; 3L; 3L; 0L ] (Machine.output m)

let () =
  Alcotest.run "workloads"
    [
      ( "speclike",
        [
          Alcotest.test_case "deterministic" `Quick test_benchmarks_deterministic;
          Alcotest.test_case "schemes preserve semantics" `Slow test_schemes_preserve_semantics;
          Alcotest.test_case "overhead ordering" `Quick test_overhead_ordering;
          Alcotest.test_case "call-density spectrum" `Quick test_call_density_spectrum;
          Alcotest.test_case "speed variant" `Quick test_speed_variant_larger;
          Alcotest.test_case "data-TLB refill rate" `Quick test_data_tlb_refill_rate;
          Alcotest.test_case "catalogue" `Quick test_find;
          Alcotest.test_case "C++ kernels" `Quick test_cpp_semantics_and_overheads;
        ] );
      ( "server",
        [
          Alcotest.test_case "overheads" `Quick test_server_overheads;
          Alcotest.test_case "validation" `Quick test_server_validation;
        ] );
      ( "confirm",
        [
          Alcotest.test_case "all pass under all schemes" `Slow test_confirm_all_pass;
          Alcotest.test_case "eleven tests" `Quick test_confirm_count;
        ] );
      ( "scenarios",
        [
          Alcotest.test_case "compile everywhere" `Quick test_scenarios_compile_everywhere;
          Alcotest.test_case "listing 6 benign trace" `Quick test_listing6_benign_output;
        ] );
    ]

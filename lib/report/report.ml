module Rng = Pacstack_util.Rng
module Stats = Pacstack_util.Stats
module Games = Pacstack_acs.Games
module Scheme = Pacstack_harden.Scheme
module Speclike = Pacstack_workloads.Speclike
module Server = Pacstack_workloads.Server
module Confirm = Pacstack_workloads.Confirm
module Scenarios = Pacstack_workloads.Scenarios
module Adversary = Pacstack_attacker.Adversary
module Reuse = Pacstack_attacker.Reuse
module Gadget = Pacstack_attacker.Gadget
module Sigreturn = Pacstack_attacker.Sigreturn
module Kernel = Pacstack_machine.Kernel
module Machine = Pacstack_machine.Machine
module Unwind = Pacstack_machine.Unwind
module Compile = Pacstack_minic.Compile

let section fmt title = Format.fprintf fmt "@.=== %s ===@." title

(* --- Table 1 ----------------------------------------------------------- *)

(* Routed through the campaign engine: the per-cell trials are sharded
   by Plans.table1_plan, so the same table can be regenerated on one
   worker (the default — sequential, reproducible anywhere) or on many
   with bitwise-identical numbers. *)
let table1 ?seed ?workers ?scale ?progress fmt =
  section fmt "Table 1: max success probability of call-stack integrity violations";
  ignore (Plans.execute ?seed ?workers ?scale ?progress Plans.table1 fmt)

(* --- Table 2 / Figure 5 ------------------------------------------------ *)

let schemes_measured =
  [ Scheme.pacstack; Scheme.pacstack_nomask; Scheme.shadow_stack; Scheme.branch_protection;
    Scheme.stack_protector; Scheme.pcan; Scheme.zipper; Scheme.pactight; Scheme.parts ]

(* Per benchmark, each scheme's overhead over the unprotected build; every
   build must print the baseline's checksum. *)
let spec_overheads ?(benches = Speclike.all) ?(schemes = schemes_measured) variant =
  List.map
    (fun bench ->
      let baseline = Speclike.measure ~scheme:Scheme.unprotected variant bench in
      let per_scheme =
        List.map
          (fun scheme ->
            let m = Speclike.measure ~scheme variant bench in
            if not (Int64.equal m.Speclike.checksum baseline.Speclike.checksum) then
              failwith (bench.Speclike.name ^ ": checksum mismatch under " ^ Scheme.to_string scheme);
            (scheme, Speclike.overhead_pct ~baseline m))
          schemes
      in
      (bench, per_scheme))
    benches

(* geometric mean of (1 + overhead) ratios over the benchmarks, reported
   back as a percentage *)
let geomean_overhead table scheme =
  let ratios = List.map (fun (_, per) -> 1.0 +. (List.assoc scheme per /. 100.0)) table in
  (Stats.geometric_mean ratios -. 1.0) *. 100.0

(* keyed by canonical name: the registry is open, and the paper only
   reports numbers for the schemes it measured *)
let paper_table2 scheme =
  match Scheme.to_string scheme with
  | "pacstack" -> Some (2.75, 3.28)
  | "pacstack-nomask" -> Some (0.86, 1.56)
  | "shadow-call-stack" -> Some (0.85, 0.77)
  | "branch-protection" -> Some (0.43, 0.72)
  | "stack-protector-strong" -> Some (0.43, 0.25)
  | "baseline" -> Some (0.0, 0.0)
  | _ -> None

(* the paper reports the C++ benchmarks separately *)
let paper_cpp scheme =
  match Scheme.to_string scheme with
  | "pacstack" -> "2.0%"
  | "pacstack-nomask" -> "0.9%"
  | _ -> "-"

(* measured calls per 1000 instructions of the baseline build — the
   paper's §7.1 "overhead is proportional to call frequency" evidence *)
let call_density bench =
  let program = Compile.compile ~scheme:Scheme.unprotected (bench.Speclike.program Speclike.Rate) in
  match Pacstack_machine.Profile.run ~fuel:100_000_000 (Machine.load program) with
  | Machine.Halted 0, profile -> Pacstack_machine.Profile.call_density profile
  | _ -> failwith (bench.Speclike.name ^ ": profiling run failed")

type overheads = {
  figure5 : (string * float * (Scheme.t * float) list) list;
  table2 : (Scheme.t * float * float) list;
  cpp : (Scheme.t * float) list;
}

let overheads () =
  let rate = spec_overheads Speclike.Rate in
  let speed = spec_overheads Speclike.Speed in
  let cpp_schemes = [ Scheme.pacstack; Scheme.pacstack_nomask ] in
  let cpp = spec_overheads ~benches:Speclike.cpp ~schemes:cpp_schemes Speclike.Rate in
  {
    figure5 = List.map (fun (bench, per) -> (bench.Speclike.name, call_density bench, per)) rate;
    table2 =
      List.map
        (fun s -> (s, geomean_overhead rate s, geomean_overhead speed s))
        schemes_measured;
    cpp = List.map (fun s -> (s, geomean_overhead cpp s)) cpp_schemes;
  }

let pp_overheads fmt o =
  section fmt "Figure 5: per-benchmark overhead w.r.t. baseline (%, SPECrate-like)";
  Format.fprintf fmt "%-12s %10s" "benchmark" "calls/ki";
  List.iter (fun (s, _, _) -> Format.fprintf fmt " %18s" (Scheme.to_string s)) o.table2;
  Format.fprintf fmt "@.";
  List.iter
    (fun (name, density, per_scheme) ->
      Format.fprintf fmt "%-12s %10.1f" name density;
      List.iter (fun (_, oh) -> Format.fprintf fmt " %17.2f%%" oh) per_scheme;
      Format.fprintf fmt "@.")
    o.figure5;
  section fmt "Table 2: geometric mean of overheads";
  Format.fprintf fmt "%-24s %14s %14s %20s@." "scheme" "SPECrate" "SPECspeed"
    "paper (rate/speed)";
  List.iter
    (fun (scheme, rate, speed) ->
      let paper =
        match paper_table2 scheme with
        | Some (p_rate, p_speed) -> Format.asprintf "%.2f%%/%.2f%%" p_rate p_speed
        | None -> "-"
      in
      Format.fprintf fmt "%-24s %13.2f%% %13.2f%% %20s@." (Scheme.to_string scheme) rate speed
        paper)
    o.table2;
  Format.fprintf fmt "@.C++-like benchmarks (omnetpp, leela, xalancbmk):@.";
  List.iter
    (fun (scheme, oh) ->
      Format.fprintf fmt "  %-15s %5.2f%%  (paper %s)@." (Scheme.to_string scheme) oh
        (paper_cpp scheme))
    o.cpp

let table2_and_figure5 fmt = pp_overheads fmt (overheads ())

(* --- Table 3 ------------------------------------------------------------ *)

let table3 fmt =
  section fmt "Table 3: SSL transactions per second (NGINX-style server)";
  Format.fprintf fmt "%-8s %-18s %12s %8s %10s %18s@." "workers" "scheme" "req/s" "sigma"
    "overhead" "paper req/s (oh)";
  let paper workers scheme =
    match (workers, Scheme.to_string scheme) with
    | 4, "baseline" -> "14.2k"
    | 4, "pacstack-nomask" -> "13.7k (3.5%)"
    | 4, "pacstack" -> "13.5k (4.9%)"
    | 8, "baseline" -> "30.7k"
    | 8, "pacstack-nomask" -> "28.6k (6.8%)"
    | 8, "pacstack" -> "27.2k (11.4%)"
    | _ -> "-"
  in
  List.iter
    (fun ((r : Server.result), overhead) ->
      Format.fprintf fmt "%-8d %-18s %11.1fk %8.0f %9.1f%% %18s@." r.Server.workers
        (Scheme.to_string r.Server.scheme)
        (r.Server.req_per_sec /. 1000.0)
        r.Server.sigma overhead
        (paper r.Server.workers r.Server.scheme))
    (Plans.compute Plans.server)

(* --- security experiments ---------------------------------------------- *)

let reuse_matrix fmt =
  section fmt "Reuse attacks on the Listing 6 victim (paper 6.1)";
  Format.fprintf fmt "%-26s" "strategy \\ scheme";
  List.iter (fun s -> Format.fprintf fmt " %22s" (Scheme.to_string s)) Scheme.all;
  Format.fprintf fmt "@.";
  List.iter
    (fun (strategy, row) ->
      Format.fprintf fmt "%-26s" (Reuse.strategy_to_string strategy);
      List.iter
        (fun (_, outcome) -> Format.fprintf fmt " %22s" (Adversary.outcome_to_string outcome))
        row;
      Format.fprintf fmt "@.")
    (Reuse.matrix ())

let birthday ?(seed = Plans.birthday.Plans.default_seed) ?workers ?(scale = 1.0) ?progress fmt =
  section fmt "Collisions (paper 6.2.1) and mask hiding (Appendix A)";
  ignore (Plans.execute ~seed ?workers ~scale ?progress Plans.birthday fmt);
  (* the Appendix A distinguisher games stay sequential on their own stream *)
  let rng = Rng.create seed in
  let trials = max 1 (int_of_float ((3000.0 *. scale) +. 0.5)) in
  let adv = Games.mask_distinguisher_advantage ~bits:12 ~queries:256 ~trials rng in
  Format.fprintf fmt
    "mask distinguisher advantage (b=12, 256 queries): %.4f (theory: negligible)@." adv;
  let th = Games.theorem1_check ~bits:10 ~queries:128 ~trials rng in
  Format.fprintf fmt
    "Theorem 1 (Appendix A): collision adv %.4f <= 2 x distinguisher adv + slack = %.4f: %b@."
    th.Games.collision_advantage th.Games.bound th.Games.holds

let bruteforce ?seed ?workers ?scale ?progress fmt =
  section fmt "Brute-force guessing (paper 4.3)";
  ignore (Plans.execute ?seed ?workers ?scale ?progress Plans.guessing fmt);
  ignore (Plans.execute ?seed ?workers ?scale ?progress Plans.bruteforce fmt)

let gadget fmt =
  section fmt "PA signing gadget (paper 6.3.1)";
  let rng = Rng.create 4L in
  let prf = Pacstack_pa.Prf.of_rng rng in
  let cfg = Pacstack_pa.Config.default in
  Format.fprintf fmt "aut;pac gadget forges a valid PAC for an arbitrary pointer: %b@."
    (Gadget.gadget_forges_valid_pointer cfg prf ~target:0x1234_5678L ~modifier:0xabcdL);
  Format.fprintf fmt "gadget-forged aret injected across a tail call (PACStack):        %s@."
    (Adversary.outcome_to_string (Gadget.tail_call_attack ~masked:true));
  Format.fprintf fmt "gadget-forged aret injected across a tail call (PACStack-nomask): %s@."
    (Adversary.outcome_to_string (Gadget.tail_call_attack ~masked:false))

let sigreturn fmt =
  section fmt "Sigreturn-oriented programming (paper 6.3.2, Appendix B)";
  Format.fprintf fmt "benign signal round-trip, unprotected kernel: %b@."
    (Sigreturn.benign_roundtrip ~policy:Kernel.Sig_unprotected);
  Format.fprintf fmt "benign signal round-trip, asigret-chained kernel: %b@."
    (Sigreturn.benign_roundtrip ~policy:Kernel.Sig_chained);
  Format.fprintf fmt "forged sigreturn frame, unprotected kernel: %s@."
    (Adversary.outcome_to_string (Sigreturn.attack ~policy:Kernel.Sig_unprotected ()));
  Format.fprintf fmt "forged sigreturn frame, asigret-chained kernel: %s@."
    (Adversary.outcome_to_string (Sigreturn.attack ~policy:Kernel.Sig_chained ()));
  Format.fprintf fmt "forged sigreturn frame, full-register pacga chain: %s@."
    (Adversary.outcome_to_string (Sigreturn.attack ~policy:Kernel.Sig_chained_full ()))

let unwind_demo fmt =
  section fmt "ACS-validated unwinding (paper 9.1)";
  let depth = 6 in
  let program = Compile.compile ~scheme:Scheme.pacstack (Scenarios.unwind_victim ~depth) in
  let m = Machine.load program in
  let report = ref [] in
  Machine.attach_hook m "deep" (fun m ->
      let jb = Option.get (Adversary.symbol m "jb") in
      let target_aret = Option.get (Adversary.read m (Int64.add jb 72L)) in
      let target_sp = Option.get (Adversary.read m (Int64.add jb 96L)) in
      (match Unwind.backtrace m with
      | Ok frames ->
        report := Printf.sprintf "validated backtrace: %d frames" (List.length frames) :: !report
      | Error e -> report := Printf.sprintf "backtrace failed at depth %d: %s" e.Unwind.depth e.Unwind.reason :: !report);
      (match Unwind.unwind_to m ~target_sp ~target_aret with
      | Ok d -> report := Printf.sprintf "validated longjmp target found after %d frames" d :: !report
      | Error e -> report := Printf.sprintf "validated longjmp refused: %s" e.Unwind.reason :: !report);
      (match Unwind.unwind_to m ~target_sp ~target_aret:(Int64.logxor target_aret 0xff0000000000L) with
      | Ok d -> report := Printf.sprintf "FORGED target accepted after %d frames (BAD)" d :: !report
      | Error e ->
        report := Printf.sprintf "forged longjmp target rejected: %s" e.Unwind.reason :: !report);
      (* the 9.1 proposal end-to-end: the unwinder itself performs the
         validated non-local transfer *)
      match Unwind.validated_longjmp m ~jmp_buf:jb ~value:77L with
      | Ok d -> report := Printf.sprintf "validated_longjmp transferred after %d frames" d :: !report
      | Error e -> report := Printf.sprintf "validated_longjmp refused: %s" e.Unwind.reason :: !report);
  (match Machine.run ~fuel:1_000_000 m with
  | Machine.Halted 0 -> ()
  | Machine.Halted c -> Format.fprintf fmt "victim exited %d@." c
  | Machine.Faulted f -> Format.fprintf fmt "victim faulted: %s@." (Pacstack_machine.Trap.to_string f)
  | Machine.Out_of_fuel -> Format.fprintf fmt "victim out of fuel@.");
  List.iter (fun line -> Format.fprintf fmt "%s@." line) (List.rev !report);
  Format.fprintf fmt "longjmp landed with value: %s@."
    (String.concat ", " (List.map Int64.to_string (Machine.output m)))

let interop fmt =
  section fmt "Mixed instrumented/uninstrumented deployment (paper 9.2)";
  let app = [ "main"; "func"; "a"; "b" ] in
  let show label outcome = Format.fprintf fmt "%-52s %s@." label (Adversary.outcome_to_string outcome) in
  show "sibling reuse, everything PACStack-protected:"
    (Reuse.attack ~scheme:Scheme.pacstack Reuse.Sibling_reuse);
  show "app protected, library uninstrumented:"
    (Reuse.attack ~scheme:Scheme.unprotected
       ~overrides:(List.map (fun f -> (f, Scheme.pacstack)) app)
       Reuse.Sibling_reuse);
  show "library protected, app uninstrumented:"
    (Reuse.attack ~scheme:Scheme.pacstack
       ~overrides:(List.map (fun f -> (f, Scheme.unprotected)) app)
       Reuse.Sibling_reuse);
  Format.fprintf fmt
    "(partial protection helps only the instrumented functions; returns in the@.";
  Format.fprintf fmt " unprotected app remain attackable, as 9.2 cautions)@."

let forward_cfi fmt =
  section fmt "Forward-edge CFI, assumption A2 (paper 3, 6.3)";
  List.iter
    (fun ((cfi, target), outcome) ->
      Format.fprintf fmt "CFI %-9s function pointer -> %-22s %s@."
        (if cfi then "enforced," else "disabled,")
        (match target with
        | Pacstack_attacker.Forward_cfi.Entry_of_evil -> "another function entry:"
        | Pacstack_attacker.Forward_cfi.Mid_function -> "mid-function address:")
        (Adversary.outcome_to_string outcome))
    (Pacstack_attacker.Forward_cfi.summary ());
  Format.fprintf fmt
    "(coarse CFI admits wrong-but-valid entries - exactly why backward-edge@.";
  Format.fprintf fmt " protection is still required; mid-function targets are rejected)@.";
  Format.fprintf fmt "@.Pointer sealing, coarse CFI disabled:@.";
  List.iter
    (fun ((scheme, target), outcome) ->
      Format.fprintf fmt "%-16s function pointer -> %-22s %s@." (Scheme.to_string scheme)
        (match target with
        | Pacstack_attacker.Forward_cfi.Entry_of_evil -> "another function entry:"
        | Pacstack_attacker.Forward_cfi.Mid_function -> "mid-function address:")
        (Adversary.outcome_to_string outcome))
    (Pacstack_attacker.Forward_cfi.sealing_summary ());
  Format.fprintf fmt
    "(sealed dispatch entries fail authentication after a raw overwrite -@.";
  Format.fprintf fmt " the sealing schemes subsume assumption A2 at the call site)@."

let gadget_surface fmt =
  section fmt "ROP gadget surface (paper 2.1, 9.2)";
  let victim = Scenarios.listing6 ~rounds:2 in
  Format.fprintf fmt "%-24s %s@." "scheme" "return sites";
  List.iter
    (fun scheme ->
      let r = Pacstack_attacker.Gadget_scan.scan_scheme scheme victim in
      Format.fprintf fmt "%-24s %a@." (Scheme.to_string scheme)
        Pacstack_attacker.Gadget_scan.pp r)
    Scheme.all;
  Format.fprintf fmt
    "(PA-based schemes leave no plainly-usable return gadgets - the 9.2 point@.";
  Format.fprintf fmt " that protected libraries remove gadgets from the adversary's pool)@."

let sp_collisions fmt =
  section fmt "SP-modifier reuse (paper 2.2.1: why the SP is a weak modifier)";
  List.iter
    (fun name ->
      match Speclike.find name with
      | None -> ()
      | Some bench ->
        let program = Compile.compile ~scheme:Scheme.unprotected (bench.Speclike.program Speclike.Rate) in
        let m = Machine.load program in
        let image = Machine.image m in
        let seen = Hashtbl.create 256 in
        let calls = ref 0 in
        (* an observer: at each call boundary, before the call executes,
           record the SP a return-address signature would use *)
        let observe m =
          (match Pacstack_machine.Image.fetch image (Machine.pc m) with
          | Some (Pacstack_isa.Instr.Bl _ | Pacstack_isa.Instr.Blr _) ->
            incr calls;
            let sp = Machine.get m Pacstack_isa.Reg.SP in
            Hashtbl.replace seen sp (1 + Option.value (Hashtbl.find_opt seen sp) ~default:0)
          | _ -> ());
          false
        in
        (match Machine.run_until ~fuel:100_000_000 m ~stop:observe with
        | Some (Machine.Halted 0) -> ()
        | _ -> failwith (name ^ ": SP-stat run failed"));
        let distinct = Hashtbl.length seen in
        let repeats = !calls - distinct in
        Format.fprintf fmt
          "%-12s %7d calls use only %5d distinct SP values (%.1f%% of signatures reuse a modifier)@."
          name !calls distinct
          (100.0 *. float_of_int repeats /. float_of_int (max 1 !calls)))
    [ "perlbench"; "gcc"; "mcf"; "x264" ]

let confirm fmt =
  section fmt "ConFIRM-style compatibility suite (paper 7.3)";
  Format.fprintf fmt "%-20s" "test \\ scheme";
  List.iter (fun s -> Format.fprintf fmt " %22s" (Scheme.to_string s)) Scheme.all;
  Format.fprintf fmt "@.";
  let rows = List.map (fun scheme -> (scheme, Confirm.run_all ~scheme)) Scheme.all in
  List.iteri
    (fun idx t ->
      Format.fprintf fmt "%-20s" t.Confirm.name;
      List.iter
        (fun (_, results) ->
          let _, outcome = List.nth results idx in
          let cell = match outcome with Confirm.Pass -> "pass" | Confirm.Fail m -> "FAIL:" ^ m in
          Format.fprintf fmt " %22s" cell)
        rows;
      Format.fprintf fmt "@.")
    Confirm.all

(* --- fault injection ---------------------------------------------------- *)

let injection ?(seed = 7L) ?workers ?(faults = 120) ?progress fmt =
  section fmt "Fault injection: detection rate per scheme";
  ignore (Plans.inject_execute ~faults ?workers ?progress ~seed fmt)

let fleet ?(seed = 7L) ?workers ?(connections = 192) ?progress fmt =
  section fmt "Fleet simulation: per-scheme tail latency under open-loop load";
  let cfg =
    { Pacstack_fleet.Fleet.default with connections; duration_s = 1.0; cells = 4; seed }
  in
  ignore (Plans.fleet_execute cfg ?workers ?progress ~seed fmt)

(* --- observability ------------------------------------------------------ *)

module Obs = Pacstack_obs.Obs

let observability ?(scheme = Scheme.pacstack) fmt =
  section fmt "Observability: lib/obs metrics from an instrumented sampler";
  Obs.enable ();
  Obs.reset ();
  (* A small slice of every instrumented layer: one server measurement
     (machine + harden + server counters under [scheme]), two fuzz seeds
     (2 machine runs per registered scheme each, peephole off and on) and
     one injected fault under every registered scheme. *)
  ignore (Server.measure ~scheme ~workers:4 ~variants:2 ());
  ignore
    (Pacstack_fuzz.Driver.run_range Pacstack_fuzz.Oracle.default_config
       ~campaign_seed:1L ~lo:0 ~hi:2);
  ignore
    (Pacstack_inject.Engine.run_fault Pacstack_inject.Engine.default_config
       ~campaign_seed:1L 0);
  Obs.disable ();
  Format.fprintf fmt
    "sampler: server x1 (%s, 4 workers), fuzz seeds x2, faults x1 (all schemes)@.@."
    (Scheme.to_string scheme);
  Obs.Metrics.pp_snapshot fmt (Obs.Metrics.snapshot ());
  Format.fprintf fmt "trace events: %d (dropped %d)@."
    (List.length (Obs.Trace.events ()))
    (Obs.Trace.dropped ())

let all ?(seed = 1L) ?(workers = 1) fmt =
  table1 ~seed ~workers fmt;
  table2_and_figure5 fmt;
  table3 fmt;
  reuse_matrix fmt;
  birthday ~seed ~workers fmt;
  bruteforce ~seed ~workers fmt;
  gadget fmt;
  sigreturn fmt;
  unwind_demo fmt;
  interop fmt;
  forward_cfi fmt;
  gadget_surface fmt;
  sp_collisions fmt;
  injection ~workers fmt;
  fleet ~workers fmt;
  confirm fmt

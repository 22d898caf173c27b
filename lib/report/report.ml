module Rng = Pacstack_util.Rng
module Stats = Pacstack_util.Stats
module Word64 = Pacstack_util.Word64
module Analysis = Pacstack_acs.Analysis
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
module Bruteforce = Pacstack_attacker.Bruteforce
module Kernel = Pacstack_machine.Kernel
module Machine = Pacstack_machine.Machine
module Unwind = Pacstack_machine.Unwind
module Compile = Pacstack_minic.Compile

module Campaign = Pacstack_campaign.Campaign
module Progress = Pacstack_campaign.Progress

let section fmt title = Format.fprintf fmt "@.=== %s ===@." title

(* --- Table 1 ----------------------------------------------------------- *)

(* Routed through the campaign engine: the per-cell trials are sharded
   by Plans.table1_plan, so the same table can be regenerated on one
   worker (the default — sequential, reproducible anywhere) or on many
   with bitwise-identical numbers. *)
let table1 ?(seed = 1L) ?(workers = 1) ?(scale = 1.0) ?progress fmt =
  section fmt "Table 1: max success probability of call-stack integrity violations";
  let plan = Plans.table1_plan ~scale ~seed () in
  let outcome = Campaign.run ~workers ?progress plan in
  let per_cell = Plans.table1_estimates outcome in
  Format.fprintf fmt "%-34s %-8s %-6s %-12s %-12s@." "violation" "masking" "b" "paper(theory)"
    "measured";
  List.iteri
    (fun i (kind, masked, bits, _trials) ->
      let theory = Analysis.table1_success_probability ~masked kind ~bits in
      Format.fprintf fmt "%-34s %-8b %-6d %-12.2e %-12.2e@."
        (Format.asprintf "%a" Analysis.pp_violation_kind kind)
        masked bits theory per_cell.(i).Games.rate)
    Plans.table1_cells

(* --- Table 2 / Figure 5 ------------------------------------------------ *)

let schemes_measured =
  [ Scheme.pacstack; Scheme.pacstack_nomask; Scheme.shadow_stack; Scheme.branch_protection;
    Scheme.stack_protector; Scheme.pcan; Scheme.zipper; Scheme.pactight; Scheme.parts ]

(* geometric mean of (1 + overhead) ratios, reported back as a percentage *)
let geomean_overhead per_bench =
  (Stats.geometric_mean (List.map (fun oh -> 1.0 +. (oh /. 100.0)) per_bench) -. 1.0) *. 100.0

let spec_overheads variant =
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
          schemes_measured
      in
      (bench.Speclike.name, per_scheme))
    Speclike.all

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

(* measured calls per 1000 instructions of the baseline build — the
   paper's §7.1 "overhead is proportional to call frequency" evidence *)
let call_density bench =
  let program = Compile.compile ~scheme:Scheme.unprotected (bench.Speclike.program Speclike.Rate) in
  let m = Machine.load program in
  let profile = Pacstack_machine.Profile.attach m in
  (match Machine.run ~fuel:100_000_000 m with
  | Machine.Halted 0 -> ()
  | _ -> failwith (bench.Speclike.name ^ ": profiling run failed"));
  Pacstack_machine.Profile.call_density profile

let table2_and_figure5 fmt =
  let rate = spec_overheads Speclike.Rate in
  let speed = spec_overheads Speclike.Speed in
  section fmt "Figure 5: per-benchmark overhead w.r.t. baseline (%%, SPECrate-like)";
  Format.fprintf fmt "%-12s %10s" "benchmark" "calls/ki";
  List.iter (fun s -> Format.fprintf fmt " %18s" (Scheme.to_string s)) schemes_measured;
  Format.fprintf fmt "@.";
  List.iter2
    (fun bench (name, per_scheme) ->
      Format.fprintf fmt "%-12s %10.1f" name (call_density bench);
      List.iter (fun (_, oh) -> Format.fprintf fmt " %17.2f%%" oh) per_scheme;
      Format.fprintf fmt "@.")
    Speclike.all rate;
  section fmt "Table 2: geometric mean of overheads";
  Format.fprintf fmt "%-24s %14s %14s %20s@." "scheme" "SPECrate" "SPECspeed"
    "paper (rate/speed)";
  List.iter
    (fun scheme ->
      let mean_of table =
        geomean_overhead (List.map (fun (_, per) -> List.assoc scheme per) table)
      in
      let paper =
        match paper_table2 scheme with
        | Some (p_rate, p_speed) -> Format.asprintf "%.2f%%/%.2f%%" p_rate p_speed
        | None -> "-"
      in
      Format.fprintf fmt "%-24s %13.2f%% %13.2f%% %20s@." (Scheme.to_string scheme)
        (mean_of rate) (mean_of speed) paper)
    schemes_measured;
  (* the paper reports the C++ benchmarks separately: 2.0 %% masked,
     0.9 %% unmasked *)
  let cpp_mean scheme =
    geomean_overhead
      (List.map
         (fun bench ->
           let baseline = Speclike.measure ~scheme:Scheme.unprotected Speclike.Rate bench in
           Speclike.overhead_pct ~baseline (Speclike.measure ~scheme Speclike.Rate bench))
         Speclike.cpp)
  in
  Format.fprintf fmt "@.C++-like benchmarks (omnetpp, leela, xalancbmk):@.";
  Format.fprintf fmt "  pacstack        %5.2f%%  (paper 2.0%%)@." (cpp_mean Scheme.pacstack);
  Format.fprintf fmt "  pacstack-nomask %5.2f%%  (paper 0.9%%)@."
    (cpp_mean Scheme.pacstack_nomask)

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
    (fun workers ->
      let baseline = Server.measure ~scheme:Scheme.unprotected ~workers () in
      List.iter
        (fun scheme ->
          let r =
            if Scheme.equal scheme Scheme.unprotected then baseline
            else Server.measure ~scheme ~workers ()
          in
          Format.fprintf fmt "%-8d %-18s %11.1fk %8.0f %9.1f%% %18s@." workers
            (Scheme.to_string scheme)
            (r.Server.req_per_sec /. 1000.0)
            r.Server.sigma
            (Server.overhead_pct ~baseline r)
            (paper workers scheme))
        [ Scheme.unprotected; Scheme.pacstack_nomask; Scheme.pacstack;
          Scheme.pcan; Scheme.zipper; Scheme.pactight; Scheme.parts ])
    [ 4; 8 ]

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

let birthday ?(seed = 2L) ?(workers = 1) ?(scale = 1.0) ?progress fmt =
  section fmt "Collisions (paper 6.2.1) and mask hiding (Appendix A)";
  (* the harvest is sharded through the campaign engine; the Appendix A
     distinguisher games stay sequential on their own stream *)
  let plan = Plans.birthday_plan ~scale ~seed () in
  let outcome = Campaign.run ~workers ?progress plan in
  let measured = Plans.birthday_mean ~plan outcome in
  let rng = Rng.create seed in
  Format.fprintf fmt "tokens harvested until PAC collision (b=16): measured %.1f, paper ~%.1f@."
    measured
    (Analysis.collision_harvest_mean ~bits:16);
  let trials = max 1 (int_of_float ((3000.0 *. scale) +. 0.5)) in
  let adv = Games.mask_distinguisher_advantage ~bits:12 ~queries:256 ~trials rng in
  Format.fprintf fmt
    "mask distinguisher advantage (b=12, 256 queries): %.4f (theory: negligible)@." adv;
  let th = Games.theorem1_check ~bits:10 ~queries:128 ~trials rng in
  Format.fprintf fmt
    "Theorem 1 (Appendix A): collision adv %.4f <= 2 x distinguisher adv + slack = %.4f: %b@."
    th.Games.collision_advantage th.Games.bound th.Games.holds

let bruteforce ?(seed = 3L) ?(workers = 1) ?(scale = 1.0) ?progress fmt =
  section fmt "Brute-force guessing (paper 4.3)";
  let guessing = Plans.guessing_plan ~scale ~seed () in
  let means = Plans.guessing_means ~plan:guessing (Campaign.run ~workers ?progress guessing) in
  Format.fprintf fmt "%-38s %-6s %12s %12s@." "strategy" "b" "measured" "expected";
  List.iteri
    (fun i (strategy, bits, _trials) ->
      let expected =
        match strategy with
        | Games.Divide_and_conquer -> Analysis.guesses_divide_and_conquer ~bits
        | Games.Reseeded -> Analysis.guesses_reseeded ~bits
        | Games.Independent -> Analysis.guesses_independent ~bits
      in
      Format.fprintf fmt "%-38s %-6d %12.0f %12.0f@."
        (Format.asprintf "%a" Games.pp_guess_strategy strategy)
        bits means.(i) expected)
    Plans.guessing_rows;
  let machine = Plans.bruteforce_plan ~scale ~seed () in
  let outcome = Campaign.run ~workers ?progress machine in
  let trials = Pacstack_campaign.Plan.total_trials machine in
  let mean = float_of_int (Campaign.fold outcome ~init:0 ~f:( + )) /. float_of_int trials in
  Format.fprintf fmt
    "end-to-end forked-sibling attack (machine, b=%d): %.0f guesses/success (geometric mean expectation %.0f)@."
    6 mean (2.0 ** 6.0)

let gadget fmt =
  section fmt "PA signing gadget (paper 6.3.1)";
  let rng = Rng.create 4L in
  let prf = Pacstack_qarma.Prf.of_rng ~fast:true rng in
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
        let seen = Hashtbl.create 256 in
        let calls = ref 0 in
        Machine.set_tracer m
          (Some
             (fun m instr ->
               match instr with
               | Pacstack_isa.Instr.Bl _ | Pacstack_isa.Instr.Blr _ ->
                 incr calls;
                 let sp = Machine.get m Pacstack_isa.Reg.SP in
                 Hashtbl.replace seen sp (1 + Option.value (Hashtbl.find_opt seen sp) ~default:0)
               | _ -> ()));
        (match Machine.run ~fuel:100_000_000 m with
        | Machine.Halted 0 -> ()
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

let injection ?(seed = 7L) ?(workers = 1) ?(faults = 120) ?(progress = Progress.null) fmt =
  section fmt "Fault injection: detection rate per scheme";
  ignore (Plans.inject_execute ~faults ~workers ~seed ~checkpoint:None ~progress fmt)

let fleet ?(seed = 7L) ?(workers = 1) ?(connections = 192) ?(progress = Progress.null) fmt =
  section fmt "Fleet simulation: per-scheme tail latency under open-loop load";
  let cfg =
    { Pacstack_fleet.Fleet.default with connections; duration_s = 1.0; cells = 4; seed }
  in
  ignore (Plans.fleet_execute cfg ~workers ~seed ~checkpoint:None ~progress fmt)

(* --- observability ------------------------------------------------------ *)

module Obs = Pacstack_obs.Obs

let observability ?(scheme = Scheme.pacstack) fmt =
  section fmt "Observability: lib/obs metrics from an instrumented sampler";
  Obs.enable ();
  Obs.reset ();
  (* A small slice of every instrumented layer: one server measurement
     (machine + harden + server counters under [scheme]), two fuzz seeds
     (12 oracle runs each), one injected fault under all six schemes. *)
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

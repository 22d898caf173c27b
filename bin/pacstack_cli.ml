(* Command-line front end for the PACStack reproduction: run assembly
   programs or the built-in workloads under any hardening scheme, and
   regenerate the paper's tables, figures and attack experiments. *)

open Cmdliner
module Scheme = Pacstack_harden.Scheme
module Machine = Pacstack_machine.Machine
module Trap = Pacstack_machine.Trap
module Speclike = Pacstack_workloads.Speclike
module Confirm = Pacstack_workloads.Confirm
module Report = Pacstack_report.Report
module Plans = Pacstack_report.Plans
module Fuzz_driver = Pacstack_fuzz.Driver
module Inject_engine = Pacstack_inject.Engine
module Fleet = Pacstack_fleet.Fleet
module Fleet_arrival = Pacstack_fleet.Arrival
module Obs = Pacstack_obs.Obs
module Campaign = Pacstack_campaign.Campaign
module Progress = Pacstack_campaign.Progress
module Json = Pacstack_campaign.Json

let scheme_conv =
  let parse s =
    match Scheme.of_string s with
    | Some v -> Ok v
    | None -> Error (`Msg (Printf.sprintf "unknown scheme %S" s))
  in
  Arg.conv (parse, Scheme.pp)

let scheme_arg =
  let doc =
    "Hardening scheme: any registered name (baseline, stack-protector-strong, \
     branch-protection, shadow-call-stack, pacstack-nomask, pacstack, pcan, \
     zipper-stack, pactight or parts)."
  in
  Arg.(value & opt scheme_conv Scheme.pacstack & info [ "s"; "scheme" ] ~doc)

(* A rejected value: a message on stderr and the runtime-failure exit code. *)
let fail msg =
  Printf.eprintf "pacstack: %s\n" msg;
  1

let report_outcome machine = function
  | Machine.Halted code ->
    List.iter (fun v -> Printf.printf "%Ld\n" v) (Machine.output machine);
    Printf.printf "exit %d after %d cycles (%d instructions)\n" code (Machine.cycles machine)
      (Machine.instructions_retired machine);
    if code = 0 then 0 else 1
  | Machine.Faulted f ->
    Printf.printf "fault: %s\n" (Trap.to_string f);
    2
  | Machine.Out_of_fuel ->
    print_endline "out of fuel";
    3

(* --- run: execute an assembly file -------------------------------------- *)

let run_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.s" ~doc:"Assembly source file.")
  in
  let fuel =
    Arg.(value & opt int 10_000_000 & info [ "fuel" ] ~doc:"Instruction budget.")
  in
  let action file fuel =
    if fuel < 0 then fail "--fuel must be >= 0"
    else
      let text = In_channel.with_open_text file In_channel.input_all in
      match Pacstack_isa.Asm.parse text with
      | exception Pacstack_isa.Asm.Parse_error (line, msg) ->
        Printf.eprintf "%s:%d: %s\n" file line msg;
        1
      | program ->
        let machine = Machine.load program in
        report_outcome machine (Machine.run ~fuel machine)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Assemble and run a program on the simulated machine.")
    Term.(const action $ file $ fuel)

(* --- bench: run a built-in SPEC-like benchmark -------------------------- *)

let bench_cmd =
  let bench_name =
    let names = String.concat ", " (List.map (fun b -> b.Speclike.name) Speclike.all) in
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BENCH" ~doc:("One of: " ^ names))
  in
  let speed =
    Arg.(value & flag & info [ "speed" ] ~doc:"Use the SPECspeed-like scale.")
  in
  let action scheme name speed =
    match Speclike.find name with
    | None ->
      Printf.eprintf "unknown benchmark %S\n" name;
      1
    | Some bench ->
      let variant = if speed then Speclike.Speed else Speclike.Rate in
      let baseline = Speclike.measure ~scheme:Scheme.unprotected variant bench in
      let m = Speclike.measure ~scheme variant bench in
      Printf.printf "%s (%s) under %s: %d cycles, %d instructions, checksum %Ld\n" name
        (Speclike.variant_to_string variant)
        (Scheme.to_string scheme) m.Speclike.cycles m.Speclike.instructions m.Speclike.checksum;
      Printf.printf "overhead vs baseline: %.2f%%\n" (Speclike.overhead_pct ~baseline m);
      0
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"Run one SPEC-like benchmark under a scheme.")
    Term.(const action $ scheme_arg $ bench_name $ speed)

(* --- confirm: compatibility suite ---------------------------------------- *)

let confirm_cmd =
  let action scheme =
    let results = Confirm.run_all ~scheme in
    let failed = ref 0 in
    List.iter
      (fun (t, outcome) ->
        match outcome with
        | Confirm.Pass -> Printf.printf "PASS %-20s %s\n" t.Confirm.name t.Confirm.description
        | Confirm.Fail m ->
          incr failed;
          Printf.printf "FAIL %-20s %s\n" t.Confirm.name m)
      results;
    if !failed = 0 then 0 else 1
  in
  Cmd.v
    (Cmd.info "confirm" ~doc:"Run the ConFIRM-style compatibility suite under a scheme.")
    Term.(const action $ scheme_arg)

(* --- report sections ------------------------------------------------------ *)

let section_cmd name doc render =
  let action () =
    render Format.std_formatter;
    0
  in
  Cmd.v (Cmd.info name ~doc) Term.(const action $ const ())

let all_cmd =
  section_cmd "all" "Regenerate every table, figure and security experiment." (fun fmt ->
      Report.all fmt)

(* --- campaign-style subcommands: shared flags and runner ------------------- *)

(* SIGINT/SIGTERM during a campaign flush every open checkpoint manifest
   before exiting with the conventional 128+signum code, so an
   interrupted run is always resumable from its last completed shard.
   Installed only around the campaign-style subcommands and restored
   afterwards. *)
let with_campaign_signals f =
  let install signum code =
    match
      Sys.signal signum
        (Sys.Signal_handle
           (fun _ ->
             Pacstack_campaign.Checkpoint.flush_all ();
             exit code))
    with
    | previous -> Some (signum, previous)
    | exception (Invalid_argument _ | Sys_error _) -> None
  in
  let saved = List.filter_map (fun (s, c) -> install s c) [ (Sys.sigint, 130); (Sys.sigterm, 143) ] in
  Fun.protect
    ~finally:
      (fun () ->
        List.iter (fun (s, previous) -> try ignore (Sys.signal s previous) with _ -> ()) saved)
    f

(* Runs [f] with obs enabled when --trace was given, handing it an obs
   progress sink to compose with the rendering sink. The trace file is
   written even when the run exits non-zero (a failing gate is exactly
   when the trace is wanted) and on SIGINT-style exits via at_exit-free
   Fun.protect. *)
let with_trace trace f =
  match trace with
  | None -> f (fun (_ : Progress.event) -> ())
  | Some path ->
    Obs.reset ();
    Obs.enable ();
    Fun.protect
      ~finally:(fun () ->
        Obs.disable ();
        Obs.Sink.write_file path;
        Obs.reset ();
        Printf.eprintf "wrote trace %s\n%!" path)
      (fun () -> f (Obs.Campaign_hooks.progress_sink ()))

type campaign_opts = { workers : int; trace : string option; quiet : bool }

(* --workers, --trace and --quiet, shared by every campaign-style subcommand *)
let campaign_opts =
  let workers =
    Arg.(
      value & opt int 1
      & info [ "w"; "workers" ]
          ~doc:
            "Worker domains. 1 (the default) is sequential; results are identical for any \
             value. 0 means one per recommended domain.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Enable lib/obs instrumentation for this run and write the metrics registry plus \
             merged trace events to $(docv) as JSON lines afterwards. Results are identical \
             with or without tracing.")
  in
  let quiet =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress progress events on stderr.")
  in
  Term.(const (fun workers trace quiet -> { workers; trace; quiet }) $ workers $ trace $ quiet)

let resume_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:
          "Checkpoint manifest. Created if absent; shards already recorded there are \
           restored instead of re-run, so re-running after an interrupt completes only \
           the remainder.")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"OUT" ~doc:"Also write the merged results as JSON to $(docv).")

(* -s/--scheme as a restriction: [None] means every registered scheme *)
let schemes_arg =
  Term.(
    const (Option.map (fun s -> [ s ]))
    $ Arg.(
        value
        & opt (some scheme_conv) None
        & info [ "s"; "scheme" ]
            ~doc:"Restrict to one hardening scheme (default: every registered scheme)."))

let seed_arg default doc = Arg.(value & opt int64 default & info [ "seed" ] ~doc)

(* The one runner behind campaign, fuzz, inject and fleet: validates and
   resolves --workers, installs the interrupt handlers and --trace,
   composes the progress sink, runs [body], and writes the JSON it
   returns to [json] when given. Returns [body]'s exit code. *)
let run_campaign ?json opts body =
  if opts.workers < 0 then fail "--workers must be >= 0"
  else
    with_campaign_signals @@ fun () ->
    with_trace opts.trace @@ fun obs ->
    let workers =
      if opts.workers = 0 then Pacstack_campaign.Pool.default_workers () else opts.workers
    in
    let render =
      if opts.quiet then Progress.null
      else Progress.formatter Format.err_formatter
    in
    let code, result =
      body ~workers ~progress:(fun e ->
          obs e;
          render e)
    in
    Option.iter
      (fun path ->
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc (Json.to_string result ^ "\n"));
        Printf.printf "wrote %s\n" path)
      json;
    code

(* --- campaign: the parallel experiment engine ----------------------------- *)

let campaign_cmd =
  let name_arg =
    let names = String.concat ", " (List.map (fun e -> e.Plans.name) Plans.entries) in
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"CAMPAIGN" ~doc:("One of: " ^ names ^ "; or 'list' to enumerate."))
  in
  let seed =
    Arg.(
      value
      & opt (some int64) None
      & info [ "seed" ] ~doc:"Campaign seed (default: the campaign's canonical seed).")
  in
  let action name seed resume json opts =
    if name = "list" then begin
      List.iter
        (fun e -> Printf.printf "%-12s %s (default seed %Ld)\n" e.Plans.name e.Plans.doc e.Plans.default_seed)
        Plans.entries;
      0
    end
    else
      match Plans.find name with
      | None -> fail (Printf.sprintf "unknown campaign %S; try 'pacstack campaign list'." name)
      | Some entry ->
        run_campaign ?json opts @@ fun ~workers ~progress ->
        let seed = Option.value seed ~default:entry.Plans.default_seed in
        (0, entry.Plans.execute ~workers ~seed ~checkpoint:resume ~progress Format.std_formatter)
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Run an experiment campaign on a parallel worker pool with deterministic sharding, \
          checkpoint/resume and progress events.")
    Term.(const action $ name_arg $ seed $ resume_arg $ json_arg $ campaign_opts)

(* --- fuzz: differential fuzzing against the reference interpreter -------- *)

let fuzz_cmd =
  let seeds =
    Arg.(value & opt int 200 & info [ "seeds" ] ~doc:"Number of random programs to generate.")
  in
  let seed = seed_arg 1L "Campaign seed; program $(i,i) depends only on (seed, i)." in
  let no_peephole =
    Arg.(value & flag & info [ "no-peephole" ] ~doc:"Only compile with the peephole optimizer off.")
  in
  let action seeds seed schemes no_peephole opts =
    if seeds < 1 then fail "--seeds must be >= 1"
    else
      run_campaign opts @@ fun ~workers ~progress ->
      let optimize = if no_peephole then Some [ false ] else None in
      let fmt = Format.std_formatter in
      let (totals, _), json =
        Plans.execute ~workers ~progress ~seed (Plans.fuzz ?schemes ?optimize ~seeds ()) fmt
      in
      let code =
        match totals.Fuzz_driver.failures with
        | [] ->
          if totals.Fuzz_driver.crashes > 0 then begin
            Format.fprintf fmt "harness crashes on %d seeds — fuzzer bug@." totals.Fuzz_driver.crashes;
            1
          end
          else begin
            Format.fprintf fmt "all programs agree with the reference interpreter@.";
            0
          end
        | (f : Fuzz_driver.failure) :: _ ->
          (* Reproduce the first divergence from its seed alone, shrink it
             against the failing (scheme, peephole) variant, and print the
             minimised program. *)
          let cfg =
            {
              Pacstack_fuzz.Oracle.default_config with
              schemes =
                (match Scheme.of_string f.Fuzz_driver.scheme with
                | Some s -> [ s ]
                | None -> Scheme.all);
              optimize = [ f.Fuzz_driver.optimize ];
            }
          in
          let diverges p =
            match Pacstack_fuzz.Oracle.check cfg p with
            | Pacstack_fuzz.Oracle.Disagree _ -> true
            | _ -> false
          in
          let p0 = Fuzz_driver.program_of_seed ~campaign_seed:seed f.Fuzz_driver.seed in
          let small = Pacstack_fuzz.Shrink.shrink ~keep:diverges p0 in
          Format.fprintf fmt
            "@[<v>first divergence: seed %d under %s%s at %s@ expected %s, got %s@]@."
            f.Fuzz_driver.seed f.Fuzz_driver.scheme
            (if f.Fuzz_driver.optimize then "+peephole" else "")
            f.Fuzz_driver.site f.Fuzz_driver.expected f.Fuzz_driver.actual;
          Format.fprintf fmt "shrunk repro (%d statements):@.%s@."
            (Pacstack_minic.Ast.program_size small)
            (Pacstack_fuzz.Pp.program_to_string small);
          1
      in
      (code, json)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differentially fuzz the mini-C pipeline: random programs compiled under every \
          scheme, with and without the peephole optimizer, checked against the reference \
          interpreter. Exits 1 if any divergence is found, with a shrunk reproducer.")
    Term.(const action $ seeds $ seed $ schemes_arg $ no_peephole $ campaign_opts)

(* --- inject: deterministic fault injection ------------------------------- *)

let inject_cmd =
  let faults =
    Arg.(value & opt int 120 & info [ "n"; "faults" ] ~doc:"Number of faults to inject.")
  in
  let seed = seed_arg 7L "Campaign seed; fault $(i,i) depends only on (seed, i)." in
  let pac_bits =
    Arg.(
      value & opt int 4
      & info [ "pac-bits" ]
          ~doc:"PAC width of the simulated machine (default 4, collisions observable).")
  in
  let no_gate =
    Arg.(value & flag & info [ "no-gate" ] ~doc:"Report silent corruption without failing.")
  in
  let isolation =
    Arg.(
      value
      & opt (enum [ ("domain", Campaign.Domains); ("process", Campaign.Processes) ])
          Campaign.Domains
      & info [ "isolation" ] ~docv:"MODE"
          ~doc:
            "Shard executor: $(b,domain) runs shards on an in-process domain pool; \
             $(b,process) forks each shard attempt into its own child so a crash, OOM \
             kill or hang is an isolated retry instead of the end of the campaign. \
             $(b,--trace) requires $(b,domain).")
  in
  let shard_timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "shard-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock deadline per shard attempt (requires $(b,--isolation process)): \
             a shard past it is SIGKILLed, retried and eventually quarantined.")
  in
  let compact_every =
    Arg.(
      value & opt int 256
      & info [ "compact-every" ]
          ~doc:
            "With $(b,--resume): rewrite the manifest as one merged statistics line \
             whenever this many uncompacted shard lines accumulate (default 256).")
  in
  let action faults seed schemes pac_bits resume no_gate isolation shard_timeout compact_every
      opts =
    if faults < 1 then fail "--faults must be >= 1"
    else if pac_bits < 1 || pac_bits > 16 then fail "--pac-bits must be in [1, 16]"
    else if compact_every < 1 then fail "--compact-every must be >= 1"
    else if (match shard_timeout with Some t -> t <= 0.0 | None -> false) then
      fail "--shard-timeout must be > 0"
    else if Option.is_some shard_timeout && isolation <> Campaign.Processes then
      fail "--shard-timeout requires --isolation process"
    else if Option.is_some opts.trace && isolation <> Campaign.Domains then
      (* forked shards would record their metrics and events in the
         children, and the trace would silently hold the parent's only *)
      fail "--trace requires --isolation domain"
    else
      run_campaign opts @@ fun ~workers ~progress ->
      let policy =
        { Campaign.default_policy with isolation; shard_timeout_s = shard_timeout }
      in
      let compaction = Plans.inject_compaction ~keep:compact_every in
      let (totals, _, _), json =
        Plans.execute ~workers ~progress ~policy ~compaction ?checkpoint:resume ~seed
          (Plans.inject ?schemes ~pac_bits ~faults ()) Format.std_formatter
      in
      let gate_name = Scheme.to_string Scheme.pacstack in
      let offenders =
        List.filter
          (fun (r : Inject_engine.reproducer) -> String.equal r.Inject_engine.scheme gate_name)
          totals.Inject_engine.silents
      in
      if no_gate || offenders = [] then (0, json)
      else begin
        Printf.printf "silent corruption under %s — JSON reproducers:\n" gate_name;
        List.iter
          (fun r ->
            let json =
              match Inject_engine.reproducer_to_json r with
              | Json.Obj fields ->
                Json.Obj
                  (fields
                  @ [
                      ("seed", Json.String (Int64.to_string seed));
                      ("pac_bits", Json.Int pac_bits);
                    ])
              | other -> other
            in
            print_endline (Json.to_string json))
          offenders;
        let silent =
          match List.assoc_opt gate_name totals.Inject_engine.cells with
          | Some c -> c.Inject_engine.silent
          | None -> 0
        in
        if silent > List.length offenders then
          Printf.printf "(%d further silent event(s) beyond the %d-per-scheme reproducer cap)\n"
            (silent - List.length offenders)
            Inject_engine.repro_cap;
        (1, json)
      end
  in
  Cmd.v
    (Cmd.info "inject"
       ~doc:
         "Deterministic fault injection: corrupt return slots, chain spills, registers, \
          shadow entries, signal frames and the store-to-reload window under every hardening \
          scheme, and classify each fault as detected, benign or silent against the \
          un-faulted trace. Exits 1 with JSON reproducers when corruption is silent under \
          pacstack.")
    Term.(
      const action $ faults $ seed $ schemes_arg $ pac_bits $ resume_arg $ no_gate $ isolation
      $ shard_timeout $ compact_every $ campaign_opts)

(* --- fleet: open-loop traffic simulation --------------------------------- *)

let fleet_cmd =
  let connections =
    Arg.(
      value
      & opt int Fleet.default.Fleet.connections
      & info [ "n"; "connections" ] ~doc:"Concurrent connections across the fleet.")
  in
  let duration =
    Arg.(
      value
      & opt float Fleet.default.Fleet.duration_s
      & info [ "duration" ] ~docv:"SECONDS"
          ~doc:"Virtual seconds of offered load (wall-clock free; the clock is simulated).")
  in
  let arrival =
    let names = String.concat ", " (List.map fst Fleet_arrival.presets) in
    Arg.(
      value
      & opt (enum Fleet_arrival.presets) (List.assoc "poisson" Fleet_arrival.presets)
      & info [ "arrival" ] ~docv:"PRESET" ~doc:("Arrival process: one of " ^ names ^ "."))
  in
  let cells =
    Arg.(
      value
      & opt int Fleet.default.Fleet.cells
      & info [ "cells" ]
          ~doc:
            "Independent contention cells the fleet is cut into. Part of the experiment \
             configuration (it fixes the shard structure), not a parallelism knob — that \
             is $(b,--workers).")
  in
  let cores =
    Arg.(
      value
      & opt int Fleet.default.Fleet.cores
      & info [ "cores" ] ~doc:"Server cores per cell.")
  in
  let seed =
    seed_arg Fleet.default.Fleet.seed
      "Fleet seed; connection $(i,c)'s whole arrival stream depends only on (seed, c)."
  in
  let action connections duration arrival cells cores seed schemes resume json opts =
    let cfg =
      {
        Fleet.connections;
        duration_s = duration;
        arrival;
        cells;
        cores;
        seed;
        schemes = Option.value schemes ~default:Fleet.default.Fleet.schemes;
      }
    in
    match Fleet.validate cfg with
    | exception Invalid_argument msg -> fail msg
    | () ->
      run_campaign ?json opts @@ fun ~workers ~progress ->
      let fleet = Plans.fleet cfg in
      (0, snd (Plans.execute ~workers ~progress ?checkpoint:resume ~seed fleet Format.std_formatter))
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Simulate a fleet of open-loop connections against every hardening scheme in \
          virtual time and report per-scheme latency quantiles (p50/p95/p99/p999). The \
          table is bit-identical at any --workers.")
    Term.(
      const action $ connections $ duration $ arrival $ cells $ cores $ seed $ schemes_arg
      $ resume_arg $ json_arg $ campaign_opts)

(* --- metrics: the lib/obs observability sampler --------------------------- *)

let metrics_cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Also write the collected metrics and trace events to $(docv) as JSON lines.")
  in
  let action scheme out =
    Report.observability ~scheme Format.std_formatter;
    (match out with
    | None -> ()
    | Some path ->
      Obs.Sink.write_file path;
      Printf.printf "wrote %s\n" path);
    Obs.reset ();
    0
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Enable lib/obs, run a small sampler through every instrumented layer (server \
          workload under the chosen scheme, fuzzer, fault injector) and print the metrics \
          registry plus trace summary.")
    Term.(const action $ scheme_arg $ out)

(* --- disasm: show what the loader put in the executable pages ----------- *)

let disasm_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.s" ~doc:"Assembly source file.")
  in
  let action file =
    let text = In_channel.with_open_text file In_channel.input_all in
    match Pacstack_isa.Asm.parse text with
    | exception Pacstack_isa.Asm.Parse_error (line, msg) ->
      Printf.eprintf "%s:%d: %s\n" file line msg;
      1
    | program ->
      let image = Pacstack_machine.Image.build program in
      print_endline (Pacstack_machine.Image.disassemble image);
      0
  in
  Cmd.v
    (Cmd.info "disasm"
       ~doc:"Assemble a program, encode it to binary and disassemble the binary back.")
    Term.(const action $ file)

(* --- cc: compile and run mini-C sources ----------------------------------- *)

let cc_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.mc" ~doc:"mini-C source file.")
  in
  let emit_asm =
    Arg.(value & flag & info [ "S"; "emit-asm" ] ~doc:"Print the generated assembly instead of running.")
  in
  let optimize = Arg.(value & flag & info [ "O" ] ~doc:"Enable the peephole optimizer.") in
  let action scheme file emit_asm optimize =
    match Pacstack_minic.Parse.from_file file with
    | exception Pacstack_minic.Parse.Error (line, msg) ->
      Printf.eprintf "%s:%d: %s\n" file line msg;
      1
    | ast -> (
      List.iter
        (fun d ->
          Printf.eprintf "%s: %s\n" file
            (Format.asprintf "%a" Pacstack_minic.Check.pp_diagnostic d))
        (Pacstack_minic.Check.program ast);
      match Pacstack_minic.Compile.compile ~scheme ~optimize (Pacstack_minic.Check.check_exn ast) with
      | exception Pacstack_minic.Compile.Error m ->
        Printf.eprintf "%s: %s\n" file m;
        1
      | program ->
        if emit_asm then begin
          print_string (Pacstack_isa.Asm.print program);
          0
        end
        else begin
          let machine = Machine.load program in
          report_outcome machine (Machine.run machine)
        end)
  in
  Cmd.v
    (Cmd.info "cc" ~doc:"Compile a mini-C source file under a scheme and run it.")
    Term.(const action $ scheme_arg $ file $ emit_asm $ optimize)

(* --- export: CSVs for replotting ----------------------------------------- *)

let export_cmd =
  let dir =
    Arg.(value & opt string "results" & info [ "o"; "output" ] ~doc:"Output directory.")
  in
  let action dir =
    let paths = Pacstack_report.Export.all ~dir () in
    List.iter print_endline paths;
    0
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Write every table/figure as CSV for external plotting.")
    Term.(const action $ dir)

let cmds =
  [
    run_cmd;
    cc_cmd;
    fuzz_cmd;
    inject_cmd;
    fleet_cmd;
    bench_cmd;
    confirm_cmd;
    metrics_cmd;
    disasm_cmd;
    export_cmd;
    campaign_cmd;
    section_cmd "table1" "Table 1: violation success probabilities." (fun fmt ->
        Report.table1 fmt);
    section_cmd "table2" "Table 2 and Figure 5: SPEC-like overheads." Report.table2_and_figure5;
    section_cmd "table3" "Table 3: server throughput." Report.table3;
    section_cmd "attacks" "The Listing 6 attack matrix." Report.reuse_matrix;
    section_cmd "games" "Collision, masking and brute-force games." (fun fmt ->
        Report.birthday fmt;
        Report.bruteforce fmt);
    section_cmd "gadget" "The PA signing-gadget experiment." Report.gadget;
    section_cmd "sigreturn" "Sigreturn attack and the Appendix B defence." Report.sigreturn;
    section_cmd "unwind" "ACS-validated unwinding demo." Report.unwind_demo;
    section_cmd "interop" "Mixed instrumented/uninstrumented deployment (9.2)." Report.interop;
    section_cmd "cfi" "Forward-edge CFI experiments (assumption A2)." Report.forward_cfi;
    all_cmd;
  ]

let () =
  let info =
    Cmd.info "pacstack" ~version:"1.0.0"
      ~doc:"Authenticated call stack (PACStack) reproduction toolkit"
  in
  (* Cmdliner already exits 124 with a usage message on an unknown
     subcommand, a bad flag or a missing COMMAND (verified; see
     test/cli_exit_codes below dune runtest). What it does not cover is an
     action raising mid-run — map that to a message and exit 1 rather
     than an uncaught-exception backtrace. *)
  match Cmd.eval' ~catch:false (Cmd.group info cmds) with
  | code -> exit code
  | exception (Pacstack_campaign.Checkpoint.Stale_manifest _ as e) ->
    Printf.eprintf "pacstack: %s\n" (Printexc.to_string e);
    exit 2
  | exception Failure msg ->
    Printf.eprintf "pacstack: %s\n" msg;
    exit 1
  | exception Sys_error msg ->
    Printf.eprintf "pacstack: %s\n" msg;
    exit 1

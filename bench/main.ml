(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (via Pacstack_report), runs one Bechamel
   micro-benchmark per table/figure plus primitive micro-benchmarks, and
   measures the hot-path sections (MAC, machine step, loader, fuzz,
   injection and fleet throughput) that BENCH_09.json records, plus the
   lib/obs disabled-path overhead bound and the campaign engine tax over
   the raw streaming fold.

   Modes:
     bench                 full run: report + bechamel + sections + scaling
     bench --quick         hot-path sections only (the CI perf-smoke job)
     bench --json          also write the sections to BENCH_09.json
     bench --out FILE      like --json, to FILE
     bench --gate          check the generous throughput floors and the
                           obs overhead ceilings; exit 1 on miss *)

open Bechamel
open Toolkit
module Rng = Pacstack_util.Rng
module Stats = Pacstack_util.Stats
module Scheme = Pacstack_harden.Scheme
module Speclike = Pacstack_workloads.Speclike
module Server = Pacstack_workloads.Server
module Games = Pacstack_acs.Games
module Analysis = Pacstack_acs.Analysis
module Machine = Pacstack_machine.Machine
module Compile = Pacstack_minic.Compile
module Json = Pacstack_campaign.Json
module Qarma64 = Pacstack_qarma.Qarma64
module Prf = Pacstack_qarma.Prf
module Obs = Pacstack_obs.Obs
module Inject_engine = Pacstack_inject.Engine
module Fleet = Pacstack_fleet.Fleet
module Scheduler = Pacstack_fleet.Scheduler

let ( .%[] ) tbl key = Hashtbl.find tbl key

(* --- one Test.make per table/figure ----------------------------------- *)

let test_table1 =
  Test.make ~name:"table1_cell"
    (Staged.stage (fun () ->
         let rng = Rng.create 11L in
         Games.violation_success ~masked:true ~kind:Analysis.Off_graph_to_call_site ~bits:8
           ~trials:200 rng))

let bench_spec name =
  match Speclike.find name with
  | Some b -> b
  | None -> failwith ("unknown benchmark " ^ name)

let test_table2 =
  Test.make ~name:"table2_mcf_pacstack"
    (Staged.stage (fun () ->
         Speclike.measure ~scheme:Scheme.pacstack Speclike.Rate (bench_spec "mcf")))

let test_figure5 =
  Test.make ~name:"figure5_x264_baseline"
    (Staged.stage (fun () ->
         Speclike.measure ~scheme:Scheme.unprotected Speclike.Rate (bench_spec "x264")))

let test_table3 =
  Test.make ~name:"table3_handshake"
    (Staged.stage (fun () -> Server.measure ~scheme:Scheme.pacstack ~workers:4 ~variants:2 ()))

(* --- primitive micro-benchmarks ---------------------------------------- *)

let qarma_prf = Prf.create (Qarma64.random_key (Rng.create 5L))
let fast_prf = Prf.create_fast 0x1234L

let test_qarma =
  Test.make ~name:"qarma64_mac"
    (Staged.stage (fun () -> Prf.mac64 qarma_prf ~data:42L ~modifier:7L))

let test_fast_mac =
  Test.make ~name:"fast_mac"
    (Staged.stage (fun () -> Prf.mac64 fast_prf ~data:42L ~modifier:7L))

module Campaign = Pacstack_campaign.Campaign
module Pool = Pacstack_campaign.Pool
module Plans = Pacstack_report.Plans

let test_pool_dispatch =
  (* raw pool overhead: scheduling 64 trivial tasks over 4 domains *)
  Test.make ~name:"campaign_pool_dispatch64"
    (Staged.stage (fun () -> Pool.run ~workers:4 ~tasks:64 (fun i -> i * i)))

let test_campaign_birthday =
  Test.make ~name:"campaign_birthday_seq"
    (Staged.stage (fun () -> Campaign.run (Plans.birthday_plan ~scale:0.1 ~seed:7L ())))

let fib_program_under scheme n =
  Pacstack_minic.(
    Compile.compile ~scheme
      (Ast.program
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
             Build.[ set "r" (call "fib" [ i n ]); ret (i 0) ];
         ]))

let fib_program n = fib_program_under Scheme.pacstack n
let fib_program_unprotected n = fib_program_under Scheme.unprotected n
let fib10 = fib_program 10

let test_machine =
  Test.make ~name:"machine_fib10_pacstack"
    (Staged.stage (fun () -> Machine.run ~fuel:100_000 (Machine.load fib10)))

module Fuzz_driver = Pacstack_fuzz.Driver
module Fuzz_oracle = Pacstack_fuzz.Oracle

let test_fuzz_seed =
  (* one full differential check: generate, interpret, compile and run
     under every registered scheme x {peephole off, on} *)
  Test.make ~name:"fuzz_seed_all_schemes"
    (Staged.stage (fun () ->
         Fuzz_driver.run_seed Fuzz_oracle.default_config ~campaign_seed:11L 3))

let tests =
  Test.make_grouped ~name:"pacstack"
    [ test_table1; test_table2; test_figure5; test_table3; test_qarma; test_fast_mac;
      test_machine; test_pool_dispatch; test_campaign_birthday; test_fuzz_seed ]

(* --- hot-path sections: the BENCH_07.json payload ------------------------ *)

type section = {
  sname : string;
  ns_per_op : float;
  ops_per_sec : float;
  before_ns : float option;   (* ns/op of the slow path this replaced *)
  before_src : string option; (* where the "before" number comes from *)
}

let speedup s = Option.map (fun b -> b /. s.ns_per_op) s.before_ns

let section ?before ?src sname ns =
  { sname; ns_per_op = ns; ops_per_sec = 1e9 /. ns; before_ns = before; before_src = src }

let time_per_op ~iters f =
  ignore (Sys.opaque_identity (f ()));
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters

(* ns/op of the same operations at the seed commit, measured on the
   development host that produced the "after" numbers in DESIGN.md's
   performance table. The reference-QARMA "before" is re-measured in every
   run (the oracle is kept in-tree); the others contextualise cross-machine
   runs — the gates below use absolute floors with large headroom instead
   of these. *)
let seed_src = "seed commit, recorded"
let seed_machine_step_ns = 138.1
let seed_machine_load_ns = 285_236.
let seed_fuzz_ns = 1e9 /. 70.0
let seed_inject_ns = 1e9 /. 61.1

let perf_sections () =
  Format.printf "@.measuring hot-path sections...@.";
  let key = Qarma64.key ~w0:0x0123456789abcdefL ~k0:0xfedcba9876543210L in
  let prf = Prf.create key in
  let ref_ns =
    time_per_op ~iters:3_000 (fun () -> Qarma64.Reference.encrypt key ~tweak:7L 42L)
  in
  let fast_ns = time_per_op ~iters:200_000 (fun () -> Prf.mac64 prf ~data:42L ~modifier:7L) in
  (* machine interpreter: a pacstack-instrumented recursive fib(15),
     once per engine — machine_step keeps tracking the reference
     fetch-then-match dispatch, machine_step_threaded the compiled-ops
     engine that [Machine.run] actually uses *)
  let program = fib_program 15 in
  let steps =
    let m = Machine.load program in
    ignore (Machine.run ~fuel:10_000_000 m);
    Machine.instructions_retired m
  in
  let batch runf p =
    let runs = 5 in
    let machines = Array.init runs (fun _ -> Machine.load p) in
    let t0 = Unix.gettimeofday () in
    Array.iter (fun m -> ignore (runf m)) machines;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int (runs * steps)
  in
  let threaded m = Machine.run ~fuel:10_000_000 m in
  (* step_speedup: the Reference and threaded engines timed in paired,
     interleaved rounds (alternating which goes first), so host-speed
     drift hits both sides of a round alike and the gate divides two
     numbers from the same run: the median over rounds of the per-round
     Reference/threaded ratio. The step-rate sections keep each side's
     best round — the minimum is the robust statistic for a CPU-bound
     loop on a noisy shared host, every other sample being the same
     work plus scheduling interference. *)
  let step_ns, step_thr_ns, step_speedup =
    let reference m = Machine.Reference.run ~fuel:10_000_000 m in
    let rounds =
      List.init 8 (fun round ->
          if round mod 2 = 0 then
            let r = batch reference program in
            (r, batch threaded program)
          else
            let t = batch threaded program in
            (batch reference program, t))
    in
    let best side = List.fold_left (fun acc p -> Float.min acc (side p)) infinity rounds in
    ( best fst,
      best snd,
      Stats.percentile (List.map (fun (r, t) -> r /. t) rounds) 50.0 )
  in
  (* registry indirection: the scheme registry is a compile-time surface
     (descriptor closures run while instruction lists are built) and must
     leave no run-time residue. Round-tripping the image through the
     assembler reconstructs the instruction list with no descriptor
     anywhere near it; the result must be structurally identical (a
     zero-noise proof that nothing registry-shaped reaches the image)
     and must step at the same rate. Where each image's compiled-ops
     closures land on the heap swings paired timings by several percent
     either way, so each round compiles and parses fresh images and the
     gate takes the best paired round: layout luck averages out of the
     minimum, while a real per-step indirection cost would lift every
     round and still trip the 2% ceiling. *)
  let registry_pct =
    let batch = batch threaded in
    let best = ref (infinity, infinity, infinity) in
    for round = 1 to 8 do
      let p = fib_program 15 in
      let r = Pacstack_isa.Asm.parse (Pacstack_isa.Asm.print p) in
      if p <> r then failwith "bench: asm roundtrip changed the compiled image";
      ignore (batch p);
      ignore (batch r);
      let reg, plain =
        if round mod 2 = 0 then (batch p, batch r)
        else
          let plain = batch r in
          (batch p, plain)
      in
      let pct = (reg -. plain) /. plain *. 100. in
      let best_pct, _, _ = !best in
      if pct < best_pct then best := (pct, reg, plain)
    done;
    !best
  in
  let _, step_reg_ns, step_plain_ns = registry_pct in
  let load_ns = time_per_op ~iters:50 (fun () -> Machine.load program) in
  let instantiate_ns =
    let prepared = Machine.prepare program in
    time_per_op ~iters:50 (fun () -> Machine.instantiate prepared)
  in
  (* end-to-end engines at 1 worker, with an N-worker determinism check.
     The 4-worker runs execute fully instrumented and traced (obs enabled,
     campaign progress hooks attached): the ISSUE 5 acceptance criterion is
     that a traced parallel campaign stays bit-identical to the plain
     sequential one — obs is a write-only side channel. *)
  let traced f =
    Obs.reset ();
    Obs.enable ();
    let sink = Obs.Campaign_hooks.progress_sink () in
    Fun.protect
      ~finally:(fun () ->
        Obs.disable ();
        Obs.reset ())
      (fun () -> f sink)
  in
  let fuzz_seeds = 64 in
  let time_fuzz ?progress workers =
    let t0 = Unix.gettimeofday () in
    let o = Campaign.run ~workers ?progress (Plans.fuzz_plan ~seeds:fuzz_seeds ~seed:11L ()) in
    (Unix.gettimeofday () -. t0, Plans.fuzz_totals o)
  in
  let tf1, f1 = time_fuzz 1 in
  let _, f4 = traced (fun sink -> time_fuzz ~progress:sink 4) in
  if f1 <> f4 then failwith "bench: fuzz results differ across worker counts";
  let faults = 48 in
  let time_inject ?progress workers =
    let t0 = Unix.gettimeofday () in
    let o = Campaign.run ~workers ?progress (Plans.inject_plan ~faults ~seed:7L ()) in
    (Unix.gettimeofday () -. t0, Plans.inject_totals o)
  in
  let ti1, i1 = time_inject 1 in
  let _, i4 = traced (fun sink -> time_inject ~progress:sink 4) in
  if i1 <> i4 then failwith "bench: injection results differ across worker counts";
  (* fleet: 1k open-loop connections against unprotected and pacstack;
     ns per simulated request (service-cost calibration included), with
     the same traced-4-worker identity check as fuzz and injection *)
  let fleet_cfg =
    {
      Fleet.default with
      Fleet.connections = 1000;
      duration_s = 1.0;
      schemes = [ Scheme.unprotected; Scheme.pacstack ];
    }
  in
  let time_fleet ?progress workers =
    let t0 = Unix.gettimeofday () in
    let o = Campaign.run ~workers ?progress (Fleet.plan fleet_cfg) in
    (Unix.gettimeofday () -. t0, Fleet.tabulate fleet_cfg o)
  in
  let tfl1, fl1 = time_fleet 1 in
  let _, fl4 = traced (fun sink -> time_fleet ~progress:sink 4) in
  if fl1 <> fl4 then failwith "bench: fleet results differ across worker counts";
  let fleet_requests =
    List.fold_left (fun acc (r : Fleet.stats) -> acc + r.Fleet.completed) 0 fl1
  in
  Format.printf
    "fuzz, injection and fleet results identical at 1 worker vs traced 4 workers: true@.";
  (* the fleet's event queue alone: one push + one pop per event on a
     randomly-ordered 4k-event backlog *)
  let sched_ns =
    let n = 4096 in
    let rng = Rng.create 3L in
    let times = Array.init n (fun _ -> Rng.int rng 1_000_000) in
    time_per_op ~iters:200 (fun () ->
        let h = Scheduler.create () in
        for i = 0 to n - 1 do
          Scheduler.push h ~time:times.(i) ~tie:0 i
        done;
        let rec drain acc = match Scheduler.pop h with None -> acc | Some _ -> drain (acc + 1) in
        drain 0)
    /. float_of_int n
  in
  ( [
    section "qarma_mac_reference" ref_ns;
    section ~before:ref_ns ~src:"reference oracle, this run" "qarma_mac_fast" fast_ns;
    section ~before:seed_machine_step_ns ~src:seed_src "machine_step" step_ns;
    section ~before:step_ns ~src:"Machine.Reference, same rounds, this run"
      "machine_step_threaded" step_thr_ns;
    section ~before:step_plain_ns ~src:"asm-roundtrip image, this run"
      "machine_step_registry" step_reg_ns;
    section ~before:seed_machine_load_ns ~src:seed_src "machine_load" load_ns;
    section ~before:load_ns ~src:"Machine.load, this run" "machine_instantiate"
      instantiate_ns;
    section ~before:seed_fuzz_ns ~src:seed_src "fuzz_program"
      (tf1 *. 1e9 /. float_of_int fuzz_seeds);
    section ~before:seed_inject_ns ~src:seed_src "inject_fault"
      (ti1 *. 1e9 /. float_of_int faults);
    section "scheduler_event" sched_ns;
    section "fleet_request" (tfl1 *. 1e9 /. float_of_int (max 1 fleet_requests));
    ],
    step_speedup )

let print_sections sections =
  Format.printf "@.=== Hot-path sections ===@.";
  Format.printf "%-22s %14s %16s %14s %9s@." "section" "ns/op" "ops/s" "before ns/op" "speedup";
  List.iter
    (fun s ->
      Format.printf "%-22s %14.1f %16.1f %14s %9s@." s.sname s.ns_per_op s.ops_per_sec
        (match s.before_ns with Some v -> Printf.sprintf "%.1f" v | None -> "-")
        (match speedup s with Some v -> Printf.sprintf "%.2fx" v | None -> "-"))
    sections

(* --- campaign engine tax ---------------------------------------------------- *)

(* ns/fault of the raw streaming fold (Engine.run_range called directly
   on the campaign's own shard ranges, merged) versus the same faults
   driven through the full campaign machinery: checkpoint manifest,
   hierarchical compaction, progress. The difference is what a
   10^8-fault run pays for crash tolerance per fault, gated as a ceiling
   below. Both sides run the same ranges because a range prepares its
   victims once, so the per-fault cost depends on the range size. The
   totals of the two paths are also asserted bit-identical — the raw
   fold IS the campaign's semantics. *)

type campaign_cost = {
  raw_ns_per_fault : float;
  engine_ns_per_fault : float;
  overhead_pct : float;
  co_faults : int;
}

let campaign_cost () =
  Format.printf "@.measuring campaign engine tax...@.";
  let co_faults = 32 and shards = 4 and seed = 7L in
  let raw () =
    let per = co_faults / shards in
    List.fold_left
      (fun acc k ->
        Inject_engine.merge acc
          (Inject_engine.run_range Inject_engine.default_config ~campaign_seed:seed
             ~first:(k * per) ~count:per))
      Inject_engine.empty (List.init shards Fun.id)
  in
  let engine () =
    let path = Filename.temp_file "pacstack_bench_inject" ".jsonl" in
    Sys.remove path;
    Fun.protect
      ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
      (fun () ->
        let outcome =
          Campaign.run ~workers:1
            ~checkpoint:(path, Plans.inject_codec)
            ~compaction:(Plans.inject_compaction ~keep:2)
            (Plans.inject_plan ~faults:co_faults ~shards ~seed ())
        in
        Plans.inject_totals outcome)
  in
  (* The gated tax is the median over 7 paired, interleaved rounds
     (alternating which side goes first) of the per-round engine/raw
     ratio, as for [step_speedup]: a ~0.15 s side is short enough for
     contention on a shared host to swing it by 15-40%, and pairing
     cancels what the two sides of a round share. *)
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  let rounds =
    List.init 7 (fun i ->
        if i mod 2 = 0 then
          let r = timed raw in
          (r, timed engine)
        else
          let e = timed engine in
          (timed raw, e))
  in
  let (_, m_raw), (_, m_engine) = List.hd rounds in
  if m_raw <> m_engine then
    failwith "bench: campaign totals differ from the raw streaming fold";
  let median f = Stats.percentile (List.map f rounds) 50.0 in
  let per_fault t = t *. 1e9 /. float_of_int co_faults in
  {
    raw_ns_per_fault = per_fault (median (fun ((r, _), _) -> r));
    engine_ns_per_fault = per_fault (median (fun (_, (e, _)) -> e));
    overhead_pct = (median (fun ((r, _), (e, _)) -> e /. r) -. 1.) *. 100.;
    co_faults;
  }

let print_campaign_cost c =
  Format.printf "@.=== Campaign engine tax (gated <= 25%%) ===@.";
  Format.printf "raw streaming fold:    %10.1f ns/fault@." c.raw_ns_per_fault;
  Format.printf "campaign engine:       %10.1f ns/fault@." c.engine_ns_per_fault;
  Format.printf "overhead:              %10.2f %%  (%d faults, checkpoint + compaction)@."
    c.overhead_pct c.co_faults

(* --- threaded-engine allocation residuals --------------------------------- *)

(* Compares used to allocate a [Cond.flags] record and pac/aut boxed
   their MAC result through [Pac.result]. Both are gone (packed NZCV
   int, [Pac.auth_value]); what remains is the unavoidable Int64 boxing
   on cross-module memory loads, which every instruction mix pays alike.
   The assertion is therefore differential: a compare-saturated loop and
   a pac/aut-saturated call tree must allocate no more minor words per
   step than their plain-ALU / unprotected twins. *)

type alloc_residuals = {
  alu_words_per_step : float;
  cmp_words_per_step : float;
  pac_words_per_step : float;
  unprot_words_per_step : float;
}

let alloc_residuals () =
  Format.printf "@.measuring threaded-engine allocation residuals...@.";
  let words_per_step p =
    (* warm load caches, then measure the steady-state run only *)
    let m = Machine.load p in
    ignore (Machine.run ~fuel:10_000_000 m);
    let steps = Machine.instructions_retired m in
    let m2 = Machine.load p in
    let w0 = Gc.minor_words () in
    ignore (Machine.run ~fuel:10_000_000 m2);
    (Gc.minor_words () -. w0) /. float_of_int steps
  in
  let loop body =
    Pacstack_minic.(
      Compile.compile ~scheme:Scheme.unprotected
        (Ast.program
           [
             Ast.fdef "main"
               ~locals:[ Ast.Scalar "k"; Ast.Scalar "s" ]
               Build.
                 [
                   set "s" (i 0);
                   for_ "k" ~from:(i 0) ~below:(i 50_000) body;
                   ret (i 0);
                 ];
           ]))
  in
  let alu =
    loop
      Pacstack_minic.Build.
        [ set "s" (v "s" + v "k"); set "s" (v "s" lxor i 3); set "s" (v "s" + i 1) ]
  in
  let cmp =
    loop
      Pacstack_minic.Build.
        [
          if_ (v "k" <= i 25_000) [ set "s" (v "s" + i 1) ] [ set "s" (v "s" + i 2) ];
          if_ (v "s" == i 7) [ set "s" (v "s" + i 3) ] [];
        ]
  in
  {
    alu_words_per_step = words_per_step alu;
    cmp_words_per_step = words_per_step cmp;
    pac_words_per_step = words_per_step (fib_program 15);
    unprot_words_per_step = words_per_step (fib_program_unprotected 15);
  }

let print_alloc_residuals a =
  Format.printf "@.=== Threaded-engine allocation residuals (gated, differential) ===@.";
  Format.printf "plain ALU loop:        %8.4f minor words/step@." a.alu_words_per_step;
  Format.printf "compare-saturated:     %8.4f minor words/step@." a.cmp_words_per_step;
  Format.printf "fib unprotected:       %8.4f minor words/step@." a.unprot_words_per_step;
  Format.printf "fib pacstack:          %8.4f minor words/step@." a.pac_words_per_step

(* --- lib/obs disabled-path overhead --------------------------------------- *)

(* The ISSUE 5 acceptance criterion: instrumentation must cost under 2% on
   the machine-step and fuzz hot paths while disabled. The disabled path
   executes only [Obs.enabled] guards (one atomic load + predictable
   branch) at sites the hot loops already branch on — PA instructions,
   TLB refills, one publish per machine run — so the overhead bound is
   (guards per op) x (guard cost) / (op cost). Guard cost is measured on
   a 64-deep unrolled loop; guard frequency comes from an *enabled*
   profiling run, whose counters record how often each guarded site
   fired. Summing emission-side counters overestimates the number of
   guard executions, which only makes the bound more conservative. *)

type obs_cost = { guard_ns : float; machine_pct : float; fuzz_pct : float }

let obs_guard_ns () =
  let f () =
    let acc = ref 0 in
    for _ = 1 to 64 do
      if Obs.enabled () then incr acc
    done;
    !acc
  in
  time_per_op ~iters:100_000 f /. 64.

let prefixed p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

let suffixed suf s =
  let n = String.length s and m = String.length suf in
  n >= m && String.sub s (n - m) m = suf

(* Counters whose recorded value bounds the number of guarded-site
   executions. Per-run aggregates (machine.instructions) and values
   derived at publish time (TLB hits) are excluded: they are flushed
   behind the single per-run guard, not counted per event. *)
let obs_guard_count () =
  List.fold_left
    (fun acc (name, v) ->
      match v with
      | Obs.Metrics.Counter n
        when (prefixed "machine.pac." name || prefixed "machine.tlb." name
             || prefixed "machine.trap." name || prefixed "harden." name
             || prefixed "fuzz." name)
             && not (suffixed "_hit" name) -> acc + n
      | _ -> acc)
    0 (Obs.Metrics.snapshot ())

let obs_overhead ~step_ns ~fuzz_ns =
  let guard_ns = obs_guard_ns () in
  Obs.reset ();
  Obs.enable ();
  (* guard frequency on the interpreter: the same fib(15) run the
     machine_step section times, +1 for the per-run publish guard *)
  let m = Machine.load (fib_program 15) in
  ignore (Machine.run ~fuel:10_000_000 m);
  let steps = Machine.instructions_retired m in
  let machine_guards = obs_guard_count () + 1 in
  Obs.reset ();
  (* guard frequency per fuzz program: one full differential seed *)
  ignore (Fuzz_driver.run_seed Fuzz_oracle.default_config ~campaign_seed:11L 3);
  let fuzz_guards = obs_guard_count () in
  Obs.disable ();
  Obs.reset ();
  {
    guard_ns;
    machine_pct =
      float_of_int machine_guards /. float_of_int steps *. guard_ns /. step_ns *. 100.;
    fuzz_pct = float_of_int fuzz_guards *. guard_ns /. fuzz_ns *. 100.;
  }

let print_obs_cost c =
  Format.printf "@.=== lib/obs disabled-path overhead (gated <= 2%%) ===@.";
  Format.printf "disabled guard:        %8.2f ns (atomic load + branch, 64-deep unroll)@."
    c.guard_ns;
  Format.printf "machine_step overhead: %8.4f %%@." c.machine_pct;
  Format.printf "fuzz_seed overhead:    %8.4f %%@." c.fuzz_pct

(* --- throughput gates ----------------------------------------------------- *)

(* Floors are deliberately generous — at least 2x (mostly 3-5x) below the
   numbers measured on the development host — so the CI perf-smoke job
   catches order-of-magnitude regressions, not machine-to-machine noise.
   Re-baselined after the threaded-code engine landed: everything that
   runs machines (fuzz, injection, fleet, the step rates themselves) got
   faster, so the old floors had drifted to 5-15x headroom.
   The obs gates run the other way: ceilings on the disabled-path
   instrumentation overhead. *)

type gate_op = Floor | Ceiling

type gate = { gname : string; metric : string; op : gate_op; limit : float; value : float }

let gate_pass g = match g.op with Floor -> g.value >= g.limit | Ceiling -> g.value <= g.limit
let gate_op_string g = match g.op with Floor -> ">=" | Ceiling -> "<="

let gates sections ~step_speedup obs cost alloc =
  let s n = List.find (fun x -> x.sname = n) sections in
  let mac_speedup = match speedup (s "qarma_mac_fast") with Some v -> v | None -> 0. in
  let registry_pct =
    let r = s "machine_step_registry" in
    match r.before_ns with
    | Some before -> (r.ns_per_op -. before) /. before *. 100.
    | None -> infinity
  in
  [
    { gname = "mac_speedup"; metric = "fast MAC speedup over reference (x)";
      op = Floor; limit = 5.0; value = mac_speedup };
    { gname = "mac_rate"; metric = "QARMA MACs per second";
      op = Floor; limit = 200_000.; value = (s "qarma_mac_fast").ops_per_sec };
    { gname = "step_rate"; metric = "machine steps per second";
      op = Floor; limit = 5_000_000.; value = (s "machine_step").ops_per_sec };
    (* median paired Reference/threaded ratio: 2.12-2.85 (median 2.42)
       over 14 runs on a shared 2-vCPU host, so the floor sits 2x below
       the median, while pairing Reference against itself reads
       0.94-1.02 and trips it *)
    { gname = "step_speedup";
      metric = "threaded engine speedup over Machine.Reference, paired (x)";
      op = Floor; limit = 1.2; value = step_speedup };
    { gname = "threaded_step_rate"; metric = "threaded machine steps per second";
      op = Floor; limit = 30_000_000.; value = (s "machine_step_threaded").ops_per_sec };
    { gname = "fuzz_rate"; metric = "fuzz programs per second";
      op = Floor; limit = 40.; value = (s "fuzz_program").ops_per_sec };
    { gname = "inject_rate"; metric = "injected faults per second";
      op = Floor; limit = 50.; value = (s "inject_fault").ops_per_sec };
    { gname = "scheduler_rate"; metric = "fleet scheduler events per second";
      op = Floor; limit = 500_000.; value = (s "scheduler_event").ops_per_sec };
    { gname = "fleet_rate"; metric = "simulated fleet requests per second";
      op = Floor; limit = 4_000.; value = (s "fleet_request").ops_per_sec };
    { gname = "obs_machine_overhead"; metric = "disabled obs overhead on machine step (%)";
      op = Ceiling; limit = 2.0; value = obs.machine_pct };
    { gname = "obs_fuzz_overhead"; metric = "disabled obs overhead on fuzz seed (%)";
      op = Ceiling; limit = 2.0; value = obs.fuzz_pct };
    { gname = "campaign_overhead"; metric = "campaign tax over raw engine (%)";
      op = Ceiling; limit = 25.0; value = cost.overhead_pct };
    { gname = "registry_indirection";
      metric = "registry-compiled vs asm-roundtrip threaded step (%)";
      op = Ceiling; limit = 2.0; value = registry_pct };
    { gname = "cmp_no_alloc";
      metric = "compare-loop minor words/step over plain-ALU loop";
      op = Ceiling; limit = 0.02;
      value = alloc.cmp_words_per_step -. alloc.alu_words_per_step };
    { gname = "pac_no_alloc";
      metric = "pacstack-fib minor words/step over unprotected fib";
      op = Ceiling; limit = 0.02;
      value = alloc.pac_words_per_step -. alloc.unprot_words_per_step };
  ]

(* --- JSON export (schema documented in README.md) ------------------------- *)

let json_of ~mode sections obs cost alloc gate_results =
  let opt f = function Some v -> f v | None -> Json.Null in
  Json.Obj
    [
      ("schema_version", Json.Int 4);
      ("bench", Json.String "pacstack-hot-path");
      ("mode", Json.String mode);
      ( "obs_overhead",
        Json.Obj
          [
            ("guard_ns", Json.Float obs.guard_ns);
            ("machine_step_pct", Json.Float obs.machine_pct);
            ("fuzz_seed_pct", Json.Float obs.fuzz_pct);
          ] );
      ( "campaign_overhead",
        Json.Obj
          [
            ("raw_ns_per_fault", Json.Float cost.raw_ns_per_fault);
            ("engine_ns_per_fault", Json.Float cost.engine_ns_per_fault);
            ("overhead_pct", Json.Float cost.overhead_pct);
            ("faults", Json.Int cost.co_faults);
          ] );
      ( "alloc_residuals",
        Json.Obj
          [
            ("alu_words_per_step", Json.Float alloc.alu_words_per_step);
            ("cmp_words_per_step", Json.Float alloc.cmp_words_per_step);
            ("pac_words_per_step", Json.Float alloc.pac_words_per_step);
            ("unprotected_words_per_step", Json.Float alloc.unprot_words_per_step);
          ] );
      ( "sections",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("name", Json.String s.sname);
                   ("ns_per_op", Json.Float s.ns_per_op);
                   ("ops_per_sec", Json.Float s.ops_per_sec);
                   ("before_ns_per_op", opt (fun v -> Json.Float v) s.before_ns);
                   ("before_source", opt (fun v -> Json.String v) s.before_src);
                   ("speedup", opt (fun v -> Json.Float v) (speedup s));
                 ])
             sections) );
      ( "gates",
        match gate_results with
        | None -> Json.Null
        | Some gs ->
          Json.List
            (List.map
               (fun (g, pass) ->
                 Json.Obj
                   [
                     ("name", Json.String g.gname);
                     ("metric", Json.String g.metric);
                     ("op", Json.String (gate_op_string g));
                     ("limit", Json.Float g.limit);
                     ("value", Json.Float g.value);
                     ("pass", Json.Bool pass);
                   ])
               gs) );
    ]

(* --- campaign pool: wall-clock scaling ---------------------------------- *)

(* The ISSUE 1 acceptance check: run the same Table 1 campaign plan on 1
   worker and on 4 and report the wall-clock ratio. On a multi-core host
   the 4-worker run is measurably faster; on a single-core container the
   ratio degrades towards (or below) 1x, which the report makes visible
   rather than hiding. Determinism is asserted either way. *)
let campaign_scaling () =
  Format.printf "@.=== Campaign engine: wall-clock scaling (Table 1 plan) ===@.";
  Format.printf "host cores (recommended domains): %d@." (Pool.default_workers ());
  let plan () = Plans.table1_plan ~scale:0.05 ~seed:42L () in
  let time workers =
    let t0 = Unix.gettimeofday () in
    let outcome = Campaign.run ~workers (plan ()) in
    (Unix.gettimeofday () -. t0, Plans.table1_estimates outcome)
  in
  let t1, r1 = time 1 in
  let t4, r4 = time 4 in
  let identical =
    Array.for_all2
      (fun (a : Pacstack_acs.Games.estimate) (b : Pacstack_acs.Games.estimate) ->
        a.successes = b.successes && a.trials = b.trials)
      r1 r4
  in
  Format.printf "1 worker:  %6.2fs@." t1;
  Format.printf "4 workers: %6.2fs  (speedup %.2fx)@." t4 (t1 /. t4);
  Format.printf "results identical across worker counts: %b@." identical;
  if not identical then failwith "campaign determinism violated in bench harness"

(* Crash-tolerance tax: the same plan with every shard failing once
   before succeeding, against the clean run — measures the retry path
   (re-derived shard RNG + backoff), not the experiment itself. *)
let retry_overhead () =
  Format.printf "@.=== Campaign crash tolerance: retry overhead ===@.";
  let faults = 24 in
  let plan () = Plans.inject_plan ~faults ~seed:7L () in
  let no_backoff = { Campaign.default_policy with Campaign.backoff_s = (fun _ -> 0.) } in
  let time policy transform =
    let t0 = Unix.gettimeofday () in
    let outcome = Campaign.run ~workers:1 ~policy (transform (plan ())) in
    (Unix.gettimeofday () -. t0, Plans.inject_totals outcome)
  in
  let flaky (plan : _ Pacstack_campaign.Plan.t) =
    let failed = Array.make (Pacstack_campaign.Plan.shard_count plan) false in
    Pacstack_campaign.Plan.make ~name:plan.Pacstack_campaign.Plan.name
      ~seed:plan.Pacstack_campaign.Plan.seed
      ~shards:
        (Array.map
           (fun (s : Pacstack_campaign.Shard.t) ->
             (s.Pacstack_campaign.Shard.label, s.Pacstack_campaign.Shard.trials))
           plan.Pacstack_campaign.Plan.shards)
      ~run:(fun shard rng ->
        let i = shard.Pacstack_campaign.Shard.index in
        if not failed.(i) then begin
          failed.(i) <- true;
          failwith "transient bench failure"
        end;
        plan.Pacstack_campaign.Plan.run shard rng)
  in
  let t_clean, s_clean = time no_backoff (fun p -> p) in
  let t_flaky, s_flaky = time no_backoff flaky in
  Format.printf "clean run:            %6.2fs@." t_clean;
  Format.printf "every shard fails 1x: %6.2fs  (overhead %.2fx)@." t_flaky (t_flaky /. t_clean);
  Format.printf "results identical despite retries: %b@." (s_clean = s_flaky);
  if s_clean <> s_flaky then failwith "retry determinism violated in bench harness"

let run_bechamel () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) results [] in
  Format.printf "@.=== Bechamel micro-benchmarks (monotonic clock) ===@.";
  List.iter
    (fun name ->
      let est =
        match Analyze.OLS.estimates results.%[name] with
        | Some [ t ] -> Printf.sprintf "%12.1f ns/run" t
        | Some _ | None -> "(no estimate)"
      in
      Format.printf "%-32s %s@." name est)
    (List.sort compare names)

let () =
  let quick = ref false and json = ref false and gate = ref false in
  let out = ref "BENCH_09.json" in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest -> quick := true; parse rest
    | "--json" :: rest -> json := true; parse rest
    | "--gate" :: rest -> gate := true; parse rest
    | "--out" :: file :: rest -> out := file; json := true; parse rest
    | arg :: _ ->
      Printf.eprintf "bench: unknown argument %s\nusage: bench [--quick] [--json] [--gate] [--out FILE]\n" arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  if not !quick then begin
    Format.printf "PACStack reproduction: regenerating all tables and figures@.";
    Pacstack_report.Report.all Format.std_formatter;
    run_bechamel ()
  end;
  let sections, step_speedup = perf_sections () in
  print_sections sections;
  let ns_of n = (List.find (fun x -> x.sname = n) sections).ns_per_op in
  let obs =
    obs_overhead ~step_ns:(ns_of "machine_step") ~fuzz_ns:(ns_of "fuzz_program")
  in
  print_obs_cost obs;
  let cost = campaign_cost () in
  print_campaign_cost cost;
  let alloc = alloc_residuals () in
  print_alloc_residuals alloc;
  if not !quick then begin
    campaign_scaling ();
    retry_overhead ()
  end;
  let gate_results =
    if not !gate then None
    else Some (List.map (fun g -> (g, gate_pass g)) (gates sections ~step_speedup obs cost alloc))
  in
  (match gate_results with
  | None -> ()
  | Some gs ->
    Format.printf "@.=== Gates ===@.";
    List.iter
      (fun (g, pass) ->
        Format.printf "%-20s %-42s %s %12.1f  value %16.4f  %s@." g.gname g.metric
          (gate_op_string g) g.limit g.value
          (if pass then "ok" else "FAIL"))
      gs);
  if !json then begin
    let doc =
      json_of ~mode:(if !quick then "quick" else "full") sections obs cost alloc
        gate_results
    in
    let oc = open_out !out in
    output_string oc (Json.to_string doc);
    output_string oc "\n";
    close_out oc;
    Format.printf "wrote %s@." !out
  end;
  (match gate_results with
  | Some gs when List.exists (fun (_, pass) -> not pass) gs ->
    prerr_endline "bench: throughput gate failed";
    exit 1
  | _ -> ());
  Format.printf "@.done.@."

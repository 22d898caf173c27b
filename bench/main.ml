(* The same-run performance gates that the end-to-end benchmark
   (perfbench/) cannot measure: the threaded engine against its in-tree
   reference oracle, the lib/obs disabled-path bound, the campaign
   engine's tax over the raw streaming fold, and the threaded engine's
   allocation per step. Every gated ratio divides two numbers measured in
   this run; the absolute floors catch a slowdown that hits both sides of
   a ratio alike.

     bench [--out FILE]   measure, print and evaluate every gate, exit 1
                          on a miss; --out also writes the sections and
                          gates as JSON (schema v8, see README.md)

   Every timing reads the process's CPU time (user + system), not the
   wall clock: while other processes hold the CPUs, as when the gates
   run inside [dune runtest] beside the test executables, the time this
   process spends descheduled is not the code's. *)

module Stats = Pacstack_util.Stats
module Scheme = Pacstack_harden.Scheme
module Machine = Pacstack_machine.Machine
module Json = Pacstack_campaign.Json
module Campaign = Pacstack_campaign.Campaign
module Plans = Pacstack_report.Plans
module Obs = Pacstack_obs.Obs
module Inject_engine = Pacstack_inject.Engine
module Fuzz_driver = Pacstack_fuzz.Driver
module Fuzz_oracle = Pacstack_fuzz.Oracle

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

(* pacstack-instrumented recursive fib(15): the step, obs and allocation
   workload *)
let fib15 = fib_program_under Scheme.pacstack 15

(* --- sections ------------------------------------------------------------- *)

type section = {
  sname : string;
  ns_per_op : float;
  before : string option; (* the section of this run that this one replaced *)
}

let section ?before sname ns_per_op = { sname; ns_per_op; before }
let find sections name = List.find (fun s -> s.sname = name) sections

let speedup sections s =
  Option.map (fun b -> (find sections b).ns_per_op /. s.ns_per_op) s.before

let cpu_time () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let time_per_op ~iters f =
  ignore (Sys.opaque_identity (f ()));
  let t0 = cpu_time () in
  for _ = 1 to iters do
    ignore (Sys.opaque_identity (f ()))
  done;
  (cpu_time () -. t0) *. 1e9 /. float_of_int iters

let fib15_steps =
  let m = Machine.load fib15 in
  ignore (Machine.run ~fuel:10_000_000 m);
  Machine.instructions_retired m

(* ns per step of [runf] over 5 fresh fib15 machines *)
let batch runf =
  let runs = 5 in
  let machines = Array.init runs (fun _ -> Machine.load fib15) in
  let t0 = cpu_time () in
  Array.iter (fun m -> ignore (runf m)) machines;
  (cpu_time () -. t0) *. 1e9 /. float_of_int (runs * fib15_steps)

let threaded m = Machine.run ~fuel:10_000_000 m
let median xs = Stats.percentile xs 50.0

let perf_sections () =
  Format.printf "measuring hot-path sections...@.";
  (* The Reference and threaded engines timed in paired, interleaved
     rounds (alternating which goes first), so host-speed drift hits both
     sides of a round alike: [step_speedup] is the median over rounds of
     the per-round Reference/threaded ratio. The step-rate sections keep
     each side's best round — the minimum is the robust statistic for a
     CPU-bound loop on a noisy shared host, every other sample being the
     same work plus scheduling interference. *)
  let step_ref_ns, step_thr_ns, step_speedup =
    let reference m = Machine.Reference.run ~fuel:10_000_000 m in
    let rounds =
      List.init 8 (fun round ->
          if round mod 2 = 0 then
            let r = batch reference in
            (r, batch threaded)
          else
            let t = batch threaded in
            (batch reference, t))
    in
    let best side = List.fold_left (fun acc p -> Float.min acc (side p)) infinity rounds in
    (best fst, best snd, median (List.map (fun (r, t) -> r /. t) rounds))
  in
  let load_ns = time_per_op ~iters:50 (fun () -> Machine.load fib15) in
  let instantiate_ns =
    let prepared = Machine.prepare fib15 in
    time_per_op ~iters:50 (fun () -> Machine.instantiate prepared)
  in
  ( [
      section "machine_step_reference" step_ref_ns;
      section ~before:"machine_step_reference" "machine_step_threaded" step_thr_ns;
      section "machine_load" load_ns;
      section ~before:"machine_load" "machine_instantiate" instantiate_ns;
    ],
    step_speedup )

let print_sections sections =
  Format.printf "@.=== Hot-path sections ===@.";
  Format.printf "%-24s %14s %16s %-24s %9s@." "section" "ns/op" "ops/s" "before" "speedup";
  List.iter
    (fun s ->
      Format.printf "%-24s %14.1f %16.1f %-24s %9s@." s.sname s.ns_per_op (1e9 /. s.ns_per_op)
        (Option.value s.before ~default:"-")
        (match speedup sections s with Some v -> Printf.sprintf "%.2fx" v | None -> "-"))
    sections

(* --- campaign engine tax ---------------------------------------------------- *)

(* ns/fault of the raw streaming fold (Engine.run_range called directly
   on the campaign's own shard ranges, merged) versus the same faults
   driven through the full campaign machinery: checkpoint manifest,
   hierarchical compaction, progress. The difference is what a
   10^8-fault run pays for crash tolerance per fault, gated as a ceiling
   below. Both sides run the same 8-fault ranges, so each pays the same
   per-shard costs. The totals of the two paths are also asserted
   bit-identical — the raw fold IS the campaign's semantics. *)

type campaign_cost = {
  raw_ns_per_fault : float;
  engine_ns_per_fault : float;
  overhead_pct : float;
  co_faults : int;
}

let campaign_cost () =
  Format.printf "@.measuring campaign engine tax...@.";
  let co_faults = 128 and shards = 16 and seed = 7L in
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
  (* The gated tax is the median over 21 paired, interleaved rounds
     (alternating which side goes first) of the per-round engine/raw
     ratio, as for [step_speedup]: a short side is enough for contention
     on a shared host to swing it by 15-40%, and pairing cancels what
     the two sides of a round share. One untimed raw pass first fills
     the process's victim memo (Engine.prepared_victim), so neither side
     of the first round pays the victims' one-time compile. Each side
     runs 128 faults in 16 shards of 8, and 21 rounds: with the victims
     running as straight-line blocks, shorter sides or fewer rounds let
     contention swing the ratio to within a few points of the limit, and
     more shards per side raise the tax itself (compaction runs more
     often). *)
  let timed f =
    let t0 = cpu_time () in
    let r = f () in
    (cpu_time () -. t0, r)
  in
  ignore (raw ());
  let rounds =
    List.init 21 (fun i ->
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
  let median_of f = median (List.map f rounds) in
  let per_fault t = t *. 1e9 /. float_of_int co_faults in
  {
    raw_ns_per_fault = per_fault (median_of (fun ((r, _), _) -> r));
    engine_ns_per_fault = per_fault (median_of (fun (_, (e, _)) -> e));
    overhead_pct = (median_of (fun ((r, _), (e, _)) -> e /. r) -. 1.) *. 100.;
    co_faults;
  }

let print_campaign_cost c =
  Format.printf "@.=== Campaign engine tax (gated <= 25%%) ===@.";
  Format.printf "raw streaming fold:    %10.1f ns/fault@." c.raw_ns_per_fault;
  Format.printf "campaign engine:       %10.1f ns/fault@." c.engine_ns_per_fault;
  Format.printf "overhead:              %10.2f %%  (%d faults, checkpoint + compaction)@."
    c.overhead_pct c.co_faults

(* --- threaded-engine allocation ------------------------------------------ *)

(* The common threaded step allocates nothing (DESIGN.md, "Threaded-code
   execution"). Six loops cover the parts of a step: locals in stack
   slots (ldr/str), register-form shifts and logic, compares and
   conditional branches, globals alternating with stack locals (two data
   pages in the TLB), calls and returns with ldp/stp, and pacia/autia.
   Each is gated at an absolute ceiling per step. Each runs on the second
   instance of one prepared image, so the first instance's first-visit
   op compilation is not counted. *)

let alloc_loops =
  let loop ?globals body =
    Pacstack_minic.(
      Compile.compile ~scheme:Scheme.unprotected
        (Ast.program ?globals
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
  Pacstack_minic.Build.
    [
      ( "alu", "plain-ALU loop",
        loop [ set "s" (v "s" + v "k"); set "s" (v "s" lxor i 3); set "s" (v "s" + i 1) ] );
      ( "logic", "lsl/lsr/and/orr/mul loop",
        loop
          [
            set "s" ((v "s" lsl i 3) lor (v "k" lsr i 2));
            set "s" ((v "s" land i 0xffff) * v "k");
          ] );
      ( "cmp", "compare loop",
        loop
          [
            if_ (v "k" <= i 25_000) [ set "s" (v "s" + i 1) ] [ set "s" (v "s" + i 2) ];
            if_ (v "s" == i 7) [ set "s" (v "s" + i 3) ] [];
          ] );
      ( "global", "global load/store loop",
        loop ~globals:[ ("g", 8) ]
          [ store (glob "g") (load (glob "g") + v "k"); set "s" (v "s" + load (glob "g")) ] );
      ("unprotected", "unprotected fib(15)", fib_program_under Scheme.unprotected 15);
      ("pac", "pacstack fib(15)", fib15);
    ]

(* [(name, description, minor words per step)] for each of [alloc_loops] *)
let alloc_residuals () =
  Format.printf "@.measuring threaded-engine allocation...@.";
  List.map
    (fun (name, what, p) ->
      let prepared = Machine.prepare p in
      ignore (Machine.run ~fuel:10_000_000 (Machine.instantiate prepared));
      let m = Machine.instantiate prepared in
      let w0 = Gc.minor_words () in
      ignore (Machine.run ~fuel:10_000_000 m);
      (name, what, (Gc.minor_words () -. w0) /. float_of_int (Machine.instructions_retired m)))
    alloc_loops

let alloc_ceiling = 0.01

let print_alloc_residuals alloc =
  Format.printf "@.=== Threaded-engine allocation (gated <= %.2f minor words/step) ===@."
    alloc_ceiling;
  List.iter (fun (_, what, w) -> Format.printf "%-26s %8.4f minor words/step@." what w) alloc

(* --- lib/obs disabled-path overhead --------------------------------------- *)

(* Instrumentation must cost under 2% on the machine-step and fuzz hot
   paths while disabled. The disabled path executes only [Obs.enabled]
   guards (one atomic load + predictable branch) at sites the hot loops
   already branch on — PA instructions, TLB refills, one publish per
   machine run — so the overhead bound is
   (guards per op) x (guard cost) / (op cost). Guard cost is timed on 64
   guards written out in a row, each loading the flag as a call site
   does, so no loop counter or safepoint poll is charged to it; guard
   frequency comes from an *enabled* profiling run of the same op, whose
   counters record how often each guarded site fired. Summing emission-side counters overestimates the
   number of guard executions, which only makes the bound more
   conservative. The op costs are the threaded step that [Machine.run]
   executes and the very fuzz seed whose guards are counted, both timed
   here with obs disabled. Guard and step share 5 paired rounds and the
   machine bound takes the median per-round guard/step ratio, as for
   [step_speedup]: on a shared host a busy sibling core can double both
   for longer than one sample, so unpaired timings could double the
   ratio. The fuzz seed (best of 3) has four orders of magnitude of
   headroom and needs no pairing. *)

type obs_cost = {
  guard_ns : float;
  machine_pct : float;
  fuzz_seed_ns : float;
  fuzz_pct : float;
}

let obs_guard_ns () =
  let[@inline] guard n = if Obs.enabled () then n + 1 else n in
  let[@inline] guard8 n = guard (guard (guard (guard (guard (guard (guard (guard n))))))) in
  let f () = guard8 (guard8 (guard8 (guard8 (guard8 (guard8 (guard8 (guard8 0))))))) in
  time_per_op ~iters:20_000 f /. 64.

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

let obs_overhead () =
  let rounds = List.init 5 (fun _ -> (obs_guard_ns (), batch threaded)) in
  let guard_ns = median (List.map fst rounds) in
  let guard_per_step = median (List.map (fun (g, step) -> g /. step) rounds) in
  (* one full differential seed: every scheme x {peephole off, on} *)
  let fuzz_seed () = Fuzz_driver.run_seed Fuzz_oracle.default_config ~campaign_seed:11L 3 in
  let fuzz_seed_ns =
    List.fold_left Float.min infinity (List.init 3 (fun _ -> time_per_op ~iters:1 fuzz_seed))
  in
  Obs.reset ();
  Obs.enable ();
  (* guard frequency on the interpreter: the fib(15) run the step
     sections time, +1 for the per-run publish guard *)
  ignore (threaded (Machine.load fib15));
  let machine_guards = obs_guard_count () + 1 in
  Obs.reset ();
  ignore (fuzz_seed ());
  let fuzz_guards = obs_guard_count () in
  Obs.disable ();
  Obs.reset ();
  {
    guard_ns;
    machine_pct = float_of_int machine_guards /. float_of_int fib15_steps *. guard_per_step *. 100.;
    fuzz_seed_ns;
    fuzz_pct = float_of_int fuzz_guards *. guard_ns /. fuzz_seed_ns *. 100.;
  }

let print_obs_cost c =
  Format.printf "@.=== lib/obs disabled-path overhead (gated <= 2%%) ===@.";
  Format.printf "disabled guard:        %8.2f ns (atomic load + branch, 64-deep unroll)@."
    c.guard_ns;
  Format.printf "threaded step:         %8.4f %%@." c.machine_pct;
  Format.printf "fuzz seed:             %8.4f %%  (seed %.0f ns, obs disabled)@." c.fuzz_pct
    c.fuzz_seed_ns

(* --- gates ---------------------------------------------------------------- *)

(* Ratio floors and ceilings compare two things timed in this run. The
   absolute floors are deliberately generous — at least 2x below the
   numbers measured on the development host — so only an
   order-of-magnitude regression that hits both sides of a ratio fails. *)

type gate_op = Floor | Ceiling

type gate = { gname : string; metric : string; op : gate_op; limit : float; value : float }

let gate_pass g = match g.op with Floor -> g.value >= g.limit | Ceiling -> g.value <= g.limit
let gate_op_string g = match g.op with Floor -> ">=" | Ceiling -> "<="

let gates sections ~step_speedup obs cost alloc =
  let rate name = 1e9 /. (find sections name).ns_per_op in
  [
    { gname = "step_rate"; metric = "Machine.Reference steps per second";
      op = Floor; limit = 5_000_000.; value = rate "machine_step_reference" };
    (* median paired Reference/threaded ratio: 2.12-2.85 (median 2.42)
       over 14 runs on a shared 2-vCPU host, so the floor sits 2x below
       the median, while pairing Reference against itself reads
       0.94-1.02 and trips it *)
    { gname = "step_speedup";
      metric = "threaded engine speedup over Machine.Reference, paired (x)";
      op = Floor; limit = 1.2; value = step_speedup };
    { gname = "threaded_step_rate"; metric = "threaded machine steps per second";
      op = Floor; limit = 30_000_000.; value = rate "machine_step_threaded" };
    { gname = "obs_machine_overhead"; metric = "disabled obs overhead on threaded step (%)";
      op = Ceiling; limit = 2.0; value = obs.machine_pct };
    { gname = "obs_fuzz_overhead"; metric = "disabled obs overhead on fuzz seed (%)";
      op = Ceiling; limit = 2.0; value = obs.fuzz_pct };
    { gname = "campaign_overhead"; metric = "campaign tax over raw engine (%)";
      op = Ceiling; limit = 25.0; value = cost.overhead_pct };
  ]
  @ List.map
      (fun (name, what, w) ->
        { gname = name ^ "_no_alloc"; metric = what ^ " minor words/step";
          op = Ceiling; limit = alloc_ceiling; value = w })
      alloc

(* --- JSON export (schema documented in README.md) ------------------------- *)

let json_of sections obs cost alloc gate_results =
  let opt f = function Some v -> f v | None -> Json.Null in
  Json.Obj
    [
      ("schema_version", Json.Int 8);
      ("bench", Json.String "pacstack-hot-path");
      ( "obs_overhead",
        Json.Obj
          [
            ("guard_ns", Json.Float obs.guard_ns);
            ("machine_step_pct", Json.Float obs.machine_pct);
            ("fuzz_seed_ns", Json.Float obs.fuzz_seed_ns);
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
        Json.Obj (List.map (fun (name, _, w) -> (name ^ "_words_per_step", Json.Float w)) alloc) );
      ( "sections",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("name", Json.String s.sname);
                   ("ns_per_op", Json.Float s.ns_per_op);
                   ("ops_per_sec", Json.Float (1e9 /. s.ns_per_op));
                   ("before", opt (fun v -> Json.String v) s.before);
                   ("speedup", opt (fun v -> Json.Float v) (speedup sections s));
                 ])
             sections) );
      ( "gates",
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
             gate_results) );
    ]

let () =
  let out =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> None
    | [ "--out"; file ] -> Some file
    | _ ->
      prerr_endline "usage: bench [--out FILE]";
      exit 2
  in
  let sections, step_speedup = perf_sections () in
  print_sections sections;
  let obs = obs_overhead () in
  print_obs_cost obs;
  let cost = campaign_cost () in
  print_campaign_cost cost;
  let alloc = alloc_residuals () in
  print_alloc_residuals alloc;
  let gate_results =
    List.map (fun g -> (g, gate_pass g)) (gates sections ~step_speedup obs cost alloc)
  in
  Format.printf "@.=== Gates ===@.";
  List.iter
    (fun (g, pass) ->
      Format.printf "%-20s %-58s %s %12.2f  value %16.4f  %s@." g.gname g.metric
        (gate_op_string g) g.limit g.value
        (if pass then "ok" else "FAIL"))
    gate_results;
  Option.iter
    (fun file ->
      Out_channel.with_open_text file (fun oc ->
          output_string oc (Json.to_string (json_of sections obs cost alloc gate_results));
          output_string oc "\n");
      Format.printf "wrote %s@." file)
    out;
  if List.exists (fun (_, pass) -> not pass) gate_results then begin
    prerr_endline "bench: gate failed";
    exit 1
  end

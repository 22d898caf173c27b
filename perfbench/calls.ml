(* Every call the benchmark makes into lib/, one submodule per workload,
   so that a rename in the library touches this file only.

   Inputs are pinned here by value, never by a library default: scheme
   names are listed (Scheme.all grows whenever a scheme registers), every
   config record is written out field by field, and the fault, seed and
   cell counts live in perfbench.ml beside the values recorded for them.

   Each workload also re-issues, in [redrive], the public calls one op
   is made of, wrapped in {!Spans}; only the traced run calls those. *)

module Scheme = Pacstack_harden.Scheme
module Compile = Pacstack_minic.Compile
module Machine = Pacstack_machine.Machine
module Image = Pacstack_machine.Image
module Kernel = Pacstack_machine.Kernel
module Rng = Pacstack_util.Rng

let scheme name =
  match Scheme.of_string name with
  | Some s -> s
  | None -> failwith ("perfbench: unknown scheme " ^ name)

let scheme_name = Scheme.to_string

(* The ten schemes of the zoo. *)
let ten =
  [
    "baseline"; "stack-protector-strong"; "branch-protection"; "shadow-call-stack";
    "pacstack-nomask"; "pacstack"; "pcan"; "zipper-stack"; "pactight"; "parts";
  ]

let run_counted m ~fuel =
  let outcome = Spans.time "machine.run" (fun () -> Machine.run ~fuel m) in
  Spans.count "machine.steps" (Machine.instructions_retired m);
  outcome

module Inject = struct
  module Engine = Pacstack_inject.Engine
  module Mega = Pacstack_inject.Mega
  module Fault = Pacstack_inject.Fault
  module Victim = Pacstack_inject.Victim
  module Campaign = Pacstack_campaign.Campaign
  module Checkpoint = Pacstack_campaign.Checkpoint
  module Plan = Pacstack_campaign.Plan
  module Progress = Pacstack_campaign.Progress
  module Shard = Pacstack_campaign.Shard

  let campaign_seed = 7L
  let pac_bits = 4
  let fuel = 10_000_000

  let config () =
    { Engine.pac_bits; fuel; schemes = List.map scheme ten; tamper = None }

  let class_char = function
    | Engine.Detected _ -> 'd'
    | Engine.Benign -> 'b'
    | Engine.Silent -> 's'

  let site i = Fault.site_to_string (Fault.derive ~campaign_seed i).Fault.site

  (* Fault [i]'s classification under each configured scheme, one
     character per scheme in config order. *)
  let run_fault cfg i =
    String.of_seq
      (List.to_seq
         (List.map
            (fun (r : Engine.result) -> class_char r.Engine.classification)
            (Engine.run_fault cfg ~campaign_seed i)))

  (* (site, scheme, detected, benign, silent), sorted. *)
  let site_totals (s : Engine.stats) =
    List.sort compare
      (List.map
         (fun ((site, name), (c : Engine.cell)) ->
           (site, name, c.Engine.detected, c.Engine.benign, c.Engine.silent))
         s.Engine.site_cells)

  type event = Started | Finished | Retried of int | Quarantined of int | Other

  let event = function
    | Progress.Shard_started _ -> Started
    | Progress.Shard_finished _ -> Finished
    | Progress.Shard_retried { shard; _ } -> Retried shard.Shard.index
    | Progress.Shard_quarantined { shard; _ } -> Quarantined shard.Shard.index
    | Progress.Campaign_started _ | Progress.Campaign_finished _ | Progress.Pool_degraded _ ->
      Other

  (* One streaming campaign over [ranges] (shard k runs faults
     [first, first + count) of ranges.(k)), checkpointed to [manifest]
     and run in this process, one worker. Per-shard statistics in shard
     order, [None] for a quarantined shard. *)
  let campaign cfg ~ranges ~manifest ~on_event =
    let plan =
      Plan.make ~name:"inject" ~seed:campaign_seed
        ~shards:
          (Array.map
             (fun (first, count) ->
               (Printf.sprintf "faults[%d,%d)" first (first + count), count))
             ranges)
        ~run:(fun shard _rng ->
          let first, count = ranges.(shard.Shard.index) in
          Engine.run_range cfg ~campaign_seed ~first ~count)
    in
    let codec = { Checkpoint.encode = Engine.stats_to_json; decode = Engine.stats_of_json } in
    let outcome =
      Campaign.run ~workers:1 ~progress:(fun e -> on_event (event e))
        ~checkpoint:(manifest, codec) plan
    in
    outcome.Campaign.results

  (* The same faults folded by the streaming statistics without the
     campaign engine: per scheme (name, detected, benign, silent). *)
  let mega_range cfg ~first ~count = Mega.run_range cfg ~campaign_seed ~first ~count
  let mega_merge = Mega.merge
  let mega_empty = Mega.empty

  let mega_totals (t : Mega.t) =
    List.map
      (fun (name, (c : Mega.cell)) -> (name, c.Mega.detected, c.Mega.benign, c.Mega.silent))
      t.Mega.cells

  (* The public calls fault [i] makes under each scheme, re-issued on
     the same inputs: the victim compile, then the reference and
     injected machines, each loaded (booted under the kernel for the
     signal-frame site, three times) and run to completion. The
     injected run's mid-run pause and corruption are not re-issued.
     [Image.build] and [Machine.clone] are timed as the pieces a
     prepare-once loader would reuse; run_fault does not call them
     today, so they do not count towards the explained share. *)
  let redrive cfg i =
    let spec = Fault.derive ~campaign_seed i in
    let keys = Fault.rng ~campaign_seed i in
    let mcfg = Pacstack_pa.Config.make ~pac_bits:cfg.Engine.pac_bits () in
    List.iter
      (fun scheme ->
        match spec.Fault.site with
        | Fault.Signal_frame ->
          let compiled =
            Spans.time "minic.compile" (fun () -> Compile.compile ~scheme (Victim.signal_program ()))
          in
          let signal_policy =
            if Scheme.chained_signal scheme then Kernel.Sig_chained else Kernel.Sig_unprotected
          in
          for _ = 1 to 3 do
            let m =
              Spans.time "kernel.boot" (fun () ->
                  let k = Kernel.create ~signal_policy (Rng.copy keys) in
                  Kernel.machine (Kernel.boot k compiled))
            in
            ignore (run_counted m ~fuel:cfg.Engine.fuel)
          done
        | Fault.Ret_slot | Fault.Chain_spill | Fault.Cr_reg | Fault.Lr_reg | Fault.Shadow_slot
        | Fault.Pac_bits | Fault.Reload_window ->
          let compiled =
            Spans.time "minic.compile" (fun () -> Compile.compile ~scheme (Victim.program ()))
          in
          ignore (Spans.time "machine.image_build" (fun () -> Image.build compiled));
          for k = 1 to 2 do
            let m =
              Spans.time "machine.load" (fun () ->
                  Machine.load ~cfg:mcfg ~rng:(Rng.copy keys) compiled)
            in
            if k = 1 then ignore (Spans.time "machine.clone" (fun () -> Machine.clone m));
            ignore (run_counted m ~fuel:cfg.Engine.fuel)
          done)
      cfg.Engine.schemes
end

module Fuzz = struct
  module Driver = Pacstack_fuzz.Driver
  module Oracle = Pacstack_fuzz.Oracle
  module Interp = Pacstack_fuzz.Interp
  module Trace = Pacstack_fuzz.Trace

  let campaign_seed = 1L

  let config () =
    {
      Oracle.schemes = List.map scheme ten;
      optimize = [ false; true ];
      machine_fuel = 10_000_000;
      interp_steps = 2_000_000;
      transform = None;
    }

  type verdict = { runs : int; skipped : int; crashes : int; divergences : int }

  let run_seed cfg i =
    let s = Driver.run_seed cfg ~campaign_seed i in
    {
      runs = s.Driver.runs;
      skipped = s.Driver.skipped;
      crashes = s.Driver.crashes;
      divergences = List.length s.Driver.failures;
    }

  let skip = { runs = 0; skipped = 1; crashes = 0; divergences = 0 }

  let trace_of m outcome =
    let outcome =
      match outcome with
      | Machine.Halted c -> Trace.Exit c
      | Machine.Faulted _ -> Trace.Trap
      | Machine.Out_of_fuel -> Trace.Fuel
    in
    { Trace.outcome; output = Machine.output m }

  (* [run_seed] re-issued as its public constituents: generate,
     interpret, then compile, load and run every (scheme, peephole)
     variant, comparing each machine trace with the interpreter's. *)
  let redrive (cfg : Oracle.config) i =
    match
      let p = Spans.time "fuzz.gen" (fun () -> Driver.program_of_seed ~campaign_seed i) in
      let expected =
        Spans.time "fuzz.interp" (fun () -> Interp.run ~max_steps:cfg.Oracle.interp_steps p)
      in
      if expected.Trace.outcome = Trace.Fuel then skip
      else begin
        let runs = ref 0 and divergences = ref 0 and fuel_out = ref false in
        List.iter
          (fun scheme ->
            List.iter
              (fun optimize ->
                if not !fuel_out then begin
                  let compiled =
                    Spans.time "minic.compile" (fun () -> Compile.compile ~scheme ~optimize p)
                  in
                  let m = Spans.time "machine.load" (fun () -> Machine.load compiled) in
                  let actual = trace_of m (run_counted m ~fuel:cfg.Oracle.machine_fuel) in
                  if actual.Trace.outcome = Trace.Fuel then fuel_out := true
                  else begin
                    incr runs;
                    if not (Trace.equal expected actual) then incr divergences
                  end
                end)
              cfg.Oracle.optimize)
          cfg.Oracle.schemes;
        if !fuel_out then skip
        else if !divergences > 0 then
          (* Driver.run_seed counts a disagreeing seed's divergences as its runs *)
          { runs = !divergences; skipped = 0; crashes = 0; divergences = !divergences }
        else { runs = !runs; skipped = 0; crashes = 0; divergences = 0 }
      end
    with
    | v -> v
    | exception _ -> { runs = 0; skipped = 0; crashes = 1; divergences = 0 }
end

module Spec = struct
  module Speclike = Pacstack_workloads.Speclike

  let variant = Speclike.Rate
  let fuel = 100_000_000

  (* The eight C kernels of Figure 5 and the three C++-flavoured ones. *)
  let kernels =
    [
      "perlbench"; "gcc"; "mcf"; "lbm"; "xz"; "x264"; "imagick"; "nab"; "omnetpp"; "leela";
      "xalancbmk";
    ]

  type result = { cycles : int; instructions : int; checksum : int64 }

  (* Raises [Failure] when the cell traps or runs out of fuel. *)
  let measure bench scheme =
    let m = Speclike.measure_cell ~variant ~scheme bench in
    {
      cycles = m.Speclike.cycles;
      instructions = m.Speclike.instructions;
      checksum = m.Speclike.checksum;
    }

  (* [measure_cell] re-issued as compile, load, run. [None] when the
     kernel does not exit 0 with a checksum. *)
  let redrive bench scheme =
    let ast =
      match Speclike.find bench with
      | Some b -> b.Speclike.program variant
      | None -> failwith ("perfbench: unknown kernel " ^ bench)
    in
    let compiled = Spans.time "minic.compile" (fun () -> Compile.compile ~scheme ast) in
    let m = Spans.time "machine.load" (fun () -> Machine.load compiled) in
    match run_counted m ~fuel with
    | Machine.Halted 0 -> (
      match List.rev (Machine.output m) with
      | checksum :: _ ->
        Some
          { cycles = Machine.cycles m; instructions = Machine.instructions_retired m; checksum }
      | [] -> None)
    | Machine.Halted _ | Machine.Faulted _ | Machine.Out_of_fuel -> None
end

module Fleet = struct
  module F = Pacstack_fleet.Fleet
  module Arrival = Pacstack_fleet.Arrival
  module Connection = Pacstack_fleet.Connection
  module Scheduler = Pacstack_fleet.Scheduler
  module Latency = Pacstack_fleet.Latency
  module Plan = Pacstack_campaign.Plan
  module Server = Pacstack_workloads.Server

  let schemes = [ "baseline"; "pacstack" ]

  (* Sized so that the event simulation, not the per-cell calibration of
     service costs on the machine, takes most of each cell: one response
     size, so a cell calibrates one size class, and ~20k requests per
     cell. One hundred cells give the p90 of a run ten ops beyond it. *)
  let config () =
    {
      F.connections = 25_000;
      duration_s = 18.0;
      arrival =
        {
          Arrival.process =
            Arrival.Bursty { calm_rate = 1.0; burst_rate = 12.0; calm_s = 2.0; burst_s = 0.25 };
          sizes = Arrival.Fixed;
        };
      schemes = List.map scheme schemes;
      seed = 7L;
      cells = 50;
      cores = 4;
    }

  let cells cfg = cfg.F.cells

  type stats = F.stats

  let run_cell cfg ~scheme ~cell = F.run_cell cfg ~scheme ~cell ()
  let merge = F.merge

  (* offered, completed, queue peak, p50 and p99 latency in cycles. *)
  let summary (s : stats) =
    ( s.F.offered,
      s.F.completed,
      s.F.queue_peak,
      Latency.percentile s.F.latency 50.0,
      Latency.percentile s.F.latency 99.0 )

  (* [run_cell]'s public constituents on the same inputs: the cell's
     arrival streams (Arrival), the service-cost calibration on the
     machine (Connection.Costs), the event heap (Scheduler) fed with one
     arrival per connection at a time and a departure per request, and
     the latency sketch (Latency). The queueing and contention model in
     between is not re-issued. Returns the requests generated. *)
  let redrive cfg ~scheme ~cell =
    let counts = Plan.split_trials ~trials:cfg.F.connections ~shards:cfg.F.cells in
    let offset = Array.fold_left ( + ) 0 (Array.sub counts 0 cell) in
    let streams =
      Spans.time "fleet.arrival" (fun () ->
          Array.init counts.(cell) (fun k ->
              let c = Connection.start cfg.F.arrival ~seed:cfg.F.seed ~conn:(offset + k) in
              let rec pull acc =
                match Arrival.next c.Connection.gen ~until_s:cfg.F.duration_s with
                | None -> Array.of_list (List.rev acc)
                | Some r -> pull (r :: acc)
              in
              pull []))
    in
    let service =
      Spans.time "fleet.calibrate" (fun () ->
          let costs = Connection.Costs.create ~scheme in
          Array.map
            (Array.map (fun (r : Arrival.request) ->
                 let cost = Connection.Costs.request costs ~records:r.Arrival.records in
                 ignore (Connection.Costs.extra_mem costs ~records:r.Arrival.records);
                 max 1 (int_of_float (cost.Connection.cycles *. r.Arrival.service_jitter))))
            streams)
    in
    let cycles_of_s s = int_of_float (Float.round (s *. Server.Kernel.clock_hz)) in
    Spans.time "fleet.scheduler" (fun () ->
        let heap = Scheduler.create () in
        let next = Array.make (Array.length streams) 0 in
        let push_arrival c =
          let j = next.(c) in
          if j < Array.length streams.(c) then begin
            next.(c) <- j + 1;
            Scheduler.push heap ~time:(cycles_of_s streams.(c).(j).Arrival.at_s) ~tie:1 (c, j)
          end
        in
        Array.iteri (fun c _ -> push_arrival c) streams;
        let rec drain () =
          match Scheduler.pop heap with
          | None -> ()
          | Some (now, 1, (c, j)) ->
            push_arrival c;
            Scheduler.push heap ~time:(now + service.(c).(j)) ~tie:0 (c, j);
            drain ()
          | Some _ -> drain ()
        in
        drain ());
    let requests = Array.fold_left (fun n s -> n + Array.length s) 0 streams in
    ignore
      (Spans.time "fleet.latency" (fun () ->
           Array.fold_left
             (Array.fold_left (fun l svc -> Latency.record l (float_of_int svc)))
             Latency.empty service));
    requests
end

(* Tests for lib/obs: the metrics registry, the per-domain ring-buffer
   tracer and its deterministic merge, the JSON-lines sink, the campaign
   progress hooks, and the machine-level counters — including the two
   contracts the bench harness leans on: disabled instrumentation records
   nothing, and enabled instrumentation does not perturb execution. *)

module Obs = Pacstack_obs.Obs
module Json = Pacstack_campaign.Json
module Sketch = Pacstack_util.Sketch
module Plan = Pacstack_campaign.Plan
module Shard = Pacstack_campaign.Shard
module Campaign = Pacstack_campaign.Campaign
module Machine = Pacstack_machine.Machine
module Scheme = Pacstack_harden.Scheme
module Ast = Pacstack_minic.Ast
module B = Pacstack_minic.Build
module Compile = Pacstack_minic.Compile

let with_obs f =
  Obs.reset ();
  Obs.enable ();
  Fun.protect ~finally:Obs.disable f

(* A missing counter reads as zero: the machine only publishes non-zero
   deltas, so e.g. a run with no TLB misses never creates the cell. *)
let counter name =
  match Obs.Metrics.find name with Some (Obs.Metrics.Counter n) -> n | _ -> 0

(* --- Metrics -------------------------------------------------------------- *)

let test_metrics_disabled_noop () =
  Obs.reset ();
  Obs.disable ();
  Obs.Metrics.incr "x";
  Obs.Metrics.gauge "g" 1.0;
  Obs.Metrics.observe "h" 1.0;
  Obs.Trace.emit "e" [];
  Alcotest.(check int) "no metrics recorded" 0 (List.length (Obs.Metrics.snapshot ()));
  Alcotest.(check int) "no events recorded" 0 (List.length (Obs.Trace.events ()))

let test_metrics_basics () =
  with_obs @@ fun () ->
  Obs.Metrics.incr "a";
  Obs.Metrics.incr ~by:4 "a";
  Obs.Metrics.gauge "g" 2.0;
  Obs.Metrics.gauge "g" 3.5;
  Obs.Metrics.register_histogram "h" ~lo:0. ~hi:4. ~buckets:4;
  List.iter (Obs.Metrics.observe "h") [ 0.5; 3.0; -1.0; 10.0; Float.nan ];
  (match Obs.Metrics.find "a" with
  | Some (Obs.Metrics.Counter 5) -> ()
  | _ -> Alcotest.fail "counter should read 5");
  (match Obs.Metrics.find "g" with
  | Some (Obs.Metrics.Gauge v) -> Alcotest.check (Alcotest.float 0.0) "latest value wins" 3.5 v
  | _ -> Alcotest.fail "gauge missing");
  (match Obs.Metrics.find "h" with
  | Some (Obs.Metrics.Histogram { Sketch.counts; count = total; _ }) ->
    Alcotest.(check int) "total" 5 total;
    Alcotest.(check (array int)) "out-of-range and NaN clamp to the edges" [| 3; 0; 0; 2 |]
      counts
  | _ -> Alcotest.fail "histogram missing");
  Alcotest.(check (list string)) "snapshot sorted by name" [ "a"; "g"; "h" ]
    (List.map fst (Obs.Metrics.snapshot ()))

(* Histograms have no implicit layout: a sample for an undeclared name,
   like one for a counter, is dropped rather than creating a cell. *)
let test_observe_undeclared_noop () =
  with_obs @@ fun () ->
  Obs.Metrics.observe "undeclared" 1.0;
  Obs.Metrics.incr "c";
  Obs.Metrics.observe "c" 1.0;
  Alcotest.(check bool) "no histogram created" true (Obs.Metrics.find "undeclared" = None);
  Alcotest.(check bool) "counter untouched" true (Obs.Metrics.find "c" = Some (Obs.Metrics.Counter 1))

(* --- Trace ---------------------------------------------------------------- *)

let test_trace_merge_order () =
  with_obs @@ fun () ->
  Obs.Trace.emit ~key:2 "b" [];
  Obs.Trace.emit ~key:1 "a" [];
  Obs.Trace.emit ~key:1 "c" [];
  Alcotest.(check (list (pair int string)))
    "sorted by (key, name)"
    [ (1, "a"); (1, "c"); (2, "b") ]
    (List.map (fun e -> (e.Obs.Trace.key, e.Obs.Trace.name)) (Obs.Trace.events ()));
  Alcotest.(check (list int)) "seq renumbered per key" [ 0; 1; 0 ]
    (List.map (fun e -> e.Obs.Trace.seq) (Obs.Trace.events ()))

let test_trace_cross_domain_merge () =
  with_obs @@ fun () ->
  (* Each key is emitted by exactly one domain — the campaign-sharding
     discipline — so the merged order is independent of interleaving. *)
  let worker key =
    Domain.spawn (fun () ->
        for i = 0 to 2 do
          Obs.Trace.emit ~key (Printf.sprintf "w%d.%d" key i) []
        done)
  in
  let a = worker 0 and b = worker 1 in
  Domain.join a;
  Domain.join b;
  Alcotest.(check (list string))
    "deterministic merge"
    [ "w0.0"; "w0.1"; "w0.2"; "w1.0"; "w1.1"; "w1.2" ]
    (List.map (fun e -> e.Obs.Trace.name) (Obs.Trace.events ()))

let test_trace_overflow_counts_drops () =
  with_obs @@ fun () ->
  (* set_capacity only affects buffers not yet materialised, so overflow
     is exercised in a fresh domain. *)
  Obs.Trace.set_capacity 4;
  Fun.protect ~finally:(fun () -> Obs.Trace.set_capacity 8192) @@ fun () ->
  Domain.join
    (Domain.spawn (fun () ->
         for i = 0 to 9 do
           Obs.Trace.emit ~key:7 "e" [ ("i", Json.Int i) ]
         done));
  let evs = List.filter (fun e -> e.Obs.Trace.key = 7) (Obs.Trace.events ()) in
  Alcotest.(check int) "ring keeps the last 4" 4 (List.length evs);
  Alcotest.(check int) "drops counted" 6 (Obs.Trace.dropped ());
  match evs with
  | { Obs.Trace.fields = [ ("i", Json.Int i) ]; _ } :: _ ->
    Alcotest.(check int) "oldest surviving event is #6" 6 i
  | _ -> Alcotest.fail "unexpected event shape"

(* --- Sink ----------------------------------------------------------------- *)

let test_sink_lines_parse () =
  with_obs @@ fun () ->
  Obs.Metrics.incr "m";
  Obs.Metrics.register_histogram "h" ~lo:0. ~hi:1. ~buckets:2;
  Obs.Metrics.observe "h" 0.5;
  (* a NaN gauge must not break the export (the Json non-finite fix) *)
  Obs.Metrics.gauge "g" Float.nan;
  Obs.Trace.emit ~key:3 "ev" [ ("x", Json.Int 1) ];
  let lines = Obs.Sink.lines () in
  Alcotest.(check int) "header + 3 metrics + 1 event" 5 (List.length lines);
  List.iter
    (fun line ->
      match Json.parse line with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "unparseable line %S: %s" line e)
    lines;
  match Json.parse (List.hd lines) with
  | Ok v ->
    Alcotest.(check (option string)) "header comes first" (Some "header")
      Json.(Option.bind (member "type" v) to_str)
  | Error e -> Alcotest.failf "header did not parse: %s" e

(* --- Campaign hooks ------------------------------------------------------- *)

let test_campaign_hooks () =
  with_obs @@ fun () ->
  let plan =
    Plan.make ~name:"obs-test" ~seed:1L
      ~shards:[| ("a", 1); ("b", 1); ("c", 1) |]
      ~run:(fun shard _rng -> shard.Shard.index * 2)
  in
  let outcome = Campaign.run ~workers:2 ~progress:(Obs.Campaign_hooks.progress_sink ()) plan in
  Alcotest.(check (array int)) "results unaffected" [| 0; 2; 4 |] (Campaign.results_exn outcome);
  Alcotest.(check int) "tasks counted" 3 (counter "campaign.tasks");
  Alcotest.(check int) "shards finished" 3 (counter "campaign.shards_finished");
  Alcotest.(check int) "no retries" 0 (counter "campaign.retries");
  (match Obs.Metrics.find "campaign.shard_trials" with
  | Some (Obs.Metrics.Histogram h) -> Alcotest.(check int) "trial samples" 3 h.Sketch.count
  | _ -> Alcotest.fail "trials histogram missing");
  let finished =
    List.filter (fun e -> e.Obs.Trace.name = "campaign.shard_finished") (Obs.Trace.events ())
  in
  Alcotest.(check (list int)) "one event per shard, keyed by index" [ 0; 1; 2 ]
    (List.map (fun e -> e.Obs.Trace.key) finished)

let test_export_worker_count_independent () =
  (* The whole --trace artifact — header, metrics, events — must be
     bit-identical at any worker count: worker-emitted events mix with
     coordinator-emitted ones per key, and the hooks record no
     wall-clock fields. *)
  let export workers =
    with_obs @@ fun () ->
    let plan =
      Plan.make ~name:"obs-det" ~seed:7L
        ~shards:[| ("a", 2); ("b", 1); ("c", 3); ("d", 1) |]
        ~run:(fun shard _rng ->
          Obs.Trace.emit ~key:shard.Shard.index "work"
            [ ("trials", Json.Int shard.Shard.trials) ];
          Obs.Metrics.incr "work.done" ~by:shard.Shard.trials;
          shard.Shard.index)
    in
    let outcome =
      Campaign.run ~workers ~progress:(Obs.Campaign_hooks.progress_sink ()) plan
    in
    ignore (Campaign.results_exn outcome);
    Obs.Sink.lines ()
  in
  let one = export 1 in
  Alcotest.(check (list string)) "1-worker vs 4-worker export" one (export 4)

(* --- Machine and toolchain counters --------------------------------------- *)

let sample_program =
  Ast.program
    [
      Ast.fdef "leaf" ~params:[ "x" ] B.[ ret ((v "x" * i 3) + i 1) ];
      Ast.fdef "main"
        ~locals:[ Ast.Scalar "s"; Ast.Scalar "k" ]
        B.[
            set "s" (i 0);
            for_ "k" ~from:(i 0) ~below:(i 8) [ set "s" (v "s" + call "leaf" [ v "k" ]) ];
            print (v "s");
            ret (i 0);
          ];
    ]

let test_machine_counters () =
  let program = Compile.compile ~scheme:Scheme.pacstack sample_program in
  with_obs @@ fun () ->
  let m = Machine.load program in
  (match Machine.run m with
  | Machine.Halted 0 -> ()
  | _ -> Alcotest.fail "sample program failed");
  Alcotest.(check int) "instructions counter matches the machine"
    (Machine.instructions_retired m)
    (counter "machine.instructions");
  Alcotest.(check int) "data hits + misses = memory operations"
    (Machine.memory_operations m)
    (counter "machine.tlb.data_hit" + counter "machine.tlb.data_miss");
  Alcotest.(check bool) "chain links counted under pacstack" true
    (counter "machine.pac.chain.pac" > 0)

let test_emit_counters () =
  with_obs @@ fun () ->
  ignore (Compile.compile ~scheme:Scheme.pacstack sample_program);
  Alcotest.(check bool) "pac emission counted" true
    (counter "harden.emit.pac{scheme=pacstack}" > 0);
  Alcotest.(check bool) "chain links attributed to the scheme" true
    (counter "harden.emit.chain_link{scheme=pacstack}" > 0)

let test_obs_does_not_perturb () =
  let program = Compile.compile ~scheme:Scheme.pacstack sample_program in
  let run () =
    let m = Machine.load program in
    match Machine.run m with
    | Machine.Halted 0 -> (Machine.output m, Machine.cycles m)
    | _ -> Alcotest.fail "sample program failed"
  in
  let plain = run () in
  let traced = with_obs run in
  Alcotest.(check (list int64)) "output identical" (fst plain) (fst traced);
  Alcotest.(check int) "cycles identical" (snd plain) (snd traced)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_metrics_disabled_noop;
          Alcotest.test_case "counters, gauges, histograms" `Quick test_metrics_basics;
          Alcotest.test_case "observe on an undeclared name is a no-op" `Quick
            test_observe_undeclared_noop;
        ] );
      ( "trace",
        [
          Alcotest.test_case "merge order" `Quick test_trace_merge_order;
          Alcotest.test_case "cross-domain merge deterministic" `Quick
            test_trace_cross_domain_merge;
          Alcotest.test_case "ring overflow counts drops" `Quick test_trace_overflow_counts_drops;
        ] );
      ( "sink", [ Alcotest.test_case "every line parses" `Quick test_sink_lines_parse ] );
      ( "campaign",
        [ Alcotest.test_case "progress hooks" `Quick test_campaign_hooks;
          Alcotest.test_case "export is worker-count independent" `Quick
            test_export_worker_count_independent
        ] );
      ( "layers",
        [
          Alcotest.test_case "machine counters" `Quick test_machine_counters;
          Alcotest.test_case "frame emission counters" `Quick test_emit_counters;
          Alcotest.test_case "instrumentation does not perturb execution" `Quick
            test_obs_does_not_perturb;
        ] );
    ]

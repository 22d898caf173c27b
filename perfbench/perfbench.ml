(* The benchmark: one workload per process, one worker, inputs pinned
   here and in Calls.

     perfbench.exe --workload inject|fuzz|spec|fleet --seed N --seconds S
                   [--trace 0|1] [--setup-only] [--record]

   A workload is a fixed universe of ops (faults, fuzz programs, SPEC-like
   cells, fleet cells) whose outputs were recorded in expected/<name>.txt.
   [--seed] fixes the order in which the universe is visited; a run visits
   all of it, again and again, until [--seconds] have passed, so every run
   measures the same mix of work. Each op's output is checked against the
   recorded values; an op that differs, fails or is retried is a failed op.
   Times are normalised by the host-speed probe (see Host).

   The last line of standard output is one JSON object: the end-to-end
   metrics with [--trace 0], the per-layer ones with [--trace 1].
   [--setup-only] prints the set-up time and exits; [--record] rewrites
   the expected values (only for a change meant to alter simulated
   results). *)

let out_dir = ".perfbench"
let expected_dir = Filename.concat "perfbench" "expected"

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let expected_lines name =
  let ic = open_in (Filename.concat expected_dir (name ^ ".txt")) in
  let rec read acc =
    match input_line ic with
    | line ->
      let toks = String.split_on_char ' ' (String.trim line) |> List.filter (( <> ) "") in
      read (match toks with [] -> acc | t :: _ when t.[0] = '#' -> acc | _ -> toks :: acc)
    | exception End_of_file -> List.rev acc
  in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read [])

let malformed name toks =
  failwith (Printf.sprintf "expected/%s.txt: malformed line: %s" name (String.concat " " toks))

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

type tally = { mutable attempted : int; mutable failed : int; mutable units : int }

let tally () = { attempted = 0; failed = 0; units = 0 }

let count_op t ~units ~ok =
  t.attempted <- t.attempted + 1;
  t.units <- t.units + units;
  if not ok then t.failed <- t.failed + 1

(* Times [f] as one op of the traced run: spans recorded inside [f]
   belong to the op, and so do those recorded after it until the next
   op starts. *)
let traced_op meter f =
  Spans.set_op (Host.next_op meter);
  let start = Host.now () in
  let v = f () in
  let stop = Host.now () in
  Spans.add "op" ~start ~stop;
  Host.record meter (stop -. start);
  v

let timed_op meter f =
  let start = Host.now () in
  let v = f () in
  Host.record meter (Host.now () -. start);
  v

type instance = {
  universe : int;  (** ops in one pass, recorded in the same order every pass *)
  pass : Host.meter -> tally -> unit;  (** the universe once, untraced *)
  traced_pass : Host.meter -> tally -> unit;  (** the universe once, traced *)
  extras : tally -> (string * float) list;  (** workload-only layer metrics *)
}

type workload = {
  name : string;
  elasticity : float;  (** see Host.elasticity and README.md *)
  explaining : string list;
      (** spans that together make up an op; their share of op time is
          [trace.explained_pct] *)
  record : unit -> string list;  (** lines of expected/<name>.txt *)
  setup : Random.State.t -> instance;  (** everything before the first timed op *)
}

(* {1 inject} *)

let inject_faults = 200
let faults_per_shard = 2

let inject =
  let module I = Calls.Inject in
  let record () =
    let cfg = I.config () in
    List.init inject_faults (fun i -> Printf.sprintf "%d %s %s" i (I.site i) (I.run_fault cfg i))
  in
  let setup rng =
    let cfg = I.config () in
    let names = List.map (fun n -> Calls.scheme_name (Calls.scheme n)) Calls.ten in
    let golden = Array.make inject_faults ("", "") in
    List.iter
      (function
        | [ i; site; classes ] when String.length classes = List.length names ->
          golden.(int_of_string i) <- (site, classes)
        | toks -> malformed "inject" toks)
      (expected_lines "inject");
    let totals first count =
      let h = Hashtbl.create 64 in
      for i = first to first + count - 1 do
        let site, classes = golden.(i) in
        List.iteri
          (fun k name ->
            let d, b, s = Option.value (Hashtbl.find_opt h (site, name)) ~default:(0, 0, 0) in
            let is c = if classes.[k] = c then 1 else 0 in
            Hashtbl.replace h (site, name) (d + is 'd', b + is 'b', s + is 's'))
          names
      done;
      h
    in
    let site_totals (first, count) =
      List.sort compare
        (Hashtbl.fold (fun (site, name) (d, b, s) acc -> (site, name, d, b, s) :: acc)
           (totals first count) [])
    in
    let scheme_totals =
      let h = totals 0 inject_faults in
      List.map
        (fun name ->
          Hashtbl.fold
            (fun (_, n) (d, b, s) (_, d', b', s') ->
              if n = name then (name, d + d', b + b', s + s') else (name, d', b', s'))
            h (name, 0, 0, 0))
        names
    in
    let canonical =
      Array.init (inject_faults / faults_per_shard) (fun k ->
          (k * faults_per_shard, faults_per_shard))
    in
    let ranges = shuffle rng canonical in
    ensure_dir out_dir;
    let manifest = Filename.concat out_dir "inject-manifest.jsonl" in
    let retries = ref 0 in
    (* One streaming campaign over [ranges] with a fresh manifest; an op
       is one shard, timed from its start event to its finish event. *)
    let campaign ranges meter tally =
      (try Sys.remove manifest with Sys_error _ -> ());
      let started = ref 0.0 in
      let troubled = Array.make (Array.length ranges) false in
      let on_event = function
        | I.Started -> started := Host.now ()
        | I.Finished -> Option.iter (fun m -> Host.record m (Host.now () -. !started)) meter
        | I.Retried k ->
          incr retries;
          troubled.(k) <- true
        | I.Quarantined k -> troubled.(k) <- true
        | I.Other -> ()
      in
      let results = I.campaign cfg ~ranges ~manifest ~on_event in
      Array.iteri
        (fun k r ->
          let ok =
            (not troubled.(k))
            && match r with Some s -> I.site_totals s = site_totals ranges.(k) | None -> false
          in
          count_op tally ~units:(snd ranges.(k)) ~ok)
        results
    in
    let warm = tally () in
    campaign [| canonical.(0) |] None warm;
    if warm.failed > 0 then failwith "inject: warm-up shard differs from the recorded values";
    {
      universe = Array.length ranges;
      pass = (fun meter tally -> campaign ranges (Some meter) tally);
      traced_pass =
        (fun meter tally ->
          Array.iter
            (fun (first, count) ->
              let classes =
                traced_op meter (fun () ->
                    List.init count (fun j ->
                        Spans.time "inject.fault" (fun () -> I.run_fault cfg (first + j))))
              in
              for j = 0 to count - 1 do
                I.redrive cfg (first + j)
              done;
              let ok = List.for_all2 ( = ) classes (List.init count (fun j -> snd golden.(first + j))) in
              count_op tally ~units:count ~ok)
            ranges);
      extras =
        (fun tally ->
          (* the campaign engine's tax: the same faults through
             Campaign.run with a manifest and through the bare streaming
             fold *)
          let (), _, engine = Host.timed (fun () -> campaign ranges None tally) in
          let mega, _, raw =
            Host.timed (fun () ->
                Array.fold_left
                  (fun acc (first, count) -> I.mega_merge acc (I.mega_range cfg ~first ~count))
                  I.mega_empty ranges)
          in
          count_op tally ~units:0 ~ok:(I.mega_totals mega = scheme_totals);
          [
            ("campaign.tax_pct", ((engine /. raw) -. 1.0) *. 100.0);
            ("campaign.retries", float_of_int !retries);
          ]);
    }
  in
  {
    name = "inject";
    elasticity = 1.5;
    explaining = [ "minic.compile"; "machine.load"; "machine.run"; "kernel.boot" ];
    record;
    setup;
  }

(* {1 fuzz} *)

let fuzz_programs = 160

let fuzz =
  let module F = Calls.Fuzz in
  let clean (v : F.verdict) = v.F.crashes = 0 && v.F.divergences = 0 in
  let record () =
    let cfg = F.config () in
    List.init fuzz_programs (fun i ->
        let v = F.run_seed cfg i in
        if not (clean v) then failwith (Printf.sprintf "fuzz: program %d crashes or diverges" i);
        Printf.sprintf "%d %d %d" i v.F.runs v.F.skipped)
  in
  let setup rng =
    let cfg = F.config () in
    let golden = Array.make fuzz_programs None in
    List.iter
      (function
        | [ i; runs; skipped ] ->
          golden.(int_of_string i) <-
            Some
              {
                F.runs = int_of_string runs;
                skipped = int_of_string skipped;
                crashes = 0;
                divergences = 0;
              }
        | toks -> malformed "fuzz" toks)
      (expected_lines "fuzz");
    let order = shuffle rng (Array.init fuzz_programs Fun.id) in
    let ok i v = clean v && golden.(i) = Some v in
    if not (ok 0 (F.run_seed cfg 0)) then
      failwith "fuzz: warm-up program differs from the recorded values";
    {
      universe = fuzz_programs;
      pass =
        (fun meter tally ->
          Array.iter
            (fun i ->
              let v = timed_op meter (fun () -> F.run_seed cfg i) in
              count_op tally ~units:1 ~ok:(ok i v))
            order);
      traced_pass =
        (fun meter tally ->
          Array.iter
            (fun i ->
              let real = F.run_seed cfg i in
              let v = traced_op meter (fun () -> F.redrive cfg i) in
              if v.F.skipped = 0 then Spans.count "fuzz.verdicts" 1;
              count_op tally ~units:1 ~ok:(v = real && ok i real))
            order);
      extras = (fun _ -> []);
    }
  in
  {
    name = "fuzz";
    elasticity = 2.0;
    explaining = [ "fuzz.gen"; "fuzz.interp"; "minic.compile"; "machine.load"; "machine.run" ];
    record;
    setup;
  }

(* {1 spec} *)

let spec =
  let module S = Calls.Spec in
  let cells () =
    List.concat_map (fun k -> List.map (fun s -> (k, s)) Calls.ten) S.kernels
  in
  let record () =
    let by_kernel = Hashtbl.create 16 in
    List.map
      (fun (k, s) ->
        let r = S.measure k (Calls.scheme s) in
        (match Hashtbl.find_opt by_kernel k with
        | Some c when c <> r.S.checksum -> failwith ("spec: checksums differ across schemes: " ^ k)
        | _ -> Hashtbl.replace by_kernel k r.S.checksum);
        Printf.sprintf "%s %s %d %d %Ld" k s r.S.cycles r.S.instructions r.S.checksum)
      (cells ())
  in
  let setup rng =
    let golden = Hashtbl.create 128 in
    List.iter
      (function
        | [ k; s; cycles; instructions; checksum ] ->
          Hashtbl.replace golden (k, s)
            {
              S.cycles = int_of_string cycles;
              instructions = int_of_string instructions;
              checksum = Int64.of_string checksum;
            }
        | toks -> malformed "spec" toks)
      (expected_lines "spec");
    (* every scheme must print the unprotected build's checksum *)
    List.iter
      (fun (k, s) ->
        match (Hashtbl.find_opt golden (k, s), Hashtbl.find_opt golden (k, "baseline")) with
        | Some r, Some base when r.S.checksum = base.S.checksum -> ()
        | _ -> failwith ("expected/spec.txt: missing or inconsistent cell " ^ k ^ " " ^ s))
      (cells ());
    let canonical = Array.of_list (List.map (fun (k, s) -> (k, s, Calls.scheme s)) (cells ())) in
    let order = shuffle rng canonical in
    let measure (k, _, scheme) = try Some (S.measure k scheme) with _ -> None in
    let ok (k, s, _) r = r <> None && r = Hashtbl.find_opt golden (k, s) in
    if not (ok canonical.(0) (measure canonical.(0))) then
      failwith "spec: warm-up cell differs from the recorded values";
    {
      universe = Array.length order;
      pass =
        (fun meter tally ->
          Array.iter
            (fun cell ->
              let r = timed_op meter (fun () -> measure cell) in
              count_op tally ~units:1 ~ok:(ok cell r))
            order);
      traced_pass =
        (fun meter tally ->
          Array.iter
            (fun ((k, _, scheme) as cell) ->
              let real = measure cell in
              let r = traced_op meter (fun () -> S.redrive k scheme) in
              count_op tally ~units:1 ~ok:(r = real && ok cell r))
            order);
      extras = (fun _ -> []);
    }
  in
  { name = "spec"; elasticity = 3.0; explaining = [ "minic.compile"; "machine.load"; "machine.run" ]; record; setup }

(* {1 fleet} *)

let fleet =
  let module L = Calls.Fleet in
  let summary_line scheme cell (offered, completed, peak, p50, p99) =
    Printf.sprintf "%s %s %d %d %d %.17g %.17g" scheme cell offered completed peak p50 p99
  in
  let run_scheme cfg name f =
    let scheme = Calls.scheme name in
    List.init (L.cells cfg) (fun cell -> f scheme cell)
  in
  let record () =
    let cfg = L.config () in
    List.concat_map
      (fun name ->
        let stats = run_scheme cfg name (fun scheme cell -> L.run_cell cfg ~scheme ~cell) in
        let merged = List.fold_left L.merge (List.hd stats) (List.tl stats) in
        List.mapi (fun cell s -> summary_line name (string_of_int cell) (L.summary s)) stats
        @ [ summary_line name "all" (L.summary merged) ])
      L.schemes
  in
  let setup rng =
    let cfg = L.config () in
    let golden = Hashtbl.create 32 in
    List.iter
      (function
        | [ s; cell; offered; completed; peak; p50; p99 ] ->
          Hashtbl.replace golden (s, cell)
            ( int_of_string offered,
              int_of_string completed,
              int_of_string peak,
              float_of_string p50,
              float_of_string p99 )
        | toks -> malformed "fleet" toks)
      (expected_lines "fleet");
    let canonical =
      Array.of_list
        (List.concat_map
           (fun name -> run_scheme cfg name (fun scheme cell -> (name, scheme, cell)))
           L.schemes)
    in
    let order = shuffle rng canonical in
    let ok name cell s =
      let ((offered, completed, _, _, _) as sum) = L.summary s in
      offered = completed && Hashtbl.find_opt golden (name, cell) = Some sum
    in
    let cell_ok (name, _, cell) s = ok name (string_of_int cell) s in
    let run (_, scheme, cell) = L.run_cell cfg ~scheme ~cell in
    if not (cell_ok canonical.(0) (run canonical.(0))) then
      failwith "fleet: warm-up cell differs from the recorded values";
    {
      universe = Array.length order;
      pass =
        (fun meter tally ->
          let merged = Hashtbl.create 2 in
          Array.iter
            (fun ((name, _, _) as c) ->
              let s = timed_op meter (fun () -> run c) in
              let offered, _, _, _, _ = L.summary s in
              count_op tally ~units:offered ~ok:(cell_ok c s);
              Hashtbl.replace merged name
                (match Hashtbl.find_opt merged name with Some acc -> L.merge acc s | None -> s))
            order;
          (* the per-scheme table a fleet report prints *)
          Hashtbl.iter (fun name s -> count_op tally ~units:0 ~ok:(ok name "all" s)) merged);
      traced_pass =
        (fun meter tally ->
          Array.iter
            (fun ((_, scheme, cell) as c) ->
              let s = traced_op meter (fun () -> run c) in
              let requests = L.redrive cfg ~scheme ~cell in
              let offered, _, peak, _, _ = L.summary s in
              Spans.count "fleet.requests" offered;
              Spans.count "fleet.queue_peak" peak;
              count_op tally ~units:offered ~ok:(cell_ok c s && requests = offered))
            order);
      extras = (fun _ -> []);
    }
  in
  {
    name = "fleet";
    elasticity = 2.0;
    explaining = [ "fleet.arrival"; "fleet.calibrate"; "fleet.scheduler"; "fleet.latency" ];
    record;
    setup;
  }

let workloads = [ inject; fuzz; spec; fleet ]

(* {1 Metrics} *)

let end_to_end =
  [
    ("throughput", "1/s"); ("op_ms_p50", "ms"); ("op_ms_p90", "ms"); ("setup_s", "s");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("machine.load_ms", "ms"); ("machine.loads_per_op", "count"); ("minic.compile_ms", "ms");
    ("machine.run_ms", "ms"); ("machine.steps_per_op", "count"); ("machine.ns_per_step", "ns");
    ("machine.image_build_ms", "ms"); ("machine.clone_ms", "ms"); ("kernel.boot_ms", "ms");
    ("fuzz.gen_ms", "ms"); ("fuzz.interp_ms", "ms"); ("fuzz.verdict_ratio", "ratio");
    ("campaign.tax_pct", "%"); ("campaign.retries", "count"); ("fleet.calibrate_ms", "ms");
    ("fleet.arrival_ms", "ms"); ("fleet.scheduler_ms", "ms"); ("fleet.latency_ms", "ms");
    ("fleet.ns_per_request", "ns"); ("fleet.requests_per_op", "count");
    ("fleet.queue_peak", "count"); ("gc.minor_words_per_op", "words");
    ("gc.major_collections", "count"); ("host.probe_ms", "ms"); ("host.throughput_raw", "1/s");
    ("trace.op_ms", "ms"); ("trace.overhead_pct", "%"); ("trace.explained_pct", "%");
  ]

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let ratio a b = if b = 0.0 then 0.0 else a /. b

let print_result ~tally names values =
  let metric (name, unit) =
    let v = List.assoc name values in
    Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name
      (if Float.is_finite v then v else 0.0)
      unit
  in
  let finite = List.for_all (fun (n, _) -> Float.is_finite (List.assoc n values)) names in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (tally.failed = 0 && finite) tally.attempted tally.failed
    (String.concat ", " (List.map metric names))

(* Whole passes until [seconds] have gone by: every run measures the
   same mix of ops. *)
let repeat ~seconds f =
  let t0 = Host.now () in
  f ();
  while Host.now () -. t0 < seconds do
    f ()
  done

(* Every pass records the universe's ops in the same order. An op's time
   in the run is the median over its passes, which no spell shorter than
   half the run can move; throughput and percentiles are taken over those
   medians. *)
let per_op times ~universe ~passes =
  Array.init universe (fun k -> Host.median (Array.init passes (fun p -> times.((p * universe) + k))))

let untraced w inst ~seconds ~setup_s =
  let meter = Host.meter () in
  let t = tally () in
  repeat ~seconds (fun () -> inst.pass meter t);
  let tl = Host.finish meter in
  ensure_dir out_dir;
  Host.write tl (Filename.concat out_dir ("timeline-" ^ w.name ^ ".tsv"));
  let passes = Array.length tl.raw / inst.universe in
  let units = float_of_int t.units /. float_of_int passes in
  let norm = per_op tl.norm ~universe:inst.universe ~passes in
  let raw = per_op tl.raw ~universe:inst.universe ~passes in
  Printf.printf "%s: %d passes of %d ops, %d failed, probe median %.4f ms, raw throughput %.4f/s\n"
    w.name passes inst.universe t.failed
    (1e3 *. Host.median tl.probes)
    (units /. Host.sum raw);
  print_result ~tally:t end_to_end
    [
      ("throughput", units /. Host.sum norm);
      ("op_ms_p50", 1e3 *. Host.percentile norm 50.0);
      ("op_ms_p90", 1e3 *. Host.percentile norm 90.0);
      ("setup_s", setup_s);
      ("peak_rss_mb", peak_rss_mb ());
    ]

(* Untraced and traced passes alternate, so the tracing overhead compares
   passes made under the same host and heap conditions; allocation counts
   come from the untraced passes only. *)
let traced w inst ~seconds =
  let base_meter = Host.meter () and meter = Host.meter () in
  let base = tally () and t = tally () in
  let words = ref 0.0 and majors = ref 0 in
  repeat ~seconds (fun () ->
      let words0 = Gc.minor_words () and majors0 = (Gc.quick_stat ()).Gc.major_collections in
      inst.pass base_meter base;
      words := !words +. (Gc.minor_words () -. words0);
      majors := !majors + ((Gc.quick_stat ()).Gc.major_collections - majors0);
      inst.traced_pass meter t);
  let words = !words and majors = !majors in
  let base_tl = Host.finish base_meter in
  let tl = Host.finish meter in
  let extras = inst.extras t in
  t.attempted <- t.attempted + base.attempted;
  t.failed <- t.failed + base.failed;
  ensure_dir out_dir;
  Spans.write (Filename.concat out_dir ("trace-" ^ w.name ^ ".jsonl"));
  let totals = Spans.totals tl.Host.factor in
  let ops = float_of_int (Array.length tl.Host.norm) in
  let ms name = 1e3 *. fst (totals name) /. ops in
  let calls_per_op name = float_of_int (snd (totals name)) /. ops in
  let counted name = float_of_int (Spans.counted name) in
  let op_s = fst (totals "op") in
  let explained = List.fold_left (fun acc n -> acc +. fst (totals n)) 0.0 w.explaining in
  let base_ops = float_of_int (Array.length base_tl.Host.norm) in
  let traced_mean = Host.sum tl.Host.norm /. ops in
  let base_mean = Host.sum base_tl.Host.norm /. base_ops in
  let layer =
    [
      ("machine.load_ms", ms "machine.load"); ("machine.loads_per_op", calls_per_op "machine.load");
      ("minic.compile_ms", ms "minic.compile"); ("machine.run_ms", ms "machine.run");
      ("machine.steps_per_op", counted "machine.steps" /. ops);
      ("machine.ns_per_step", 1e9 *. ratio (fst (totals "machine.run")) (counted "machine.steps"));
      ("machine.image_build_ms", ms "machine.image_build"); ("machine.clone_ms", ms "machine.clone");
      ("kernel.boot_ms", ms "kernel.boot"); ("fuzz.gen_ms", ms "fuzz.gen");
      ("fuzz.interp_ms", ms "fuzz.interp");
      ("fuzz.verdict_ratio", counted "fuzz.verdicts" /. ops);
      ("fleet.calibrate_ms", ms "fleet.calibrate"); ("fleet.arrival_ms", ms "fleet.arrival");
      ("fleet.scheduler_ms", ms "fleet.scheduler"); ("fleet.latency_ms", ms "fleet.latency");
      ("fleet.ns_per_request", 1e9 *. ratio op_s (counted "fleet.requests"));
      ("fleet.requests_per_op", counted "fleet.requests" /. ops);
      ("fleet.queue_peak", counted "fleet.queue_peak" /. ops);
      ("gc.minor_words_per_op", words /. base_ops);
      ("gc.major_collections", float_of_int majors);
      ("host.probe_ms", 1e3 *. Host.median (Array.append base_tl.Host.probes tl.Host.probes));
      ("host.throughput_raw", float_of_int base.units /. Host.sum base_tl.Host.raw);
      ("trace.op_ms", 1e3 *. traced_mean);
      ("trace.overhead_pct", 100.0 *. ((traced_mean /. base_mean) -. 1.0));
      ("trace.explained_pct", 100.0 *. ratio explained op_s);
    ]
  in
  let values =
    List.map
      (fun (n, _) ->
        match List.assoc_opt n extras with
        | Some v -> (n, v)
        | None -> (n, Option.value (List.assoc_opt n layer) ~default:0.0))
      per_layer
  in
  Printf.printf "%s traced: %d ops (%d untraced), %d failed\n" w.name (Array.length tl.Host.norm)
    base.attempted t.failed;
  print_result ~tally:t per_layer values

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  let setup_only = ref false and record = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME inject, fuzz, spec or fleet");
      ("--seed", Arg.Set_int seed, "N order in which the pinned inputs are visited");
      ("--seconds", Arg.Set_float seconds, "S time to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced per-layer run");
      ("--setup-only", Arg.Set setup_only, " print the set-up time and exit");
      ("--record", Arg.Set record, " rewrite expected/<workload>.txt from this build");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
  in
  if !record then begin
    let lines = w.record () in
    let oc = open_out (Filename.concat expected_dir (w.name ^ ".txt")) in
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc
  end
  else begin
    Host.elasticity := w.elasticity;
    let inst, setup_raw, setup_s =
      Host.timed (fun () -> w.setup (Random.State.make [| !seed |]))
    in
    if !setup_only then Printf.printf "setup_s %.17g %.17g\n" setup_s setup_raw
    else if !trace = 1 then traced w inst ~seconds:!seconds
    else untraced w inst ~seconds:!seconds ~setup_s
  end

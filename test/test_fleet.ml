(* Tests for lib/fleet: deterministic heap drain order, arrival-process
   statistics, constant-size latency folding, and the headline contract —
   an N-worker fleet campaign is bit-identical to the 1-worker run, table
   and traces included, at more than one arrival mix. *)

module Scheme = Pacstack_harden.Scheme
module Campaign = Pacstack_campaign.Campaign
module Json = Pacstack_campaign.Json
module Stats = Pacstack_util.Stats
module Obs = Pacstack_obs.Obs
module Scheduler = Pacstack_fleet.Scheduler
module Arrival = Pacstack_fleet.Arrival
module Latency = Pacstack_fleet.Latency
module Connection = Pacstack_fleet.Connection
module Fleet = Pacstack_fleet.Fleet
module Fjson = Pacstack_fleet.Json

let qtest name count gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

(* --- scheduler ------------------------------------------------------------ *)

let test_heap_basics () =
  let h = Scheduler.create () in
  Alcotest.(check bool) "empty" true (Scheduler.is_empty h);
  Alcotest.(check bool) "pop empty" true (Scheduler.pop h = None);
  Scheduler.push h ~time:5 ~tie:1 "b";
  Scheduler.push h ~time:5 ~tie:0 "a";
  Scheduler.push h ~time:3 ~tie:9 "c";
  Alcotest.(check (option int)) "peek" (Some 3) (Scheduler.peek_time h);
  Alcotest.(check int) "length" 3 (Scheduler.length h);
  Alcotest.(check bool) "min time first" true (Scheduler.pop h = Some (3, 9, "c"));
  Alcotest.(check bool) "tie breaks" true (Scheduler.pop h = Some (5, 0, "a"));
  Alcotest.(check bool) "last" true (Scheduler.pop h = Some (5, 1, "b"));
  Alcotest.(check bool) "drained" true (Scheduler.pop h = None)

(* Drain order is the stable sort of what is pending by (time, tie): the
   heap is not allowed to reorder same-key entries. Scripts interleave
   pops ([None]) among pushes and run long enough to grow the heap's
   arrays several times and to reuse freed payload slots; every pop is
   checked against the model, the stable sort of the pending pushes. *)
let heap_drain_is_stable_sort =
  qtest "heap drains as stable (time, tie) sort" 200
    QCheck2.Gen.(
      list_size (int_range 0 600) (option ~ratio:0.7 (pair (int_range 0 20) (int_range 0 3))))
    (fun script ->
      let h = Scheduler.create () in
      let sort = List.stable_sort (fun (t1, k1, _) (t2, k2, _) -> compare (t1, k1) (t2, k2)) in
      let first pending = match sort pending with [] -> None | min :: _ -> Some min in
      (* [pending] holds (time, tie, push index) in push order *)
      let pending, _ =
        List.fold_left
          (fun (pending, pushed) op ->
            match op with
            | Some (time, tie) ->
              Scheduler.push h ~time ~tie pushed;
              (pending @ [ (time, tie, pushed) ], pushed + 1)
            | None ->
              let expected = first pending in
              if Scheduler.pop h <> expected then QCheck2.Test.fail_report "pop order";
              (List.filter (fun e -> Some e <> expected) pending, pushed))
          ([], 0) script
      in
      let rec drain acc =
        match Scheduler.pop h with
        | None -> List.rev acc
        | Some e -> drain (e :: acc)
      in
      drain [] = sort pending)

(* --- arrivals ------------------------------------------------------------- *)

let count_arrivals arrival ~seed ~conn ~until_s =
  let g = Arrival.start arrival ~seed ~conn in
  let rec go n = match Arrival.next g ~until_s with None -> n | Some _ -> go (n + 1) in
  go 0

let test_arrival_mean_rates () =
  let horizon = 2000.0 in
  List.iter
    (fun (name, arrival) ->
      let rate = Arrival.mean_rate arrival.Arrival.process in
      let seen =
        float_of_int (count_arrivals arrival ~seed:11L ~conn:0 ~until_s:horizon) /. horizon
      in
      let tolerance = if name = "bursty" then 0.15 else 0.05 in
      if Float.abs (seen -. rate) /. rate > tolerance then
        Alcotest.failf "%s: empirical rate %.3f vs declared %.3f" name seen rate)
    Arrival.presets

let test_arrival_deterministic_and_distinct () =
  let arrival = List.assoc "heavy" Arrival.presets in
  let stream conn =
    let g = Arrival.start arrival ~seed:5L ~conn in
    let rec go acc =
      match Arrival.next g ~until_s:50.0 with
      | None -> List.rev acc
      | Some r -> go ((r.Arrival.at_s, r.records, r.service_jitter) :: acc)
    in
    go []
  in
  Alcotest.(check bool) "same (seed, conn) replays" true (stream 3 = stream 3);
  Alcotest.(check bool) "conns draw distinct streams" true (stream 3 <> stream 4);
  List.iter
    (fun (at_s, records, jitter) ->
      Alcotest.(check bool) "arrival inside horizon" true (at_s >= 0.0 && at_s < 50.0);
      Alcotest.(check bool) "records positive" true (records > 0);
      Alcotest.(check bool) "jitter in [1, 1.05)" true (jitter >= 1.0 && jitter < 1.05))
    (stream 3)

let test_arrival_times_nondecreasing () =
  List.iter
    (fun (_, arrival) ->
      let g = Arrival.start arrival ~seed:2L ~conn:1 in
      let rec go last =
        match Arrival.next g ~until_s:100.0 with
        | None -> ()
        | Some r ->
          if r.Arrival.at_s < last then Alcotest.failf "time went backwards";
          go r.Arrival.at_s
      in
      go 0.0)
    Arrival.presets

let test_heavy_tail_classes () =
  (* the whole point of the heavy mix: few distinct classes, tail present *)
  let g = Arrival.start (List.assoc "heavy" Arrival.presets) ~seed:3L ~conn:0 in
  let classes = Hashtbl.create 16 in
  let rec go n =
    if n = 0 then ()
    else
      match Arrival.next g ~until_s:1e9 with
      | None -> ()
      | Some r ->
        Hashtbl.replace classes r.Arrival.records ();
        go (n - 1)
  in
  go 5000;
  let n = Hashtbl.length classes in
  Alcotest.(check bool) "tail classes bounded" true (n <= 12);
  Alcotest.(check bool) "tail classes present" true (Hashtbl.mem classes 576)

(* --- latency sketch ------------------------------------------------------- *)

let test_latency_vs_exact_percentile () =
  let rng = Pacstack_util.Rng.create 41L in
  let samples =
    List.init 4000 (fun _ -> 1e4 *. exp (4.0 *. Pacstack_util.Rng.float rng))
  in
  let t = List.fold_left Latency.record Latency.empty samples in
  Alcotest.(check int) "count" 4000 t.Latency.count;
  List.iter
    (fun p ->
      let approx = Latency.percentile t p in
      let exact = Stats.percentile samples p in
      (* one geometric bucket is ~11% wide; the sketch must stay within *)
      if Float.abs (approx -. exact) /. exact > 0.12 then
        Alcotest.failf "p%.1f: sketch %.0f vs exact %.0f" p approx exact)
    Fleet.quantiles

let test_latency_merge_and_bounds () =
  let xs = List.init 500 (fun i -> 500.0 *. float_of_int (i + 1)) in
  let l, r = (List.filteri (fun i _ -> i mod 2 = 0) xs, List.filteri (fun i _ -> i mod 2 = 1) xs) in
  let whole = List.fold_left Latency.record Latency.empty xs in
  let halves =
    Latency.merge
      (List.fold_left Latency.record Latency.empty l)
      (List.fold_left Latency.record Latency.empty r)
  in
  Alcotest.(check bool) "merge = fold" true (whole = halves);
  Alcotest.(check (float 1e-9)) "min exact" 500.0 whole.Latency.min;
  Alcotest.(check (float 1e-9)) "max exact" 250000.0 whole.Latency.max;
  Alcotest.(check bool) "p0 clamps to min" true (Latency.percentile whole 0.0 >= 500.0);
  Alcotest.(check bool) "p100 clamps to max" true (Latency.percentile whole 100.0 <= 250000.0)

let test_latency_json_roundtrip () =
  let rng = Pacstack_util.Rng.create 4242L in
  let t =
    List.fold_left Latency.record Latency.empty
      (List.init 300 (fun _ -> 1e3 +. (1e8 *. Pacstack_util.Rng.float rng)))
  in
  List.iter
    (fun t ->
      match Json.parse (Json.to_string (Json.of_sketch t)) with
      | Error e -> Alcotest.failf "reparse: %s" e
      | Ok json -> (
        match Json.to_sketch ~edges:Latency.edges json with
        | None -> Alcotest.fail "decode failed"
        | Some t' ->
          Alcotest.(check int) "count" t.Latency.count t'.Latency.count;
          Alcotest.(check bool) "counts equal" true (t.Latency.counts = t'.Latency.counts);
          Alcotest.(check bool) "sum equal" true (t.Latency.sum = t'.Latency.sum);
          if t.Latency.count > 0 then begin
            Alcotest.(check bool) "min equal" true (t.Latency.min = t'.Latency.min);
            Alcotest.(check bool) "max equal" true (t.Latency.max = t'.Latency.max)
          end))
    [ t; Latency.empty ]

(* --- service-cost memo ---------------------------------------------------- *)

let test_costs_memoized_and_ordered () =
  let costs = Connection.Costs.create ~scheme:Scheme.pacstack in
  let a = Connection.Costs.request costs ~records:72 in
  let b = Connection.Costs.request costs ~records:72 in
  Alcotest.(check bool) "memo hit returns same cost" true (a = b);
  Alcotest.(check int) "one class calibrated" 1 (Connection.Costs.distinct costs);
  let big = Connection.Costs.request costs ~records:144 in
  Alcotest.(check bool) "bigger request costs more" true (big.Connection.cycles > a.Connection.cycles);
  Alcotest.(check bool) "pacstack adds memory traffic" true
    (Connection.Costs.extra_mem costs ~records:72 > 0.0);
  let base = Connection.Costs.create ~scheme:Scheme.unprotected in
  Alcotest.(check (float 1e-9)) "unprotected has no extra" 0.0
    (Connection.Costs.extra_mem base ~records:72)

(* --- fleet determinism ---------------------------------------------------- *)

let small_config arrival_name =
  {
    Fleet.default with
    connections = 48;
    duration_s = 0.6;
    cells = 4;
    arrival = List.assoc arrival_name Arrival.presets;
    schemes = [ Scheme.unprotected; Scheme.pacstack ];
    seed = 99L;
  }

let render_table cfg rows = Json.to_string (Fjson.table_to_json cfg rows)

let test_workers_bit_identical () =
  List.iter
    (fun arrival_name ->
      let cfg = small_config arrival_name in
      let t1 = Fleet.tabulate cfg (Campaign.run ~workers:1 (Fleet.plan cfg)) in
      let t4 =
        Instrumented.run (fun progress ->
            Fleet.tabulate cfg (Campaign.run ~workers:4 ~progress (Fleet.plan cfg)))
      in
      Alcotest.(check string)
        (arrival_name ^ ": traced 4-worker table identical")
        (render_table cfg t1) (render_table cfg t4))
    [ "poisson"; "heavy" ]

let test_workers_traces_bit_identical () =
  let cfg = small_config "bursty" in
  let traced workers =
    Obs.reset ();
    Obs.enable ();
    ignore (Campaign.run ~workers (Fleet.plan cfg));
    let lines = Obs.Sink.lines () in
    Obs.disable ();
    Obs.reset ();
    lines
  in
  let l1 = traced 1 and l4 = traced 4 in
  Alcotest.(check bool) "some export" true (List.length l1 > 1);
  Alcotest.(check (list string)) "sink export worker-independent" l1 l4

let test_cells_cover_connections () =
  let cfg = small_config "poisson" in
  (* every connection index is simulated exactly once across cells: the
     per-cell offered counts sum to the full open-loop offered load *)
  let per_cell =
    List.init cfg.Fleet.cells (fun cell ->
        (Fleet.run_cell cfg ~scheme:Scheme.unprotected ~cell ()).Fleet.offered)
  in
  let whole =
    List.fold_left (fun acc c -> acc + count_arrivals cfg.Fleet.arrival ~seed:cfg.Fleet.seed ~conn:c ~until_s:cfg.Fleet.duration_s)
      0
      (List.init cfg.Fleet.connections Fun.id)
  in
  Alcotest.(check int) "offered covers every connection" whole (List.fold_left ( + ) 0 per_cell)

let test_fleet_sanity () =
  let cfg = small_config "poisson" in
  let rows = Fleet.tabulate cfg (Campaign.run (Fleet.plan cfg)) in
  Alcotest.(check int) "one row per scheme" (List.length cfg.Fleet.schemes) (List.length rows);
  List.iter
    (fun (r : Fleet.stats) ->
      Alcotest.(check int) "drain-all: completed = offered" r.offered r.completed;
      Alcotest.(check int) "latency count = completed" r.completed r.latency.Latency.count;
      Alcotest.(check bool) "offered something" true (r.offered > 0);
      Alcotest.(check bool) "cores were busy" true (r.busy_cycles > 0.0);
      Alcotest.(check bool) "few size classes" true (r.size_classes <= 12);
      Alcotest.(check bool) "utilisation positive" true (Fleet.utilisation cfg r > 0.0))
    rows;
  let find scheme = List.find (fun (r : Fleet.stats) -> Scheme.equal r.Fleet.scheme scheme) rows in
  let base = find Scheme.unprotected and pac = find Scheme.pacstack in
  Alcotest.(check bool) "pacstack requests are slower" true
    (Latency.mean pac.Fleet.latency > Latency.mean base.Fleet.latency)

let test_stats_json_roundtrip () =
  let cfg = small_config "heavy" in
  let stats = Fleet.run_cell cfg ~scheme:Scheme.pacstack ~cell:1 () in
  match Json.parse (Json.to_string (Fjson.stats_to_json stats)) with
  | Error e -> Alcotest.failf "reparse: %s" e
  | Ok json -> (
    match Fjson.stats_of_json json with
    | None -> Alcotest.fail "decode failed"
    | Some stats' ->
      Alcotest.(check string) "codec round-trips"
        (Json.to_string (Fjson.stats_to_json stats))
        (Json.to_string (Fjson.stats_to_json stats')))

let test_checkpoint_resume_identical () =
  let cfg = small_config "poisson" in
  let path = Filename.temp_file "pacstack_fleet" ".ck" in
  let partial =
    Campaign.run ~workers:1 ~checkpoint:(path, Fjson.checkpoint_codec) (Fleet.plan cfg)
  in
  let resumed =
    Campaign.run ~workers:4 ~checkpoint:(path, Fjson.checkpoint_codec) (Fleet.plan cfg)
  in
  Sys.remove path;
  Alcotest.(check int) "all shards restored" (Array.length resumed.Campaign.results)
    resumed.Campaign.resumed;
  Alcotest.(check string) "resumed table identical"
    (render_table cfg (Fleet.tabulate cfg partial))
    (render_table cfg (Fleet.tabulate cfg resumed))

(* A hand-corrupted shard line describes a sketch no run can write: a
   negative bucket (bucket mass still equal to the count), or bucket mass
   other than the count. The codec must reject it so the shard re-runs,
   exactly as a torn line would, instead of poisoning the tail (or
   raising in the percentile). *)
let test_corrupted_checkpoint_line_reruns () =
  let cfg = small_config "poisson" in
  (* [f counts i] edits a copy of the counts; bucket [i] holds the minimum *)
  let negative_bucket c i =
    let last = Array.length c - 1 in
    c.(i) <- c.(i) + c.(last) + 1;
    c.(last) <- -1
  in
  let extra_mass c i = c.(i) <- c.(i) + 1 in
  let corrupt f line =
    match Json.parse line with
    | Ok (Json.Obj fields) when List.mem_assoc "shard" fields ->
      Json.to_string
        (Json.Obj
           (List.map
              (fun (k, v) ->
                if k <> "result" then (k, v)
                else
                  match Fjson.stats_of_json v with
                  | Some (s : Fleet.stats) ->
                    let l = s.latency in
                    let counts = Array.copy l.Latency.counts in
                    f counts (Latency.bucket l l.Latency.min);
                    (k, Fjson.stats_to_json { s with latency = { l with Latency.counts } })
                  | None -> Alcotest.fail "clean shard line did not decode")
              fields))
    | _ -> Alcotest.fail "line 1 is not a shard line"
  in
  List.iter
    (fun (what, f) ->
      let path = Filename.temp_file "pacstack_fleet" ".ck" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let run () =
            Campaign.run ~workers:1 ~checkpoint:(path, Fjson.checkpoint_codec) (Fleet.plan cfg)
          in
          let clean = run () in
          let lines = In_channel.with_open_text path In_channel.input_lines in
          Out_channel.with_open_text path (fun oc ->
              List.iteri
                (fun i l -> Out_channel.output_string oc ((if i = 1 then corrupt f l else l) ^ "\n"))
                lines);
          let resumed = run () in
          Alcotest.(check int) (what ^ ": only the corrupted shard re-ran")
            (Array.length resumed.Campaign.results - 1)
            resumed.Campaign.resumed;
          Alcotest.(check string) (what ^ ": table = clean run")
            (render_table cfg (Fleet.tabulate cfg clean))
            (render_table cfg (Fleet.tabulate cfg resumed))))
    [ ("negative bucket", negative_bucket); ("mass <> count", extra_mass) ]

(* --- event core vs its reference ------------------------------------------- *)

(* The event loop [Fleet.run_cell] replaced, kept as its oracle: boxed
   events on the heap, a [Queue] of waiting tuples and one
   [Latency.record] per completed request, over the same arrival streams,
   cost memo and contention model. *)
module Reference_cell = struct
  module Kernel = Pacstack_workloads.Server.Kernel
  module Plan = Pacstack_campaign.Plan

  let cycles_of_s s = int_of_float (Float.round (s *. Kernel.clock_hz))

  let beta ~busy =
    if busy <= 1 then 1.0
    else
      let x = float_of_int (busy - 1) /. 7.0 in
      1.0 +. ((Kernel.contention 8 -. 1.0) *. x *. x)

  let service_cycles costs ~records ~jitter ~busy =
    let cost : Connection.cost = Connection.Costs.request costs ~records in
    let extra = Connection.Costs.extra_mem costs ~records in
    let c = (cost.cycles *. jitter) +. (beta ~busy *. extra) in
    max 1 (int_of_float (Float.round c))

  type event =
    | Arrive of { conn : Connection.t; records : int; jitter : float }
    | Depart of { arrived : int }

  let run (cfg : Fleet.config) ~scheme ~cell : Fleet.stats =
    let costs = Connection.Costs.create ~scheme in
    let heap = Scheduler.create () in
    let counts = Plan.split_trials ~trials:cfg.connections ~shards:cfg.cells in
    let offset = Array.fold_left ( + ) 0 (Array.sub counts 0 cell) in
    let push_arrival (conn : Connection.t) =
      match Arrival.next conn.gen ~until_s:cfg.duration_s with
      | None -> ()
      | Some { at_s; records; service_jitter } ->
        Scheduler.push heap ~time:(cycles_of_s at_s) ~tie:1
          (Arrive { conn; records; jitter = service_jitter })
    in
    for i = 0 to counts.(cell) - 1 do
      push_arrival (Connection.start cfg.arrival ~seed:cfg.seed ~conn:(offset + i))
    done;
    let busy = ref 0 and offered = ref 0 and completed = ref 0 and queue_peak = ref 0 in
    let queue : (int * int * float) Queue.t = Queue.create () in
    let busy_cycles = ref 0.0 and latency = ref Latency.empty in
    let start_service ~now ~arrived ~records ~jitter =
      incr busy;
      let svc = service_cycles costs ~records ~jitter ~busy:!busy in
      busy_cycles := !busy_cycles +. float_of_int svc;
      Scheduler.push heap ~time:(now + svc) ~tie:0 (Depart { arrived })
    in
    let rec drain () =
      match Scheduler.pop heap with
      | None -> ()
      | Some (now, _, Arrive { conn; records; jitter }) ->
        incr offered;
        push_arrival conn;
        if !busy < cfg.cores then start_service ~now ~arrived:now ~records ~jitter
        else begin
          Queue.push (now, records, jitter) queue;
          queue_peak := max !queue_peak (Queue.length queue)
        end;
        drain ()
      | Some (now, _, Depart { arrived }) ->
        incr completed;
        latency := Latency.record !latency (float_of_int (now - arrived));
        decr busy;
        (match Queue.take_opt queue with
        | Some (arrived, records, jitter) -> start_service ~now ~arrived ~records ~jitter
        | None -> ());
        drain ()
    in
    drain ();
    {
      scheme;
      offered = !offered;
      completed = !completed;
      queue_peak = !queue_peak;
      busy_cycles = !busy_cycles;
      size_classes = Connection.Costs.distinct costs;
      latency = !latency;
    }
end

(* Every field of every cell equals the reference's, bit for bit: each
   arrival preset at one and four cores, and a cell far past saturation
   (~6,000 requests/s offered to one core serving ~3,300) whose backlog
   of thousands grows the waiting ring many times and wraps it. *)
let test_cells_match_reference () =
  (* returns the deepest queue of the config's cells *)
  let check what cfg =
    List.fold_left
      (fun peak cell ->
        let got = Fleet.run_cell cfg ~scheme:Scheme.pacstack ~cell () in
        let want = Reference_cell.run cfg ~scheme:Scheme.pacstack ~cell in
        let field name pp a b =
          if a <> b then
            Alcotest.failf "%s, cell %d: %s %s, reference %s" what cell name (pp a) (pp b)
        in
        let float = Printf.sprintf "%h" and int = string_of_int in
        field "offered" int got.offered want.offered;
        field "completed" int got.completed want.completed;
        field "queue_peak" int got.queue_peak want.queue_peak;
        field "busy_cycles" float got.busy_cycles want.busy_cycles;
        field "size_classes" int got.size_classes want.size_classes;
        let l = got.latency and r = want.latency in
        field "latency count" int l.count r.count;
        field "latency sum" float l.sum r.sum;
        field "latency min" float l.min r.min;
        field "latency max" float l.max r.max;
        if l.counts <> r.counts then Alcotest.failf "%s, cell %d: latency counts differ" what cell;
        max peak got.queue_peak)
      0
      (List.init cfg.Fleet.cells Fun.id)
  in
  List.iter
    (fun (name, _) ->
      List.iter
        (fun cores ->
          let cfg =
            { (small_config name) with connections = 400; duration_s = 1.0; cells = 2; cores }
          in
          ignore (check (Printf.sprintf "%s, %d cores" name cores) cfg))
        [ 1; 4 ])
    Arrival.presets;
  let peak =
    check "saturated"
      { (small_config "poisson") with connections = 3000; duration_s = 1.0; cells = 1; cores = 1 }
  in
  Alcotest.(check bool) (Printf.sprintf "saturated cell queues (peak %d)" peak) true (peak > 1000)

(* perfbench's fleet cell shape (bursty arrivals, one response size,
   500 connections, 18 virtual s, 4 cores): the event core allocates
   nothing per event, so what remains per request is the arrival draw,
   the cost-memo lookups and the heap's [pop] results. Before the
   allocation-free core a cell read ~200 words per request. *)
let test_run_cell_allocation_ceiling () =
  let cfg =
    {
      Fleet.connections = 500;
      duration_s = 18.0;
      arrival =
        {
          Arrival.process =
            Arrival.Bursty { calm_rate = 1.0; burst_rate = 12.0; calm_s = 2.0; burst_s = 0.25 };
          sizes = Arrival.Fixed;
        };
      schemes = [ Scheme.pacstack ];
      seed = 7L;
      cells = 1;
      cores = 4;
    }
  in
  let before = Gc.minor_words () in
  let stats = Fleet.run_cell cfg ~scheme:Scheme.pacstack ~cell:0 () in
  let per_request = (Gc.minor_words () -. before) /. float_of_int stats.offered in
  Alcotest.(check bool) "a cell's worth of requests" true (stats.offered > 10_000);
  if per_request > 60.0 then
    Alcotest.failf "run_cell allocates %.1f minor words per request (ceiling 60)" per_request

let test_validate_rejects () =
  let reject cfg = match Fleet.validate cfg with
    | () -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  reject { Fleet.default with connections = 0 };
  reject { Fleet.default with duration_s = 0.0 };
  reject { Fleet.default with cells = 0 };
  reject { Fleet.default with cores = 0 };
  reject { Fleet.default with schemes = [] };
  reject { Fleet.default with connections = 4; cells = 8 }

let () =
  Alcotest.run "fleet"
    [
      ( "scheduler",
        [
          Alcotest.test_case "basics" `Quick test_heap_basics;
          heap_drain_is_stable_sort;
        ] );
      ( "arrival",
        [
          Alcotest.test_case "mean rates" `Quick test_arrival_mean_rates;
          Alcotest.test_case "deterministic per (seed, conn)" `Quick
            test_arrival_deterministic_and_distinct;
          Alcotest.test_case "times nondecreasing" `Quick test_arrival_times_nondecreasing;
          Alcotest.test_case "heavy-tail classes" `Quick test_heavy_tail_classes;
        ] );
      ( "latency",
        [
          Alcotest.test_case "sketch vs exact percentile" `Quick test_latency_vs_exact_percentile;
          Alcotest.test_case "merge and exact bounds" `Quick test_latency_merge_and_bounds;
          Alcotest.test_case "json roundtrip" `Quick test_latency_json_roundtrip;
        ] );
      ( "costs",
        [ Alcotest.test_case "memoized, monotone, extra-mem" `Quick test_costs_memoized_and_ordered ] );
      ( "fleet",
        [
          Alcotest.test_case "1-vs-4 workers bit-identical" `Quick test_workers_bit_identical;
          Alcotest.test_case "1-vs-4 traces bit-identical" `Quick
            test_workers_traces_bit_identical;
          Alcotest.test_case "cells cover the fleet" `Quick test_cells_cover_connections;
          Alcotest.test_case "sanity invariants" `Quick test_fleet_sanity;
          Alcotest.test_case "stats json roundtrip" `Quick test_stats_json_roundtrip;
          Alcotest.test_case "checkpoint resume identical" `Quick
            test_checkpoint_resume_identical;
          Alcotest.test_case "corrupted checkpoint line re-runs" `Quick
            test_corrupted_checkpoint_line_reruns;
          Alcotest.test_case "validate rejects bad configs" `Quick test_validate_rejects;
          Alcotest.test_case "cells match the reference loop" `Quick test_cells_match_reference;
          Alcotest.test_case "run_cell allocation ceiling" `Quick test_run_cell_allocation_ceiling;
        ] );
    ]

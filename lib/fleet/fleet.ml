module Scheme = Pacstack_harden.Scheme
module Kernel = Pacstack_workloads.Server.Kernel
module Plan = Pacstack_campaign.Plan
module Campaign = Pacstack_campaign.Campaign
module Json = Pacstack_campaign.Json
module Obs = Pacstack_obs.Obs

type config = {
  connections : int;
  duration_s : float;
  arrival : Arrival.t;
  schemes : Scheme.t list;
  seed : int64;
  cells : int;
  cores : int;
}

let default =
  {
    connections = 1000;
    duration_s = 4.0;
    arrival = List.assoc "poisson" Arrival.presets;
    schemes = Scheme.all;
    seed = 7L;
    cells = 8;
    cores = 4;
  }

let validate cfg =
  if cfg.connections <= 0 then invalid_arg "Fleet: connections must be positive";
  if cfg.duration_s <= 0.0 then invalid_arg "Fleet: duration must be positive";
  if cfg.cells <= 0 then invalid_arg "Fleet: cells must be positive";
  if cfg.cores <= 0 then invalid_arg "Fleet: cores must be positive";
  if cfg.cells > cfg.connections then invalid_arg "Fleet: more cells than connections";
  if cfg.schemes = [] then invalid_arg "Fleet: no schemes"

type stats = {
  scheme : Scheme.t;
  offered : int;
  completed : int;
  queue_peak : int;
  busy_cycles : float;
  size_classes : int;
  latency : Latency.t;
}

let merge a b =
  if not (Scheme.equal a.scheme b.scheme) then invalid_arg "Fleet.merge: scheme mismatch";
  {
    scheme = a.scheme;
    offered = a.offered + b.offered;
    completed = a.completed + b.completed;
    queue_peak = max a.queue_peak b.queue_peak;
    busy_cycles = a.busy_cycles +. b.busy_cycles;
    size_classes = max a.size_classes b.size_classes;
    latency = Latency.merge a.latency b.latency;
  }

let cycles_of_s s = int_of_float (Float.round (s *. Kernel.clock_hz))
let ms_of_cycles c = c /. Kernel.clock_hz *. 1e3

(* The contention charge per extra memory operation when [busy] cores of
   the cell are serving at once. Pinned to the Table 3 calibration: one
   busy core pays no contention, a fully contended 8-core chip pays
   [Kernel.contention 8] per extra op, quadratic in between (memory-system
   queueing grows superlinearly with load). *)
let beta ~busy =
  if busy <= 1 then 1.0
  else
    let x = float_of_int (busy - 1) /. 7.0 in
    1.0 +. ((Kernel.contention 8 -. 1.0) *. x *. x)

(* Service demand of one request, in cycles, given how many cores are
   busy (including the serving one): the machine-measured cycles, the
   client-observed jitter, and the contention charge on the memory
   operations the scheme added over the unprotected build. *)
let service_cycles costs ~records ~jitter ~busy =
  let cost : Connection.cost = Connection.Costs.request costs ~records in
  let extra = Connection.Costs.extra_mem costs ~records in
  let c = (cost.cycles *. jitter) +. (beta ~busy *. extra) in
  max 1 (int_of_float (Float.round c))

(* Contiguous connection slice of a cell, reusing the campaign's
   deterministic near-equal partitioner. *)
let cell_slice cfg ~cell =
  let counts = Plan.split_trials ~trials:cfg.connections ~shards:cfg.cells in
  let offset = ref 0 in
  for i = 0 to cell - 1 do
    offset := !offset + counts.(i)
  done;
  (!offset, counts.(cell))

(* Events are [int] payloads told apart by their tie. Departures sort
   before arrivals at the same instant, so a freed core is visible to a
   request arriving in the same cycle. A departure carries its arrival
   cycle. An arrival carries its cell-local connection index, and the
   request itself waits in per-connection columns: a connection has at
   most one arrival in the heap, since its next one is pushed only when
   this one pops. *)
let tie_depart = 0
let tie_arrive = 1

(* Requests waiting for a core, oldest first: a ring of (arrival cycle,
   records, jitter) columns whose capacity is a power of two. *)
module Fifo = struct
  type t = {
    mutable arrived : int array;
    mutable records : int array;
    mutable jitter : float array;
    mutable head : int;
    mutable length : int;
  }

  let create () =
    {
      arrived = Array.make 16 0;
      records = Array.make 16 0;
      jitter = Array.make 16 0.0;
      head = 0;
      length = 0;
    }

  (* Doubles the capacity, unwrapping the ring so the oldest sits at 0. *)
  let grow q =
    let cap = Array.length q.arrived in
    let unwrap a zero =
      Array.init (2 * cap) (fun i -> if i < cap then a.((q.head + i) land (cap - 1)) else zero)
    in
    q.arrived <- unwrap q.arrived 0;
    q.records <- unwrap q.records 0;
    q.jitter <- unwrap q.jitter 0.0;
    q.head <- 0

  let push q ~arrived ~records ~jitter =
    if q.length = Array.length q.arrived then grow q;
    let i = (q.head + q.length) land (Array.length q.arrived - 1) in
    q.arrived.(i) <- arrived;
    q.records.(i) <- records;
    q.jitter.(i) <- jitter;
    q.length <- q.length + 1

  (* Dequeues the oldest request; its columns stay at the returned index
     until the next push. *)
  let take q =
    let i = q.head in
    q.head <- (i + 1) land (Array.length q.arrived - 1);
    q.length <- q.length - 1;
    i
end

(* A cell's float accumulators. An all-float record is stored flat, so
   updating a field allocates nothing, where a [float ref] closed over by
   the event loop would box every update. *)
type sums = {
  mutable busy_sum : float;  (* core-cycles served *)
  mutable latency_sum : float;  (* in completion order, as [Latency.record] adds *)
  mutable latency_min : float;
  mutable latency_max : float;
}

let run_cell cfg ~scheme ~cell ?key () =
  validate cfg;
  if cell < 0 || cell >= cfg.cells then invalid_arg "Fleet.run_cell: cell out of range";
  let costs = Connection.Costs.create ~scheme in
  let heap = Scheduler.create () in
  let offset, count = cell_slice cfg ~cell in
  let conns =
    Array.init count (fun i -> Connection.start cfg.arrival ~seed:cfg.seed ~conn:(offset + i))
  in
  let pending_records = Array.make count 0 and pending_jitter = Array.make count 0.0 in
  let push_arrival c =
    match Arrival.next conns.(c).Connection.gen ~until_s:cfg.duration_s with
    | None -> ()
    | Some { at_s; records; service_jitter } ->
      pending_records.(c) <- records;
      pending_jitter.(c) <- service_jitter;
      Scheduler.push heap ~time:(cycles_of_s at_s) ~tie:tie_arrive c
  in
  for c = 0 to count - 1 do
    push_arrival c
  done;
  let busy = ref 0 in
  let waiting = Fifo.create () in
  let offered = ref 0 in
  let completed = ref 0 in
  let queue_peak = ref 0 in
  let sums =
    { busy_sum = 0.0; latency_sum = 0.0; latency_min = infinity; latency_max = neg_infinity }
  in
  let counts = Array.make (Array.length Latency.empty.counts) 0 in
  let start_service ~now ~arrived ~records ~jitter =
    incr busy;
    let svc = service_cycles costs ~records ~jitter ~busy:!busy in
    sums.busy_sum <- sums.busy_sum +. float_of_int svc;
    Scheduler.push heap ~time:(now + svc) ~tie:tie_depart arrived
  in
  let rec drain () =
    match Scheduler.pop heap with
    | None -> ()
    | Some (now, tie, c) when tie = tie_arrive ->
      let records = pending_records.(c) and jitter = pending_jitter.(c) in
      incr offered;
      push_arrival c;
      if !busy < cfg.cores then start_service ~now ~arrived:now ~records ~jitter
      else begin
        Fifo.push waiting ~arrived:now ~records ~jitter;
        queue_peak := Int.max !queue_peak waiting.length
      end;
      drain ()
    | Some (now, _, arrived) ->
      incr completed;
      (* latencies are whole cycles >= 1, never NaN, so plain comparisons
         agree with [Float.min]/[Float.max] *)
      let x = float_of_int (now - arrived) in
      let b = Latency.bucket Latency.empty x in
      counts.(b) <- counts.(b) + 1;
      sums.latency_sum <- sums.latency_sum +. x;
      if x < sums.latency_min then sums.latency_min <- x;
      if x > sums.latency_max then sums.latency_max <- x;
      decr busy;
      if waiting.length > 0 then begin
        let i = Fifo.take waiting in
        start_service ~now ~arrived:waiting.arrived.(i) ~records:waiting.records.(i)
          ~jitter:waiting.jitter.(i)
      end;
      drain ()
  in
  drain ();
  let stats =
    {
      scheme;
      offered = !offered;
      completed = !completed;
      queue_peak = !queue_peak;
      busy_cycles = sums.busy_sum;
      size_classes = Connection.Costs.distinct costs;
      latency =
        {
          Latency.empty with
          count = !completed;
          sum = sums.latency_sum;
          min = sums.latency_min;
          max = sums.latency_max;
          counts;
        };
    }
  in
  if Obs.enabled () then begin
    Obs.Metrics.incr "fleet.requests" ~by:stats.offered;
    Obs.Metrics.incr "fleet.calibrations" ~by:stats.size_classes;
    match key with
    | None -> ()
    | Some key ->
      Obs.Trace.emit ~key "fleet.cell"
        [
          ("scheme", Json.String (Scheme.to_string scheme));
          ("cell", Json.Int cell);
          ("offered", Json.Int stats.offered);
          ("completed", Json.Int stats.completed);
          ("queue_peak", Json.Int stats.queue_peak);
          ("size_classes", Json.Int stats.size_classes);
        ]
  end;
  stats

let plan cfg =
  validate cfg;
  let schemes = Array.of_list cfg.schemes in
  let counts = Plan.split_trials ~trials:cfg.connections ~shards:cfg.cells in
  let shards =
    Array.init
      (Array.length schemes * cfg.cells)
      (fun i ->
        let scheme = schemes.(i / cfg.cells) and cell = i mod cfg.cells in
        (Printf.sprintf "%s/cell%d" (Scheme.to_string scheme) cell, counts.(cell)))
  in
  Plan.make ~name:"fleet" ~seed:cfg.seed ~shards ~run:(fun shard _rng ->
      let scheme = schemes.(shard.index / cfg.cells) and cell = shard.index mod cfg.cells in
      run_cell cfg ~scheme ~cell ~key:shard.index ())

let tabulate cfg outcome =
  let merged : (Scheme.t * stats) list ref = ref [] in
  let () =
    Campaign.fold outcome ~init:() ~f:(fun () stats ->
        match List.assoc_opt stats.scheme !merged with
        | Some acc ->
          merged :=
            List.map
              (fun (s, v) -> if Scheme.equal s stats.scheme then (s, merge acc stats) else (s, v))
              !merged
        | None -> merged := !merged @ [ (stats.scheme, stats) ])
  in
  List.filter_map (fun scheme -> List.assoc_opt scheme !merged) cfg.schemes

let utilisation cfg stats =
  stats.busy_cycles /. (float_of_int (cfg.cells * cfg.cores) *. float_of_int (cycles_of_s cfg.duration_s))

let quantiles = [ 50.0; 95.0; 99.0; 99.9 ]

let pp_table cfg fmt rows =
  Format.fprintf fmt "%-20s %9s %9s %6s %9s %9s %9s %9s %9s@." "scheme" "offered" "done"
    "util%" "mean_ms" "p50_ms" "p95_ms" "p99_ms" "p999_ms";
  List.iter
    (fun row ->
      if row.latency.Latency.count = 0 then
        Format.fprintf fmt "%-20s %9d %9d %6s %9s %9s %9s %9s %9s@." (Scheme.to_string row.scheme)
          row.offered row.completed "-" "-" "-" "-" "-" "-"
      else begin
        let q = List.map (Latency.percentile row.latency) quantiles in
        Format.fprintf fmt "%-20s %9d %9d %6.1f %9.3f" (Scheme.to_string row.scheme) row.offered
          row.completed
          (100.0 *. utilisation cfg row)
          (ms_of_cycles (Latency.mean row.latency));
        List.iter (fun v -> Format.fprintf fmt " %9.3f" (ms_of_cycles v)) q;
        Format.fprintf fmt "@."
      end)
    rows

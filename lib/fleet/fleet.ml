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

type event =
  | Arrive of { conn : Connection.t; records : int; jitter : float }
  | Depart of { arrived : int }

(* Departures sort before arrivals at the same instant: a freed core must
   be visible to a request arriving in the same cycle. *)
let tie_depart = 0
let tie_arrive = 1

let run_cell cfg ~scheme ~cell ?key () =
  validate cfg;
  if cell < 0 || cell >= cfg.cells then invalid_arg "Fleet.run_cell: cell out of range";
  let costs = Connection.Costs.create ~scheme in
  let heap = Scheduler.create () in
  let offset, count = cell_slice cfg ~cell in
  let push_arrival (conn : Connection.t) =
    match Arrival.next conn.gen ~until_s:cfg.duration_s with
    | None -> ()
    | Some { at_s; records; service_jitter } ->
      Scheduler.push heap ~time:(cycles_of_s at_s) ~tie:tie_arrive
        (Arrive { conn; records; jitter = service_jitter })
  in
  for i = 0 to count - 1 do
    push_arrival (Connection.start cfg.arrival ~seed:cfg.seed ~conn:(offset + i))
  done;
  let busy = ref 0 in
  let queue : (int * int * float) Queue.t = Queue.create () in
  let offered = ref 0 in
  let completed = ref 0 in
  let queue_peak = ref 0 in
  let busy_cycles = ref 0.0 in
  let latency = ref Latency.empty in
  let start_service ~now ~arrived ~records ~jitter =
    incr busy;
    let svc = service_cycles costs ~records ~jitter ~busy:!busy in
    busy_cycles := !busy_cycles +. float_of_int svc;
    Scheduler.push heap ~time:(now + svc) ~tie:tie_depart (Depart { arrived })
  in
  let rec drain () =
    match Scheduler.pop heap with
    | None -> ()
    | Some (now, _tie, Arrive { conn; records; jitter }) ->
      incr offered;
      conn.offered <- conn.offered + 1;
      push_arrival conn;
      if !busy < cfg.cores then start_service ~now ~arrived:now ~records ~jitter
      else begin
        Queue.push (now, records, jitter) queue;
        queue_peak := max !queue_peak (Queue.length queue)
      end;
      drain ()
    | Some (now, _tie, Depart { arrived }) ->
      incr completed;
      latency := Latency.record !latency (float_of_int (now - arrived));
      decr busy;
      (match Queue.take_opt queue with
      | Some (arrived, records, jitter) -> start_service ~now ~arrived ~records ~jitter
      | None -> ());
      drain ()
  in
  drain ();
  let stats =
    {
      scheme;
      offered = !offered;
      completed = !completed;
      queue_peak = !queue_peak;
      busy_cycles = !busy_cycles;
      size_classes = Connection.Costs.distinct costs;
      latency = !latency;
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

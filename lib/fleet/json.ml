module J = Pacstack_campaign.Json
module Checkpoint = Pacstack_campaign.Checkpoint
module Scheme = Pacstack_harden.Scheme

let stats_to_json (s : Fleet.stats) =
  J.Obj
    [
      ("scheme", J.String (Scheme.to_string s.scheme));
      ("offered", J.Int s.offered);
      ("completed", J.Int s.completed);
      ("queue_peak", J.Int s.queue_peak);
      ("busy_cycles", J.Float s.busy_cycles);
      ("size_classes", J.Int s.size_classes);
      ("latency", J.of_sketch s.latency);
    ]

let stats_of_json json =
  let int k = Option.bind (J.member k json) J.to_int in
  let scheme = Option.bind (Option.bind (J.member "scheme" json) J.to_str) Scheme.of_string in
  let busy = Option.bind (J.member "busy_cycles" json) J.to_float in
  let latency = Option.bind (J.member "latency" json) (J.to_sketch ~edges:Latency.edges) in
  match
    (scheme, int "offered", int "completed", int "queue_peak", busy, int "size_classes", latency)
  with
  | ( Some scheme,
      Some offered,
      Some completed,
      Some queue_peak,
      Some busy_cycles,
      Some size_classes,
      Some latency ) ->
    Some
      ({ scheme; offered; completed; queue_peak; busy_cycles; size_classes; latency }
        : Fleet.stats)
  | _ -> None

let checkpoint_codec : Fleet.stats Checkpoint.codec =
  { encode = stats_to_json; decode = stats_of_json }

let row_json cfg (s : Fleet.stats) =
  let quantile_fields =
    if s.latency.Latency.count = 0 then []
    else
      List.concat_map
        (fun p ->
          let cycles = Latency.percentile s.latency p in
          let tag = if Float.is_integer p then Printf.sprintf "%.0f" p else "999" in
          [
            (Printf.sprintf "p%s_cycles" tag, J.Float cycles);
            (Printf.sprintf "p%s_ms" tag, J.Float (Fleet.ms_of_cycles cycles));
          ])
        Fleet.quantiles
  in
  let mean_fields =
    if s.latency.Latency.count = 0 then []
    else
      let mean = Latency.mean s.latency in
      [ ("mean_cycles", J.Float mean); ("mean_ms", J.Float (Fleet.ms_of_cycles mean)) ]
  in
  J.Obj
    ([
       ("scheme", J.String (Scheme.to_string s.scheme));
       ("offered", J.Int s.offered);
       ("completed", J.Int s.completed);
       ("queue_peak", J.Int s.queue_peak);
       ("size_classes", J.Int s.size_classes);
       ("utilisation", J.Float (Fleet.utilisation cfg s));
     ]
    @ mean_fields @ quantile_fields)

let table_to_json (cfg : Fleet.config) rows =
  J.Obj
    [
      ("experiment", J.String "fleet");
      ("connections", J.Int cfg.connections);
      ("duration_s", J.Float cfg.duration_s);
      ("arrival", J.String (Arrival.to_string cfg.arrival));
      ("seed", J.String (Int64.to_string cfg.seed));
      ("cells", J.Int cfg.cells);
      ("cores", J.Int cfg.cores);
      ("schemes", J.List (List.map (fun r -> row_json cfg r) rows));
    ]

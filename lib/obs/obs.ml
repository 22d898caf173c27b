module Json = Pacstack_campaign.Json
module Progress = Pacstack_campaign.Progress
module Shard = Pacstack_campaign.Shard
module Sketch = Pacstack_util.Sketch

(* The flag is an [Atomic.t] so worker domains spawned after [enable]
   are guaranteed to observe it; [Atomic.get] on a bool compiles to a
   plain load, so a disabled guard is one load and one predictable
   branch. *)
let flag = Atomic.make false
let enabled () = Atomic.get flag
let enable () = Atomic.set flag true
let disable () = Atomic.set flag false

module Metrics = struct
  type value =
    | Counter of int
    | Gauge of float
    | Histogram of Sketch.t

  let lock = Mutex.create ()
  let cells : (string, value) Hashtbl.t = Hashtbl.create 64

  let with_lock f =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

  (* [f] maps the current value ([None] when undeclared) to the new one;
     [None] back leaves the registry alone (a kind mismatch). *)
  let update name f =
    with_lock (fun () ->
        Option.iter (Hashtbl.replace cells name) (f (Hashtbl.find_opt cells name)))

  let incr ?(by = 1) name =
    if enabled () then
      update name (function
        | Some (Counter n) -> Some (Counter (n + by))
        | None -> Some (Counter by)
        | Some _ -> None)

  let gauge name v =
    if enabled () then
      update name (function Some (Gauge _) | None -> Some (Gauge v) | Some _ -> None)

  let register_histogram name ~lo ~hi ~buckets =
    update name (function
      | None -> Some (Histogram (Sketch.empty (Sketch.linear ~lo ~hi ~buckets)))
      | Some _ -> None)

  let observe name x =
    if enabled () then
      update name (function Some (Histogram h) -> Some (Histogram (Sketch.record h x)) | _ -> None)

  let range (h : Sketch.t) = (h.edges.(0), h.edges.(Array.length h.edges - 1))

  let snapshot () =
    with_lock (fun () ->
        Hashtbl.fold (fun name v acc -> (name, v) :: acc) cells [])
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let find name = with_lock (fun () -> Hashtbl.find_opt cells name)

  let reset () = with_lock (fun () -> Hashtbl.reset cells)

  let pp_snapshot fmt snap =
    let kind = function
      | Counter _ -> "counter"
      | Gauge _ -> "gauge"
      | Histogram _ -> "histogram"
    in
    let render = function
      | Counter n -> string_of_int n
      | Gauge v -> Printf.sprintf "%g" v
      | Histogram h ->
        let nonzero =
          Array.fold_left (fun a c -> if c > 0 then a + 1 else a) 0 h.counts
        in
        let lo, hi = range h in
        Printf.sprintf "total=%d buckets=%d/%d range=[%g,%g)" h.count nonzero
          (Array.length h.counts) lo hi
    in
    let width =
      List.fold_left (fun w (name, _) -> max w (String.length name)) 6 snap
    in
    Format.fprintf fmt "%-*s  %-9s  %s@." width "metric" "kind" "value";
    List.iter
      (fun (name, v) ->
        Format.fprintf fmt "%-*s  %-9s  %s@." width name (kind v) (render v))
      snap
end

module Trace = struct
  type event = {
    key : int;
    seq : int;
    name : string;
    fields : (string * Json.t) list;
  }

  type buf = {
    ring : event option array;
    mutable next : int;
    mutable count : int;
    mutable seq : int;
    mutable dropped : int;
  }

  let capacity = Atomic.make 8192
  let set_capacity n = Atomic.set capacity (max 1 n)

  let lock = Mutex.create ()
  let bufs : buf list ref = ref []

  let with_lock f =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

  (* One ring per domain; the registry keeps buffers of finished domains
     alive so their events survive until [events] / [reset]. *)
  let dls : buf Domain.DLS.key =
    Domain.DLS.new_key (fun () ->
        let b =
          { ring = Array.make (Atomic.get capacity) None;
            next = 0;
            count = 0;
            seq = 0;
            dropped = 0 }
        in
        with_lock (fun () -> bufs := b :: !bufs);
        b)

  let emit ?(key = -1) name fields =
    if enabled () then begin
      let b = Domain.DLS.get dls in
      let size = Array.length b.ring in
      let ev = { key; seq = b.seq; name; fields } in
      b.seq <- b.seq + 1;
      b.ring.(b.next) <- Some ev;
      b.next <- (b.next + 1) mod size;
      if b.count < size then b.count <- b.count + 1
      else b.dropped <- b.dropped + 1
    end

  (* Oldest-first extraction of one ring. Mutating [emit]s race only
     with the emitting domain itself; callers drain after workers have
     joined, which the campaign drivers guarantee. *)
  let of_buf b =
    let size = Array.length b.ring in
    let start = if b.count < size then 0 else b.next in
    List.init b.count (fun i ->
        match b.ring.((start + i) mod size) with
        | Some ev -> ev
        | None -> { key = -1; seq = 0; name = "?"; fields = [] })

  (* Merged order must not depend on worker count, yet a key's events can
     originate on different domains (a worker's inject.fault and the
     coordinator's shard_finished share a key), so domain-local [seq]
     values are not comparable across emitters. Sort on (key, name,
     emitter seq) — same-key same-name events always come from a single
     domain under the one-writer-per-key discipline, where [seq] is the
     deterministic emission order — then renumber [seq] as the rank
     within the key, so the published artifact is bit-identical at any
     worker count. *)
  let events () =
    let sorted =
      with_lock (fun () -> List.concat_map of_buf !bufs)
      |> List.sort (fun a b ->
             match compare a.key b.key with
             | 0 -> (
               match String.compare a.name b.name with
               | 0 -> compare a.seq b.seq
               | c -> c)
             | c -> c)
    in
    let rec renumber prev_key rank = function
      | [] -> []
      | ev :: tl ->
        let rank = if ev.key = prev_key then rank + 1 else 0 in
        { ev with seq = rank } :: renumber ev.key rank tl
    in
    renumber min_int (-1) sorted

  let dropped () =
    with_lock (fun () -> List.fold_left (fun a b -> a + b.dropped) 0 !bufs)

  let reset () =
    with_lock (fun () ->
        List.iter
          (fun b ->
            Array.fill b.ring 0 (Array.length b.ring) None;
            b.next <- 0;
            b.count <- 0;
            b.seq <- 0;
            b.dropped <- 0)
          !bufs)
end

let reset () =
  Metrics.reset ();
  Trace.reset ()

module Sink = struct
  let metric_json (name, v) =
    let tail =
      match (v : Metrics.value) with
      | Counter n -> [ ("kind", Json.String "counter"); ("value", Json.Int n) ]
      | Gauge f -> [ ("kind", Json.String "gauge"); ("value", Json.Float f) ]
      | Histogram h ->
        let lo, hi = Metrics.range h in
        [ ("kind", Json.String "histogram");
          ("lo", Json.Float lo);
          ("hi", Json.Float hi);
          ("total", Json.Int h.count);
          ("counts", Json.List (Array.to_list (Array.map (fun c -> Json.Int c) h.counts)))
        ]
    in
    Json.Obj (("type", Json.String "metric") :: ("name", Json.String name) :: tail)

  let event_json (ev : Trace.event) =
    Json.Obj
      [ ("type", Json.String "event");
        ("key", Json.Int ev.key);
        ("seq", Json.Int ev.seq);
        ("name", Json.String ev.name);
        ("fields", Json.Obj ev.fields)
      ]

  let header () =
    Json.Obj
      [ ("type", Json.String "header");
        ("schema", Json.String "pacstack-obs");
        ("version", Json.Int 1);
        ("dropped", Json.Int (Trace.dropped ()))
      ]

  let lines () =
    Json.to_string (header ())
    :: List.map (fun m -> Json.to_string (metric_json m)) (Metrics.snapshot ())
    @ List.map (fun e -> Json.to_string (event_json e)) (Trace.events ())

  let write_channel oc =
    List.iter
      (fun line ->
        output_string oc line;
        output_char oc '\n')
      (lines ())

  let write_file path =
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write_channel oc)
end

module Campaign_hooks = struct
  (* Wall-clock quantities (shard latencies, trials/sec) and the worker
     count are deliberately NOT recorded: the sink is a deterministic
     artifact, bit-identical at any worker count; timing stays on the
     human-facing Progress stderr stream. *)
  let progress_sink () : Progress.sink =
    Metrics.register_histogram "campaign.shard_trials" ~lo:0. ~hi:10_000.
      ~buckets:20;
    fun event ->
      if enabled () then
        match event with
        | Progress.Campaign_started { name; shards; trials; resumed; _ } ->
          Metrics.incr "campaign.runs";
          Trace.emit "campaign.started"
            [ ("campaign", Json.String name);
              ("shards", Json.Int shards);
              ("trials", Json.Int trials);
              ("resumed", Json.Int resumed)
            ]
        | Progress.Shard_started _ -> Metrics.incr "campaign.tasks"
        | Progress.Shard_finished { name; shard; _ } ->
          Metrics.incr "campaign.shards_finished";
          Metrics.observe "campaign.shard_trials"
            (float_of_int shard.Shard.trials);
          Trace.emit ~key:shard.Shard.index "campaign.shard_finished"
            [ ("campaign", Json.String name);
              ("label", Json.String shard.Shard.label);
              ("trials", Json.Int shard.Shard.trials)
            ]
        | Progress.Shard_retried { name; shard; attempt; error } ->
          Metrics.incr "campaign.retries";
          Trace.emit ~key:shard.Shard.index "campaign.shard_retried"
            [ ("campaign", Json.String name);
              ("attempt", Json.Int attempt);
              ("error", Json.String error)
            ]
        | Progress.Shard_quarantined { name; shard; attempts; error } ->
          Metrics.incr "campaign.quarantines";
          Trace.emit ~key:shard.Shard.index "campaign.shard_quarantined"
            [ ("campaign", Json.String name);
              ("attempts", Json.Int attempts);
              ("error", Json.String error)
            ]
        | Progress.Pool_degraded { name; live; deaths } ->
          Metrics.incr "campaign.pool_degradations";
          Trace.emit "campaign.pool_degraded"
            [ ("campaign", Json.String name);
              ("live", Json.Int live);
              ("deaths", Json.Int deaths)
            ]
        | Progress.Campaign_finished { name; _ } ->
          Trace.emit "campaign.finished" [ ("campaign", Json.String name) ]
end

(* Golden-schema validator for the bench JSON export and for lib/obs
   trace files, used from dune runtest and the CI perf-smoke job.

     check_json BENCH.json        validate a bench export: parses with
                                  the campaign Json codec and carries the
                                  documented schema v8 keys, every
                                  required section and gate, and only
                                  same-run "before" sections (see
                                  README.md)
     check_json --trace FILE      validate a JSON-lines obs trace: every
                                  line parses, the header comes first,
                                  every record is a metric or event, and
                                  every histogram has lo < hi and
                                  non-negative integer counts summing to
                                  its total
     check_json --manifest FILE   validate a campaign checkpoint manifest:
                                  binding header first, then only shard,
                                  merged-statistics or quarantine lines;
                                  a torn FINAL line is tolerated (that is
                                  the crash the format is designed for),
                                  a torn middle line is not

   Exits 0 when the file validates, 1 with a message naming the first
   violation otherwise. *)

module Json = Pacstack_campaign.Json

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("check_json: " ^ m); exit 1) fmt

let str_member name v =
  match Json.(Option.bind (member name v) to_str) with
  | Some s -> s
  | None -> fail "missing string field %S in %s" name (Json.to_string v)

let int_member name v =
  match Json.(Option.bind (member name v) to_int) with
  | Some n -> n
  | None -> fail "missing int field %S in %s" name (Json.to_string v)

let float_member name v =
  match Json.(Option.bind (member name v) to_float) with
  | Some f -> f
  | None -> fail "missing number field %S in %s" name (Json.to_string v)

let require_member name v =
  match Json.member name v with
  | Some f -> f
  | None -> fail "missing field %S in %s" name (Json.to_string v)

let list_member name v =
  match Json.to_list (require_member name v) with
  | Some l -> l
  | None -> fail "field %S is not a list in %s" name (Json.to_string v)

(* --- the bench export schema (v8) ------------------------------------------ *)

let required_sections =
  [
    "machine_step_reference"; "machine_step_threaded"; "machine_load";
    "machine_instantiate";
  ]

let required_gates =
  [
    "step_rate"; "step_speedup"; "threaded_step_rate"; "obs_machine_overhead";
    "obs_fuzz_overhead"; "campaign_overhead"; "alu_no_alloc"; "logic_no_alloc";
    "cmp_no_alloc"; "global_no_alloc"; "unprotected_no_alloc"; "pac_no_alloc";
  ]

let positive what v = if not (Float.is_finite v && v > 0.) then fail "%s: not a positive number" what

let check_section s =
  let name = str_member "name" s in
  positive (name ^ " ns_per_op") (float_member "ns_per_op" s);
  positive (name ^ " ops_per_sec") (float_member "ops_per_sec" s);
  ignore (require_member "speedup" s);
  (* "before" names the section of the same run this one replaced *)
  match require_member "before" s with
  | Json.Null -> (name, None)
  | Json.String b -> (name, Some b)
  | _ -> fail "section %S: \"before\" is neither null nor a string" name

let check_gate g =
  let name = str_member "name" g in
  ignore (str_member "metric" g);
  (match str_member "op" g with
  | ">=" | "<=" -> ()
  | op -> fail "gate %S: unknown op %S" name op);
  ignore (float_member "limit" g);
  ignore (float_member "value" g);
  (match Json.(Option.bind (member "pass" g) to_bool) with
  | Some _ -> ()
  | None -> fail "gate %S: missing bool field \"pass\"" name);
  name

let require_all what required present =
  List.iter
    (fun r -> if not (List.mem r present) then fail "missing %s %S" what r)
    required

let check_bench path =
  let text = In_channel.with_open_text path In_channel.input_all in
  let doc =
    match Json.parse text with
    | Ok v -> v
    | Error e -> fail "%s does not parse: %s" path e
  in
  let version = int_member "schema_version" doc in
  if version <> 8 then fail "schema_version %d, expected 8" version;
  if str_member "bench" doc <> "pacstack-hot-path" then fail "unexpected bench id";
  let obs = require_member "obs_overhead" doc in
  ignore (float_member "guard_ns" obs);
  ignore (float_member "machine_step_pct" obs);
  positive "obs_overhead fuzz_seed_ns" (float_member "fuzz_seed_ns" obs);
  ignore (float_member "fuzz_seed_pct" obs);
  let cost = require_member "campaign_overhead" doc in
  positive "campaign_overhead raw_ns_per_fault" (float_member "raw_ns_per_fault" cost);
  positive "campaign_overhead engine_ns_per_fault" (float_member "engine_ns_per_fault" cost);
  ignore (float_member "overhead_pct" cost);
  if int_member "faults" cost < 1 then fail "campaign_overhead: bad fault count";
  let alloc = require_member "alloc_residuals" doc in
  List.iter
    (fun k ->
      let v = float_member k alloc in
      if not (Float.is_finite v && v >= 0.) then fail "alloc_residuals: bad %s" k)
    [
      "alu_words_per_step"; "logic_words_per_step"; "cmp_words_per_step";
      "global_words_per_step"; "unprotected_words_per_step"; "pac_words_per_step";
    ];
  let sections = List.map check_section (list_member "sections" doc) in
  let names = List.map fst sections in
  require_all "section" required_sections names;
  List.iter
    (fun (name, before) ->
      match before with
      | Some b when not (List.mem b names) ->
        fail "section %S: before %S is not a section of this run" name b
      | _ -> ())
    sections;
  require_all "gate" required_gates (List.map check_gate (list_member "gates" doc));
  Printf.printf "check_json: %s ok (%d sections)\n" path (List.length sections)

(* --- obs trace files (JSON lines) ---------------------------------------- *)

let check_histogram lineno v =
  let lo = float_member "lo" v and hi = float_member "hi" v in
  if not (lo < hi) then fail "line %d: histogram lo %g is not below hi %g" lineno lo hi;
  let mass =
    List.fold_left
      (fun acc c ->
        match Json.to_int c with
        | Some n when n >= 0 -> acc + n
        | _ -> fail "line %d: histogram count %s is not a non-negative integer" lineno (Json.to_string c))
      0 (list_member "counts" v)
  in
  let total = int_member "total" v in
  if mass <> total then fail "line %d: histogram counts sum to %d, total is %d" lineno mass total

let check_trace path =
  let lines = In_channel.with_open_text path In_channel.input_lines in
  let n_metrics = ref 0 and n_events = ref 0 in
  (match lines with
  | [] -> fail "%s is empty" path
  | header :: rest ->
    (match Json.parse header with
    | Error e -> fail "%s line 1 does not parse: %s" path e
    | Ok v ->
      if str_member "type" v <> "header" then fail "line 1 is not the header";
      if str_member "schema" v <> "pacstack-obs" then fail "unknown trace schema";
      ignore (int_member "version" v);
      ignore (int_member "dropped" v));
    List.iteri
      (fun i line ->
        let lineno = i + 2 in
        match Json.parse line with
        | Error e -> fail "%s line %d does not parse: %s" path lineno e
        | Ok v -> (
          match str_member "type" v with
          | "metric" ->
            incr n_metrics;
            ignore (str_member "name" v);
            (match str_member "kind" v with
            | "counter" | "gauge" -> ()
            | "histogram" -> check_histogram lineno v
            | k -> fail "line %d: unknown metric kind %S" lineno k)
          | "event" ->
            incr n_events;
            ignore (str_member "name" v);
            ignore (int_member "key" v);
            ignore (int_member "seq" v);
            ignore (require_member "fields" v)
          | t -> fail "line %d: unknown record type %S" lineno t))
      rest);
  Printf.printf "check_json: %s ok (%d metrics, %d events)\n" path !n_metrics !n_events

(* --- campaign checkpoint manifests (JSON lines) --------------------------- *)

let check_manifest path =
  let lines = In_channel.with_open_text path In_channel.input_lines in
  let n_shards = ref 0 and n_merged = ref 0 and n_quarantined = ref 0 in
  let last = List.length lines in
  (match lines with
  | [] -> fail "%s is empty" path
  | header :: rest ->
    (match Json.parse header with
    | Error e -> fail "%s line 1 does not parse: %s" path e
    | Ok v ->
      ignore (int_member "version" v);
      ignore (str_member "campaign" v);
      ignore (str_member "seed" v);
      if int_member "shards" v < 1 then fail "header: bad shard count");
    List.iteri
      (fun i line ->
        let lineno = i + 2 in
        match Json.parse line with
        | Error e ->
          (* A torn trailing line is the crash the append-only format is
             designed to survive; anywhere else it is corruption. *)
          if lineno = last then
            Printf.printf "check_json: %s line %d torn (tolerated)\n" path lineno
          else fail "%s line %d does not parse: %s" path lineno e
        | Ok v -> (
          match Json.(Option.bind (member "merged" v) to_bool) with
          | Some true ->
            incr n_merged;
            ignore (int_member "generation" v);
            List.iter
              (fun r ->
                match Json.to_list r with
                | Some [ lo; hi ]
                  when Option.is_some (Json.to_int lo) && Option.is_some (Json.to_int hi)
                  -> ()
                | _ -> fail "line %d: bad covered range" lineno)
              (list_member "covered" v);
            ignore (require_member "result" v)
          | Some false | None -> (
            match Json.(Option.bind (member "quarantined" v) to_bool) with
            | Some true ->
              incr n_quarantined;
              ignore (int_member "shard" v);
              ignore (int_member "attempts" v);
              ignore (str_member "error" v)
            | Some false | None ->
              incr n_shards;
              ignore (int_member "shard" v);
              ignore (require_member "result" v))))
      rest);
  Printf.printf "check_json: %s ok (%d shard, %d merged, %d quarantine lines)\n" path
    !n_shards !n_merged !n_quarantined

let () =
  match Array.to_list Sys.argv with
  | [ _; "--trace"; path ] -> check_trace path
  | [ _; "--manifest"; path ] -> check_manifest path
  | [ _; path ] -> check_bench path
  | _ ->
    prerr_endline
      "usage: check_json BENCH.json | check_json --trace TRACE.jsonl | check_json \
       --manifest MANIFEST.jsonl";
    exit 2

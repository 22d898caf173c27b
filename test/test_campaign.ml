(* Tests for the campaign engine: the domain pool, the JSON codec, the
   checkpoint manifest, and the determinism contract — a parallel run of
   a plan is identical to a sequential run, and an interrupted-and-resumed
   run is identical to an uninterrupted one. *)

module Rng = Pacstack_util.Rng
module Json = Pacstack_campaign.Json
module Plan = Pacstack_campaign.Plan
module Shard = Pacstack_campaign.Shard
module Pool = Pacstack_campaign.Pool
module Progress = Pacstack_campaign.Progress
module Checkpoint = Pacstack_campaign.Checkpoint
module Campaign = Pacstack_campaign.Campaign
module Games = Pacstack_acs.Games
module Plans = Pacstack_report.Plans

(* --- Pool --------------------------------------------------------------- *)

let test_pool_matches_sequential () =
  let f i = (i * i) + 3 in
  let expected = Array.init 23 f in
  Alcotest.(check (array int)) "1 worker" expected (Pool.run ~workers:1 ~tasks:23 f);
  Alcotest.(check (array int)) "4 workers" expected (Pool.run ~workers:4 ~tasks:23 f);
  Alcotest.(check (array int)) "more workers than tasks" expected
    (Pool.run ~workers:64 ~tasks:23 f);
  Alcotest.(check (array int)) "no tasks" [||] (Pool.run ~workers:4 ~tasks:0 f)

let test_pool_propagates_exception () =
  (* the satellite fix: the re-raised failure carries the task index and
     captured backtrace instead of arriving bare *)
  match Pool.run ~workers:4 ~tasks:8 (fun i -> if i = 3 then failwith "task 3" else i) with
  | _ -> Alcotest.fail "expected Task_failed"
  | exception Pool.Task_failed { task; exn; backtrace = _ } ->
    Alcotest.(check int) "failing task index attached" 3 task;
    Alcotest.(check string) "original exception preserved" "Failure(\"task 3\")"
      (Printexc.to_string exn)

let test_pool_outcomes_keep_completed_work () =
  let f i = if i mod 3 = 1 then failwith (Printf.sprintf "task %d" i) else i * 7 in
  let check outcomes =
    Array.iteri
      (fun i o ->
        match (o, i mod 3 = 1) with
        | Pool.Ok r, false -> Alcotest.(check int) "completed result kept" (i * 7) r
        | Pool.Crashed (Failure _, _), true -> ()
        | Pool.Ok _, true -> Alcotest.failf "task %d should have crashed" i
        | Pool.Crashed _, _ -> Alcotest.failf "task %d should have completed" i)
      outcomes
  in
  check (Pool.run_outcomes ~workers:1 ~tasks:10 f);
  check (Pool.run_outcomes ~workers:4 ~tasks:10 f)

let test_pool_rejects_bad_args () =
  Alcotest.check_raises "workers < 1"
    (Invalid_argument "Pool.run_outcomes: workers < 1") (fun () ->
      ignore (Pool.run ~workers:0 ~tasks:1 (fun i -> i)))

(* Regression (satellite fix): a worker dying between claiming a task and
   filling its slot used to surface as [assert false] in join — an
   anonymous Assert_failure pointing at pool.ml instead of at the task.
   The empty slot now reports a typed error naming the task index, and
   [run] wraps it in Task_failed like any other crash. *)
let test_pool_missing_result_names_task () =
  let msg = Printexc.to_string (Pool.Missing_result { task = 17 }) in
  let contains needle =
    let n = String.length needle in
    let rec go i = i + n <= String.length msg && (String.sub msg i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) ("names the task: " ^ msg) true (contains "task 17");
  Alcotest.(check bool) ("says what went wrong: " ^ msg) true (contains "no worker filled")

(* --- Json --------------------------------------------------------------- *)

let json = Alcotest.testable Json.pp ( = )

let test_json_roundtrip () =
  let samples =
    [
      Json.Null;
      Json.Bool true;
      Json.Int (-42);
      Json.Int max_int;
      Json.Float 3.25;
      Json.String "with \"quotes\", back\\slash, tab\t and newline\n";
      Json.List [ Json.Int 1; Json.List []; Json.Obj [] ];
      Json.Obj [ ("a", Json.Int 1); ("nested", Json.Obj [ ("b", Json.List [ Json.Null ]) ]) ];
    ]
  in
  List.iter
    (fun v ->
      match Json.parse (Json.to_string v) with
      | Ok parsed -> Alcotest.check json "roundtrip" v parsed
      | Error e -> Alcotest.failf "failed to reparse %s: %s" (Json.to_string v) e)
    samples

let test_json_parse_errors () =
  let bad = [ ""; "{"; "[1,"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated" ] in
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok v -> Alcotest.failf "%S unexpectedly parsed to %s" s (Json.to_string v)
      | Error _ -> ())
    bad

(* Regression (satellite fix): [Float nan] and [Float ±infinity] used to
   print as "nan" / "inf" / "-inf", which no JSON parser — including this
   one — accepts; a campaign whose stats produced a single NaN wrote an
   unreadable results file. They now encode as null. *)
let test_json_nonfinite_encodes_null () =
  List.iter
    (fun f ->
      Alcotest.(check string) "bare non-finite" "null" (Json.to_string (Json.Float f)))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  Alcotest.(check string) "nested non-finite" "{\"v\":[1,null]}"
    (Json.to_string (Json.Obj [ ("v", Json.List [ Json.Int 1; Json.Float Float.nan ]) ]))

(* Property: every encoding parses back, and parse ∘ to_string is the
   identity up to the documented lossy case (non-finite floats read back
   as Null). The generator deliberately mixes nan/±inf into the floats. *)
let json_gen =
  let open QCheck2.Gen in
  let any_float =
    oneof
      [
        float;
        oneofl [ Float.nan; Float.infinity; Float.neg_infinity; 0.25; -0.0; 1e308; 3.0 ];
      ]
  in
  let key = string_size ~gen:(char_range 'a' 'z') (1 -- 4) in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun n -> Json.Int n) int;
        map (fun f -> Json.Float f) any_float;
        map (fun s -> Json.String s) (string_size ~gen:printable (0 -- 8));
      ]
  in
  fix
    (fun self depth ->
      if depth = 0 then scalar
      else
        oneof
          [
            scalar;
            map (fun xs -> Json.List xs) (list_size (0 -- 4) (self (depth - 1)));
            map (fun kvs -> Json.Obj kvs) (list_size (0 -- 4) (pair key (self (depth - 1))));
          ])
    3

let rec scrub_nonfinite = function
  | Json.Float f when not (Float.is_finite f) -> Json.Null
  | Json.List xs -> Json.List (List.map scrub_nonfinite xs)
  | Json.Obj kvs -> Json.Obj (List.map (fun (k, v) -> (k, scrub_nonfinite v)) kvs)
  | v -> v

let prop_json_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"encode/decode roundtrip incl. nan and ±inf" ~count:500 json_gen
       (fun v ->
         match Json.parse (Json.to_string v) with
         | Error e -> QCheck2.Test.fail_reportf "unparseable %S: %s" (Json.to_string v) e
         | Ok parsed -> parsed = scrub_nonfinite v))

let test_json_accessors () =
  let v = Json.Obj [ ("n", Json.Int 7); ("f", Json.Float 1.5); ("s", Json.String "x") ] in
  Alcotest.(check (option int)) "member int" (Some 7) Json.(Option.bind (member "n" v) to_int);
  Alcotest.(check (option (float 0.0))) "int widens to float" (Some 7.0)
    Json.(Option.bind (member "n" v) to_float);
  Alcotest.(check (option int)) "missing member" None Json.(Option.bind (member "zz" v) to_int);
  Alcotest.(check (option int)) "wrong constructor" None Json.(Option.bind (member "s" v) to_int)

(* --- Plan / Shard -------------------------------------------------------- *)

let test_split_trials () =
  Alcotest.(check (array int)) "even" [| 25; 25; 25; 25 |] (Plan.split_trials ~trials:100 ~shards:4);
  Alcotest.(check (array int)) "remainder to early shards" [| 34; 33; 33 |]
    (Plan.split_trials ~trials:100 ~shards:3);
  Alcotest.check_raises "too many shards" (Invalid_argument "Plan.split_trials") (fun () ->
      ignore (Plan.split_trials ~trials:2 ~shards:3))

let test_shard_rng_is_positional () =
  (* shard i's stream = the i-th split of the campaign root, regardless of
     which shard value asks *)
  let shard index = { Shard.index; count = 5; label = "s"; trials = 1 } in
  let family = Rng.split_n (Rng.create 77L) 5 in
  for i = 0 to 4 do
    Alcotest.(check int64) "stream matches family" (Rng.next64 family.(i))
      (Rng.next64 (Shard.rng ~campaign_seed:77L (shard i)))
  done

(* --- Campaign determinism (tier-1 acceptance) ---------------------------- *)

let check_estimates = Alcotest.(array (triple int int (float 0.0)))

let table1_fingerprint outcome =
  Array.map
    (fun (e : Games.estimate) -> (e.Games.successes, e.Games.trials, e.Games.rate))
    (Plans.table1_estimates outcome)

let test_table1_workers_identical () =
  (* the ISSUE acceptance criterion: a 4-worker campaign run of the
     Table 1 game equals the 1-worker run result-for-result *)
  let plan () = Plans.table1_plan ~scale:0.01 ~seed:5L () in
  let sequential = Campaign.run ~workers:1 (plan ()) in
  let parallel = Campaign.run ~workers:4 (plan ()) in
  Alcotest.check check_estimates "1 worker = 4 workers" (table1_fingerprint sequential)
    (table1_fingerprint parallel);
  (* and per-shard, not only per-cell *)
  Alcotest.(check (array (pair int int)))
    "per-shard results identical"
    (Array.map (fun (c, (e : Games.estimate)) -> (c, e.Games.successes)) (Campaign.results_exn sequential))
    (Array.map (fun (c, (e : Games.estimate)) -> (c, e.Games.successes)) (Campaign.results_exn parallel))

let with_temp_checkpoint f =
  let path = Filename.temp_file "pacstack_campaign" ".ck" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let test_resume_equals_uninterrupted () =
  let plan () = Plans.table1_plan ~scale:0.01 ~seed:6L () in
  let uninterrupted = Campaign.run ~workers:1 (plan ()) in
  with_temp_checkpoint (fun path ->
      (* simulate a killed run: execute fully, then truncate the manifest
         to the header plus the first 7 completed-shard records *)
      let full = Campaign.run ~checkpoint:(path, Plans.table1_codec) (plan ()) in
      Alcotest.check check_estimates "checkpointed run = plain run"
        (table1_fingerprint uninterrupted) (table1_fingerprint full);
      let lines = In_channel.with_open_text path In_channel.input_lines in
      let kept = List.filteri (fun i _ -> i < 8) lines in
      Out_channel.with_open_text path (fun oc ->
          List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) kept);
      let resumed = Campaign.run ~workers:4 ~checkpoint:(path, Plans.table1_codec) (plan ()) in
      Alcotest.(check int) "7 shards restored" 7 resumed.Campaign.resumed;
      Alcotest.check check_estimates "resumed = uninterrupted"
        (table1_fingerprint uninterrupted) (table1_fingerprint resumed))

let test_resume_skips_completed_work () =
  let plan () = Plans.birthday_plan ~scale:0.2 ~seed:8L () in
  with_temp_checkpoint (fun path ->
      let first = Campaign.run ~checkpoint:(path, Plans.birthday_codec) (plan ()) in
      Alcotest.(check int) "fresh run resumes nothing" 0 first.Campaign.resumed;
      let again = Campaign.run ~checkpoint:(path, Plans.birthday_codec) (plan ()) in
      Alcotest.(check int) "second run restores every shard"
        (Plan.shard_count (plan ()))
        again.Campaign.resumed;
      Alcotest.(check (array int)) "results identical" (Campaign.results_exn first) (Campaign.results_exn again))

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_checkpoint_rejects_foreign_manifest () =
  with_temp_checkpoint (fun path ->
      let _ = Campaign.run ~checkpoint:(path, Plans.birthday_codec) (Plans.birthday_plan ~scale:0.05 ~seed:8L ()) in
      (* same campaign name, different seed: must refuse with the typed
         error carrying both headers, not recompute and not a bare Failure *)
      match Campaign.run ~checkpoint:(path, Plans.birthday_codec) (Plans.birthday_plan ~scale:0.05 ~seed:9L ()) with
      | _ -> Alcotest.fail "foreign manifest accepted"
      | exception (Checkpoint.Stale_manifest { path = p; expected; found } as e) ->
        Alcotest.(check string) "names the file" path p;
        Alcotest.(check bool) "expected header carries the new seed" true
          (contains expected "\"seed\":\"9\"");
        Alcotest.(check bool) "found header carries the manifest's seed" true
          (contains found "\"seed\":\"8\"");
        let msg = Printexc.to_string e in
        Alcotest.(check bool) ("printer shows the delta: " ^ msg) true
          (contains msg path && contains msg "expected header" && contains msg "found header"))

let test_checkpoint_ignores_torn_line () =
  let plan () = Plans.birthday_plan ~scale:0.05 ~seed:8L () in
  with_temp_checkpoint (fun path ->
      let full = Campaign.run ~checkpoint:(path, Plans.birthday_codec) (plan ()) in
      (* simulate dying mid-write: append half a record *)
      Out_channel.with_open_gen [ Open_append ] 0o644 path (fun oc ->
          Out_channel.output_string oc "{\"shard\":2,\"resu");
      let resumed = Campaign.run ~checkpoint:(path, Plans.birthday_codec) (plan ()) in
      Alcotest.(check (array int)) "torn line ignored, results identical" (Campaign.results_exn full)
        (Campaign.results_exn resumed))

(* --- Crash tolerance: retry and quarantine ------------------------------- *)

(* A tiny synthetic plan whose shard results are pure functions of the
   shard rng, with a hook to make chosen shards fail. *)
let synthetic_plan ?(shards = 6) ~seed ~fail () =
  Plan.make ~name:"synthetic" ~seed
    ~shards:(Array.init shards (fun i -> (Printf.sprintf "syn#%d" i, 3)))
    ~run:(fun shard rng ->
      fail shard;
      Int64.to_int (Int64.logand (Rng.next64 rng) 0xffffL) + shard.Shard.index)

let no_backoff = { Campaign.default_policy with backoff_s = (fun _ -> 0.) }

let test_quarantine_isolates_failing_shard () =
  let fail (s : Shard.t) = if s.Shard.index = 2 then failwith "shard 2 is cursed" in
  let reference =
    Campaign.run (synthetic_plan ~seed:11L ~fail:(fun _ -> ()) ())
  in
  with_temp_checkpoint (fun path ->
      let outcome =
        Campaign.run ~workers:4 ~policy:no_backoff
          ~checkpoint:(path, { Checkpoint.encode = (fun r -> Json.Int r);
                               decode = Json.to_int })
          (synthetic_plan ~seed:11L ~fail ())
      in
      (match outcome.Campaign.quarantined with
      | [ q ] ->
        Alcotest.(check int) "quarantined shard index" 2 q.Campaign.shard;
        Alcotest.(check int) "attempts = 1 + retries" 3 q.Campaign.attempts;
        Alcotest.(check bool) "error preserved" true
          (contains q.Campaign.error "shard 2 is cursed")
      | qs -> Alcotest.failf "expected exactly one quarantine, got %d" (List.length qs));
      Alcotest.(check (option int)) "failed shard has no result" None outcome.Campaign.results.(2);
      (* every healthy shard's result is present, correct and checkpointed *)
      Array.iteri
        (fun i r -> if i <> 2 then
            Alcotest.(check (option int)) "healthy shard result intact" r outcome.Campaign.results.(i))
        reference.Campaign.results;
      Alcotest.check_raises "results_exn reports the quarantine"
        (Failure
           "Campaign synthetic: 1 shard(s) quarantined: shard 2 (syn#2): Failure(\"shard 2 is cursed\")")
        (fun () -> ignore (Campaign.results_exn outcome));
      (* the manifest records the quarantine and restores only the healthy
         shards on resume; the cursed shard is re-run (and fails again) *)
      let manifest = In_channel.with_open_text path In_channel.input_lines in
      Alcotest.(check bool) "manifest records quarantine" true
        (List.exists (fun l -> contains l "\"quarantined\":true") manifest);
      let resumed =
        Campaign.run ~policy:no_backoff
          ~checkpoint:(path, { Checkpoint.encode = (fun r -> Json.Int r);
                               decode = Json.to_int })
          (synthetic_plan ~seed:11L ~fail ())
      in
      Alcotest.(check int) "healthy shards restored, cursed shard retried" 5
        resumed.Campaign.resumed;
      Alcotest.(check int) "still quarantined on resume" 1
        (List.length resumed.Campaign.quarantined))

let test_transient_failure_is_retried () =
  (* fails on its first attempt only: with one retry the campaign result
     must equal the untroubled run's, with no quarantine *)
  let tries = ref 0 in
  let fail (s : Shard.t) =
    if s.Shard.index = 1 then begin
      incr tries;
      if !tries = 1 then failwith "transient"
    end
  in
  let retried = ref 0 in
  let sink = function Progress.Shard_retried _ -> incr retried | _ -> () in
  let outcome =
    Campaign.run ~policy:no_backoff ~progress:sink (synthetic_plan ~seed:12L ~fail ())
  in
  let reference = Campaign.run (synthetic_plan ~seed:12L ~fail:(fun _ -> ()) ()) in
  Alcotest.(check int) "exactly one retry" 1 !retried;
  Alcotest.(check int) "no quarantine" 0 (List.length outcome.Campaign.quarantined);
  Alcotest.(check (array (option int))) "retried run = untroubled run"
    reference.Campaign.results outcome.Campaign.results

(* --- hierarchical checkpoint compaction (inject campaigns) ---------------- *)

(* The fork-based process pool and the SIGKILL crash-recovery e2e live
   in test_procpool.ml: OCaml 5 forbids Unix.fork in a process that has
   ever created another domain, and this suite spawns domain pools. The
   compaction tests below run at 1 worker (inline, no domains, no
   forks), so they stay here with the other checkpoint tests. *)

let test_compaction_resumes_identically () =
  let plan () = Plans.inject_plan ~pac_bits:6 ~faults:24 ~shards:6 ~seed:22L () in
  let uninterrupted = Campaign.run ~workers:1 (plan ()) in
  with_temp_checkpoint (fun path ->
      let compacted =
        Campaign.run
          ~checkpoint:(path, Plans.inject_codec)
          ~compaction:(Plans.inject_compaction ~keep:2)
          (plan ())
      in
      Alcotest.(check bool) "compacted run = plain run" true
        (Plans.inject_totals compacted = Plans.inject_totals uninterrupted);
      (* the manifest has collapsed to the header plus merged statistics *)
      let lines = In_channel.with_open_text path In_channel.input_lines in
      Alcotest.(check bool) "manifest holds a merged line" true
        (List.exists (fun l -> contains l "\"merged\":true") lines);
      Alcotest.(check bool) "manifest stays O(1) lines, not O(shards)" true
        (List.length lines <= 3);
      let resumed =
        Campaign.run
          ~checkpoint:(path, Plans.inject_codec)
          ~compaction:(Plans.inject_compaction ~keep:2)
          (plan ())
      in
      Alcotest.(check int) "every shard restored from the merged blob"
        (Plan.shard_count (plan ()))
        resumed.Campaign.resumed;
      Alcotest.(check bool) "resumed = uninterrupted" true
        (Plans.inject_totals resumed = Plans.inject_totals uninterrupted))

(* A manifest truncated right after a compaction rename — merged line
   present, later per-shard appends lost — restores the covered shards
   and recomputes only the remainder, bit-identically. The merged blob
   folds before the recomputed shards, which is why [Engine.merge] must be
   commutative, not merely associative. *)
let test_partial_compacted_manifest_resumes () =
  let plan () = Plans.inject_plan ~pac_bits:6 ~faults:24 ~shards:6 ~seed:23L () in
  let uninterrupted = Campaign.run ~workers:1 (plan ()) in
  with_temp_checkpoint (fun path ->
      let _ =
        Campaign.run
          ~checkpoint:(path, Plans.inject_codec)
          ~compaction:(Plans.inject_compaction ~keep:4)
          (plan ())
      in
      let lines = In_channel.with_open_text path In_channel.input_lines in
      let kept =
        List.filteri (fun i l -> i = 0 || contains l "\"merged\":true") lines
      in
      Alcotest.(check int) "header + one merged line kept" 2 (List.length kept);
      Out_channel.with_open_text path (fun oc ->
          List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) kept);
      let resumed =
        Campaign.run
          ~checkpoint:(path, Plans.inject_codec)
          ~compaction:(Plans.inject_compaction ~keep:4)
          (plan ())
      in
      Alcotest.(check int) "merged shards restored" 4 resumed.Campaign.resumed;
      Alcotest.(check bool) "resumed = uninterrupted" true
        (Plans.inject_totals resumed = Plans.inject_totals uninterrupted))

(* Satellite: a manifest with both a torn trailing line and a corrupted
   interior line restores exactly the intact shards and recomputes the
   rest bit-identically. *)
let test_checkpoint_survives_interior_corruption () =
  let plan () = Plans.birthday_plan ~scale:0.05 ~seed:8L () in
  with_temp_checkpoint (fun path ->
      let full = Campaign.run ~checkpoint:(path, Plans.birthday_codec) (plan ()) in
      let shards = Plan.shard_count (plan ()) in
      Alcotest.(check int) "fresh run resumes nothing" 0 full.Campaign.resumed;
      let lines = In_channel.with_open_text path In_channel.input_lines in
      (* corrupt the 3rd record in place (bit rot), keep the rest, and
         append a torn line (crash mid-write) *)
      let mangled =
        List.mapi (fun i l -> if i = 3 then String.map (fun _ -> '#') l else l) lines
      in
      Out_channel.with_open_text path (fun oc ->
          List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) mangled;
          Out_channel.output_string oc "{\"shard\":5,\"resu");
      let resumed = Campaign.run ~checkpoint:(path, Plans.birthday_codec) (plan ()) in
      Alcotest.(check int) "all but the corrupted shard restored" (shards - 1)
        resumed.Campaign.resumed;
      Alcotest.(check (array int)) "re-run bit-identical" (Campaign.results_exn full)
        (Campaign.results_exn resumed))

let test_progress_events_cover_campaign () =
  let events = ref [] in
  let sink e = events := e :: !events in
  let plan = Plans.birthday_plan ~scale:0.05 ~seed:8L () in
  let _ = Campaign.run ~workers:2 ~progress:sink plan in
  let count p = List.length (List.filter p !events) in
  let shards = Plan.shard_count plan in
  Alcotest.(check int) "one start" 1
    (count (function Progress.Campaign_started _ -> true | _ -> false));
  Alcotest.(check int) "one finish" 1
    (count (function Progress.Campaign_finished _ -> true | _ -> false));
  Alcotest.(check int) "every shard starts" shards
    (count (function Progress.Shard_started _ -> true | _ -> false));
  Alcotest.(check int) "every shard finishes" shards
    (count (function Progress.Shard_finished _ -> true | _ -> false));
  (* the last Shard_finished (head of the reversed trace is
     Campaign_finished, then the final shard) reports full completion *)
  match !events with
  | Progress.Campaign_finished _ :: Progress.Shard_finished f :: _ ->
    Alcotest.(check int) "final completed = total" f.total f.completed
  | _ -> Alcotest.fail "unexpected event trace shape"

let () =
  Alcotest.run "campaign"
    [
      ( "pool",
        [
          Alcotest.test_case "matches sequential" `Quick test_pool_matches_sequential;
          Alcotest.test_case "propagates exceptions" `Quick test_pool_propagates_exception;
          Alcotest.test_case "outcomes keep completed work" `Quick
            test_pool_outcomes_keep_completed_work;
          Alcotest.test_case "rejects bad args" `Quick test_pool_rejects_bad_args;
          Alcotest.test_case "missing result names the task" `Quick
            test_pool_missing_result_names_task;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "non-finite floats encode as null" `Quick
            test_json_nonfinite_encodes_null;
          prop_json_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "plan",
        [
          Alcotest.test_case "split_trials" `Quick test_split_trials;
          Alcotest.test_case "shard rng is positional" `Quick test_shard_rng_is_positional;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "table1: 1 worker = 4 workers" `Quick test_table1_workers_identical;
          Alcotest.test_case "table1: resume = uninterrupted" `Quick test_resume_equals_uninterrupted;
          Alcotest.test_case "resume skips completed shards" `Quick test_resume_skips_completed_work;
          Alcotest.test_case "foreign manifest rejected" `Quick test_checkpoint_rejects_foreign_manifest;
          Alcotest.test_case "torn manifest line ignored" `Quick test_checkpoint_ignores_torn_line;
          Alcotest.test_case "interior corruption recovered" `Quick
            test_checkpoint_survives_interior_corruption;
        ] );
      ( "crash tolerance",
        [
          Alcotest.test_case "quarantine isolates failing shard" `Quick
            test_quarantine_isolates_failing_shard;
          Alcotest.test_case "transient failure retried" `Quick test_transient_failure_is_retried;
        ] );
      ( "compaction",
        [
          Alcotest.test_case "compacted manifest resumes identically" `Quick
            test_compaction_resumes_identically;
          Alcotest.test_case "partial compacted manifest resumes" `Quick
            test_partial_compacted_manifest_resumes;
        ] );
      ( "progress",
        [ Alcotest.test_case "event trace" `Quick test_progress_events_cover_campaign ] );
    ]

(* Tests for the fork-based process pool and the crash-isolated
   campaign executor.

   These live in their own binary, separate from test_campaign.ml, for a
   hard runtime reason: OCaml 5 forbids Unix.fork in any process that
   has EVER created another domain, even after Domain.join. The campaign
   suite spawns domain pools, which would poison every fork here. This
   binary therefore never uses more than 1 domain worker (Pool.run at
   workers = 1 executes inline) — the same constraint the campaign
   engine itself documents: Domains and Processes are alternative
   executors, never nested. *)

module Json = Pacstack_campaign.Json
module Plan = Pacstack_campaign.Plan
module Progress = Pacstack_campaign.Progress
module Checkpoint = Pacstack_campaign.Checkpoint
module Campaign = Pacstack_campaign.Campaign
module Procpool = Pacstack_campaign.Procpool
module Plans = Pacstack_report.Plans

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* --- Procpool: fork-based crash isolation -------------------------------- *)

let test_procpool_matches_sequential () =
  let f ~task ~attempt:_ = (task * task) + 3 in
  let expected = Array.init 9 (fun i -> Procpool.Done ((i * i) + 3)) in
  Alcotest.(check bool) "1 worker" true (Procpool.run ~workers:1 ~tasks:9 f = expected);
  Alcotest.(check bool) "4 workers" true (Procpool.run ~workers:4 ~tasks:9 f = expected);
  Alcotest.(check bool) "more workers than tasks" true
    (Procpool.run ~workers:16 ~tasks:9 f = expected);
  Alcotest.(check bool) "no tasks" true (Procpool.run ~workers:2 ~tasks:0 f = [||])

let test_procpool_retries_killed_child () =
  (* the tentpole property: a SIGKILL mid-task is an isolated, retryable
     failure — the pool degrades, re-runs the task, and every result is
     still produced *)
  let degraded = ref [] and retried = ref 0 in
  let out =
    Procpool.run ~workers:2 ~retries:2
      ~backoff_s:(fun _ -> 0.)
      ~on_retry:(fun ~task:_ ~attempt:_ ~error:_ -> incr retried)
      ~on_degrade:(fun ~live ~deaths -> degraded := (live, deaths) :: !degraded)
      ~tasks:4
      (fun ~task ~attempt ->
        if task = 1 && attempt = 1 then Unix.kill (Unix.getpid ()) Sys.sigkill;
        task * 10)
  in
  Alcotest.(check bool) "every task completes" true
    (out = Array.init 4 (fun i -> Procpool.Done (i * 10)));
  Alcotest.(check int) "killed attempt retried once" 1 !retried;
  match !degraded with
  | [ (live, deaths) ] ->
    Alcotest.(check int) "one abnormal death" 1 deaths;
    Alcotest.(check int) "capacity shrank to 1" 1 live
  | d -> Alcotest.failf "expected one degrade event, got %d" (List.length d)

let test_procpool_gives_up_on_persistent_failure () =
  (* a clean in-task exception is piped back as an error, not a pool
     death: no degrade, and past the retry budget the task is given up *)
  let gave = ref [] and degraded = ref 0 in
  let out =
    Procpool.run ~workers:2 ~retries:1
      ~backoff_s:(fun _ -> 0.)
      ~on_give_up:(fun ~task ~attempts ~error -> gave := (task, attempts, error) :: !gave)
      ~on_degrade:(fun ~live:_ ~deaths:_ -> incr degraded)
      ~tasks:3
      (fun ~task ~attempt:_ -> if task = 2 then failwith "task 2 is cursed" else task)
  in
  (match out.(2) with
  | Procpool.Gave_up { attempts; error } ->
    Alcotest.(check int) "attempts = 1 + retries" 2 attempts;
    Alcotest.(check bool) "error preserved" true (contains error "task 2 is cursed")
  | Procpool.Done _ -> Alcotest.fail "task 2 should have been given up");
  Alcotest.(check bool) "healthy tasks complete" true
    (out.(0) = Procpool.Done 0 && out.(1) = Procpool.Done 1);
  Alcotest.(check int) "exactly one give-up" 1 (List.length !gave);
  Alcotest.(check int) "clean failures do not degrade the pool" 0 !degraded

let test_procpool_timeout_kills_hung_child () =
  let out =
    Procpool.run ~workers:1 ~timeout_s:0.2 ~tasks:1 (fun ~task:_ ~attempt:_ ->
        Unix.sleep 600;
        0)
  in
  match out.(0) with
  | Procpool.Gave_up { error; _ } ->
    Alcotest.(check bool) ("error names the timeout: " ^ error) true
      (contains error "timeout")
  | Procpool.Done _ -> Alcotest.fail "hung child should have been killed"

let test_procpool_fail_fast_raises () =
  match
    Procpool.run ~workers:2 ~fail_fast:true ~tasks:4 (fun ~task ~attempt:_ ->
        if task = 3 then failwith "fatal" else task)
  with
  | _ -> Alcotest.fail "expected Task_failed"
  | exception Procpool.Task_failed { task; error } ->
    Alcotest.(check int) "task index attached" 3 task;
    Alcotest.(check bool) "error preserved" true (contains error "fatal")

let test_procpool_rejects_bad_args () =
  Alcotest.check_raises "workers < 1" (Invalid_argument "Procpool.run: workers < 1")
    (fun () -> ignore (Procpool.run ~workers:0 ~tasks:1 (fun ~task ~attempt:_ -> task)))

(* --- inject campaign under process isolation ----------------------------- *)

let no_backoff = { Campaign.default_policy with backoff_s = (fun _ -> 0.) }
let process_policy = { no_backoff with Campaign.isolation = Campaign.Processes }

(* The ISSUE acceptance criterion: a 4-worker process-pool campaign with
   one child SIGKILLed mid-shard completes, retries the shard, and its
   statistics are bit-identical to an uninterrupted 1-worker run (which
   executes inline — no domains, see the header comment). The kill is
   injected by the env-var test hook the CI smoke also uses; attempt 2
   of the same shard runs clean on a re-derived RNG. *)
let test_process_pool_survives_sigkill () =
  let plan () = Plans.inject_plan ~pac_bits:6 ~faults:24 ~shards:6 ~seed:21L () in
  let reference = Campaign.run ~workers:1 (plan ()) in
  Unix.putenv "PACSTACK_TEST_KILL_SHARD" "2";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "PACSTACK_TEST_KILL_SHARD" "")
    (fun () ->
      let retried = ref 0 and degraded = ref 0 in
      let sink = function
        | Progress.Shard_retried _ -> incr retried
        | Progress.Pool_degraded _ -> incr degraded
        | _ -> ()
      in
      let outcome =
        Campaign.run ~workers:4 ~progress:sink ~policy:process_policy (plan ())
      in
      Alcotest.(check int) "no quarantine" 0 (List.length outcome.Campaign.quarantined);
      Alcotest.(check int) "killed shard retried" 1 !retried;
      Alcotest.(check int) "pool degraded once" 1 !degraded;
      Alcotest.(check bool) "process-pool totals = 1-worker totals" true
        (Plans.inject_totals outcome = Plans.inject_totals reference))

(* A shard whose child ALWAYS dies abnormally ends up quarantined in the
   manifest, and the campaign still completes every healthy shard. *)
let test_process_pool_quarantines_persistent_crasher () =
  let plan =
    Plan.make ~name:"crashy" ~seed:31L
      ~shards:(Array.init 4 (fun i -> (Printf.sprintf "c#%d" i, 1)))
      ~run:(fun shard _rng ->
        if shard.Pacstack_campaign.Shard.index = 1 then
          Unix.kill (Unix.getpid ()) Sys.sigkill;
        shard.Pacstack_campaign.Shard.index * 100)
  in
  let policy = { process_policy with Campaign.retries = 1 } in
  let outcome = Campaign.run ~workers:2 ~policy plan in
  (match outcome.Campaign.quarantined with
  | [ q ] ->
    Alcotest.(check int) "crashing shard quarantined" 1 q.Campaign.shard;
    Alcotest.(check int) "attempts = 1 + retries" 2 q.Campaign.attempts;
    Alcotest.(check bool) ("death cause recorded: " ^ q.Campaign.error) true
      (contains q.Campaign.error "SIGKILL")
  | qs -> Alcotest.failf "expected exactly one quarantine, got %d" (List.length qs));
  Alcotest.(check (array (option int))) "healthy shards completed"
    [| Some 0; None; Some 200; Some 300 |] outcome.Campaign.results

let () =
  Alcotest.run "procpool"
    [
      ( "procpool",
        [
          Alcotest.test_case "matches sequential" `Quick test_procpool_matches_sequential;
          Alcotest.test_case "retries SIGKILLed child" `Quick
            test_procpool_retries_killed_child;
          Alcotest.test_case "gives up on persistent failure" `Quick
            test_procpool_gives_up_on_persistent_failure;
          Alcotest.test_case "timeout kills hung child" `Quick
            test_procpool_timeout_kills_hung_child;
          Alcotest.test_case "fail-fast raises" `Quick test_procpool_fail_fast_raises;
          Alcotest.test_case "rejects bad args" `Quick test_procpool_rejects_bad_args;
        ] );
      ( "process isolation",
        [
          Alcotest.test_case "survives SIGKILLed worker" `Quick
            test_process_pool_survives_sigkill;
          Alcotest.test_case "quarantines persistent crasher" `Quick
            test_process_pool_quarantines_persistent_crasher;
        ] );
    ]

type isolation = Domains | Processes

type policy = {
  retries : int;
  backoff_s : int -> float;
  shard_fuel : int option;
  fail_fast : bool;
  isolation : isolation;
  shard_timeout_s : float option;
}

let default_policy =
  {
    retries = 2;
    (* deterministic exponential backoff: 5ms, 10ms, 20ms, ... — long
       enough to step over a transient (fd pressure, allocator spike),
       short enough that a deterministic failure costs milliseconds *)
    backoff_s = (fun attempt -> 0.005 *. float_of_int (1 lsl (attempt - 1)));
    shard_fuel = None;
    fail_fast = false;
    isolation = Domains;
    shard_timeout_s = None;
  }

type quarantine = {
  shard : int;
  label : string;
  attempts : int;
  error : string;
  backtrace : string;
}

type 'r outcome = {
  plan_name : string;
  seed : int64;
  results : 'r option array;
  merged : 'r option;
  quarantined : quarantine list;
  elapsed_s : float;
  resumed : int;
  workers : int;
}

let results_exn outcome =
  if Option.is_some outcome.merged then
    failwith
      (Printf.sprintf
         "Campaign %s: results were compacted into a merged statistic; per-shard \
          results are unavailable (use fold)"
         outcome.plan_name);
  match outcome.quarantined with
  | [] -> Array.map Option.get outcome.results
  | qs ->
    let detail =
      String.concat "; "
        (List.map (fun q -> Printf.sprintf "shard %d (%s): %s" q.shard q.label q.error) qs)
    in
    failwith
      (Printf.sprintf "Campaign %s: %d shard(s) quarantined: %s" outcome.plan_name
         (List.length qs) detail)

(* Run one shard attempt under the watchdog budget (if any). The rng is
   re-derived per attempt from (campaign seed, shard index) alone, so a
   retry that succeeds produces the same result a first-attempt success
   would have: crash tolerance never changes campaign results. *)
let attempt_shard policy (plan : 'r Plan.t) (shard : Shard.t) =
  let body () = plan.Plan.run shard (Shard.rng ~campaign_seed:plan.Plan.seed shard) in
  match policy.shard_fuel with
  | None -> body ()
  | Some fuel -> Watchdog.with_budget fuel body

(* Test hook for the crash-isolation path: when the named shard runs its
   first attempt inside a forked child, the child SIGKILLs itself —
   CI and the e2e tests use this to prove a dead worker costs one retry,
   not the campaign. A no-op except under the env var. *)
let test_kill_hook (shard : Shard.t) ~attempt =
  if attempt = 1 then
    match Sys.getenv_opt "PACSTACK_TEST_KILL_SHARD" with
    | Some v when int_of_string_opt v = Some shard.Shard.index ->
      Unix.kill (Unix.getpid ()) Sys.sigkill
    | _ -> ()

let run ?(workers = 1) ?(progress = Progress.null) ?checkpoint ?compaction
    ?(policy = default_policy) (plan : 'r Plan.t) =
  if workers < 1 then invalid_arg "Campaign.run: workers < 1";
  if policy.retries < 0 then invalid_arg "Campaign.run: retries < 0";
  (match policy.shard_timeout_s with
  | Some t when t <= 0.0 -> invalid_arg "Campaign.run: shard_timeout_s <= 0"
  | _ -> ());
  let total = Plan.shard_count plan in
  let manifest, prior, merged_prior, covered =
    match checkpoint with
    | None -> (None, Array.make total None, None, Array.make total false)
    | Some (path, codec) ->
      let file, restored = Checkpoint.open_ ~path ~codec ?compaction plan in
      ( Some file,
        restored.Checkpoint.results,
        restored.Checkpoint.merged,
        restored.Checkpoint.covered )
  in
  let done_already i = prior.(i) <> None || covered.(i) in
  let resumed =
    let n = ref 0 in
    Array.iteri (fun i _ -> if done_already i then incr n) prior;
    !n
  in
  let pending =
    Array.of_list
      (List.filter (fun i -> not (done_already i)) (List.init total (fun i -> i)))
  in
  let progress = if workers > 1 then Progress.synchronized progress else progress in
  let trials_total = Plan.total_trials plan in
  let trials_resumed =
    Array.fold_left
      (fun n (s : Shard.t) -> if done_already s.Shard.index then n + s.Shard.trials else n)
      0 plan.Plan.shards
  in
  progress
    (Progress.Campaign_started
       { name = plan.Plan.name; shards = total; trials = trials_total; workers; resumed });
  let t0 = Unix.gettimeofday () in
  let shards_done = Atomic.make resumed in
  let trials_done = Atomic.make 0 in
  (* Success bookkeeping shared by both executors: checkpoint the result
     and emit the Shard_finished event with rate/ETA. Counting and
     emitting under one lock keeps [completed] rising along the event
     stream; two workers could otherwise emit their counts out of order. *)
  let finish_lock = Mutex.create () in
  let finish_shard (shard : Shard.t) result ~elapsed_s =
    Option.iter (fun file -> Checkpoint.record file shard result) manifest;
    Mutex.protect finish_lock @@ fun () ->
    let completed = 1 + Atomic.fetch_and_add shards_done 1 in
    let executed = shard.Shard.trials + Atomic.fetch_and_add trials_done shard.Shard.trials in
    let wall = Unix.gettimeofday () -. t0 in
    let rate = float_of_int executed /. Float.max wall 1e-9 in
    let remaining = trials_total - trials_resumed - executed in
    progress
      (Progress.Shard_finished
         {
           name = plan.Plan.name;
           shard;
           elapsed_s;
           trials_per_sec = float_of_int shard.Shard.trials /. Float.max elapsed_s 1e-9;
           completed;
           total;
           eta_s = float_of_int remaining /. Float.max rate 1e-9;
         })
  in
  (* Domain executor: shards run in-process on a domain pool; the retry
     loop lives here because an in-process attempt fails by raising. *)
  let run_one k =
    let shard = plan.Plan.shards.(pending.(k)) in
    progress (Progress.Shard_started { name = plan.Plan.name; shard });
    let s0 = Unix.gettimeofday () in
    let rec attempt n =
      (* n is 1-based; policy.retries extra attempts follow the first *)
      match attempt_shard policy plan shard with
      | result -> Either.Left result
      | exception exn ->
        let backtrace = Printexc.get_backtrace () in
        if policy.fail_fast then raise exn
        else if n <= policy.retries then begin
          progress
            (Progress.Shard_retried
               { name = plan.Plan.name; shard; attempt = n; error = Printexc.to_string exn });
          Unix.sleepf (policy.backoff_s n);
          attempt (n + 1)
        end
        else begin
          let error = Printexc.to_string exn in
          progress
            (Progress.Shard_quarantined
               { name = plan.Plan.name; shard; attempts = n; error });
          Option.iter (fun file -> Checkpoint.quarantine file shard ~attempts:n ~error) manifest;
          Either.Right
            { shard = shard.Shard.index; label = shard.Shard.label; attempts = n; error;
              backtrace }
        end
    in
    match attempt 1 with
    | Either.Right _ as q -> q
    | Either.Left result as r ->
      finish_shard shard result ~elapsed_s:(Unix.gettimeofday () -. s0);
      r
  in
  (* Process executor: each attempt in a forked child, the retry/backoff
     state machine in Procpool's event loop, all bookkeeping callbacks in
     this (single-threaded) parent. *)
  let run_processes () =
    let shard_of task = plan.Plan.shards.(pending.(task)) in
    let body ~task ~attempt =
      let shard = shard_of task in
      test_kill_hook shard ~attempt;
      attempt_shard policy plan shard
    in
    Procpool.run ~workers ?timeout_s:policy.shard_timeout_s ~retries:policy.retries
      ~backoff_s:policy.backoff_s ~fail_fast:policy.fail_fast
      ~on_start:(fun ~task ->
        progress (Progress.Shard_started { name = plan.Plan.name; shard = shard_of task }))
      ~on_result:(fun ~task ~elapsed_s result ->
        finish_shard (shard_of task) result ~elapsed_s)
      ~on_retry:(fun ~task ~attempt ~error ->
        progress
          (Progress.Shard_retried { name = plan.Plan.name; shard = shard_of task; attempt; error }))
      ~on_give_up:(fun ~task ~attempts ~error ->
        let shard = shard_of task in
        progress
          (Progress.Shard_quarantined { name = plan.Plan.name; shard; attempts; error });
        Option.iter (fun file -> Checkpoint.quarantine file shard ~attempts ~error) manifest)
      ~on_degrade:(fun ~live ~deaths ->
        progress (Progress.Pool_degraded { name = plan.Plan.name; live; deaths }))
      ~tasks:(Array.length pending) body
    |> Array.mapi (fun k -> function
         | Procpool.Done r -> Either.Left r
         | Procpool.Gave_up { attempts; error } ->
           let shard = shard_of k in
           Either.Right
             { shard = shard.Shard.index; label = shard.Shard.label; attempts; error;
               backtrace = "" })
  in
  let fresh =
    match policy.isolation with
    | Domains -> Pool.run ~workers ~tasks:(Array.length pending) run_one
    | Processes -> run_processes ()
  in
  Option.iter Checkpoint.close manifest;
  let elapsed_s = Unix.gettimeofday () -. t0 in
  let quarantined = ref [] in
  Array.iteri
    (fun k -> function
      | Either.Left r -> prior.(pending.(k)) <- Some r
      | Either.Right q -> quarantined := q :: !quarantined)
    fresh;
  let quarantined = List.sort (fun a b -> compare a.shard b.shard) !quarantined in
  progress
    (Progress.Campaign_finished
       {
         name = plan.Plan.name;
         elapsed_s;
         trials_per_sec = float_of_int (Atomic.get trials_done) /. Float.max elapsed_s 1e-9;
       });
  { plan_name = plan.Plan.name; seed = plan.Plan.seed; results = prior;
    merged = merged_prior; quarantined; elapsed_s; resumed; workers }

let fold outcome ~init ~f =
  let init = match outcome.merged with None -> init | Some m -> f init m in
  Array.fold_left (fun acc -> function None -> acc | Some r -> f acc r) init outcome.results

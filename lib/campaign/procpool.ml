(* A fork-based process pool: the crash-isolation executor.

   The Domain pool ([Pool]) shares one address space, so a segfault, an
   OOM kill or a runaway shard takes the whole campaign down with it.
   Here every task attempt runs in a forked child that marshals its
   result back over a pipe and [Unix._exit]s; the parent is a
   single-threaded [Unix.select] event loop that spawns, drains pipes,
   reaps children, enforces wall-clock deadlines and drives the
   retry/backoff/give-up state machine. A child that dies without
   delivering a complete marshalled value — killed by a signal, OOM'd,
   or past its deadline — is an isolated failure that feeds the same
   retry path as an ordinary exception, and each abnormal death also
   shrinks the pool's concurrency by one ([capacity] never drops below
   1): if children keep dying because the machine is sick, the pool
   degrades gracefully instead of fork-bombing it.

   Fork hazard: OCaml 5 forbids forking while other domains run. All
   forks happen from the caller's (single) domain inside this event
   loop; [Campaign] treats Domains and Processes as alternative
   executors, never nested. *)

type 'a outcome = Done of 'a | Gave_up of { attempts : int; error : string }

type child = {
  pid : int;
  fd : Unix.file_descr;
  task : int;
  attempt : int;
  started : float;  (* first spawn of the task, for elapsed_s *)
  deadline : float option;
  buf : Buffer.t;
  mutable timed_out : bool;
}

let signal_name sg =
  if sg = Sys.sigkill then "SIGKILL"
  else if sg = Sys.sigsegv then "SIGSEGV"
  else if sg = Sys.sigterm then "SIGTERM"
  else if sg = Sys.sigabrt then "SIGABRT"
  else if sg = Sys.sigbus then "SIGBUS"
  else if sg = Sys.sigint then "SIGINT"
  else Printf.sprintf "signal %d" sg

(* The child writes [Marshal.to_channel] then exits; the parent only
   decodes after EOF, and only accepts a buffer that contains a complete
   marshalled value. Anything short of that — the child died mid-write —
   is an abnormal death, never a half-read garbage result. *)
let decode_buffer buf =
  let s = Buffer.contents buf in
  if String.length s < Marshal.header_size then None
  else
    match Marshal.total_size (Bytes.unsafe_of_string s) 0 with
    | exception Failure _ -> None
    | total ->
      if String.length s < total then None
      else (try Some (Marshal.from_string s 0) with Failure _ -> None)

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

let run ~workers ?timeout_s ?(retries = 0) ?(backoff_s = fun _ -> 0.)
    ?(on_start = fun ~task:_ -> ())
    ?(on_result = fun ~task:_ ~elapsed_s:_ _ -> ())
    ?(on_retry = fun ~task:_ ~attempt:_ ~error:_ -> ())
    ?(on_give_up = fun ~task:_ ~attempts:_ ~error:_ -> ())
    ?(on_degrade = fun ~live:_ ~deaths:_ -> ()) ~tasks f =
  if workers < 1 then invalid_arg "Procpool.run: workers < 1";
  if tasks < 0 then invalid_arg "Procpool.run: tasks < 0";
  if retries < 0 then invalid_arg "Procpool.run: retries < 0";
  let results = Array.make tasks None in
  let first_start = Array.make tasks None in
  (* (task, attempt, not_before): attempts waiting for a worker slot or
     for their deterministic backoff to elapse *)
  let pending = ref (List.init tasks (fun i -> (i, 1, 0.0))) in
  let running = ref [] in
  let deaths = ref 0 in
  let capacity () = max 1 (workers - !deaths) in
  let finished = ref 0 in
  let spawn ~task ~attempt =
    let rd, wr = Unix.pipe () in
    let now = Unix.gettimeofday () in
    (match first_start.(task) with
    | None ->
      first_start.(task) <- Some now;
      on_start ~task
    | Some _ -> ());
    match Unix.fork () with
    | 0 ->
      (* Child. Reset inherited signal handlers (the CLI installs an
         exit-on-SIGINT handler that flushes manifests — in the child
         that would duplicate the parent's buffered writes), run the
         task, pipe the result back, and [_exit] so no inherited
         out_channel buffer is ever flushed twice. *)
      (try Sys.set_signal Sys.sigint Sys.Signal_default with Invalid_argument _ | Sys_error _ -> ());
      (try Sys.set_signal Sys.sigterm Sys.Signal_default with Invalid_argument _ | Sys_error _ -> ());
      (try Unix.close rd with Unix.Unix_error _ -> ());
      (try
         let result =
           match f ~task ~attempt with
           | v -> Stdlib.Ok v
           | exception e -> Stdlib.Error (Printexc.to_string e)
         in
         let oc = Unix.out_channel_of_descr wr in
         Marshal.to_channel oc result [];
         flush oc
       with _ -> Unix._exit 125);
      Unix._exit 0
    | pid ->
      (try Unix.close wr with Unix.Unix_error _ -> ());
      running :=
        {
          pid;
          fd = rd;
          task;
          attempt;
          started = Option.get first_start.(task);
          deadline = Option.map (fun t -> now +. t) timeout_s;
          buf = Buffer.create 256;
          timed_out = false;
        }
        :: !running
  in
  let handle_failure child ~error =
    if child.attempt <= retries then begin
      on_retry ~task:child.task ~attempt:child.attempt ~error;
      let not_before = Unix.gettimeofday () +. backoff_s child.attempt in
      pending := (child.task, child.attempt + 1, not_before) :: !pending
    end
    else begin
      results.(child.task) <- Some (Gave_up { attempts = child.attempt; error });
      incr finished;
      on_give_up ~task:child.task ~attempts:child.attempt ~error
    end
  in
  let reap child =
    running := List.filter (fun c -> c.pid <> child.pid) !running;
    (try Unix.close child.fd with Unix.Unix_error _ -> ());
    let status = waitpid_retry child.pid in
    match decode_buffer child.buf with
    | Some (Stdlib.Ok v) ->
      results.(child.task) <- Some (Done v);
      incr finished;
      on_result ~task:child.task
        ~elapsed_s:(Unix.gettimeofday () -. child.started)
        v
    | Some (Stdlib.Error error) ->
      (* The task body raised and the child piped the exception back
         cleanly: an ordinary failure, not a pool death. *)
      handle_failure child ~error
    | None ->
      let error =
        if child.timed_out then
          Printf.sprintf "shard wall-clock timeout after %gs"
            (Option.value timeout_s ~default:0.)
        else
          match status with
          | Unix.WSIGNALED sg ->
            Printf.sprintf "worker killed by %s" (signal_name sg)
          | Unix.WEXITED code ->
            Printf.sprintf "worker exited with code %d without a result" code
          | Unix.WSTOPPED sg ->
            Printf.sprintf "worker stopped by %s" (signal_name sg)
      in
      let before = capacity () in
      incr deaths;
      let after = capacity () in
      if after < before then on_degrade ~live:after ~deaths:!deaths;
      handle_failure child ~error
  in
  let cleanup () =
    List.iter
      (fun c ->
        (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try Unix.close c.fd with Unix.Unix_error _ -> ());
        try ignore (waitpid_retry c.pid) with Unix.Unix_error _ -> ())
      !running;
    running := []
  in
  Fun.protect ~finally:cleanup (fun () ->
      while !finished < tasks do
        (* Fill free worker slots with the lowest-indexed ready attempt. *)
        let rec fill () =
          if List.length !running < capacity () then begin
            let now = Unix.gettimeofday () in
            let ready, waiting =
              List.partition (fun (_, _, nb) -> nb <= now) !pending
            in
            match List.sort compare ready with
            | [] -> ()
            | (task, attempt, _) :: rest ->
              pending := rest @ waiting;
              spawn ~task ~attempt;
              fill ()
          end
        in
        fill ();
        if !finished < tasks then begin
          let now = Unix.gettimeofday () in
          let wakeups =
            List.filter_map (fun c -> c.deadline) !running
            @ List.map (fun (_, _, nb) -> nb) !pending
          in
          let timeout =
            match wakeups with
            | [] -> -1.0 (* block until a child writes or exits *)
            | ts -> Float.max 0.0 (List.fold_left Float.min infinity ts -. now)
          in
          let fds = List.map (fun c -> c.fd) !running in
          (match fds with
          | [] ->
            (* nothing running: every pending attempt is in backoff *)
            Unix.sleepf (Float.max 0.001 (Float.min timeout 0.5))
          | _ -> (
            match Unix.select fds [] [] timeout with
            | readable, _, _ ->
              List.iter
                (fun fd ->
                  match List.find_opt (fun c -> c.fd = fd) !running with
                  | None -> ()
                  | Some c -> (
                    let bytes = Bytes.create 65536 in
                    match Unix.read fd bytes 0 (Bytes.length bytes) with
                    | 0 -> reap c
                    | n -> Buffer.add_subbytes c.buf bytes 0 n
                    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()))
                readable
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()));
          (* Enforce wall-clock deadlines: SIGKILL the child and let the
             resulting EOF/reap classify it as a timeout. *)
          let now = Unix.gettimeofday () in
          List.iter
            (fun c ->
              match c.deadline with
              | Some d when now >= d && not c.timed_out ->
                c.timed_out <- true;
                (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ())
              | _ -> ())
            !running
        end
      done;
      Array.map
        (function
          | Some o -> o
          | None -> Gave_up { attempts = 0; error = "no worker produced a result" })
        results)

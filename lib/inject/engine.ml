(* The fault-injection engine.

   One fault = one {!Fault.spec} applied to the victim under one
   hardening scheme.  Every fault is run twice with identical PA keys:
   once untouched (the reference), once with the corruption applied
   mid-run.  The injected run is then classified against the reference
   trace:

   - [Detected]  — the machine trapped (or the runtime aborted: canary
     exit 134, sigreturn kill 139).  The latency is the cycle distance
     from the injection to the trap: how long the corrupt state lived.
   - [Benign]    — the trace is identical to the reference: the fault
     hit dead state (a frame already consumed, bits nobody reloads).
   - [Silent]    — the trace diverges and nothing trapped.  This is the
     headline metric: corruption that changed the program's behaviour
     and was never caught.

   Generic sites pause the machine at a trigger point (a fraction of
   the reference run's retired instructions, as {!Machine.run}'s fuel:
   running out of it is the pause), xor a pattern into the chosen slot
   and resume.  The two structured
   sites replay the paper's actual attacks:

   - [Reload_window] mounts the §6.1 reuse attack inside the §5.2
     store-to-reload window.  A hook at full call depth harvests every
     sibling path's control words during the first [Victim.paths]
     rounds, then — on a later round — substitutes one sibling's two
     control words for the current path's while they sit spilled on the
     stack.  The diversion flows through the sibling's function tail
     and rejoins main at the sibling's call site, shifting every later
     printed value: silent unless some authentication rejects the
     transplant.  Under unmasked PACStack the adversary picks the
     sibling by matching harvested aret values (collisions are visible,
     §6.1); under the masked variant the spills are masked and the pick
     is blind, succeeding with probability 2^-b — the Appendix A
     argument, mirrored from [Pacstack_harden.Scheme.observable].
   - [Signal_frame] boots the victim under the kernel personality,
     delivers a signal at the trigger point and flips bits in the saved
     PC inside the user-visible signal frame.  Under [Sig_chained]
     (PACStack's Appendix B) the forged frame is killed at sigreturn
     with exit 139; mainline-Linux-style unprotected frames resume
     wherever the corrupt PC points.

   Victims: both victim programs are constants, so each (scheme,
   victim) is compiled and prepared once per process, on first use, and
   every reference, injected and kernel-booted machine of every fault is
   instantiated from that one value ({!prepared_victim}). A shard is a
   plain fold of {!run_fault} over its faults, in fault order.

   Determinism: everything derives from (campaign seed, fault index)
   through {!Fault}; machine keys come from the fault's private runtime
   stream, copied so reference and injected runs see identical keys.
   The same fault classifies identically at any worker count. *)

module Rng = Pacstack_util.Rng
module Sketch = Pacstack_util.Sketch
module Config = Pacstack_pa.Config
module Reg = Pacstack_isa.Reg
module Scheme = Pacstack_harden.Scheme
module Machine = Pacstack_machine.Machine
module Image = Pacstack_machine.Image
module Memory = Pacstack_machine.Memory
module Trap = Pacstack_machine.Trap
module Kernel = Pacstack_machine.Kernel
module Compile = Pacstack_minic.Compile
module Trace = Pacstack_fuzz.Trace
module Json = Pacstack_campaign.Json

type config = {
  pac_bits : int;
  fuel : int;
  schemes : Scheme.t list;
  tamper : (Machine.t -> unit) option;
}

let default_config =
  { pac_bits = 4; fuel = 10_000_000; schemes = Scheme.all; tamper = None }

module Obs = Pacstack_obs.Obs

(* [Signal_frame]/[Reload_window] faults are routed by [run_one] to
   their structured replays and must never reach the generic
   xor-a-slot injector. If a future site is added to [Fault.site]
   without a dispatch arm, the worker domain's crash should say which
   fault hit the hole — a bare [assert false] here used to cost the
   whole shard its context. *)
exception Misrouted_site of { index : int; site : Fault.site }

let () =
  Printexc.register_printer (function
    | Misrouted_site { index; site } ->
      Some
        (Printf.sprintf
           "Inject.Engine.Misrouted_site(fault %d, site %s): structured site \
            reached the generic injector; run_one must dispatch it"
           index
           (Fault.site_to_string site))
    | _ -> None)

type classification = Detected of { cause : string; latency : int } | Benign | Silent

let classification_to_string = function
  | Detected _ -> "detected"
  | Benign -> "benign"
  | Silent -> "silent"

type result = { spec : Fault.spec; scheme : Scheme.t; classification : classification }

(* ------------------------------------------------------------------ *)
(* Shared plumbing                                                     *)

let machine_cfg cfg = Config.make ~pac_bits:cfg.pac_bits ()

(* The runtime aborts detection turns into exit codes; both victims
   return [s land 63], so the canary abort (134) and the sigreturn kill
   (139) are unambiguous here. *)
let classify ~ref_trace ~injected_cycles m (outcome : Machine.outcome) =
  let latency () = Machine.cycles m - injected_cycles in
  match outcome with
  | Machine.Faulted t -> Detected { cause = Trap.to_string t; latency = latency () }
  | Machine.Halted c when c = Scheme.canary_failure_exit_code ->
    Detected { cause = "canary-abort"; latency = latency () }
  | Machine.Halted c when c = Kernel.sigreturn_kill_exit_code ->
    Detected { cause = "sigreturn-kill"; latency = latency () }
  | Machine.Halted _ | Machine.Out_of_fuel ->
    if Trace.equal ref_trace (Trace.of_run m outcome) then Benign else Silent

(* ------------------------------------------------------------------ *)
(* Generic sites: pause at the trigger, xor, resume                    *)

(* Spread the spec's flip bits into the PAC field of the configured
   geometry, so [Pac_bits] faults never touch address bits. *)
let pac_pattern (mcfg : Config.t) flip =
  let lo = Config.pac_lo mcfg and b = mcfg.Config.pac_bits in
  let p = ref 0L in
  for i = 0 to 63 do
    if Int64.logand (Int64.shift_left 1L i) flip <> 0L then
      p := Int64.logor !p (Int64.shift_left 1L (lo + (i mod b)))
  done;
  if !p = 0L then Int64.shift_left 1L lo else !p

(* The frame word at one of {!Scheme}'s FP-relative offsets. *)
let at fp offset = Int64.add fp (Int64.of_int offset)

let control_slot_addr scheme m =
  match Scheme.control_slot scheme with
  | Scheme.Return_slot -> at (Machine.get m Reg.fp) Scheme.return_slot_offset
  | Scheme.Chain_slot -> at (Machine.get m Reg.fp) Scheme.chain_spill_offset
  | Scheme.Shadow_slot -> Int64.sub (Machine.get m Reg.shadow) 8L

let apply_site cfg (spec : Fault.spec) scheme m =
  match cfg.tamper with
  | Some f -> f m
  | None -> (
    let mem = Machine.memory m in
    let xor_mem addr pattern =
      (* peek/poke: a trigger that lands while FP or X18 points outside
         mapped memory corrupts nothing — the run classifies benign *)
      match Memory.peek64 mem addr with
      | Some v -> ignore (Memory.poke64 mem addr (Int64.logxor v pattern))
      | None -> ()
    in
    let xor_reg r = Machine.set m r (Int64.logxor (Machine.get m r) spec.flip) in
    let fp = Machine.get m Reg.fp in
    match spec.site with
    | Fault.Ret_slot -> xor_mem (at fp Scheme.return_slot_offset) spec.flip
    | Fault.Chain_spill -> xor_mem (at fp Scheme.chain_spill_offset) spec.flip
    | Fault.Cr_reg -> xor_reg Reg.cr
    | Fault.Lr_reg -> xor_reg Reg.lr
    | Fault.Shadow_slot -> xor_mem (Int64.sub (Machine.get m Reg.shadow) 8L) spec.flip
    | Fault.Pac_bits ->
      xor_mem (control_slot_addr scheme m) (pac_pattern (Machine.config m) spec.flip)
    | Fault.Signal_frame | Fault.Reload_window ->
      raise (Misrouted_site { index = spec.index; site = spec.site }))

(* Machine metrics from injection runs are attributed to the scheme
   under test; labelling is itself obs-gated so the disabled path stays
   allocation-free. *)
let obs_label scheme m =
  if Obs.enabled () then Machine.set_obs_label m (Scheme.to_string scheme)

(* A machine for one run of the victim, keyed from the fault's stream. *)
let instance cfg scheme victim keys_rng =
  let m = Machine.instantiate ~cfg:(machine_cfg cfg) ~rng:(Rng.copy keys_rng) victim in
  obs_label scheme m;
  m

let reference cfg scheme victim keys_rng =
  let m = instance cfg scheme victim keys_rng in
  let outcome = Machine.run ~fuel:cfg.fuel m in
  (Trace.of_run m outcome, max 1 (Machine.instructions_retired m))

(* A fresh instance paused after [trigger] instructions is one run with
   [trigger] fuel: [Out_of_fuel] is the pause. The trigger never exceeds
   the reference's length, which [cfg.fuel] bounds. *)
let run_generic cfg (spec : Fault.spec) scheme victim keys_rng =
  let ref_trace, total = reference cfg scheme victim keys_rng in
  let trigger = max 1 (int_of_float (spec.trigger *. float_of_int total)) in
  let m = instance cfg scheme victim keys_rng in
  match Machine.run ~fuel:trigger m with
  | Machine.Out_of_fuel ->
    let at = Machine.cycles m in
    apply_site cfg spec scheme m;
    let outcome = Machine.run ~fuel:cfg.fuel m in
    classify ~ref_trace ~injected_cycles:at m outcome
  | outcome -> classify ~ref_trace ~injected_cycles:(Machine.cycles m) m outcome

(* ------------------------------------------------------------------ *)
(* Reload-window reuse attack (§5.2 window, §6.1 substitution)         *)

(* Walk the saved-FP chain from the hook frame (probe) back to the path
   function's frame, and name the two control words whose substitution
   diverts mid's and the path's returns to a sibling site.  Offsets per
   scheme come from {!Scheme.control_slot}:

   - return-slot schemes: the saved LRs [fp_mid + 8] (return into the
     path's tail) and [fp_path + 8] (return to main's call site);
   - PACStack: the chain spills [fp_inner - 16] (= aret binding mid's
     return) and [fp_mid - 16] (= aret binding the path's return); the
     transplant authenticates iff the sibling's aret for *probe's*
     spill — the handle at [fp_probe - 16] — collides with the current
     one (both are consumed against the same spilled token);
   - shadow stack: the entries at [x18 - 24] (pushed by mid) and
     [x18 - 32] (pushed by the path); the shadow value is authoritative
     on return, so the transplant needs no stack-slot help. *)
let window_slots scheme m =
  let load a = Memory.load64 (Machine.memory m) a in
  let fp_probe = Machine.get m Reg.fp in
  let fp_inner = load fp_probe in
  let fp_mid = load fp_inner in
  let fp_path = load fp_mid in
  match Scheme.control_slot scheme with
  | Scheme.Return_slot ->
    let ret fp = at fp Scheme.return_slot_offset in
    (ret fp_mid, ret fp_path, ret fp_mid)
  | Scheme.Chain_slot ->
    let spill fp = at fp Scheme.chain_spill_offset in
    (spill fp_inner, spill fp_mid, spill fp_probe)
  | Scheme.Shadow_slot ->
    let x18 = Machine.get m Reg.shadow in
    (Int64.sub x18 24L, Int64.sub x18 32L, Int64.sub x18 24L)

(* First harvested pair with identical handles, scanning in index
   order — the adversary's deterministic collision match. *)
let first_collision handles =
  let n = Array.length handles in
  let found = ref None in
  (try
     for a = 0 to n - 2 do
       for b = a + 1 to n - 1 do
         if Int64.equal handles.(a) handles.(b) then begin
           found := Some (a, b);
           raise Exit
         end
       done
     done
   with Exit -> ());
  !found

let blind_pair (spec : Fault.spec) =
  let paths = Victim.paths in
  let x = spec.round mod paths in
  let y = (x + 1 + (spec.pick mod (paths - 1))) mod paths in
  (x, y)

let run_window cfg (spec : Fault.spec) scheme victim keys_rng =
  let ref_trace, _ = reference cfg scheme victim keys_rng in
  let m = instance cfg scheme victim keys_rng in
  let paths = Victim.paths in
  let handles = Array.make paths 0L in
  let w1s = Array.make paths 0L in
  let w2s = Array.make paths 0L in
  let round = ref 0 in
  let plan = ref None in
  let injected_at = ref None in
  let hook hm =
    let mem = Machine.memory hm in
    let w1_addr, w2_addr, handle_addr = window_slots scheme hm in
    let j = !round in
    if j < paths then begin
      (* harvest cycle: round j runs path j — record its control words *)
      handles.(j) <- Memory.load64 mem handle_addr;
      w1s.(j) <- Memory.load64 mem w1_addr;
      w2s.(j) <- Memory.load64 mem w2_addr
    end
    else begin
      (if !plan = None then
         let pair =
           if Scheme.observable scheme then
             match first_collision handles with
             | Some p -> p
             | None -> blind_pair spec
           else blind_pair spec
         in
         plan := Some pair);
      let x, y = Option.get !plan in
      if j = paths + x && !injected_at = None then begin
        (match cfg.tamper with
        | Some f -> f hm
        | None ->
          Memory.store64 mem w1_addr w1s.(y);
          Memory.store64 mem w2_addr w2s.(y));
        injected_at := Some (Machine.cycles hm)
      end
    end;
    incr round
  in
  Machine.attach_hook m Victim.window_hook hook;
  let outcome = Machine.run ~fuel:cfg.fuel m in
  let at = match !injected_at with Some c -> c | None -> Machine.cycles m in
  classify ~ref_trace ~injected_cycles:at m outcome

(* ------------------------------------------------------------------ *)
(* Kernel signal-frame corruption (Appendix B)                         *)

let signal_policy scheme =
  if Scheme.chained_signal scheme then Kernel.Sig_chained else Kernel.Sig_unprotected

(* Index of the saved PC in [Machine.context_words] order
   (X0..X30, SP, PC, flags). *)
let saved_pc_index = 32

let run_signal cfg (spec : Fault.spec) scheme victim keys_rng =
  let policy = signal_policy scheme in
  let boot rng =
    let k = Kernel.create ~signal_policy:policy rng in
    let p = Kernel.boot_prepared k victim in
    let m = Kernel.machine p in
    obs_label scheme m;
    (k, p, m)
  in
  (* size the trigger off a delivery-free run, so reference and injected
     runs both deliver at the same retired-instruction point *)
  let _, _, base_m = boot (Rng.copy keys_rng) in
  ignore (Machine.run ~fuel:cfg.fuel base_m);
  let total = max 1 (Machine.instructions_retired base_m) in
  let trigger = max 1 (int_of_float (spec.trigger *. float_of_int total)) in
  (* keep the corruption inside the code segment: flip only low,
     4-byte-aligned PC bits so an unprotected resume lands on some other
     instruction rather than trivially faulting on unmapped memory *)
  let pc_flip =
    let f = Int64.logand spec.flip 0xfcL in
    if Int64.equal f 0L then 4L else f
  in
  let run ~corrupt =
    let k, p, m = boot (Rng.copy keys_rng) in
    match Machine.run ~fuel:trigger m with
    | (Machine.Halted _ | Machine.Faulted _) as outcome ->
      (Trace.of_run m outcome, Machine.cycles m, m, outcome)
    | Machine.Out_of_fuel ->
      Kernel.deliver_signal k p ~handler:Victim.handler_name ~signum:14;
      let at = Machine.cycles m in
      if corrupt then begin
        match cfg.tamper with
        | Some f -> f m
        | None ->
          let sp = Machine.get m Reg.SP in
          let addr = Int64.add sp (Int64.of_int (8 * saved_pc_index)) in
          let v = Memory.load64 (Machine.memory m) addr in
          Memory.store64 (Machine.memory m) addr (Int64.logxor v pc_flip)
      end;
      let outcome = Machine.run ~fuel:cfg.fuel m in
      (Trace.of_run m outcome, at, m, outcome)
  in
  let ref_trace, _, _, _ = run ~corrupt:false in
  let _, at, m, outcome = run ~corrupt:true in
  classify ~ref_trace ~injected_cycles:at m outcome

(* ------------------------------------------------------------------ *)
(* Prepared victims                                                    *)

(* Both victims are constants and compiling is a pure function of the
   scheme, so each (scheme, victim) is compiled and prepared once per
   process, on first use, and kept. The lock makes that exactly once
   across domains: a second compile would publish the harden.emit.*
   counters again, so a 2-worker trace would differ from a 1-worker one
   (and a [Lazy.t] raises when two domains force it at once). A new
   image equal to one already held is dropped for the held one: the ten
   schemes compile each victim to seven distinct programs. Module
   initialisation makes the empty table and the lock only. *)
let memo_lock = Mutex.create ()
let memo : (Scheme.t * bool, Machine.prepared) Hashtbl.t = Hashtbl.create 32

let prepared_victim scheme ~signal =
  Mutex.protect memo_lock (fun () ->
      match Hashtbl.find_opt memo (scheme, signal) with
      | Some p -> p
      | None ->
        let program = if signal then Victim.signal_program () else Victim.program () in
        let fresh = Machine.prepare (Compile.compile ~scheme program) in
        let image = Machine.prepared_image fresh in
        let p =
          Option.value ~default:fresh
            (Seq.find
               (fun held -> Image.equal image (Machine.prepared_image held))
               (Hashtbl.to_seq_values memo))
        in
        Hashtbl.replace memo (scheme, signal) p;
        p)

(* ------------------------------------------------------------------ *)
(* One fault under every scheme                                        *)

let run_one cfg (spec : Fault.spec) scheme keys_rng =
  match spec.site with
  | Fault.Signal_frame -> run_signal cfg spec scheme (prepared_victim scheme ~signal:true) keys_rng
  | Fault.Reload_window ->
    run_window cfg spec scheme (prepared_victim scheme ~signal:false) keys_rng
  | Fault.Ret_slot | Fault.Chain_spill | Fault.Cr_reg | Fault.Lr_reg | Fault.Shadow_slot
  | Fault.Pac_bits ->
    run_generic cfg spec scheme (prepared_victim scheme ~signal:false) keys_rng

(* One trace event per fault, keyed by its index — campaign sharding
   hands each index to exactly one worker, so the merged trace is
   deterministic at any worker count. *)
let obs_fault (spec : Fault.spec) results =
  if Obs.enabled () then begin
    Obs.Metrics.incr "inject.faults";
    List.iter
      (fun r ->
        Obs.Metrics.incr
          (Printf.sprintf "inject.%s{scheme=%s}"
             (classification_to_string r.classification)
             (Scheme.to_string r.scheme)))
      results;
    Obs.Trace.emit ~key:spec.Fault.index "inject.fault"
      [ ("site", Obs.Json.String (Fault.site_to_string spec.Fault.site));
        ( "classes",
          Obs.Json.List
            (List.map
               (fun r ->
                 Obs.Json.String (classification_to_string r.classification))
               results) )
      ]
  end;
  results

let run_fault cfg ~campaign_seed index =
  let spec = Fault.derive ~campaign_seed index in
  let keys = Fault.rng ~campaign_seed index in
  obs_fault spec
    (List.map
       (fun scheme -> { spec; scheme; classification = run_one cfg spec scheme (Rng.copy keys) })
       cfg.schemes)

(* ------------------------------------------------------------------ *)
(* Mergeable campaign statistics                                       *)

(* Constant-size sufficient statistics. Each cell holds counters plus a
   sketch of detection latencies, and each scheme keeps the reproducers
   of its [repro_cap] smallest silent fault indices, so a shard's summary
   is O(schemes x sites) however many faults it ran. [merge] is
   associative AND commutative:

   - counters and sketches add pointwise;
   - "keep the K smallest per scheme" commutes with union: the K
     smallest of a union are the K smallest of the per-part K smallest,
     in any grouping or order.

   Commutativity matters beyond worker-order independence: a campaign
   resumed from a compacted checkpoint folds the merged blob before the
   per-shard remainder, so fold order differs between an interrupted
   and an uninterrupted run, and the totals are still bit-identical. *)

let repro_cap = 32

(* 32 power-of-two buckets up to 2^31 cycles; longer latencies clamp
   into the last. *)
let latency_edges = Sketch.pow2 ~buckets:32

type cell = {
  detected : int;
  benign : int;
  silent : int;
  latency : Sketch.t;
}

let cell_zero = { detected = 0; benign = 0; silent = 0; latency = Sketch.empty latency_edges }

let cell_add a b =
  {
    detected = a.detected + b.detected;
    benign = a.benign + b.benign;
    silent = a.silent + b.silent;
    latency = Sketch.merge a.latency b.latency;
  }

type reproducer = { fault : int; scheme : string; site : string }

type stats = {
  faults : int;
  cells : (string * cell) list;  (** per scheme name, canonical order *)
  site_cells : ((string * string) * cell) list;
      (** per (site, scheme), site-major in Fault.all_sites order *)
  silents : reproducer list;  (** sorted by (fault, scheme), capped per scheme *)
}

let empty = { faults = 0; cells = []; site_cells = []; silents = [] }

let rank_of names n =
  let rec find i = function
    | [] -> List.length names
    | x :: rest -> if String.equal x n then i else find (i + 1) rest
  in
  find 0 names

let scheme_rank =
  let names = List.map Scheme.to_string Scheme.all in
  fun n -> rank_of names n

let site_rank =
  let names = List.map Fault.site_to_string (Array.to_list Fault.all_sites) in
  fun n -> rank_of names n

let scheme_order a b = compare (scheme_rank a, a) (scheme_rank b, b)

let site_order (sa, na) (sb, nb) =
  compare (site_rank sa, sa, scheme_rank na, na) (site_rank sb, sb, scheme_rank nb, nb)

let sort_cells cells = List.stable_sort (fun (a, _) (b, _) -> scheme_order a b) cells
let sort_site_cells cells = List.stable_sort (fun (a, _) (b, _) -> site_order a b) cells

(* The canonical reproducer list: sorted by (fault, scheme), keeping the
   [repro_cap] smallest fault indices of each scheme. *)
let cap_silents silents =
  let kept = Hashtbl.create 16 in
  List.filter
    (fun r ->
      let n = Option.value (Hashtbl.find_opt kept r.scheme) ~default:0 in
      Hashtbl.replace kept r.scheme (n + 1);
      n < repro_cap)
    (List.stable_sort (fun a b -> compare (a.fault, a.scheme) (b.fault, b.scheme)) silents)

(* Every [stats] value holds its cells sorted by [order], each key once,
   so the key's cell is bumped in place, or a fresh one inserted where a
   stable sort would put it, without sorting the list again. *)
let bump order cells key f =
  if List.mem_assoc key cells then
    List.map (fun (k, c) -> if k = key then (k, f c) else (k, c)) cells
  else
    let rec insert = function
      | ((k, _) as cell) :: rest when order k key <= 0 -> cell :: insert rest
      | rest -> (key, f cell_zero) :: rest
    in
    insert cells

let bump_cell = bump scheme_order
let bump_site_cell = bump site_order

let add_result stats (r : result) =
  let name = Scheme.to_string r.scheme in
  let site = Fault.site_to_string r.spec.Fault.site in
  let bump c =
    match r.classification with
    | Detected { latency; _ } ->
      { c with detected = c.detected + 1; latency = Sketch.record c.latency (float_of_int latency) }
    | Benign -> { c with benign = c.benign + 1 }
    | Silent -> { c with silent = c.silent + 1 }
  in
  let cells = bump_cell stats.cells name bump in
  let site_cells = bump_site_cell stats.site_cells (site, name) bump in
  let silents =
    match r.classification with
    | Silent -> cap_silents ({ fault = r.spec.Fault.index; scheme = name; site } :: stats.silents)
    | Detected _ | Benign -> stats.silents
  in
  { stats with cells; site_cells; silents }

let merge a b =
  let cells =
    List.fold_left (fun acc (n, c) -> bump_cell acc n (fun cur -> cell_add cur c)) a.cells b.cells
  in
  let site_cells =
    List.fold_left
      (fun acc (k, c) -> bump_site_cell acc k (fun cur -> cell_add cur c))
      a.site_cells b.site_cells
  in
  {
    faults = a.faults + b.faults;
    cells;
    site_cells;
    silents = cap_silents (a.silents @ b.silents);
  }

(* Derived, not stored: keeps [merge] pointwise with no cross-field
   invariant to maintain. *)
let repro_dropped s =
  List.fold_left (fun n (_, c) -> n + c.silent) 0 s.cells - List.length s.silents

let run_range cfg ~campaign_seed ~first ~count =
  (* detection latencies reach ~2^14 cycles on these victims; the top
     bucket must not clamp them (pinned in test_inject) *)
  if Obs.enabled () then
    Obs.Metrics.register_histogram "inject.detect_latency" ~lo:0. ~hi:32768. ~buckets:20;
  List.fold_left
    (fun stats index ->
      let results = run_fault cfg ~campaign_seed index in
      if Obs.enabled () then
        List.iter
          (fun r ->
            match r.classification with
            | Detected { latency; _ } ->
              Obs.Metrics.observe "inject.detect_latency" (float_of_int latency)
            | Benign | Silent -> ())
          results;
      List.fold_left add_result { stats with faults = stats.faults + 1 } results)
    empty
    (List.init count (fun k -> first + k))

(* ------------------------------------------------------------------ *)
(* JSON codec (campaign checkpoint payload)                            *)

let reproducer_to_json r =
  Json.Obj
    [
      ("fault", Json.Int r.fault);
      ("scheme", Json.String r.scheme);
      ("site", Json.String r.site);
    ]

let cell_fields c =
  [
    ("detected", Json.Int c.detected);
    ("benign", Json.Int c.benign);
    ("silent", Json.Int c.silent);
    ("latency", Json.of_sketch c.latency);
  ]

let stats_to_json s =
  Json.Obj
    [
      ("faults", Json.Int s.faults);
      ( "cells",
        Json.List
          (List.map (fun (n, c) -> Json.Obj (("scheme", Json.String n) :: cell_fields c)) s.cells)
      );
      ( "site_cells",
        Json.List
          (List.map
             (fun ((site, n), c) ->
               Json.Obj (("site", Json.String site) :: ("scheme", Json.String n) :: cell_fields c))
             s.site_cells) );
      ("silents", Json.List (List.map reproducer_to_json s.silents));
    ]

(* A checkpoint line is trusted only if some campaign could have written
   it: no negative count, a latency sketch that {!Json.to_sketch} accepts
   holding one sample per detection, and no scheme with more retained
   reproducers than silents. Anything else decodes to [None], so the
   campaign re-runs the shard as it would a torn line. *)
let valid_cell c =
  c.detected >= 0 && c.benign >= 0 && c.silent >= 0
  && c.latency.Sketch.count = c.detected
  && c.latency.Sketch.sum >= 0.0

let valid s =
  let retained name = List.length (List.filter (fun r -> String.equal r.scheme name) s.silents) in
  s.faults >= 0
  && List.for_all (fun (_, c) -> valid_cell c) s.cells
  && List.for_all (fun (_, c) -> valid_cell c) s.site_cells
  && List.for_all (fun r -> List.mem_assoc r.scheme s.cells) s.silents
  && List.for_all (fun (n, c) -> retained n <= c.silent) s.cells

let stats_of_json j =
  let ( let* ) = Option.bind in
  let int k o = Option.bind (Json.member k o) Json.to_int in
  let str k o = Option.bind (Json.member k o) Json.to_str in
  let list k o f =
    let* items = Option.bind (Json.member k o) Json.to_list in
    List.fold_right
      (fun x acc ->
        let* acc = acc in
        let* y = f x in
        Some (y :: acc))
      items (Some [])
  in
  let cell o =
    let* detected = int "detected" o in
    let* benign = int "benign" o in
    let* silent = int "silent" o in
    let* latency = Option.bind (Json.member "latency" o) (Json.to_sketch ~edges:latency_edges) in
    Some { detected; benign; silent; latency }
  in
  let* faults = int "faults" j in
  let* cells =
    list "cells" j (fun o ->
        let* n = str "scheme" o in
        let* c = cell o in
        Some (n, c))
  in
  let* site_cells =
    list "site_cells" j (fun o ->
        let* site = str "site" o in
        let* n = str "scheme" o in
        let* c = cell o in
        Some ((site, n), c))
  in
  let* silents =
    list "silents" j (fun o ->
        let* fault = int "fault" o in
        let* scheme = str "scheme" o in
        let* site = str "site" o in
        Some { fault; scheme; site })
  in
  let s = { faults; cells; site_cells; silents } in
  if not (valid s) then None
  else
    Some
      {
        s with
        cells = sort_cells cells;
        site_cells = sort_site_cells site_cells;
        silents = cap_silents silents;
      }

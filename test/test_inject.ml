(* Tests for lib/inject: deterministic fault derivation, engine
   classification (including the paper's reload-window asymmetry between
   the masked and unmasked PACStack variants), the campaign wiring, and
   the exact trap paths of corrupted returns. *)

module Rng = Pacstack_util.Rng
module Sketch = Pacstack_util.Sketch
module Config = Pacstack_pa.Config
module Reg = Pacstack_isa.Reg
module Instr = Pacstack_isa.Instr
module Scheme = Pacstack_harden.Scheme
module Machine = Pacstack_machine.Machine
module Memory = Pacstack_machine.Memory
module Image = Pacstack_machine.Image
module Trap = Pacstack_machine.Trap
module Compile = Pacstack_minic.Compile
module Fault = Pacstack_inject.Fault
module Victim = Pacstack_inject.Victim
module Engine = Pacstack_inject.Engine
module Campaign = Pacstack_campaign.Campaign
module Json = Pacstack_campaign.Json
module Plans = Pacstack_report.Plans
module Obs = Pacstack_obs.Obs

let temp_manifest () = Filename.temp_file "pacstack_inject" ".ck"

let classification = Alcotest.testable
    (fun fmt c -> Format.pp_print_string fmt (Engine.classification_to_string c))
    (fun a b ->
      match (a, b) with
      | Engine.Detected _, Engine.Detected _ -> true
      | Engine.Benign, Engine.Benign | Engine.Silent, Engine.Silent -> true
      | _ -> false)

let first_site_index ~campaign_seed site =
  let rec go i =
    if i > 1000 then Alcotest.failf "no %s fault in 1000 indices" (Fault.site_to_string site)
    else if (Fault.derive ~campaign_seed i).Fault.site = site then i
    else go (i + 1)
  in
  go 0

(* --- fault derivation ----------------------------------------------------- *)

let test_derive_deterministic () =
  for i = 0 to 31 do
    let a = Fault.derive ~campaign_seed:9L i in
    let b = Fault.derive ~campaign_seed:9L i in
    Alcotest.(check bool) "specs equal" true (a = b);
    Alcotest.(check int) "index recorded" i a.Fault.index;
    Alcotest.(check bool) "trigger in (0,1)" true (a.Fault.trigger > 0. && a.Fault.trigger < 1.);
    Alcotest.(check bool) "flip nonzero" true (a.Fault.flip <> 0L)
  done;
  (* different seeds and indices give different streams *)
  Alcotest.(check bool) "seed matters" true
    (List.init 16 (Fault.derive ~campaign_seed:9L) <> List.init 16 (Fault.derive ~campaign_seed:10L))

let test_site_string_roundtrip () =
  Array.iter
    (fun site ->
      Alcotest.(check bool) "roundtrip" true
        (Fault.site_of_string (Fault.site_to_string site) = Some site))
    Fault.all_sites;
  Alcotest.(check bool) "unknown rejected" true (Fault.site_of_string "nonsense" = None)

(* --- engine classification ------------------------------------------------ *)

let test_run_fault_deterministic () =
  let cfg = Engine.default_config in
  for i = 0 to 5 do
    let a = Engine.run_fault cfg ~campaign_seed:3L i in
    let b = Engine.run_fault cfg ~campaign_seed:3L i in
    List.iter2
      (fun (x : Engine.result) (y : Engine.result) ->
        Alcotest.check classification
          (Printf.sprintf "fault %d under %s" i (Scheme.to_string x.Engine.scheme))
          x.Engine.classification y.Engine.classification)
      a b
  done

(* The §5.2/§6.1 headline: the same reload-window substitution is silent
   under the unmasked variant (the adversary collision-matches harvested
   aret values at the observable pac_bits = 4) but is caught — or lands
   benign — under the masked variant, where the spilled tokens are
   opaque and the pick succeeds only with probability 2^-b. *)
let test_window_masked_vs_unmasked () =
  let seed = 42L in
  let idx = first_site_index ~campaign_seed:seed Fault.Reload_window in
  let cfg = { Engine.default_config with Engine.schemes = [ Scheme.pacstack_nomask; Scheme.pacstack ] } in
  match Engine.run_fault cfg ~campaign_seed:seed idx with
  | [ nomask; masked ] ->
    Alcotest.check classification "unmasked pacstack: silent corruption" Engine.Silent
      nomask.Engine.classification;
    Alcotest.(check bool) "masked pacstack: detected or benign" true
      (match masked.Engine.classification with
      | Engine.Detected _ | Engine.Benign -> true
      | Engine.Silent -> false)
  | _ -> Alcotest.fail "expected two results"

(* The same window fault is silent under every non-authenticating
   scheme: the harvested control words are valid for reuse. *)
let test_window_silent_without_authentication () =
  let seed = 42L in
  let idx = first_site_index ~campaign_seed:seed Fault.Reload_window in
  let cfg =
    {
      Engine.default_config with
      Engine.schemes = [ Scheme.unprotected; Scheme.branch_protection; Scheme.shadow_stack ];
    }
  in
  List.iter
    (fun (r : Engine.result) ->
      Alcotest.check classification
        (Scheme.to_string r.Engine.scheme ^ ": window reuse is silent")
        Engine.Silent r.Engine.classification)
    (Engine.run_fault cfg ~campaign_seed:seed idx)

(* Signal-frame forgery: killed by the Appendix B chain under PACStack,
   never detected as such under an unprotected kernel. *)
let test_signal_frame_chained_vs_unprotected () =
  let seed = 42L in
  let idx = first_site_index ~campaign_seed:seed Fault.Signal_frame in
  let cfg =
    { Engine.default_config with Engine.schemes = [ Scheme.unprotected; Scheme.pacstack ] }
  in
  match Engine.run_fault cfg ~campaign_seed:seed idx with
  | [ unprotected; pacstack ] ->
    Alcotest.(check bool) "unprotected kernel never reports sigreturn-kill" true
      (match unprotected.Engine.classification with
      | Engine.Detected { cause; _ } -> cause <> "sigreturn-kill"
      | Engine.Benign | Engine.Silent -> true);
    Alcotest.(check bool) "pacstack kernel kills the forged frame" true
      (match pacstack.Engine.classification with
      | Engine.Detected { cause; _ } -> cause = "sigreturn-kill"
      | Engine.Benign | Engine.Silent -> false)
  | _ -> Alcotest.fail "expected two results"

(* --- trap paths of corrupted returns -------------------------------------- *)

(* Run the victim with one corruption applied at the first window-hook
   firing, observing every instruction boundary so the faulting
   instruction is known exactly. Returns (outcome, last instruction
   fetched before the outcome). *)
let run_corrupted ~scheme ~corrupt =
  let compiled = Compile.compile ~scheme (Victim.program ()) in
  let m = Machine.load ~cfg:(Config.make ~pac_bits:4 ()) compiled in
  let fired = ref false in
  Machine.attach_hook m Victim.window_hook (fun hm ->
      if not !fired then begin
        fired := true;
        corrupt hm
      end);
  let last = ref None in
  let observe m =
    (match Image.fetch (Machine.image m) (Machine.pc m) with
    | Some instr -> last := Some instr
    | None -> ());
    false
  in
  match Machine.run_until m ~stop:observe with
  | Some outcome -> (outcome, !last)
  | None -> Alcotest.fail "the observer stopped the run"

let xor_mem m addr pattern =
  let mem = Machine.memory m in
  Memory.store64 mem addr (Int64.logxor (Memory.load64 mem addr) pattern)

let is_ret = function Some (Instr.Ret _) -> true | _ -> false

(* PACStack: corrupting the spilled chain value changes the [autia]
   modifier in the epilogue that reloads it; the authenticated LR comes
   out non-canonical and the subsequent [ret] raises a translation
   fault on the instruction fetch.  (The other trap variants are not
   reachable from a corrupted aret: the error bit makes the pointer
   non-canonical before any mapping or permission question arises, and
   returns are not subject to the forward-edge CFI check, so
   [Cfi_violation] and [Undefined] cannot fire on this path.) *)
let test_pacstack_chain_corruption_trap () =
  List.iter
    (fun scheme ->
      let outcome, last =
        run_corrupted ~scheme ~corrupt:(fun hm ->
            xor_mem hm (Int64.sub (Machine.get hm Reg.fp) 16L) 4L)
      in
      (match outcome with
      | Machine.Faulted (Trap.Translation (addr, Trap.Execute)) ->
        Alcotest.(check bool) "faulting address is non-canonical" true
          (Int64.logand addr Int64.min_int <> 0L || Int64.shift_right_logical addr 55 <> 0L)
      | other ->
        Alcotest.failf "%s: expected translation fault, got %s" (Scheme.to_string scheme)
          (match other with
          | Machine.Faulted t -> Trap.to_string t
          | Machine.Halted c -> Printf.sprintf "exit %d" c
          | Machine.Out_of_fuel -> "out of fuel"));
      Alcotest.(check bool) "trap raised at the ret" true (is_ret last))
    [ Scheme.pacstack; Scheme.pacstack_nomask ]

(* Shadow stack: the shadow value is authoritative on return, so a
   corrupted top entry redirects the [ret].  A flip into unmapped space
   raises [Unmapped]; pointing the entry at a mapped rw data object
   raises [Permission] (execute of non-executable memory). *)
let test_shadow_corruption_traps () =
  let top hm = Int64.sub (Machine.get hm Reg.shadow) 8L in
  let outcome, last =
    run_corrupted ~scheme:Scheme.shadow_stack ~corrupt:(fun hm ->
        xor_mem hm (top hm) (Int64.shift_left 1L 30))
  in
  (match outcome with
  | Machine.Faulted (Trap.Unmapped (_, Trap.Execute)) -> ()
  | other ->
    Alcotest.failf "expected unmapped fault, got %s"
      (match other with
      | Machine.Faulted t -> Trap.to_string t
      | Machine.Halted c -> Printf.sprintf "exit %d" c
      | Machine.Out_of_fuel -> "out of fuel"));
  Alcotest.(check bool) "unmapped trap at the ret" true (is_ret last);
  let outcome, last =
    run_corrupted ~scheme:Scheme.shadow_stack ~corrupt:(fun hm ->
        let guard = Option.get (Image.symbol (Machine.image hm) Machine.canary_symbol) in
        Memory.store64 (Machine.memory hm) (top hm) guard)
  in
  (match outcome with
  | Machine.Faulted (Trap.Permission (_, Trap.Execute)) -> ()
  | other ->
    Alcotest.failf "expected permission fault, got %s"
      (match other with
      | Machine.Faulted t -> Trap.to_string t
      | Machine.Halted c -> Printf.sprintf "exit %d" c
      | Machine.Out_of_fuel -> "out of fuel"));
  Alcotest.(check bool) "permission trap at the ret" true (is_ret last)

(* --- campaign wiring ------------------------------------------------------ *)

let stats_equal (a : Engine.stats) (b : Engine.stats) = a = b

let test_campaign_worker_independence () =
  let plan () = Plans.inject_plan ~faults:10 ~shards:4 ~seed:5L () in
  let t1 = Plans.inject_totals (Campaign.run ~workers:1 (plan ())) in
  let t4 =
    Instrumented.run (fun progress ->
        Plans.inject_totals (Campaign.run ~workers:4 ~progress (plan ())))
  in
  Alcotest.(check bool) "1 worker = traced 4 workers" true (stats_equal t1 t4);
  Alcotest.(check int) "all faults ran" 10 t1.Engine.faults

let test_campaign_resume_identical () =
  let path = temp_manifest () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let plan () = Plans.inject_plan ~faults:8 ~shards:4 ~seed:5L () in
      let run () =
        Plans.inject_totals
          (Campaign.run ~workers:1 ~checkpoint:(path, Plans.inject_codec) (plan ()))
      in
      let first = run () in
      let resumed_outcome =
        Campaign.run ~workers:1 ~checkpoint:(path, Plans.inject_codec) (plan ())
      in
      Alcotest.(check int) "all shards restored" 4 resumed_outcome.Campaign.resumed;
      Alcotest.(check bool) "resume = uninterrupted" true
        (stats_equal first (Plans.inject_totals resumed_outcome)))

(* A planted always-silent fault (the test-only tamper hook corrupts
   observable output without touching any control word) must surface as
   silent corruption under every scheme — this is what the CLI gate and
   the CI campaign would catch with exit 1. *)
let test_planted_tamper_is_caught () =
  let tamper m = Machine.push_output m 999L in
  let faults = 4 in
  let outcome =
    Campaign.run ~workers:1
      (Plans.inject_plan ~schemes:[ Scheme.pacstack ] ~tamper ~faults ~shards:2 ~seed:5L ())
  in
  let totals = Plans.inject_totals outcome in
  let cell = List.assoc (Scheme.to_string Scheme.pacstack) totals.Engine.cells in
  Alcotest.(check int) "every planted fault is silent" faults cell.Engine.silent;
  Alcotest.(check int) "gate finds reproducers" faults (List.length totals.Engine.silents)

(* Regression (satellite fix): Signal_frame / Reload_window leaking into
   the generic injector used to die on [assert false] — an anonymous
   Assert_failure at engine.ml with no hint of which fault was misrouted.
   The typed error names the fault index and site, and because it is an
   ordinary exception the pool classifies it as a Crashed outcome
   (quarantining the shard) instead of killing the whole campaign. *)
let test_misrouted_site_names_culprit () =
  let contains msg needle =
    let n = String.length needle in
    let rec go i = i + n <= String.length msg && (String.sub msg i n = needle || go (i + 1)) in
    go 0
  in
  let check site label =
    let msg = Printexc.to_string (Engine.Misrouted_site { index = 42; site }) in
    Alcotest.(check bool) ("names the fault: " ^ msg) true (contains msg "fault 42");
    Alcotest.(check bool) ("names the site: " ^ msg) true (contains msg label)
  in
  check Fault.Signal_frame "signal-frame";
  check Fault.Reload_window "reload-window"

(* A hand-corrupted checkpoint line describes statistics no campaign
   can produce; the codec must reject it so the shard re-runs, exactly
   as a torn line would, instead of poisoning (or crashing) the totals. *)
let test_corrupted_checkpoint_line_reruns () =
  let path = temp_manifest () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let plan () = Plans.inject_plan ~faults:8 ~shards:4 ~seed:5L () in
      let run () = Campaign.run ~workers:1 ~checkpoint:(path, Plans.inject_codec) (plan ()) in
      let clean = Plans.inject_totals (run ()) in
      let corrupt f line =
        match Json.parse line with
        | Ok (Json.Obj fields) when List.mem_assoc "shard" fields ->
          Json.to_string
            (Json.Obj
               (List.map
                  (fun (k, v) ->
                    if k <> "result" then (k, v)
                    else
                      match Engine.stats_of_json v with
                      | Some s -> (k, Engine.stats_to_json (f s))
                      | None -> Alcotest.fail "clean shard line did not decode")
                  fields))
        | _ -> line
      in
      let map_cells f (s : Engine.stats) =
        { s with Engine.cells = List.map (fun (n, c) -> (n, f c)) s.Engine.cells }
      in
      let negative_silent = map_cells (fun c -> { c with Engine.silent = -3 }) in
      let zeroed_hist =
        map_cells (fun c ->
            let l = c.Engine.latency in
            { c with Engine.latency = { l with Sketch.counts = Array.map (fun _ -> 0) l.Sketch.counts } })
      in
      let lines = In_channel.with_open_text path In_channel.input_lines in
      Out_channel.with_open_text path (fun oc ->
          List.iteri
            (fun i l ->
              let l =
                if i = 1 then corrupt negative_silent l
                else if i = 2 then corrupt zeroed_hist l
                else l
              in
              Out_channel.output_string oc (l ^ "\n"))
            lines);
      let resumed = run () in
      Alcotest.(check int) "both corrupted shards re-ran" 2 resumed.Campaign.resumed;
      Alcotest.(check bool) "totals = clean run" true
        (stats_equal clean (Plans.inject_totals resumed)))

(* The reproducer cap is per scheme: masked pacstack's two blind 2^-4
   window picks at seed 7 both survive, although all schemes together
   have far more silents than one global 32-entry cap would hold. The
   full list comes from running pacstack alone — each scheme's
   classification is independent of the others'. *)
let test_per_scheme_cap_keeps_gated_reproducers () =
  let faults = 120 and pacstack = Scheme.to_string Scheme.pacstack in
  let totals = Plans.inject_totals (Campaign.run (Plans.inject_plan ~faults ~seed:7L ())) in
  let retained =
    List.filter_map
      (fun (r : Engine.reproducer) ->
        if r.Engine.scheme = pacstack then Some r.Engine.fault else None)
      totals.Engine.silents
  in
  let cfg = { Engine.default_config with schemes = [ Scheme.pacstack ] } in
  let full =
    List.filter
      (fun i ->
        List.exists
          (fun (r : Engine.result) -> r.Engine.classification = Engine.Silent)
          (Engine.run_fault cfg ~campaign_seed:7L i))
      (List.init faults Fun.id)
  in
  Alcotest.(check (list int)) "retained = every pacstack silent" full retained;
  Alcotest.(check int) "two blind window picks" 2 (List.length full);
  Alcotest.(check bool) "more retained than one global cap would hold" true
    (List.length totals.Engine.silents > Engine.repro_cap)

(* --- statistics ----------------------------------------------------------- *)

let test_stats_json_roundtrip () =
  let stats = Engine.run_range Engine.default_config ~campaign_seed:7L ~first:0 ~count:8 in
  match Engine.stats_of_json (Engine.stats_to_json stats) with
  | None -> Alcotest.fail "stats did not parse back"
  | Some parsed -> Alcotest.(check bool) "roundtrip" true (stats_equal stats parsed)

let test_stats_merge_order_independent () =
  let cfg = Engine.default_config in
  let a = Engine.run_range cfg ~campaign_seed:7L ~first:0 ~count:4 in
  let b = Engine.run_range cfg ~campaign_seed:7L ~first:4 ~count:4 in
  let c = Engine.run_range cfg ~campaign_seed:7L ~first:8 ~count:4 in
  let left = Engine.merge (Engine.merge a b) c in
  let right = Engine.merge a (Engine.merge b c) in
  let swapped = Engine.merge (Engine.merge c b) a in
  Alcotest.(check bool) "associative" true (stats_equal left right);
  Alcotest.(check bool) "commutative" true (stats_equal left swapped);
  Alcotest.(check int) "all faults counted" 12 left.Engine.faults;
  let whole = Engine.run_range cfg ~campaign_seed:7L ~first:0 ~count:12 in
  Alcotest.(check bool) "grouping-free" true (stats_equal left whole)

(* A shard's statistics equal the fold of [run_fault] over the same
   faults through [add_result], byte for byte. *)
let test_range_equals_fault_fold () =
  let cfg = Engine.default_config in
  let range = Engine.run_range cfg ~campaign_seed:7L ~first:0 ~count:64 in
  let folded =
    List.fold_left
      (fun s i ->
        List.fold_left Engine.add_result
          { s with Engine.faults = s.Engine.faults + 1 }
          (Engine.run_fault cfg ~campaign_seed:7L i))
      Engine.empty (List.init 64 Fun.id)
  in
  Alcotest.(check string) "range = fold of run_fault"
    (Json.to_string (Engine.stats_to_json folded))
    (Json.to_string (Engine.stats_to_json range));
  Alcotest.(check int) "the range covers every site" (Array.length Fault.all_sites)
    (List.length
       (List.sort_uniq compare (List.map (fun ((site, _), _) -> site) range.Engine.site_cells)));
  Alcotest.(check bool) "an empty range is empty" true
    (Engine.run_range cfg ~campaign_seed:7L ~first:5 ~count:0 = Engine.empty)

(* --- the victim memo -------------------------------------------------------- *)

let emitted () =
  List.fold_left
    (fun n (name, v) ->
      match v with
      | Obs.Metrics.Counter c when String.starts_with ~prefix:"harden.emit." name -> n + c
      | _ -> n)
    0 (Obs.Metrics.snapshot ())

(* A second shard over the same faults in one process runs on the
   memo's prepared victims: byte-identical statistics, and no compile,
   so no harden.emit.* count. *)
let test_second_run_warm () =
  let cfg = Engine.default_config in
  let json () =
    Json.to_string (Engine.stats_to_json (Engine.run_range cfg ~campaign_seed:7L ~first:0 ~count:24))
  in
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      let first = json () in
      let compiled = emitted () in
      let second = json () in
      Alcotest.(check string) "second run's statistics" first second;
      Alcotest.(check int) "harden.emit.* counts after the second run" compiled (emitted ()))

(* Schemes whose victims compile to the same program share one physical
   prepared value, and schemes whose victims differ do not. *)
let test_victim_sharing_exact () =
  List.iter
    (fun (signal, program) ->
      let compiled = List.map (fun s -> (s, Compile.compile ~scheme:s (program ()))) Scheme.all in
      let distinct_programs = List.sort_uniq compare (List.map snd compiled) in
      List.iter
        (fun (a, pa) ->
          List.iter
            (fun (b, pb) ->
              let shared = Engine.prepared_victim a ~signal == Engine.prepared_victim b ~signal in
              if shared <> (pa = pb) then
                Alcotest.failf "signal=%b: %a and %a: same program %b, shared %b" signal
                  Scheme.pp a Scheme.pp b (pa = pb) shared)
            compiled)
        compiled;
      Alcotest.(check bool)
        (Printf.sprintf "signal=%b: fewer distinct victims than schemes" signal)
        true
        (List.length distinct_programs < List.length Scheme.all))
    [ (false, Victim.program); (true, Victim.signal_program) ]

(* The obs latency histogram spans every detection of the
   [inject -n 120 --seed 7] campaign: nothing clamps into its top
   bucket. *)
let test_obs_latency_not_clamped () =
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      let stats =
        Engine.run_range Engine.default_config ~campaign_seed:7L ~first:0 ~count:120
      in
      match Obs.Metrics.find "inject.detect_latency" with
      | Some (Obs.Metrics.Histogram { Sketch.counts; count = total; _ }) ->
        Alcotest.(check int) "every detection observed"
          (List.fold_left (fun n (_, (c : Engine.cell)) -> n + c.Engine.detected) 0
             stats.Engine.cells)
          total;
        Alcotest.(check int) "top bucket empty" 0 counts.(Array.length counts - 1)
      | _ -> Alcotest.fail "no inject.detect_latency histogram")

(* --- constant-size guarantees (mega-campaign scale) ------------------------ *)

(* What lets one statistics type serve any campaign size: the retained
   reproducers stay bounded per scheme however many silent events
   accumulate, and latency tails come from a fixed histogram. *)

let test_reproducer_cap () =
  let silent_result fault =
    { Engine.spec = Fault.derive ~campaign_seed:1L fault;
      scheme = Scheme.unprotected;
      classification = Engine.Silent }
  in
  let t =
    List.fold_left
      (fun t i -> Engine.add_result t (silent_result i))
      Engine.empty
      (List.init (2 * Engine.repro_cap) (fun i -> i))
  in
  Alcotest.(check int) "capped" Engine.repro_cap (List.length t.Engine.silents);
  Alcotest.(check int) "dropped = silent - kept" Engine.repro_cap (Engine.repro_dropped t);
  List.iteri
    (fun i (r : Engine.reproducer) ->
      Alcotest.(check int) "smallest keys kept, sorted" i r.Engine.fault)
    t.Engine.silents;
  let other =
    Engine.add_result t { (silent_result 99) with Engine.scheme = Scheme.pacstack }
  in
  Alcotest.(check int) "the cap is per scheme" (Engine.repro_cap + 1)
    (List.length other.Engine.silents)

(* A summary that has outgrown the reproducer cap under two schemes,
   with detections spread over the whole latency range (saturating the
   last histogram bucket) — the shape a mega-campaign shard reaches. *)
let capped_summary ~first ~count =
  List.fold_left
    (fun t i ->
      let scheme = if i mod 3 = 0 then Scheme.pacstack else Scheme.unprotected in
      let classification =
        if i mod 4 <> 3 then Engine.Silent
        else
          let latency = if i mod 8 = 7 then 1 lsl 40 else i * 977 in
          Engine.Detected { cause = "auth"; latency }
      in
      Engine.add_result t { Engine.spec = Fault.derive ~campaign_seed:1L i; scheme; classification })
    Engine.empty
    (List.init count (fun k -> first + k))

let test_mega_json_roundtrip () =
  let t = capped_summary ~first:0 ~count:(8 * Engine.repro_cap) in
  Alcotest.(check bool) "cap reached" true (Engine.repro_dropped t > 0);
  match Engine.stats_of_json (Engine.stats_to_json t) with
  | None -> Alcotest.fail "capped summary did not parse back"
  | Some parsed ->
    Alcotest.(check bool) "roundtrip" true (stats_equal t parsed);
    Alcotest.(check int) "dropped count survives" (Engine.repro_dropped t)
      (Engine.repro_dropped parsed);
    Alcotest.(check bool) "saturated bucket survives" true
      (List.exists
         (fun ((_ : string), (c : Engine.cell)) ->
           let counts = c.Engine.latency.Sketch.counts in
           counts.(Array.length counts - 1) > 0)
         parsed.Engine.cells)

(* Merging capped shards in any order and grouping equals folding every
   result into one summary: the cap drops the same reproducers either
   way, so a mega campaign's result does not depend on its sharding. *)
let test_mega_merge_order_independent () =
  let n = 4 * Engine.repro_cap in
  let a = capped_summary ~first:0 ~count:n in
  let b = capped_summary ~first:n ~count:n in
  let c = capped_summary ~first:(2 * n) ~count:n in
  let left = Engine.merge (Engine.merge a b) c in
  let right = Engine.merge a (Engine.merge b c) in
  let swapped = Engine.merge c (Engine.merge b a) in
  Alcotest.(check bool) "associative" true (stats_equal left right);
  Alcotest.(check bool) "commutative" true (stats_equal left swapped);
  Alcotest.(check bool) "grouping-free" true
    (stats_equal left (capped_summary ~first:0 ~count:(3 * n)));
  Alcotest.(check bool) "every shard was capped" true
    (List.for_all (fun s -> Engine.repro_dropped s > 0) [ a; b; c ])

(* The engine's latency layout: bucket 0 holds [0, 1) and bucket b >= 1
   holds [2^(b-1), 2^b), saturating at the last bucket; a cell's bucket
   mass is its detection count and its p95 is finite when it detected. *)
let test_latency_histogram () =
  let stats = Engine.run_range Engine.default_config ~campaign_seed:7L ~first:0 ~count:8 in
  List.iter
    (fun ((_ : string), (c : Engine.cell)) ->
      let l = c.Engine.latency in
      let bucket n = Sketch.bucket l (float_of_int n) in
      Alcotest.(check int) "latency 0" 0 (bucket 0);
      Alcotest.(check int) "latency 1" 1 (bucket 1);
      Alcotest.(check int) "latency 2" 2 (bucket 2);
      Alcotest.(check int) "latency 3" 2 (bucket 3);
      Alcotest.(check int) "latency 4" 3 (bucket 4);
      Alcotest.(check int) "latency 5" 3 (bucket 5);
      Alcotest.(check int) "max_int saturates" (Array.length l.Sketch.counts - 1) (bucket max_int);
      Alcotest.(check int) "histogram mass = detections" c.Engine.detected
        (Array.fold_left ( + ) 0 l.Sketch.counts);
      if c.Engine.detected > 0 then begin
        let p = Sketch.percentile l 95.0 in
        Alcotest.(check bool) "p95 non-negative and finite" true (p >= 0. && Float.is_finite p)
      end)
    stats.Engine.cells

(* The p95 of the inject table never leaves the latencies it summarises:
   per scheme, the sketch's p95 over [inject -n 120 --seed 7] lies within
   the smallest and largest detection latency [run_fault] reports for
   the same faults (interpolating inside the top bucket alone would
   overshoot the maximum for six schemes). *)
let test_p95_within_observed_latencies () =
  let cfg = Engine.default_config in
  let stats = Engine.run_range cfg ~campaign_seed:7L ~first:0 ~count:120 in
  let observed = Hashtbl.create 16 in
  for i = 0 to 119 do
    List.iter
      (fun (r : Engine.result) ->
        match r.Engine.classification with
        | Engine.Detected { latency; _ } ->
          Hashtbl.add observed (Scheme.to_string r.Engine.scheme) (float_of_int latency)
        | Engine.Benign | Engine.Silent -> ())
      (Engine.run_fault cfg ~campaign_seed:7L i)
  done;
  List.iter
    (fun (name, (c : Engine.cell)) ->
      let xs = Hashtbl.find_all observed name in
      Alcotest.(check int) (name ^ ": one sample per detection") (List.length xs)
        c.Engine.latency.Sketch.count;
      if xs <> [] then begin
        let lo = List.fold_left Float.min infinity xs and hi = List.fold_left Float.max 0.0 xs in
        let p95 = Sketch.percentile c.Engine.latency 95.0 in
        if p95 < lo || p95 > hi then
          Alcotest.failf "%s: p95 %g outside the observed [%g, %g]" name p95 lo hi
      end)
    stats.Engine.cells

let () =
  Alcotest.run "inject"
    [
      ( "fault",
        [
          Alcotest.test_case "derivation deterministic" `Quick test_derive_deterministic;
          Alcotest.test_case "site strings roundtrip" `Quick test_site_string_roundtrip;
        ] );
      ( "engine",
        [
          Alcotest.test_case "run_fault deterministic" `Quick test_run_fault_deterministic;
          Alcotest.test_case "window: masked vs unmasked" `Quick test_window_masked_vs_unmasked;
          Alcotest.test_case "window: silent without authentication" `Quick
            test_window_silent_without_authentication;
          Alcotest.test_case "signal frame: chained vs unprotected" `Quick
            test_signal_frame_chained_vs_unprotected;
        ] );
      ( "traps",
        [
          Alcotest.test_case "pacstack chain corruption" `Quick
            test_pacstack_chain_corruption_trap;
          Alcotest.test_case "shadow slot corruption" `Quick test_shadow_corruption_traps;
          Alcotest.test_case "misrouted site names the culprit" `Quick
            test_misrouted_site_names_culprit;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "worker independence" `Quick test_campaign_worker_independence;
          Alcotest.test_case "resume identical" `Quick test_campaign_resume_identical;
          Alcotest.test_case "planted tamper caught" `Quick test_planted_tamper_is_caught;
          Alcotest.test_case "corrupted checkpoint line re-runs" `Quick
            test_corrupted_checkpoint_line_reruns;
          Alcotest.test_case "per-scheme cap keeps gated reproducers" `Quick
            test_per_scheme_cap_keeps_gated_reproducers;
        ] );
      ( "stats",
        [
          Alcotest.test_case "json roundtrip" `Quick test_stats_json_roundtrip;
          Alcotest.test_case "merge order independent" `Quick test_stats_merge_order_independent;
          Alcotest.test_case "range = run_fault fold" `Quick test_range_equals_fault_fold;
          Alcotest.test_case "obs latency histogram does not clamp" `Quick
            test_obs_latency_not_clamped;
          Alcotest.test_case "p95 within observed latencies" `Quick
            test_p95_within_observed_latencies;
        ] );
      ( "victims",
        [
          Alcotest.test_case "second run is warm and identical" `Quick test_second_run_warm;
          Alcotest.test_case "sharing is exact" `Quick test_victim_sharing_exact;
        ] );
      ( "mega",
        [
          Alcotest.test_case "merge order independent" `Quick
            test_mega_merge_order_independent;
          Alcotest.test_case "json roundtrip" `Quick test_mega_json_roundtrip;
          Alcotest.test_case "reproducer cap" `Quick test_reproducer_cap;
          Alcotest.test_case "latency histogram" `Quick test_latency_histogram;
        ] );
    ]

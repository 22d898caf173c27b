(* Tests for the ACS core: the chained-token data structure, the closed
   forms and the Monte-Carlo security games against their §4/§6
   expectations. *)

module Word64 = Pacstack_util.Word64
module Rng = Pacstack_util.Rng
module Config = Pacstack_pa.Config
module Prf = Pacstack_pa.Prf
module Chain = Pacstack_acs.Chain
module Analysis = Pacstack_acs.Analysis
module Games = Pacstack_acs.Games

let qtest name count gen prop = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

let cfg = Config.default
let fresh_chain ?masked ?seed () = Chain.create ?masked ?seed ~cfg (Prf.create 0xc4a1L)

let ret_gen = QCheck2.Gen.(map (fun a -> Int64.logor 4L (Int64.logand (Int64.of_int a) (Word64.mask 39))) int)

(* --- Chain ------------------------------------------------------------------ *)

let test_chain_push_pop () =
  let c = fresh_chain () in
  Chain.push c ~ret:0x1000L;
  Chain.push c ~ret:0x2000L;
  Alcotest.(check int) "depth" 2 (Chain.depth c);
  (match Chain.pop c with
  | Ok ret -> Alcotest.(check int64) "inner ret" 0x2000L ret
  | Error _ -> Alcotest.fail "verification failed");
  (match Chain.pop c with
  | Ok ret -> Alcotest.(check int64) "outer ret" 0x1000L ret
  | Error _ -> Alcotest.fail "verification failed");
  Alcotest.(check int) "empty" 0 (Chain.depth c)

let prop_chain_lifo =
  qtest "deep chains verify in LIFO order" 50
    QCheck2.Gen.(list_size (int_range 1 40) ret_gen)
    (fun rets ->
      let c = fresh_chain () in
      List.iter (fun ret -> Chain.push c ~ret) rets;
      List.for_all
        (fun expected -> match Chain.pop c with Ok r -> Int64.equal r expected | Error _ -> false)
        (List.rev rets))

let prop_chain_lifo_unmasked =
  qtest "unmasked chains verify too" 50
    QCheck2.Gen.(list_size (int_range 1 40) ret_gen)
    (fun rets ->
      let c = fresh_chain ~masked:false () in
      List.iter (fun ret -> Chain.push c ~ret) rets;
      List.for_all
        (fun expected -> match Chain.pop c with Ok r -> Int64.equal r expected | Error _ -> false)
        (List.rev rets))

let test_chain_validation () =
  let c = fresh_chain () in
  Alcotest.check_raises "zero ret"
    (Invalid_argument "Chain.push: return address must be canonical and non-zero") (fun () ->
      Chain.push c ~ret:0L);
  Alcotest.check_raises "non-canonical ret"
    (Invalid_argument "Chain.push: return address must be canonical and non-zero") (fun () ->
      Chain.push c ~ret:Int64.min_int);
  Alcotest.check_raises "pop empty" (Invalid_argument "Chain.pop: empty chain") (fun () ->
      ignore (Chain.pop c))

let test_chain_tamper_detected () =
  let c = fresh_chain () in
  Chain.push c ~ret:0x1000L;
  Chain.push c ~ret:0x2000L;
  Chain.push c ~ret:0x3000L;
  (* corrupt the newest stored aret, consumed by the next pop *)
  Chain.tamper c 2 0xbad0bad0L;
  (match Chain.pop c with
  | Ok _ -> Alcotest.fail "tampered chain verified"
  | Error v -> Alcotest.(check int) "detected at top" 3 v.Chain.depth)

let test_chain_swap_detected () =
  (* swapping two stored arets (a reuse within the chain) is detected *)
  let c = fresh_chain () in
  List.iter (fun r -> Chain.push c ~ret:r) [ 0x1000L; 0x2000L; 0x3000L; 0x4000L ];
  let stored = Chain.stored c in
  Chain.tamper c 2 stored.(3);
  Chain.tamper c 3 stored.(2);
  (match Chain.pop c with
  | Ok _ -> Alcotest.fail "swap survived first pop"
  | Error _ -> ())

let test_chain_masking_hides_tokens () =
  (* same rets and seed: the masked chain's stored values must differ from
     the unmasked ones (the mask is in effect) *)
  let cm = fresh_chain ~masked:true () in
  let cu = fresh_chain ~masked:false () in
  List.iter
    (fun r ->
      Chain.push cm ~ret:r;
      Chain.push cu ~ret:r)
    [ 0x1000L; 0x2000L; 0x3000L ];
  let sm = Chain.stored cm and su = Chain.stored cu in
  (* index 0 is the seed (0), the rest must differ *)
  Alcotest.(check bool) "masked differs" false (Word64.equal sm.(1) su.(1));
  Alcotest.(check bool) "masked differs" false (Word64.equal sm.(2) su.(2))

let test_chain_seeding () =
  (* §4.3 re-seeding: different seeds yield different arets for equal rets *)
  let c1 = fresh_chain ~seed:1L () in
  let c2 = fresh_chain ~seed:2L () in
  Chain.push c1 ~ret:0x1000L;
  Chain.push c2 ~ret:0x1000L;
  Alcotest.(check bool) "seeds separate the chains" false
    (Word64.equal (Chain.current c1) (Chain.current c2))

let test_chain_clone () =
  let c = fresh_chain () in
  Chain.push c ~ret:0x1000L;
  let d = Chain.clone c in
  Chain.push c ~ret:0x2000L;
  Alcotest.(check int) "clone keeps its depth" 1 (Chain.depth d);
  match Chain.pop d with
  | Ok r -> Alcotest.(check int64) "clone pops its own" 0x1000L r
  | Error _ -> Alcotest.fail "clone verification failed"

let test_aret_of_matches_push () =
  let c = fresh_chain () in
  let prev = Chain.current c in
  let predicted = Chain.aret_of c ~ret:0x1000L ~modifier:prev in
  Chain.push c ~ret:0x1000L;
  Alcotest.(check int64) "oracle agrees with instrumentation" predicted (Chain.current c)

(* --- Analysis ------------------------------------------------------------------- *)

let feq = Alcotest.float 1e-12

let test_table1_theory () =
  Alcotest.check feq "on-graph unmasked" 1.0
    (Analysis.table1_success_probability ~masked:false Analysis.On_graph ~bits:16);
  Alcotest.check feq "on-graph masked" (1.0 /. 65536.0)
    (Analysis.table1_success_probability ~masked:true Analysis.On_graph ~bits:16);
  Alcotest.check feq "off-graph call-site" (1.0 /. 65536.0)
    (Analysis.table1_success_probability ~masked:false Analysis.Off_graph_to_call_site ~bits:16);
  Alcotest.check feq "off-graph arbitrary" (2.0 ** -32.0)
    (Analysis.table1_success_probability ~masked:true Analysis.Off_graph_arbitrary ~bits:16)

let test_guess_formulas () =
  Alcotest.check feq "divide and conquer" 257.0 (Analysis.guesses_divide_and_conquer ~bits:8);
  Alcotest.check feq "reseeded" 512.0 (Analysis.guesses_reseeded ~bits:8);
  Alcotest.check feq "independent" 65536.0 (Analysis.guesses_independent ~bits:8)

let test_collision_mean () =
  Alcotest.check (Alcotest.float 0.5) "321 tokens" 320.8 (Analysis.collision_harvest_mean ~bits:16)

(* --- Games ------------------------------------------------------------------------ *)

let in_range label lo hi v = Alcotest.(check bool) (Printf.sprintf "%s: %g" label v) true (v >= lo && v <= hi)

let test_birthday_game () =
  let rng = Rng.create 21L in
  let mean = float_of_int (Games.birthday_total ~bits:16 ~trials:150 rng) /. 150.0 in
  in_range "birthday mean" 290.0 350.0 mean

let test_on_graph_unmasked () =
  let rng = Rng.create 22L in
  let e = Games.violation_success ~masked:false ~kind:Analysis.On_graph ~bits:8 ~harvest:120 ~trials:400 rng in
  in_range "unmasked on-graph near certainty" 0.97 1.0 e.Games.rate

(* The on-graph trial as it was before it scanned lazily: every harvested
   entry built up front, each costing one or two MACs. The reference for
   [prop_on_graph_lazy_is_eager]. *)
let eager_on_graph_trial ~masked ~bits ~harvest prf rng =
  let token modifier data = Prf.mac prf ~bits ~data ~modifier in
  let ret_c = Rng.next64 rng in
  let entries =
    Array.init harvest (fun _ ->
        let modifier = Rng.next64 rng in
        let t = token modifier ret_c in
        let visible = if masked then Int64.logxor t (token modifier 0L) else t in
        (t, visible))
  in
  let seen = Hashtbl.create harvest in
  let found = ref None in
  Array.iteri
    (fun i (_, visible) ->
      match Hashtbl.find_opt seen visible with
      | Some j when !found = None -> found := Some (j, i)
      | Some _ | None -> Hashtbl.replace seen visible i)
    entries;
  let i, j =
    match !found with
    | Some p -> p
    | None ->
      let i = Rng.int rng harvest in
      let j = (i + 1 + Rng.int rng (harvest - 1)) mod harvest in
      (i, j)
  in
  Word64.equal (fst entries.(i)) (fst entries.(j))

(* The lazy scan wins the same trials as the eager harvest and leaves the
   stream at the same draw, with and without a visible collision (large
   b and small harvests have none). *)
let prop_on_graph_lazy_is_eager =
  qtest "on-graph: lazy scan = eager harvest" 200
    QCheck2.Gen.(tup4 (int_range 2 20) (int_range 2 400) bool int)
    (fun (bits, harvest, masked, seed) ->
      let trials = 5 in
      let lazy_rng = Rng.create (Int64.of_int seed) and eager_rng = Rng.create (Int64.of_int seed) in
      let e = Games.violation_success ~masked ~kind:Analysis.On_graph ~bits ~harvest ~trials lazy_rng in
      let eager_successes = ref 0 in
      for _ = 1 to trials do
        let prf = Prf.of_rng eager_rng in
        if eager_on_graph_trial ~masked ~bits ~harvest prf eager_rng then incr eager_successes
      done;
      e.Games.successes = !eager_successes
      && Word64.equal (Rng.next64 lazy_rng) (Rng.next64 eager_rng))

let test_on_graph_masked () =
  let rng = Rng.create 23L in
  let e = Games.violation_success ~masked:true ~kind:Analysis.On_graph ~bits:8 ~harvest:120 ~trials:20_000 rng in
  (* 2^-8 = 0.0039 *)
  in_range "masked on-graph" 0.002 0.006 e.Games.rate

let test_off_graph_callsite () =
  let rng = Rng.create 24L in
  let e =
    Games.violation_success ~masked:true ~kind:Analysis.Off_graph_to_call_site ~bits:8
      ~trials:60_000 rng
  in
  in_range "off-graph call-site" 0.0030 0.0048 e.Games.rate

let test_off_graph_arbitrary () =
  let rng = Rng.create 25L in
  let e =
    Games.violation_success ~masked:true ~kind:Analysis.Off_graph_arbitrary ~bits:4
      ~trials:120_000 rng
  in
  (* 2^-8 = 0.0039 *)
  in_range "off-graph arbitrary" 0.0028 0.0051 e.Games.rate

let test_estimate_ci () =
  let rng = Rng.create 26L in
  let e = Games.violation_success ~masked:true ~kind:Analysis.Off_graph_to_call_site ~bits:8 ~trials:30_000 rng in
  Alcotest.(check bool) "CI brackets the rate" true
    (e.Games.ci_low <= e.Games.rate && e.Games.rate <= e.Games.ci_high);
  Alcotest.(check bool) "CI brackets theory" true
    (e.Games.ci_low <= 1.0 /. 256.0 && 1.0 /. 256.0 <= e.Games.ci_high)

let test_mask_distinguisher () =
  let rng = Rng.create 27L in
  let adv = Games.mask_distinguisher_advantage ~bits:12 ~queries:200 ~trials:1500 rng in
  in_range "advantage negligible" 0.0 0.05 adv

let test_guessing_means () =
  let rng = Rng.create 28L in
  let mean strategy ~bits ~trials =
    float_of_int (Games.guessing_total ~strategy ~bits ~trials rng) /. float_of_int trials
  in
  let dnc = mean Games.Divide_and_conquer ~bits:8 ~trials:2500 in
  in_range "divide-and-conquer ~257" 240.0 275.0 dnc;
  let reseed = mean Games.Reseeded ~bits:8 ~trials:2500 in
  in_range "reseeded ~512" 470.0 560.0 reseed;
  let indep = mean Games.Independent ~bits:5 ~trials:500 in
  in_range "independent ~1024" 880.0 1180.0 indep;
  Alcotest.(check bool) "reseeding raises the cost" true (reseed > dnc *. 1.5)

let test_theorem1 () =
  let rng = Rng.create 30L in
  let th = Games.theorem1_check ~bits:10 ~queries:96 ~trials:1200 rng in
  Alcotest.(check bool) "masked collision advantage negligible" true
    (th.Games.collision_advantage < 0.02);
  Alcotest.(check bool) "Theorem 1 bound holds" true th.Games.holds

let test_game_argument_validation () =
  let rng = Rng.create 29L in
  Alcotest.check_raises "zero trials" (Invalid_argument "Games.birthday_total") (fun () ->
      ignore (Games.birthday_total ~trials:0 rng));
  Alcotest.check_raises "empty estimate" (Invalid_argument "Games.estimate") (fun () ->
      ignore (Games.estimate ~successes:0 ~trials:0))

let () =
  Alcotest.run "acs"
    [
      ( "chain",
        [
          Alcotest.test_case "push/pop" `Quick test_chain_push_pop;
          prop_chain_lifo;
          prop_chain_lifo_unmasked;
          Alcotest.test_case "validation" `Quick test_chain_validation;
          Alcotest.test_case "tamper detected" `Quick test_chain_tamper_detected;
          Alcotest.test_case "swap detected" `Quick test_chain_swap_detected;
          Alcotest.test_case "masking in effect" `Quick test_chain_masking_hides_tokens;
          Alcotest.test_case "re-seeding" `Quick test_chain_seeding;
          Alcotest.test_case "clone" `Quick test_chain_clone;
          Alcotest.test_case "aret oracle" `Quick test_aret_of_matches_push;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "table 1 closed forms" `Quick test_table1_theory;
          Alcotest.test_case "guess formulas" `Quick test_guess_formulas;
          Alcotest.test_case "collision mean" `Quick test_collision_mean;
        ] );
      ( "games",
        [
          Alcotest.test_case "birthday" `Quick test_birthday_game;
          Alcotest.test_case "on-graph unmasked" `Quick test_on_graph_unmasked;
          Alcotest.test_case "on-graph masked" `Quick test_on_graph_masked;
          Alcotest.test_case "off-graph call-site" `Quick test_off_graph_callsite;
          Alcotest.test_case "off-graph arbitrary" `Quick test_off_graph_arbitrary;
          Alcotest.test_case "confidence interval" `Quick test_estimate_ci;
          Alcotest.test_case "mask distinguisher" `Quick test_mask_distinguisher;
          Alcotest.test_case "guessing means" `Quick test_guessing_means;
          Alcotest.test_case "Theorem 1 bound" `Quick test_theorem1;
          Alcotest.test_case "argument validation" `Quick test_game_argument_validation;
          prop_on_graph_lazy_is_eager;
        ] );
    ]

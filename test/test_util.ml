(* Unit and property tests for Pacstack_util: 64-bit word operations, the
   deterministic RNG, the statistics helpers and the histogram sketch. *)

module Word64 = Pacstack_util.Word64
module Rng = Pacstack_util.Rng
module Stats = Pacstack_util.Stats
module Sketch = Pacstack_util.Sketch

let check_w64 = Alcotest.testable Word64.pp Word64.equal
let qtest name count gen prop = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

let full64 = QCheck2.Gen.(map2 (fun a b -> Int64.logxor (Int64.of_int a) (Int64.shift_left (Int64.of_int b) 31)) int int)

(* --- Word64 ------------------------------------------------------------ *)

let test_mask () =
  Alcotest.check check_w64 "mask 0" 0L (Word64.mask 0);
  Alcotest.check check_w64 "mask 1" 1L (Word64.mask 1);
  Alcotest.check check_w64 "mask 16" 0xffffL (Word64.mask 16);
  Alcotest.check check_w64 "mask 64" (-1L) (Word64.mask 64);
  Alcotest.check_raises "mask 65" (Invalid_argument "Word64.mask") (fun () ->
      ignore (Word64.mask 65))

let test_bits () =
  Alcotest.(check bool) "bit 0 of 1" true (Word64.bit 1L 0);
  Alcotest.(check bool) "bit 63 of min_int" true (Word64.bit Int64.min_int 63);
  Alcotest.check check_w64 "set bit" 4L (Word64.set_bit 0L 2 true);
  Alcotest.check check_w64 "clear bit" 0L (Word64.set_bit 4L 2 false);
  Alcotest.check check_w64 "flip twice" 17L (Word64.flip_bit (Word64.flip_bit 17L 9) 9)

let test_extract_insert () =
  Alcotest.check check_w64 "extract" 0xbeL (Word64.extract 0xdeadbeefL ~lo:8 ~width:8);
  Alcotest.check check_w64 "insert" 0xde00beefL
    (Word64.insert 0xdeadbeefL ~lo:16 ~width:8 0L);
  Alcotest.check check_w64 "extract width 0" 0L (Word64.extract (-1L) ~lo:10 ~width:0)

let prop_insert_extract =
  qtest "insert/extract roundtrip" 500
    QCheck2.Gen.(tup3 full64 (int_range 0 56) full64)
    (fun (w, lo, v) ->
      let width = min 8 (64 - lo) in
      let w' = Word64.insert w ~lo ~width v in
      Word64.equal (Word64.extract w' ~lo ~width) (Int64.logand v (Word64.mask width)))

let prop_rot_inverse =
  qtest "rotl inverse" 500
    QCheck2.Gen.(tup2 full64 (int_range 0 63))
    (fun (w, n) -> Word64.equal (Word64.rotl (Word64.rotl w n) (64 - n)) w)

let prop_rot_popcount =
  qtest "rotation preserves popcount" 500
    QCheck2.Gen.(tup2 full64 (int_range 0 63))
    (fun (w, n) -> Word64.popcount (Word64.rotl w n) = Word64.popcount w)

let test_popcount () =
  Alcotest.(check int) "popcount 0" 0 (Word64.popcount 0L);
  Alcotest.(check int) "popcount -1" 64 (Word64.popcount (-1L));
  Alcotest.(check int) "popcount 0xf0" 4 (Word64.popcount 0xf0L);
  Alcotest.(check int) "hamming" 2 (Word64.hamming 0b1100L 0b1010L)

(* --- Rng ---------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 10 do
    Alcotest.check check_w64 "same stream" (Rng.next64 a) (Rng.next64 b)
  done

let test_rng_split () =
  let a = Rng.create 42L in
  let c = Rng.split a in
  Alcotest.(check bool) "split differs from parent stream" true
    (not (Word64.equal (Rng.next64 c) (Rng.next64 a)))

let test_rng_split_n () =
  (* determinism: equal seeds derive equal stream families *)
  let a = Rng.split_n (Rng.create 99L) 4 and b = Rng.split_n (Rng.create 99L) 4 in
  Array.iter2
    (fun x y -> Alcotest.check check_w64 "same derived stream" (Rng.next64 x) (Rng.next64 y))
    a b;
  (* split_n is split iterated: the sharder's indexing contract *)
  let parent = Rng.create 99L in
  let family = Rng.split_n (Rng.create 99L) 4 in
  for i = 0 to 3 do
    Alcotest.check check_w64
      (Printf.sprintf "element %d equals iterated split" i)
      (Rng.next64 (Rng.split parent))
      (Rng.next64 family.(i))
  done;
  Alcotest.(check int) "split_n 0" 0 (Array.length (Rng.split_n (Rng.create 1L) 0));
  Alcotest.check_raises "split_n negative" (Invalid_argument "Rng.split_n") (fun () ->
      ignore (Rng.split_n (Rng.create 1L) (-1)))

let test_rng_split_n_disjoint () =
  (* campaign shards must not share randomness: the 10k-draw prefixes of
     8 sibling streams are pairwise disjoint *)
  let streams = Rng.split_n (Rng.create 0xdecafL) 8 in
  let prefix t =
    let tbl = Hashtbl.create 20_000 in
    for _ = 1 to 10_000 do
      Hashtbl.replace tbl (Rng.next64 t) ()
    done;
    tbl
  in
  let prefixes = Array.map prefix streams in
  Array.iteri
    (fun i pi ->
      Array.iteri
        (fun j pj ->
          if i < j then
            Hashtbl.iter
              (fun w () ->
                if Hashtbl.mem pj w then
                  Alcotest.failf "streams %d and %d share value %Lx in their 10k prefix" i j w)
              pi)
        prefixes)
    prefixes

let test_rng_copy () =
  let a = Rng.create 7L in
  ignore (Rng.next64 a);
  let b = Rng.copy a in
  Alcotest.check check_w64 "copy continues identically" (Rng.next64 a) (Rng.next64 b)

let prop_rng_int_bounds =
  qtest "int stays in bounds" 500
    QCheck2.Gen.(tup2 full64 (int_range 1 1000))
    (fun (seed, n) ->
      let r = Rng.create seed in
      let v = Rng.int r n in
      v >= 0 && v < n)

let prop_rng_bits_width =
  qtest "bits fit the width" 500
    QCheck2.Gen.(tup2 full64 (int_range 0 63))
    (fun (seed, n) ->
      let r = Rng.create seed in
      Word64.equal (Int64.logand (Rng.bits r n) (Int64.lognot (Word64.mask n))) 0L)

let test_rng_float_range () =
  let r = Rng.create 3L in
  for _ = 1 to 100 do
    let f = Rng.float r in
    Alcotest.(check bool) "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_rng_shuffle_permutation () =
  let r = Rng.create 9L in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 Fun.id) sorted

let test_rng_uniformity () =
  (* chi-square-flavoured sanity: 8 buckets over 8000 draws *)
  let r = Rng.create 123L in
  let buckets = Array.make 8 0 in
  for _ = 1 to 8000 do
    let v = Rng.int r 8 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iter
    (fun c -> Alcotest.(check bool) "bucket near 1000" true (c > 850 && c < 1150))
    buckets

(* --- Stats --------------------------------------------------------------- *)

let feq = Alcotest.float 1e-9

let test_mean () =
  Alcotest.check feq "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.mean") (fun () ->
      ignore (Stats.mean []))

let test_geomean () =
  Alcotest.check feq "geometric mean" 4.0 (Stats.geometric_mean [ 2.0; 8.0 ]);
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Stats.geometric_mean: non-positive value") (fun () ->
      ignore (Stats.geometric_mean [ 1.0; 0.0 ]))

let test_stddev () =
  Alcotest.check feq "constant" 0.0 (Stats.stddev [ 5.0; 5.0; 5.0 ]);
  Alcotest.check (Alcotest.float 1e-6) "known" 1.0 (Stats.stddev [ 1.0; 2.0; 3.0 ])

let test_percentiles () =
  let xs = [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.check feq "p50" 2.5 (Stats.percentile xs 50.0);
  Alcotest.check feq "p0" 1.0 (Stats.percentile xs 0.0);
  Alcotest.check feq "p100" 4.0 (Stats.percentile xs 100.0)

(* Regression: percentile used to accept any [p] — p=150 indexed past the
   end of the sorted array and NaN propagated silently through reports. *)
let test_percentile_validates_rank () =
  let xs = [ 1.0; 2.0; 3.0 ] in
  Alcotest.check feq "singleton ignores p" 42.0 (Stats.percentile [ 42.0 ] 99.0);
  Alcotest.check_raises "p > 100"
    (Invalid_argument "Stats.percentile: p = 150 not in [0, 100]") (fun () ->
      ignore (Stats.percentile xs 150.0));
  Alcotest.check_raises "p < 0"
    (Invalid_argument "Stats.percentile: p = -1 not in [0, 100]") (fun () ->
      ignore (Stats.percentile xs (-1.0)));
  Alcotest.check_raises "NaN rank"
    (Invalid_argument "Stats.percentile: p = nan not in [0, 100]") (fun () ->
      ignore (Stats.percentile xs Float.nan));
  Alcotest.check_raises "NaN element"
    (Invalid_argument "Stats.percentile: NaN element") (fun () ->
      ignore (Stats.percentile [ 1.0; Float.nan ] 50.0))

let test_weighted_percentile () =
  (* histogram percentiles must land within one bucket width of the exact
     answer on the raw samples — the sufficient-statistics contract *)
  let rng = Rng.create 17L in
  let xs = List.init 5000 (fun _ -> Rng.float rng ** 3.0 *. 100.0) in
  let buckets = 50 in
  let width = 100.0 /. float_of_int buckets in
  let bounds = Array.init (buckets + 1) (fun i -> float_of_int i *. width) in
  let counts = Array.make buckets 0 in
  List.iter
    (fun x ->
      let i = min (buckets - 1) (int_of_float (x /. width)) in
      counts.(i) <- counts.(i) + 1)
    xs;
  List.iter
    (fun p ->
      let exact = Stats.percentile xs p in
      let approx = Stats.weighted_percentile ~bounds ~counts p in
      Alcotest.(check bool)
        (Printf.sprintf "p%g: |%.3f - %.3f| <= bucket width" p approx exact)
        true
        (Float.abs (approx -. exact) <= width +. 1e-9))
    [ 1.0; 50.0; 90.0; 95.0; 99.0; 99.9 ];
  (* all mass in one bucket: every rank interpolates inside that bucket *)
  let one = Stats.weighted_percentile ~bounds:[| 2.0; 4.0 |] ~counts:[| 8 |] 50.0 in
  Alcotest.(check bool) "single bucket interpolates" true (one >= 2.0 && one <= 4.0);
  Alcotest.check_raises "empty histogram"
    (Invalid_argument "Stats.weighted_percentile: empty histogram") (fun () ->
      ignore (Stats.weighted_percentile ~bounds:[| 0.0; 1.0 |] ~counts:[| 0 |] 50.0));
  Alcotest.check_raises "mismatched bounds"
    (Invalid_argument "Stats.weighted_percentile: bounds must have one more entry than counts")
    (fun () -> ignore (Stats.weighted_percentile ~bounds:[| 0.0 |] ~counts:[| 1 |] 50.0))

let test_binomial_ci () =
  let lo, hi = Stats.binomial_ci ~successes:50 ~trials:100 in
  Alcotest.(check bool) "covers 0.5" true (lo < 0.5 && hi > 0.5);
  Alcotest.(check bool) "non-degenerate" true (hi -. lo > 0.0 && hi -. lo < 0.25);
  let lo0, _ = Stats.binomial_ci ~successes:0 ~trials:10 in
  Alcotest.check feq "zero successes lower bound" 0.0 lo0

let test_wilson () =
  (* no data: the interval is the whole unit line, not an exception —
     mega-campaign tables hold cells with zero trials *)
  let lo, hi = Stats.wilson ~successes:0 ~trials:0 in
  Alcotest.check feq "n=0 lower" 0.0 lo;
  Alcotest.check feq "n=0 upper" 1.0 hi;
  (* k=0: lower bound exactly 0, upper bound the rule-of-three-ish z²/(n+z²) *)
  let lo, hi = Stats.wilson ~successes:0 ~trials:20 in
  Alcotest.check feq "k=0 lower" 0.0 lo;
  Alcotest.(check bool) "k=0 upper in (0, 1)" true (hi > 0.0 && hi < 0.25);
  (* k=n is the mirror image of k=0 *)
  let lo', hi' = Stats.wilson ~successes:20 ~trials:20 in
  Alcotest.check feq "k=n upper" 1.0 hi';
  Alcotest.check feq "k=n mirrors k=0" (1.0 -. hi) lo';
  (* published value: k=1, n=10 at 95% is about [0.018, 0.404] *)
  let lo, hi = Stats.wilson ~successes:1 ~trials:10 in
  Alcotest.check (Alcotest.float 1e-3) "small-n lower" 0.018 lo;
  Alcotest.check (Alcotest.float 1e-3) "small-n upper" 0.404 hi;
  Alcotest.check_raises "negative trials"
    (Invalid_argument "Stats.wilson: trials < 0") (fun () ->
      ignore (Stats.wilson ~successes:0 ~trials:(-1)));
  Alcotest.check_raises "successes out of range"
    (Invalid_argument "Stats.wilson: successes 11 not in [0, 10]") (fun () ->
      ignore (Stats.wilson ~successes:11 ~trials:10))

let prop_wilson_contains_estimate =
  qtest "wilson interval contains the point estimate" 500
    QCheck2.Gen.(
      bind (int_range 1 10_000) (fun n ->
          map (fun k -> (k, n)) (int_range 0 n)))
    (fun (k, n) ->
      let lo, hi = Stats.wilson ~successes:k ~trials:n in
      let p = float_of_int k /. float_of_int n in
      0.0 <= lo && lo <= p && p <= hi && hi <= 1.0)

let test_overhead () =
  Alcotest.check feq "10%" 10.0 (Stats.overhead_pct ~baseline:100.0 ~measured:110.0);
  Alcotest.check feq "negative" (-10.0) (Stats.overhead_pct ~baseline:100.0 ~measured:90.0)

let test_birthday () =
  Alcotest.check (Alcotest.float 0.5) "paper's 321 tokens at b=16" 320.8
    (Stats.birthday_expected_tokens ~bits:16);
  Alcotest.(check bool) "certainty beyond space" true
    (Stats.birthday_collision_probability ~bits:4 ~drawn:17 = 1.0);
  let p = Stats.birthday_collision_probability ~bits:16 ~drawn:321 in
  Alcotest.(check bool) "~50% at the mean" true (p > 0.4 && p < 0.7)

let test_guesses () =
  (* log(1-p)/log(1-2^-b) *)
  let g = Stats.guesses_for_success ~bits:16 ~p:0.5 in
  Alcotest.(check bool) "about 45k guesses for a coin flip at b=16" true
    (g > 45000.0 && g < 46000.0);
  Alcotest.check feq "geometric mean" 256.0 (Stats.expected_guesses_geometric ~bits:8)

(* The linear layout [Obs.Metrics] histograms use: four unit buckets over
   [0, 4), with samples outside clamping to the end buckets. *)
let test_histogram () =
  let h =
    List.fold_left Sketch.record
      (Sketch.empty (Sketch.linear ~lo:0.0 ~hi:4.0 ~buckets:4))
      [ 0.5; 1.5; 1.6; 3.9; -1.0; 10.0 ]
  in
  Alcotest.(check int) "count" 6 h.Sketch.count;
  Alcotest.(check (array int)) "buckets (clamping at edges)" [| 2; 2; 0; 2 |] h.Sketch.counts

(* --- Sketch --------------------------------------------------------------- *)

(* One row per layout in use: obs's linear edges, the fleet's geometric
   latency edges and the injection engine's power-of-two detection
   latencies. [pins] are hand-checked (sample, bucket) pairs; samples
   are integers or dyadic fractions so that float sums are exact and
   merge can be compared with [=]. *)
type sketch_row = {
  layout : string;
  edges : float array;
  pins : (float * int) list;
  sample : Rng.t -> float;
}

let sketch_rows =
  [
    { layout = "linear";
      edges = Sketch.linear ~lo:0.0 ~hi:4.0 ~buckets:4;
      pins = [ (0.5, 0); (1.5, 1); (1.6, 1); (3.9, 3); (-1.0, 0); (10.0, 3) ];
      sample = (fun rng -> float_of_int (Rng.int rng 32) /. 8.0) };
    { layout = "geometric";
      edges = Sketch.geometric ~lo:1e3 ~hi:1e9 ~buckets:128;
      pins = [ (999.0, 0); (1e3, 0); (1e9, 127); (1e12, 127) ];
      sample = (fun rng -> Float.round (1e4 *. exp (4.0 *. Rng.float rng))) };
    { layout = "pow2";
      edges = Sketch.pow2 ~buckets:32;
      pins =
        [ (0.0, 0); (1.0, 1); (2.0, 2); (3.0, 2); (4.0, 3); (5.0, 3); (float_of_int max_int, 31) ];
      sample = (fun rng -> Float.round (2.0 ** (14.0 *. Rng.float rng))) };
  ]

let test_sketch_layouts () =
  List.iter
    (fun row ->
      let what fmt = Printf.sprintf ("%s: " ^^ fmt) row.layout in
      let empty = Sketch.empty row.edges in
      let n = Array.length row.edges - 1 in
      let bucket = Sketch.bucket empty in
      Array.iteri
        (fun i e ->
          Alcotest.(check int) (what "edge %d" i) (min i (n - 1)) (bucket e);
          if i > 0 && i < n then
            Alcotest.(check int) (what "just below edge %d" i) (i - 1) (bucket (Float.pred e)))
        row.edges;
      Alcotest.(check int) (what "below the first edge") 0 (bucket (Float.pred row.edges.(0)));
      Alcotest.(check int) (what "above the last edge") (n - 1) (bucket (2.0 *. row.edges.(n)));
      Alcotest.(check int) (what "NaN") 0 (bucket Float.nan);
      List.iter (fun (x, b) -> Alcotest.(check int) (what "pin %g" x) b (bucket x)) row.pins;
      let rng = Rng.create 41L in
      let xs = List.init 3000 (fun _ -> row.sample rng) in
      let fold = List.fold_left Sketch.record empty in
      let whole = fold xs in
      let a, b, c =
        ( fold (List.filteri (fun i _ -> i mod 3 = 0) xs),
          fold (List.filteri (fun i _ -> i mod 3 = 1) xs),
          fold (List.filteri (fun i _ -> i mod 3 = 2) xs) )
      in
      Alcotest.(check bool) (what "merge = fold") true (Sketch.merge (Sketch.merge a b) c = whole);
      Alcotest.(check bool) (what "associative") true
        (Sketch.merge a (Sketch.merge b c) = Sketch.merge (Sketch.merge a b) c);
      Alcotest.(check bool) (what "commutative") true
        (Sketch.merge (Sketch.merge c b) a = Sketch.merge (Sketch.merge a b) c);
      Alcotest.(check int) (what "count") 3000 whole.Sketch.count;
      List.iter
        (fun p ->
          let approx = Sketch.percentile whole p and exact = Stats.percentile xs p in
          if abs (bucket approx - bucket exact) > 1 then
            Alcotest.failf "%s: p%g = %g is not within one bucket of the exact %g" row.layout p
              approx exact;
          if approx < whole.Sketch.min || approx > whole.Sketch.max then
            Alcotest.failf "%s: p%g = %g outside [%g, %g]" row.layout p approx whole.Sketch.min
              whole.Sketch.max)
        [ 0.0; 1.0; 50.0; 90.0; 95.0; 99.0; 99.9; 100.0 ])
    sketch_rows

let () =
  Alcotest.run "util"
    [
      ( "word64",
        [
          Alcotest.test_case "mask" `Quick test_mask;
          Alcotest.test_case "bit ops" `Quick test_bits;
          Alcotest.test_case "extract/insert" `Quick test_extract_insert;
          prop_insert_extract;
          prop_rot_inverse;
          prop_rot_popcount;
          Alcotest.test_case "popcount family" `Quick test_popcount;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split" `Quick test_rng_split;
          Alcotest.test_case "split_n" `Quick test_rng_split_n;
          Alcotest.test_case "split_n streams are disjoint" `Quick test_rng_split_n_disjoint;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          prop_rng_int_bounds;
          prop_rng_bits_width;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "shuffle is a permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "geometric mean" `Quick test_geomean;
          Alcotest.test_case "stddev" `Quick test_stddev;
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "percentile rank validation" `Quick test_percentile_validates_rank;
          Alcotest.test_case "weighted percentile over buckets" `Quick
            test_weighted_percentile;
          Alcotest.test_case "binomial CI" `Quick test_binomial_ci;
          Alcotest.test_case "wilson interval" `Quick test_wilson;
          prop_wilson_contains_estimate;
          Alcotest.test_case "overhead" `Quick test_overhead;
          Alcotest.test_case "birthday closed forms" `Quick test_birthday;
          Alcotest.test_case "guess counts" `Quick test_guesses;
          Alcotest.test_case "histogram" `Quick test_histogram;
        ] );
      ("sketch", [ Alcotest.test_case "table-driven layouts" `Quick test_sketch_layouts ]);
    ]

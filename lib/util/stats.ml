let mean = function
  | [] -> invalid_arg "Stats.mean"
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geometric_mean = function
  | [] -> invalid_arg "Stats.geometric_mean"
  | xs ->
    let log_sum =
      List.fold_left
        (fun acc x ->
          if x <= 0.0 then invalid_arg "Stats.geometric_mean: non-positive value"
          else acc +. log x)
        0.0 xs
    in
    exp (log_sum /. float_of_int (List.length xs))

let stddev xs =
  let n = List.length xs in
  if n < 2 then 0.0
  else
    let m = mean xs in
    let ss = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
    sqrt (ss /. float_of_int (n - 1))

let percentile xs p =
  (* Validate the rank before touching the data: an out-of-range [p]
     used to compute an out-of-range [rank] and die on array bounds,
     and a NaN [p] (or element — [compare] orders NaN below everything)
     produced garbage silently. *)
  if Float.is_nan p || p < 0.0 || p > 100.0 then
    invalid_arg (Printf.sprintf "Stats.percentile: p = %g not in [0, 100]" p);
  if List.exists Float.is_nan xs then
    invalid_arg "Stats.percentile: NaN element";
  match List.sort compare xs with
  | [] -> invalid_arg "Stats.percentile"
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n = 1 then a.(0)
    else
      let rank = p /. 100.0 *. float_of_int (n - 1) in
      let lo = int_of_float (floor rank) in
      let hi = min (lo + 1) (n - 1) in
      let frac = rank -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let weighted_percentile ~bounds ~counts p =
  if Float.is_nan p || p < 0.0 || p > 100.0 then
    invalid_arg (Printf.sprintf "Stats.weighted_percentile: p = %g not in [0, 100]" p);
  let buckets = Array.length counts in
  if buckets = 0 || Array.length bounds <> buckets + 1 then
    invalid_arg "Stats.weighted_percentile: bounds must have one more entry than counts";
  for i = 0 to buckets - 1 do
    if counts.(i) < 0 then invalid_arg "Stats.weighted_percentile: negative count";
    if not (bounds.(i) < bounds.(i + 1)) then
      invalid_arg "Stats.weighted_percentile: bounds not increasing"
  done;
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then invalid_arg "Stats.weighted_percentile: empty histogram";
  (* Rank in sample space, then linear interpolation inside the bucket
     that contains it — the histogram analogue of {!percentile}, accurate
     to one bucket width against the exact answer on the raw samples. *)
  let target = p /. 100.0 *. float_of_int total in
  let rec go i cum =
    if i >= buckets then bounds.(buckets)
    else
      let c = counts.(i) in
      let cum' = cum +. float_of_int c in
      if c > 0 && target <= cum' then
        let frac = if c = 0 then 0.0 else (target -. cum) /. float_of_int c in
        bounds.(i) +. (Float.max 0.0 frac *. (bounds.(i + 1) -. bounds.(i)))
      else go (i + 1) cum'
  in
  go 0 0.0

(* Wilson score interval. Unlike the naive Wald interval this stays
   honest for the rare-event rates the mega-campaigns measure: at
   k = 0 of n the lower bound is exactly 0 but the upper bound shrinks
   like z^2/(n+z^2) instead of collapsing to a zero-width interval. *)
let wilson ~successes ~trials =
  if trials < 0 then invalid_arg "Stats.wilson: trials < 0";
  if successes < 0 || successes > trials then
    invalid_arg
      (Printf.sprintf "Stats.wilson: successes %d not in [0, %d]" successes trials);
  if trials = 0 then (0.0, 1.0) (* no evidence: the whole unit interval *)
  else
    let z = 1.959964 in
    let n = float_of_int trials in
    let p = float_of_int successes /. n in
    let z2 = z *. z in
    let denom = 1.0 +. (z2 /. n) in
    let centre = (p +. (z2 /. (2.0 *. n))) /. denom in
    let half = z /. denom *. sqrt (((p *. (1.0 -. p)) /. n) +. (z2 /. (4.0 *. n *. n))) in
    (* at k = 0 and k = n the bounds are exactly 0 and 1; rounding in
       centre -/+ half can land a hair inside and exclude the estimate *)
    ( (if successes = 0 then 0.0 else max 0.0 (centre -. half)),
      if successes = trials then 1.0 else min 1.0 (centre +. half) )

let overhead_pct ~baseline ~measured =
  if baseline = 0.0 then invalid_arg "Stats.overhead_pct"
  else (measured -. baseline) /. baseline *. 100.0

let expected_guesses_geometric ~bits = 2.0 ** float_of_int bits

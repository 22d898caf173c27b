type t = {
  edges : float array;
  count : int;
  sum : float;
  min : float;
  max : float;
  counts : int array;
}

let linear ~lo ~hi ~buckets =
  let n = float_of_int buckets in
  Array.init (buckets + 1) (fun i ->
      if i = buckets then hi else lo +. ((hi -. lo) *. float_of_int i /. n))

let geometric ~lo ~hi ~buckets =
  let ratio = (hi /. lo) ** (1.0 /. float_of_int buckets) in
  Array.init (buckets + 1) (fun i -> lo *. (ratio ** float_of_int i))

let pow2 ~buckets =
  Array.init (buckets + 1) (fun i -> if i = 0 then 0.0 else Float.of_int (1 lsl (i - 1)))

let empty edges =
  let n = Array.length edges - 1 in
  if n < 1 then invalid_arg "Sketch.empty: fewer than two edges";
  for i = 0 to n - 1 do
    if not (edges.(i) < edges.(i + 1)) then invalid_arg "Sketch.empty: edges not increasing"
  done;
  { edges; count = 0; sum = 0.0; min = infinity; max = neg_infinity; counts = Array.make n 0 }

let bucket t x =
  let e = t.edges in
  let last = Array.length e - 2 in
  if not (x >= e.(1)) then 0 (* first bucket, below it, or NaN *)
  else if x >= e.(last) then last
  else begin
    (* binary search keeping e.(lo) <= x < e.(hi) *)
    let lo = ref 1 and hi = ref last in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if e.(mid) <= x then lo := mid else hi := mid
    done;
    !lo
  end

let record t x =
  let i = bucket t x in
  let counts = Array.copy t.counts in
  counts.(i) <- counts.(i) + 1;
  {
    t with
    count = t.count + 1;
    sum = t.sum +. x;
    min = Float.min t.min x;
    max = Float.max t.max x;
    counts;
  }

let merge a b =
  if a.edges != b.edges && a.edges <> b.edges then invalid_arg "Sketch.merge: different edges";
  {
    edges = a.edges;
    count = a.count + b.count;
    sum = a.sum +. b.sum;
    min = Float.min a.min b.min;
    max = Float.max a.max b.max;
    counts = Array.map2 ( + ) a.counts b.counts;
  }

let mean t = if t.count = 0 then invalid_arg "Sketch.mean: empty" else t.sum /. float_of_int t.count

let percentile t p =
  if t.count = 0 then invalid_arg "Sketch.percentile: empty";
  let raw = Stats.weighted_percentile ~bounds:t.edges ~counts:t.counts p in
  (* the exact extremes are tracked, so never report outside them *)
  Float.max t.min (Float.min t.max raw)

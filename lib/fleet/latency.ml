include Pacstack_util.Sketch

(* Geometric edges: bucket i covers [lo * r^i, lo * r^(i+1)) with
   r = (hi/lo)^(1/buckets) ~ 1.11 — constant *relative* resolution, which
   is what a latency tail wants (p999 at 100x the median must not share a
   bucket with it, as linear edges would force). *)
let edges = geometric ~lo:1e3 ~hi:1e9 ~buckets:128
let empty = empty edges

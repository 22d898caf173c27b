(* The host-speed probe and the op timeline it normalises.

   The hosts this benchmark runs on are shared. Identical work takes up
   to 30% more or less wall time from one second to the next, and runs
   made minutes apart differ by as much. CPU time tracks wall time and
   no time is stolen: the machine itself runs the same instructions
   slower, most of all for interpreter dispatch and for code that
   streams through the cache, so neither CPU time nor longer runs remove
   the effect.

   The probe is a fixed amount of work the benchmark owns, built to slow
   down the way the workloads do: a small threaded-code interpreter
   (closures chained by index over a register array and 1 MiB of data,
   every step also writing words at a bump pointer through 2 MiB, as
   allocation does), then one read-modify-write sweep over 4 MiB.
   Eight independent lanes of cipher-like arithmetic close it. Its
   state is allocated once at start-up; it calls nothing in lib/ and
   allocates nothing, so no change to the library can move its time. A
   pure arithmetic loop was tried first: it moves by a tenth of what the
   workloads move and removed almost none of the spread.

   Timed between ops after every [interval_s] of work, the probe tracks
   how fast the host runs at that moment. The workloads move more than
   the probe does, each by its own power: across runs of identical work,
   log op time against log probe time has a slope per workload (its
   [elasticity], measured in perfbench/README.md). So an op's wall
   time times ([nominal_s] / median of the probes around it) ^
   [elasticity] is its time on a nominal host, one on which a probe
   takes exactly [nominal_s]. Raw times are kept beside the normalised
   ones, so a report shows what the normalisation removed. *)

let now = Unix.gettimeofday

let regs = Array.make 32 1
let data_words = 1 lsl 17
let data = Array.make data_words 0
let ring_words = 1 lsl 18
let ring = Array.make ring_words 0
let bump = ref 0
let sweep = Array.make (1 lsl 19) 1

(* 1024 instructions of a register machine, each a closure returning
   the index of the next; fixed by the seed. *)
let program : (unit -> int) array =
  let st = Random.State.make [| 9 |] in
  let n = 1024 in
  Array.init n (fun i ->
      let a = Random.State.int st 32 and b = Random.State.int st 32 in
      let c = Random.State.int st 32 in
      let next = if i = n - 1 then 0 else i + 1 in
      let write v =
        let p = !bump in
        Array.unsafe_set ring p v;
        Array.unsafe_set ring (p + 1) i;
        Array.unsafe_set ring (p + 2) a;
        bump := (p + 3) land (ring_words - 4)
      in
      let reg r = Array.unsafe_get regs r in
      match Random.State.int st 6 with
      | 0 ->
        fun () ->
          Array.unsafe_set regs a (reg b + reg c);
          write a;
          next
      | 1 ->
        fun () ->
          Array.unsafe_set regs a (reg b lxor (reg c lsl 3));
          write b;
          next
      | 2 ->
        fun () ->
          write c;
          if reg b land 1 = 0 then next else if i + 2 < n then i + 2 else 0
      | 3 ->
        fun () ->
          Array.unsafe_set regs a (Array.unsafe_get data (reg b land (data_words - 1)));
          write a;
          next
      | 4 ->
        fun () ->
          Array.unsafe_set data (reg c land (data_words - 1)) (reg b);
          write b;
          next
      | _ ->
        fun () ->
          Array.unsafe_set regs a ((reg b * 0x9E37) + c);
          write c;
          next)

(* Fixed: changing the amount of work rescales every normalised figure. *)
let steps = 50_000
let lanes_rounds = 60_000

let sbox = Array.init 256 (fun i -> ((i * 167) + 13) land 255)

let work () =
  let pc = ref 0 in
  for _ = 1 to steps do
    pc := (Array.unsafe_get program !pc) ()
  done;
  let acc = ref !pc in
  for i = 0 to Array.length sweep - 1 do
    let v = Array.unsafe_get sweep i in
    acc := !acc + v;
    Array.unsafe_set sweep i (v lxor 1)
  done;
  (* eight independent lanes of shifts, multiplies and table lookups,
     like a block cipher's rounds: the kind of code that slows most
     when another thread shares the core *)
  let a = ref 1 and b = ref 2 and c = ref 3 and d = ref 4 in
  let e = ref 5 and f = ref 6 and g = ref 7 and h = ref 8 in
  for _ = 1 to lanes_rounds do
    a := (!a lxor (!a lsl 13)) + Array.unsafe_get sbox (!a land 255);
    b := (!b lxor (!b lsr 7)) + Array.unsafe_get sbox (!b land 255);
    c := (!c lxor (!c lsl 17)) + Array.unsafe_get sbox (!c land 255);
    d := (!d lxor (!d lsr 5)) + Array.unsafe_get sbox (!d land 255);
    e := (!e * 0x9E37) lxor (!e lsr 11);
    f := (!f * 0x5bd1) lxor (!f lsr 9);
    g := (!g lxor (!g lsl 3)) + (!g lsr 2);
    h := (!h lxor (!h lsl 7)) + Array.unsafe_get sbox (!h land 255)
  done;
  !acc + !a + !b + !c + !d + !e + !f + !g + !h

let probe () =
  let t0 = now () in
  ignore (Sys.opaque_identity (work ()));
  now () -. t0

let nominal_s = 0.003

(* d log(op time) / d log(probe time) across runs of the workload being
   measured; set once, before set-up, from the workload's constant. *)
let elasticity = ref 2.0

(* What an op's wall time is multiplied by, given the median probe time
   around it. *)
let factor probe_s = (nominal_s /. probe_s) ** !elasticity

(* Work between probes. A slow spell lasts seconds, so probing every
   50 ms of work follows it at a cost of a few percent. *)
let interval_s = 0.05

(* Probes on each side of a block that enter its median (about half a
   second of work): one probe can be hit by a descheduling, the spell
   around it cannot. *)
let window = 4

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks. *)
let percentile a p =
  let a = sorted a in
  let n = Array.length a in
  if n = 0 then nan
  else
    let r = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float r in
    let hi = min (lo + 1) (n - 1) in
    a.(lo) +. ((r -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median a = percentile a 50.0

(* {1 Timeline} *)

type meter = {
  mutable probes : float list;  (** raw probe times, newest first *)
  mutable n_probes : int;
  mutable ops : (float * int) list;  (** raw op seconds and block, newest first *)
  mutable n_ops : int;
  mutable since : float;  (** op seconds since the last probe *)
}

let meter () = { probes = [ probe () ]; n_probes = 1; ops = []; n_ops = 0; since = 0.0 }

let tick m =
  m.probes <- probe () :: m.probes;
  m.n_probes <- m.n_probes + 1;
  m.since <- 0.0

(* The index the next recorded op will get. *)
let next_op m = m.n_ops

(* Records one op of [raw] wall seconds. Block [b] holds the ops between
   probe [b] and probe [b + 1]. *)
let record m raw =
  m.ops <- (raw, m.n_probes - 1) :: m.ops;
  m.n_ops <- m.n_ops + 1;
  m.since <- m.since +. raw;
  if m.since >= interval_s then tick m

type timeline = {
  raw : float array;  (** wall seconds per op *)
  norm : float array;  (** nominal-host seconds per op *)
  factor : float array;  (** norm / raw per op *)
  probes : float array;  (** raw probe seconds *)
}

let finish m =
  if m.since > 0.0 then tick m;
  let probes = Array.of_list (List.rev m.probes) in
  let n = Array.length probes in
  let block_factor b =
    let lo = max 0 (b - window) and hi = min (n - 1) (b + 1 + window) in
    factor (median (Array.sub probes lo (hi - lo + 1)))
  in
  let ops = Array.of_list (List.rev m.ops) in
  let factor = Array.map (fun (_, b) -> block_factor b) ops in
  {
    raw = Array.map fst ops;
    norm = Array.mapi (fun i (r, _) -> r *. factor.(i)) ops;
    factor;
    probes;
  }

let sum = Array.fold_left ( +. ) 0.0

(* One line per op (raw and normalised seconds), then the probes. *)
let write tl path =
  let oc = open_out path in
  Array.iteri (fun i r -> Printf.fprintf oc "op\t%.9f\t%.9f\n" r tl.norm.(i)) tl.raw;
  Array.iter (fun p -> Printf.fprintf oc "probe\t%.9f\n" p) tl.probes;
  close_out oc

(* [f ()] timed from a standing start, then normalised by the median of
   fifteen probes taken right after it: probes before it would warm the
   caches it starts cold, and a few probes at process start are noisy
   enough that the elasticity magnifies their error. *)
let timed f =
  let t0 = now () in
  let v = f () in
  let raw = now () -. t0 in
  (v, raw, raw *. factor (median (Array.init 15 (fun _ -> probe ()))))

(* Array-backed binary min-heap. The comparison key is (time, tie, seq)
   where [seq] is a monotonically increasing push counter: heaps are not
   stable by themselves, so push order is made part of the key to keep
   the drain order a total, deterministic function of the push sequence.

   An entry is written once, at push, into a slot taken from a free list:
   its payload, tie and seq stay in the slot until its pop returns the
   slot. The heap itself is two [int] columns, time and slot, so sifts
   move two ints into a hole, allocate nothing and never cross the write
   barrier; tie and seq are read only when two times are equal. *)

type 'a t = {
  mutable times : int array;  (** heap position -> time *)
  mutable slots : int array;  (** heap position -> slot *)
  mutable ties : int array;  (** slot -> tie *)
  mutable seqs : int array;  (** slot -> push sequence *)
  mutable values : 'a array;  (** slot -> payload *)
  mutable free : int array;  (** slots popped and not yet reused *)
  mutable nfree : int;
  mutable size : int;
  mutable next_seq : int;
}

let create () =
  {
    times = [||];
    slots = [||];
    ties = [||];
    seqs = [||];
    values = [||];
    free = [||];
    nfree = 0;
    size = 0;
    next_seq = 0;
  }

let length t = t.size
let is_empty t = t.size = 0

(* Annotated: an unannotated comparison is polymorphic and compiles to a
   runtime [compare] call per test. *)
let before t (time : int) slot time' slot' =
  time < time'
  || time = time'
     && (t.ties.(slot) < t.ties.(slot')
        || (t.ties.(slot) = t.ties.(slot') && t.seqs.(slot) < t.seqs.(slot')))

(* Every slot ever handed out is either in the heap or on the free list,
   so slots only run out when [size] reaches the capacity. *)
let grow t v =
  let cap = max 16 (2 * t.size) in
  let widen a = Array.append a (Array.make (cap - Array.length a) 0) in
  t.times <- widen t.times;
  t.slots <- widen t.slots;
  t.ties <- widen t.ties;
  t.seqs <- widen t.seqs;
  t.free <- widen t.free;
  t.values <- Array.append t.values (Array.make (cap - Array.length t.values) v)

(* The hole at [i] rises past every ancestor the entry in [slot] sorts
   before, or sinks past every child that sorts before it; each returns
   where the entry lands. *)
let rec hole_up t i ~time ~slot =
  if i = 0 then 0
  else
    let parent = (i - 1) / 2 in
    if before t time slot t.times.(parent) t.slots.(parent) then begin
      t.times.(i) <- t.times.(parent);
      t.slots.(i) <- t.slots.(parent);
      hole_up t parent ~time ~slot
    end
    else i

let rec hole_down t i ~time ~slot =
  let l = (2 * i) + 1 in
  if l >= t.size then i
  else
    let r = l + 1 in
    let c =
      if r < t.size && before t t.times.(r) t.slots.(r) t.times.(l) t.slots.(l) then r else l
    in
    if before t t.times.(c) t.slots.(c) time slot then begin
      t.times.(i) <- t.times.(c);
      t.slots.(i) <- t.slots.(c);
      hole_down t c ~time ~slot
    end
    else i

let push t ~time ~tie value =
  if t.size = Array.length t.times then grow t value;
  let slot =
    if t.nfree > 0 then begin
      t.nfree <- t.nfree - 1;
      t.free.(t.nfree)
    end
    else t.size
  in
  t.values.(slot) <- value;
  t.ties.(slot) <- tie;
  t.seqs.(slot) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  let i = hole_up t t.size ~time ~slot in
  t.times.(i) <- time;
  t.slots.(i) <- slot;
  t.size <- t.size + 1

let pop t =
  if t.size = 0 then None
  else begin
    let time = t.times.(0) and slot = t.slots.(0) in
    let min = (time, t.ties.(slot), t.values.(slot)) in
    t.free.(t.nfree) <- slot;
    t.nfree <- t.nfree + 1;
    let last = t.size - 1 in
    t.size <- last;
    if last > 0 then begin
      let time = t.times.(last) and slot = t.slots.(last) in
      let i = hole_down t 0 ~time ~slot in
      t.times.(i) <- time;
      t.slots.(i) <- slot
    end;
    Some min
  end

let peek_time t = if t.size = 0 then None else Some t.times.(0)

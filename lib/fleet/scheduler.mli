(** The fleet's event queue: a binary min-heap keyed on virtual time.

    Events drain in [(time, tie, push order)] order — [tie] breaks
    same-cycle ties deterministically (the fleet gives departures tie 0
    and arrivals tie 1, so a core freed in a cycle serves a request
    arriving in it), and two events with equal [(time, tie)] drain in
    the order they were pushed. That total order is what makes a cell
    simulation a pure function of its inputs: no wall clock, no domain
    identity, no hash order ever enters the schedule.

    Representation: the heap is two [int] columns, time and payload
    slot. Each push writes its payload, tie and push counter once into a
    slot taken from a free list, and its pop returns the slot; sifts move
    only the two ints, so [push] allocates nothing once the columns have
    grown to the peak size. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> time:int -> tie:int -> 'a -> unit
(** Schedules [v] at virtual cycle [time]. O(log n). *)

val pop : 'a t -> (int * int * 'a) option
(** Removes and returns the minimum [(time, tie, value)], [None] when
    empty. O(log n). *)

val peek_time : 'a t -> int option
(** The virtual time of the next event without removing it. *)

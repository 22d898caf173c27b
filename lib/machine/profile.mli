(** Execution profiler: per-function cycle/instruction/call attribution
    and dynamic call-graph extraction.

    Used by the evaluation to substantiate the paper's §7.1 claim that
    instrumentation overhead is proportional to function-call frequency —
    {!call_density} is the measured calls-per-kilo-instruction figure
    reported alongside Figure 5. *)

type entry = {
  mutable cycles : int;
  mutable instructions : int;
  mutable activations : int;  (** times entered via [bl]/[blr] *)
}

type t

val run : ?fuel:int -> Machine.t -> Machine.outcome * t
(** [Machine.run ?fuel m] under a {!Machine.run_until} observer that
    attributes each instruction boundary to the function covering PC,
    and counts a call wherever the previous boundary was a [bl]/[blr].
    The profile covers this run only. Like every observer it also sees
    the boundary where a run faults or runs out of fuel, whose
    instruction never retires. *)

val entry_of : t -> string -> entry option

val call_edges : t -> ((string * string) * int) list
(** Dynamic call graph: ((caller, callee), count), heaviest first. *)

val total_calls : t -> int

val call_density : t -> float
(** Calls per 1000 observed instructions. *)

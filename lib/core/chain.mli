(** The authenticated call stack as a pure data structure (§4).

    A chain binds every live return address into a sequence of [b]-bit
    authentication tokens:

    {v auth_i = H_k(ret_i, aret_{i-1})        aret_i = auth_i || ret_i v}

    with [aret_{-1} = seed]. Only the newest [aret_n] needs integrity
    (it lives in the CR register); everything older sits in attackable
    memory, which this model exposes via {!stored} / {!tamper}.

    With [masked = true] every stored token is XOR-masked with
    [H_k(0, aret_{i-1})] (§4.2), hiding token collisions from an adversary
    who can read the whole stack. *)

type t

type violation = {
  depth : int;          (** frames from the top when detected *)
  expected : Pacstack_util.Word64.t;
  got : Pacstack_util.Word64.t;
}

val create :
  ?masked:bool ->
  ?seed:Pacstack_util.Word64.t ->
  cfg:Pacstack_pa.Config.t ->
  Pacstack_pa.Prf.t -> t
(** [masked] defaults to true; [seed] (the §4.3 re-seeding value, e.g. a
    thread id) defaults to 0. *)

val config : t -> Pacstack_pa.Config.t
val masked : t -> bool
val depth : t -> int

val current : t -> Pacstack_util.Word64.t
(** [aret_n] — the CR value. Never stored where {!tamper} can reach. *)

val push : t -> ret:Pacstack_util.Word64.t -> unit
(** Function call with return address [ret]: the previous [aret] moves to
    attackable storage and the new [aret] becomes current. The return
    address must be a canonical non-zero pointer. *)

val pop : t -> (Pacstack_util.Word64.t, violation) result
(** Function return: loads the stored [aret_{i-1}], verifies the current
    [aret_i] against it and, on success, returns [ret_i] and makes
    [aret_{i-1}] current. A verification failure models the translation
    fault a corrupted pointer causes (the chain is left popped, matching a
    crashed process). Raises [Invalid_argument] on an empty chain. *)

val stored : t -> Pacstack_util.Word64.t array
(** Adversary view of the stack: stored (masked) [aret] values, index 0 the
    oldest. Also visible: nothing else — masks are never stored (§5.2). *)

val tamper : t -> int -> Pacstack_util.Word64.t -> unit
(** Adversary write to a stored slot. *)

val aret_of : t -> ret:Pacstack_util.Word64.t -> modifier:Pacstack_util.Word64.t -> Pacstack_util.Word64.t
(** The authenticated return address the instrumentation would produce for
    [ret] under a given previous [aret] — the oracle the adversary gets by
    observing executions ({!push} uses exactly this). Masked iff the chain
    is. *)

val clone : t -> t
(** Deep copy (fork). *)

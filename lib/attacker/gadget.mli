(** The §6.3.1 signing-gadget analysis.

    Google Project Zero observed that an [aut]-then-[pac] sequence can be
    abused to produce a valid PAC for an arbitrary pointer: [aut] on a
    forged pointer strips the PAC and corrupts a high bit, and a following
    [pac] signs the stripped address while flipping one well-known PAC bit
    [p]; flipping [p] back yields a valid signed pointer.

    {!forge_with_gadget} reproduces that mechanic at the PA level.
    {!tail_call_attack} runs the Listing 8 scenario: in PACStack the
    [aut]/[pac] pair spans a tail call, but the intermediate value lives
    in CR, which the adversary cannot touch — so the forgery is detected
    at the tail-callee's return. *)

val forge_with_gadget :
  Pacstack_pa.Config.t -> Pacstack_pa.Prf.t ->
  target:Pacstack_util.Word64.t -> modifier:Pacstack_util.Word64.t ->
  Pacstack_util.Word64.t
(** The signed pointer an adversary obtains for an arbitrary [target] by
    driving a forged pointer through [aut; pac] and flipping bit [p]. *)

val gadget_forges_valid_pointer :
  Pacstack_pa.Config.t -> Pacstack_pa.Prf.t ->
  target:Pacstack_util.Word64.t -> modifier:Pacstack_util.Word64.t -> bool
(** True: the gadget works against a scheme that lets the adversary touch
    the intermediate value (demonstrates the vulnerability exists in our
    PA semantics, as in real ARMv8.3). *)

val tail_call_attack : masked:bool -> Adversary.outcome
(** The same forgery attempted against PACStack across a tail call
    (expected: detected). *)

(** Architectural semantics of the pointer-authentication instructions.

    These functions are pure; the machine simulator calls them when
    executing [pacia]/[autia]/[xpaci]/[pacga] and the hardening passes'
    emitted code relies on exactly these behaviours:

    - {!compute} is the tweakable MAC over the stripped address.
    - {!add} embeds a PAC. If the input pointer's upper bits are already
      non-canonical, the PAC is computed for the {e stripped} address and
      then a well-known PAC bit is flipped — the behaviour that gives rise
      to the Google Project Zero signing gadget analysed in §6.3.1.
    - {!auth} verifies; on failure it strips the PAC and sets the
      well-known error bit so that any later translation faults. No fault
      is raised at [aut] time, exactly as in ARMv8.3-A (§2.2). *)

type result = Valid of Pointer.t | Invalid of Pointer.t
(** [Valid p]: authentication succeeded, [p] is the stripped address.
    [Invalid p]: failed, [p] carries the error bit. *)

val compute :
  Config.t -> Prf.t ->
  address:Pointer.t -> modifier:Pacstack_util.Word64.t -> Pacstack_util.Word64.t
(** The [pac_bits]-wide PAC for a (stripped) address under a modifier. *)

val add :
  Config.t -> Prf.t ->
  Pointer.t -> modifier:Pacstack_util.Word64.t -> Pointer.t
(** [pacia]-style signing, including the flipped-PAC-bit behaviour on
    non-canonical input. *)

val auth :
  Config.t -> Prf.t ->
  Pointer.t -> modifier:Pacstack_util.Word64.t -> result
(** [autia]-style verification. *)

val auth_value :
  Config.t -> Prf.t ->
  Pointer.t -> modifier:Pacstack_util.Word64.t -> Pointer.t
(** {!auth} without the [result] box, for the execution hot paths: the
    stripped address on success, the error-bit-tagged pointer on
    failure (any later translation of it faults, so no information is
    lost). *)

val strip : Config.t -> Pointer.t -> Pointer.t
(** [xpac]: remove the PAC without verification. *)

val generic :
  Config.t -> Prf.t ->
  Pacstack_util.Word64.t -> modifier:Pacstack_util.Word64.t -> Pacstack_util.Word64.t
(** [pacga]: a 32-bit MAC over an arbitrary 64-bit value, returned in the
    upper half of the result (lower half zero). Used by the Appendix B
    sigreturn defence. *)

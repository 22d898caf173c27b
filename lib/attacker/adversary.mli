(** The §3 adversary: arbitrary read of the whole address space, arbitrary
    write to writable pages (W⊕X binds it), no access to registers or PA
    keys. Attacks attach to hook intrinsics in victim programs and act on
    the machine state through this module only. *)

type outcome =
  | Hijacked  (** control reached the adversary's target ([evil] ran) *)
  | Bent  (** execution completed but the observable trace changed *)
  | Detected of string  (** fault or canary abort stopped the attack *)
  | No_effect  (** trace identical to the benign run *)

exception
  Benign_run_failed of { scheme : Pacstack_harden.Scheme.t; outcome : string }
(** Raised by {!benign_output} when the unattacked victim run does not
    halt cleanly — the victim/scheme pair is broken, not the attack. *)

val pp_outcome : Format.formatter -> outcome -> unit
val outcome_to_string : outcome -> string
val equal_outcome : outcome -> outcome -> bool

val read : Pacstack_machine.Machine.t -> Pacstack_util.Word64.t -> Pacstack_util.Word64.t option
(** Unrestricted read (R2: full memory disclosure). *)

val write : Pacstack_machine.Machine.t -> Pacstack_util.Word64.t -> Pacstack_util.Word64.t -> bool
(** Write, refused on non-writable pages (assumption A1). *)

val frame_record : Pacstack_machine.Machine.t -> Pacstack_util.Word64.t
(** Address of the live function's frame record ([fp] — observable because
    the frame-pointer chain is plain data on the stack). *)

val return_slot : Pacstack_machine.Machine.t -> Pacstack_util.Word64.t
(** [fp + 8] ({!Pacstack_harden.Scheme.return_slot_offset}): where the
    interrupted function's return address is stored. *)

val chain_slot : Pacstack_machine.Machine.t -> Pacstack_util.Word64.t
(** [fp - 16] ({!Pacstack_harden.Scheme.chain_spill_offset}): the
    PACStack [aret_{i-1}] spill slot. *)

val shadow_top_slot : Pacstack_machine.Machine.t -> Pacstack_util.Word64.t option
(** Topmost occupied shadow-stack entry, found by scanning the (known,
    deterministic) shadow region — the paper's "software shadow stacks are
    vulnerable once their location is known". [None] if empty. *)

val symbol : Pacstack_machine.Machine.t -> string -> Pacstack_util.Word64.t option

val classify :
  expected:int64 list ->
  Pacstack_machine.Machine.t ->
  Pacstack_machine.Machine.outcome -> outcome
(** Classifies a finished victim run against the benign output trace. *)

val benign_output :
  Pacstack_harden.Scheme.t -> Pacstack_minic.Ast.program -> int64 list
(** Output of an unattacked run (for [classify]'s [expected]). *)

(** The hardening-scheme registry, and the one statement of the frame
    layout.

    A scheme is one self-describing {!descriptor}: its names, its
    prologue/epilogue codegen, the stack word an adversary must corrupt
    to redirect its return ({!slot}), whether its spilled control words
    are observable, its chain-register and setjmp/longjmp conventions,
    and the sealing hooks applied to function pointers.  The compiler,
    the runtime, the attacks and the fault-injection engine read these
    through the accessors below, so adding a scheme is one {!register}
    call in one module.

    Frame layout, the contract between the codegen and the compiler:
    - the body runs with SP at the bottom of a [locals_bytes] region;
    - FP points at the frame record, so [\[fp\]] is the caller's FP and
      [\[fp + 8\]] ({!return_slot_offset}) the return address;
    - PACStack and Zipper Stack spill the chain register at
      [\[fp - 16\]] ({!chain_spill_offset}), the word
      {!Pacstack_machine.Unwind} authenticates;
    - the body ends by falling into the epilogue;
    - leaf functions (no calls) never spill LR and are skipped by the
      LR-protecting schemes, mirroring the paper's §7.1 heuristic.

    Ships ten schemes: the paper's six (§7) plus four from the related
    work — PCan, Zipper Stack, PACTight sealing and PARTS forward-edge
    [pacia]. *)

type t
(** An opaque registry index.  Plain immediate int underneath:
    marshals across process pools and compares structurally. *)

type traits = {
  is_leaf : bool;  (** makes no calls *)
  has_arrays : bool;  (** holds addressable buffers (canary heuristic) *)
  locals_bytes : int;  (** 16-byte aligned size of the locals region *)
}

type slot =
  | Return_slot  (** the frame record's saved LR at [fp + 8] *)
  | Chain_slot  (** the PACStack/Zipper CR spill at [fp - 16] *)
  | Shadow_slot  (** the function's X18 shadow-stack entry *)

type descriptor = {
  name : string;  (** canonical name; [to_string] returns it *)
  aliases : string list;  (** extra spellings accepted by [of_string] *)
  prologue : traits -> Pacstack_isa.Instr.t list;
  epilogue : traits -> Pacstack_isa.Instr.t list;
      (** ends in the returning instruction *)
  control_slot : slot;
  observable : bool;
  chained_signal : bool;
      (** kernel binds signal frames to the ACS (Appendix B) *)
  setjmp_symbol : string;
  longjmp_symbol : string;
  fnptr_seal : Pacstack_isa.Reg.t -> Pacstack_isa.Instr.t list;
      (** appended after materialising a function address in the register *)
  fnptr_call : Pacstack_isa.Reg.t -> Pacstack_isa.Instr.t list;
      (** the complete indirect-call sequence through the register *)
}

exception Duplicate_scheme of { name : string; key : string }
(** Raised by {!register} when [key] (a name or alias, compared
    case-insensitively) is already claimed. *)

val register : descriptor -> t
val descriptor : t -> descriptor

val registered_count : unit -> int
(** Total registered schemes; tests pin it to [List.length all] so a
    registered scheme cannot silently miss evaluation coverage. *)

val all : t list
(** Every registered scheme, legacy six first, in table order. *)

val legacy : t list
(** The paper's six (§7), in the order its tables list them. *)

val unprotected : t
val stack_protector : t
val branch_protection : t
val shadow_stack : t
val pacstack_nomask : t
val pacstack : t
val pcan : t
val zipper : t
val pactight : t
val parts : t

val to_string : t -> string

val of_string : string -> t option
(** Total over everything {!to_string} produces: canonical names and
    aliases are claimed in one table at registration. *)

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool

val traits : ?is_leaf:bool -> ?has_arrays:bool -> ?locals_bytes:int -> unit -> traits
(** Defaults: a non-leaf function without arrays or locals. Raises
    [Invalid_argument] unless [locals_bytes] is a non-negative multiple
    of 16. *)

val prologue : t -> traits -> Pacstack_isa.Instr.t list

val epilogue : t -> traits -> Pacstack_isa.Instr.t list
(** Ends in the returning instruction. *)

val control_slot : t -> slot
(** The word whose value the scheme's epilogue turns into the return
    target: the saved LR for unprotected / stack-protector /
    branch-protection style frames, the shadow-stack entry for shadow
    frames, and the spilled chain value for PACStack (the epilogue
    authenticates the register-held aret against it). *)

val observable : t -> bool
(** Whether control words read from memory are correlatable by the §3
    adversary — [false] only for masked PACStack, whose spilled tokens
    are indistinguishable from random (Appendix A), so harvesting them
    supports no reuse strategy. *)

val return_slot_offset : int
(** [+8]: the frame record's saved LR, relative to a non-leaf
    function's FP. *)

val chain_spill_offset : int
(** [-16]: the PACStack/Zipper chain-register spill, relative to FP. *)

val chained_signal : t -> bool
(** True when the kernel authenticates sigreturn frames against the
    chain (Appendix B): the PACStack variants. *)

val fnptr_seal : t -> Pacstack_isa.Reg.t -> Pacstack_isa.Instr.t list
val fnptr_call : t -> Pacstack_isa.Reg.t -> Pacstack_isa.Instr.t list

val stack_chk_fail_symbol : string
(** ["__stack_chk_fail"] — the abort entry the canary-style schemes
    branch to on a failed check. *)

val canary_failure_exit_code : int
(** [134]: the exit code of [__stack_chk_fail]. *)

val canary_slot : traits -> int
(** SP-relative offset of the canary slot in a canary frame. *)

val obs_count_emitted :
  string -> Pacstack_isa.Instr.t list -> Pacstack_isa.Instr.t list
(** [obs_count_emitted name instrs] bumps the [harden.emit.*] metrics
    for the PA instructions in [instrs] under scheme [name] and returns
    [instrs]; descriptors wrap their codegen in it. *)

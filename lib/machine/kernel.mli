(** A minimal EL1 personality on top of {!Machine}.

    Provides what the paper's experiments assume of Linux 5.0 (§2.2,
    §6.3.2): per-process PA keys, and signal delivery and [sigreturn] —
    optionally hardened with the Appendix B authenticated signal-return
    chain. There is no fork, no thread and no context switch: forked
    siblings are {!Machine.clone}s, so §5.4's kernel-side save of CR on a
    context switch is not modelled.

    Syscall ABI (number in the [svc] immediate):
    - 0: exit, code in X0
    - 1: debug print of X0
    - 5: sigreturn
    - 7: mprotect — X0 address, X1 size, X2 protection (r=4, w=2, x=1);
      X0 becomes 0 on success, -1 when refused (W⊕X, assumption A1, or
      unmapped pages)

    Any other number traps as [Undefined "unknown syscall n"]. *)

type signal_policy =
  | Sig_unprotected  (** frames validated by nothing, as in mainline Linux *)
  | Sig_chained      (** the Appendix B [asigret] chain, keyed with GA *)
  | Sig_chained_full
      (** Appendix B's stronger variant: the chain covers every saved
          register (a pacga fold over the whole frame), so forging any
          register — not just PC/CR — is detected *)

type t
type proc

val create : ?signal_policy:signal_policy -> Pacstack_util.Rng.t -> t
(** A kernel drawing every process's PA keys and canary from the
    generator; [signal_policy] defaults to [Sig_unprotected]. *)

val boot : t -> Pacstack_isa.Program.t -> proc
(** [boot_prepared t (Machine.prepare program)]. *)

val boot_prepared : t -> Machine.prepared -> proc
(** Instantiates a fresh machine from a prepared program, with a fresh
    PA key set drawn from the kernel's generator (the canary from a
    split of it), and installs the kernel's syscall handler. Booting one
    prepared value many times gives independent processes. *)

val adopt : t -> Machine.t -> proc
(** Makes an existing machine a process (its syscall handler is
    replaced). *)

val machine : proc -> Machine.t
(** The process's machine: [Machine.run] on it runs the process. *)

val deliver_signal : t -> proc -> handler:string -> signum:int -> unit
(** Suspends the process, pushes the signal frame onto the user stack and
    redirects execution to [handler] with LR pointing at the sigreturn
    trampoline. Raises [Invalid_argument] if the handler symbol is
    unknown. *)

val signal_depth : proc -> int
(** Signal frames delivered and not yet returned from. *)

val sigreturn_kill_exit_code : int
(** [139]: the exit code of a process whose [sigreturn] frame fails the
    Appendix B chain check (a forged or replayed frame): the kernel
    terminates it, as Linux does with SIGSEGV. *)

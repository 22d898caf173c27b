(** A minimal EL1 personality on top of {!Machine}.

    Provides what the paper assumes of Linux 5.0 (§2.2, §5.4, §6.3.2):
    per-process PA keys regenerated on [exec], [fork] into sibling
    processes that share keys, kernel-side storage of thread contexts so a
    suspended thread's CR is unreachable from user space, signal delivery
    and [sigreturn] — optionally hardened with the Appendix B
    authenticated signal-return chain.

    Syscall ABI (number in the [svc] immediate):
    - 0: exit, code in X0
    - 1: debug print of X0
    - 2: fork — child's X0 = 0, parent's X0 = child pid
    - 3: thread spawn — X0 entry address, X1 stack top
    - 4: yield to the next runnable thread of this process
    - 5: sigreturn
    - 6: getpid into X0
    - 7: mprotect — X0 address, X1 size, X2 protection (r=4, w=2, x=1);
      X0 becomes 0 on success, -1 when refused (W⊕X, assumption A1, or
      unmapped pages) *)

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
    split of it), and registers it as a process. Booting one prepared
    value many times gives independent processes. *)

val adopt : t -> Machine.t -> proc
(** Registers an existing machine as a process (its syscall handler is
    replaced). *)

val machine : proc -> Machine.t
(** The process's machine: [Machine.run] on it runs this process alone,
    leaving the others untouched (scheduling across processes is driven
    by the experiment, or by {!run_all}). *)

val pid : proc -> int
val processes : t -> proc list
(** All live processes, oldest first. *)

val children : t -> proc -> proc list

val exec : t -> proc -> Pacstack_isa.Program.t -> unit
(** Replaces the process image and — as Linux does — generates a fresh PA
    key set. *)

val deliver_signal : t -> proc -> handler:string -> signum:int -> unit
(** Suspends the process, pushes the signal frame onto the user stack and
    redirects execution to [handler] with LR pointing at the sigreturn
    trampoline. Raises [Invalid_argument] if the handler symbol is
    unknown. *)

val signal_depth : proc -> int

val thread_count : proc -> int
(** Runnable-but-suspended thread contexts held by the kernel. *)

val run_all :
  ?fuel:int -> ?quantum:int -> t -> (proc * Machine.outcome) list
(** Round-robin scheduler over every live process (parents and forked
    children), [quantum] instructions per slice; a faulting process is
    killed with code 139, as a crashing sibling would be. Each slice is
    charged a whole quantum against [fuel] (default 10 million), and the
    schedule stops once [fuel] is spent, so no more than [fuel]
    instructions run in all; a process still running then reports
    [Out_of_fuel]. Returns the final outcome of every process. Raises
    [Invalid_argument] on a non-positive [quantum] or a negative
    [fuel]. *)

val run_preemptive : ?fuel:int -> quantum:int -> t -> proc -> Machine.outcome
(** Like [Machine.run] on the process's machine, but a timer preempts
    the running thread every [quantum] retired instructions and rotates
    to the next runnable thread of the process — §5.4's register
    save/restore under involuntary context switches. The preempted
    context is kernel-private, as with [yield]. *)

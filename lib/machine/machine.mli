(** The simulated user-visible machine: register file, memory, loaded
    image, PA keys and the instruction-step semantics.

    One [Machine.t] is one hardware thread running one program. The kernel
    personality ({!Kernel}) layers processes, threads and signals on top. *)

type t

(** {1 Construction} *)

type prepared
(** The per-program half of loading: the {!Image.t}, its threaded-code
    ops table and, once warm, its block table. One value may back any
    number of machines, in any order, on any domains at once, for the
    life of the process, without one run being able to affect another:
    the fault-injection engine keeps one per distinct victim and shares
    it across worker domains (lib/inject's [Engine.prepared_victim]). It
    is not immutable: each ops slot starts as a stub that compiles its
    instruction on first visit and stores the closure in the slot, for
    every later instance and clone to reuse, and the image's binary
    encoding is made when a machine first reads its code as data
    ({!Image.encoded}). Once the program's runs under {!run}, over all
    its instances, have made a fixed number of steps (4,096), it also
    gains a block table for {!run}'s straight-line blocks, published in
    one write and filled on each block's first entry. A slot's closure or
    block depends only on the image and the slot index, and the encoding
    only on the image, so two domains that race on either store equal
    values; the races are benign and no lock is taken (test_engine's
    [prepare] group runs cold values on two domains at once, getting
    warm during the runs, against a sequential run). *)

val prepare : Pacstack_isa.Program.t -> prepared
(** Builds the image; threaded ops are compiled later, on first visit,
    and the code is encoded on its first data read. Raises
    {!Pacstack_isa.Encode.Unencodable} for code the encoding cannot
    hold, checked without encoding ({!Pacstack_isa.Encode.validate}).
    Forces no minor collection and draws no randomness. *)

val prepared_image : prepared -> Image.t
(** The image every instance of the prepared program runs. *)

val blocks_built : prepared -> int
(** How many entry points have a straight-line block built so far: 0
    until the program is warm, then one more for each entry index {!run}
    first enters. The engine tests read it to check that the block path
    runs. *)

val instantiate :
  ?cfg:Pacstack_pa.Config.t ->
  ?keys:Pacstack_pa.Keys.t ->
  ?rng:Pacstack_util.Rng.t ->
  prepared -> t
(** The per-run half: a fresh machine over fresh memory. Maps the code
    (rx), data (rw), stack (rw) and the shadow stack region (rw), seeds
    the stack-canary global, points SP at the stack top, X18 at the
    shadow stack base, LR at [__halt], and PC at the entry symbol.
    [keys] defaults to a fresh set drawn from [rng] (defaulting to a
    fixed-seed generator); the canary is drawn from [rng] after the
    keys. Each code page gets a private copy of its bytes, the image's
    encoding zero-padded to the page's end, on its first data access
    (see {!Memory.map}); a run that only executes its code never reads,
    or encodes, it. *)

val load :
  ?cfg:Pacstack_pa.Config.t ->
  ?keys:Pacstack_pa.Keys.t ->
  ?rng:Pacstack_util.Rng.t ->
  Pacstack_isa.Program.t -> t
(** [instantiate ?cfg ?keys ?rng (prepare program)]. Callers that run
    one program many times prepare it once instead. *)

val clone : t -> t
(** Deep copy: memory, registers and keys (a forked sibling shares its
    parent's keys). Hooks and the syscall handler are shared. *)

(** {1 State access} *)

val config : t -> Pacstack_pa.Config.t
val keys : t -> Pacstack_pa.Keys.t
val memory : t -> Memory.t
val image : t -> Image.t

val get : t -> Pacstack_isa.Reg.t -> Pacstack_util.Word64.t
(** Reads a register; [XZR] reads as zero. Raises [Invalid_argument]
    for [X n] outside 0-30, as does running an instruction that names
    one. *)

val set : t -> Pacstack_isa.Reg.t -> Pacstack_util.Word64.t -> unit
(** Writes a register; writes to [XZR] are discarded. Raises
    [Invalid_argument] for [X n] outside 0-30. *)

val pc : t -> Pacstack_util.Word64.t
val set_pc : t -> Pacstack_util.Word64.t -> unit
val flags : t -> Pacstack_isa.Cond.flags

val cycles : t -> int
val instructions_retired : t -> int

val memory_operations : t -> int
(** Loads/stores executed (pair operations count twice) — input to the
    multi-worker memory-contention model of the Table 3 experiment. *)

val halted : t -> int option
val set_halted : t -> int -> unit

val canary_symbol : string
(** Name of the data object holding the stack-protector guard value. *)

val set_forward_cfi : t -> bool -> unit
(** Coarse-grained forward-edge CFI (assumption A2): when enabled (the
    default, as the paper assumes), indirect calls may only target
    function entry points; violations raise {!Trap.Fault} with
    [Cfi_violation]. Disable to study PACStack without its prerequisite. *)

val set_obs_label : t -> string -> unit
(** Attribution label for the lib/obs metrics this machine publishes at
    the end of each [run]/[run_until] (instructions, TLB hits/misses,
    PA operations by kind, traps by kind): a non-empty [scheme] renders
    metric names as [machine.*{scheme=<scheme>}]; [""] (the default)
    removes the suffix. A no-op in effect unless [Obs.enable] was
    called — with obs disabled the machine publishes nothing. *)

(** {1 Hooks and syscalls} *)

val attach_hook : t -> string -> (t -> unit) -> unit
(** Installs the adversary (or test probe) invoked by [Hook name]. *)

val detach_hook : t -> string -> unit

val set_syscall_handler : t -> (t -> int -> unit) -> unit
(** Invoked on [Svc n]; the default handler implements [svc #0] as exit
    with code X0, [svc #1] as debug print of X0, and faults on anything
    else. *)

val output : t -> int64 list
(** Values printed via the debug-print syscall, oldest first. *)

val push_output : t -> int64 -> unit

(** {1 Execution} *)

type outcome = Halted of int | Faulted of Trap.t | Out_of_fuel

val run : ?fuel:int -> t -> outcome
(** Executes until halt, fault or [fuel] instructions (default 10
    million); [run ~fuel:1] executes one. Raises [Invalid_argument] on a
    negative [fuel]. A halted machine stays halted.

    Dispatches through the threaded-code engine: each instruction is
    compiled, on its first visit, into a per-instruction closure
    (register slots, cycle costs, mem_ops deltas, branch targets and obs
    classification all resolved at compile time), and the per-step
    translate/execute check is a page-granular cache invalidated by any
    [Memory.map]/[unmap]/[protect]. Once the prepared program is warm
    (see {!prepared}), [run] executes straight-line blocks: the
    instructions from an entry point to the first branch, call, return,
    [svc], [hlt] or hook, within one code page, each block with one fuel
    check, one execute check and one counter update. A block runs only
    when the remaining fuel covers it, and a trap inside one leaves PC,
    registers and counters at the trapping instruction. Observable
    behaviour is bit-identical to {!Reference.run}, pinned by the
    differential suite in test_engine.ml, on cold and on warm programs. *)

val run_until : ?fuel:int -> t -> stop:(t -> bool) -> outcome option
(** Like {!run}, but returns [None] as soon as [stop t] holds, with the
    machine paused and PC at the next, not-yet-executed instruction;
    [Some outcome] if the program halted, faulted or ran out of fuel
    first. An observer that records machine state at every boundary
    drives a run with this; a pause after a fixed instruction count is
    {!run} with that much fuel.

    [stop] runs once at every instruction boundary while the machine is
    not halted, before the instruction: that includes the boundary of a
    [hlt], one whose fetch then faults, and the one where the fuel runs
    out. A predicate that records and answers [false] is an observer of
    every instruction: it reads the instruction with
    [Image.fetch (image m) (pc m)].

    A predicate may read anything and may write registers, flags and
    mapped data memory. It must not change PC, [halted] or the page
    table: the threaded engine resolves the next instruction when it
    compiles one and chains compiled ops without re-reading PC between
    straight-line instructions, so such a change would be seen by the
    reference engine and missed by the threaded one. *)

(** The original fetch-then-match interpreter, kept verbatim as the
    oracle for the threaded engine: same machine state, same traps, same
    counters, one instruction dispatch at a time. The engines may be
    interleaved freely on one machine — they share all state and differ
    only in dispatch. *)
module Reference : sig
  val run : ?fuel:int -> t -> outcome
  val run_until : ?fuel:int -> t -> stop:(t -> bool) -> outcome option
end

(** {1 Context save/restore (used by the kernel)} *)

type context

val save_context : t -> context
val restore_context : t -> context -> unit
val context_pc : context -> Pacstack_util.Word64.t
val context_get : context -> Pacstack_isa.Reg.t -> Pacstack_util.Word64.t
val context_words : context -> Pacstack_util.Word64.t array
(** Flat encoding: X0..X30, SP, PC, flags-as-word — the layout the kernel
    writes into user-visible signal frames. *)

val context_of_words : Pacstack_util.Word64.t array -> context

(** A small peephole optimizer over compiled functions.

    Removes the local redundancies our straightforward code generator
    produces, without touching anything a hardening pass emitted:

    - self moves ([mov xN, xN]),
    - additions/subtractions of zero onto the same register,
    - branches to the immediately following label,
    - reloads of a register just stored to the same stack slot.

    Safe by construction in this machine model (no memory-mapped I/O, no
    visible flag effects from the removed instructions). The optimizer is
    opt-in ([Compile.compile ~optimize:true]) so that the default output
    matches the paper's listings instruction for instruction. *)

val function_pass : Pacstack_isa.Program.func -> Pacstack_isa.Program.func
(** One left-to-right pass that leaves no rewrite applicable: after each
    removal it re-examines the kept item before it. *)

val program_pass : Pacstack_isa.Program.t -> Pacstack_isa.Program.t
(** {!function_pass} over every function, revalidated. The runtime
    functions are already peephole-free, so
    [program_pass (Compile.compile ~scheme p)] equals
    [Compile.compile ~scheme ~optimize:true p]; the fuzz oracle derives
    its peephole variant this way instead of compiling twice. *)

val removed_count : Pacstack_isa.Program.t -> Pacstack_isa.Program.t -> int
(** Instructions eliminated between an input and output program. *)

(** The mini-C to ISA compiler.

    Plays the role of the paper's LLVM backend: lowers each function with
    the AAPCS64-flavoured convention (arguments in X0–X5, result in X0,
    expression temporaries in X9–X14 spilled around calls) and wraps the
    body in the prologue/epilogue of the selected hardening scheme
    ({!Pacstack_harden.Frame}). The {!Pacstack_harden.Runtime} support
    functions are linked into every output. *)

exception Error of string

val compile :
  scheme:Pacstack_harden.Scheme.t ->
  ?overrides:(string * Pacstack_harden.Scheme.t) list ->
  ?optimize:bool ->
  Ast.program -> Pacstack_isa.Program.t
(** [overrides] assigns individual functions a different scheme — the §9.2
    mixed instrumented/uninstrumented deployment scenario, and the only way
    to build a program whose functions use different schemes. Raises
    {!Error} on malformed programs (unknown variables or functions, too
    many arguments, too-deep expressions). [optimize] (default false) runs
    the {!Peephole} pass. *)

val function_traits : Ast.fdef -> Pacstack_harden.Frame.traits
(** The traits the compiler derives for a function (exposed for tests and
    for static overhead analysis). *)

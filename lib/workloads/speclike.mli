(** Synthetic stand-ins for the SPEC CPU 2017 C benchmarks of §7.1.

    Each kernel is a deterministic mini-C program whose function-call
    density is calibrated to the role its namesake plays in Figure 5 —
    PACStack overhead is proportional to call frequency, so matching the
    call-density spectrum reproduces the per-benchmark overhead shape.
    Every kernel prints a checksum, so tests can assert that hardening
    never changes program semantics.

    [Rate] and [Speed] variants differ in working-set scale, mirroring the
    SPECrate/SPECspeed split of Table 2. *)

type variant = Rate | Speed

val variant_to_string : variant -> string

type benchmark = {
  name : string;  (** e.g. "perlbench" *)
  description : string;
  program : variant -> Pacstack_minic.Ast.program;
}

val all : benchmark list
(** The eight C benchmarks the paper measures, in Figure 5 order. *)

val cpp : benchmark list
(** Three C++-flavoured kernels (virtual dispatch, deep recursion, tree
    rewriting) matching the paper's separately-reported C++ overheads
    (2.0 % masked, 0.9 % unmasked). *)

val find : string -> benchmark option
(** Looks up both the C and C++ catalogues. *)

type measurement = {
  bench : string;
  variant : variant;
  scheme : Pacstack_harden.Scheme.t;
  cycles : int;
  instructions : int;
  mem_ops : int;
  checksum : int64;
}

val measure :
  scheme:Pacstack_harden.Scheme.t -> variant -> benchmark -> measurement
(** Compiles, runs to completion and reports the cost counters. Raises
    [Failure] if the benchmark crashes or runs out of fuel. *)

val overhead_pct : baseline:measurement -> measurement -> float

val measure_cell :
  variant:variant -> scheme:Pacstack_harden.Scheme.t -> string -> measurement
(** [measure_cell ~variant ~scheme name] is {!measure} of the kernel
    looked up by name (C or C++). Raises [Failure] on an unknown
    name. *)

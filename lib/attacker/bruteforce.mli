(** Machine-level brute-force guessing against forked siblings (§4.3).

    A parent process (PACStack-protected, small PAC width so the
    experiment terminates) is forked repeatedly, each fork a
    {!Pacstack_machine.Machine.clone}; each child inherits the parent's
    PA keys, the adversary corrupts the child's chain slot with a
    guessed token and observes whether the child crashes. The pure-model
    statistics live in {!Pacstack_acs.Games}; this experiment demonstrates
    the same effect end-to-end on the machine and the real
    instrumentation. *)

val total_guesses : ?pac_bits:int -> trials:int -> Pacstack_util.Rng.t -> int
(** The summed guess count over [trials] end-to-end attacks driven from
    the given generator: each attack enumerates tokens against one
    parent's forked siblings until a forged return survives, and counts
    the guesses that took. [pac_bits] defaults to 6. Totals of separate
    generators add; divide by the summed trials for the mean. *)

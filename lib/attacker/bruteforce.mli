(** Machine-level brute-force guessing against forked siblings (§4.3).

    A parent process (PACStack-protected, small PAC width so the
    experiment terminates) is forked repeatedly, each fork a
    {!Pacstack_machine.Machine.clone}; each child inherits the parent's
    PA keys, the adversary corrupts the child's chain slot with a
    guessed token and observes whether the child crashes. The pure-model
    statistics live in {!Pacstack_acs.Games}; this experiment demonstrates
    the same effect end-to-end on the machine and the real
    instrumentation. *)

type result = {
  pac_bits : int;
  trials : int;
  mean_guesses : float;  (** guesses until a forged return survives *)
  expected : float;  (** (2^b + 1) / 2 for enumerated guessing *)
}

val run : ?pac_bits:int -> ?trials:int -> ?seed:int64 -> unit -> result
(** Defaults: [pac_bits = 6], [trials = 20]. *)

val total_guesses : ?pac_bits:int -> trials:int -> Pacstack_util.Rng.t -> int
(** Shardable form of {!run}: the summed guess count over [trials]
    end-to-end attacks driven from the given generator. Shard totals add;
    divide by the summed trials for the campaign mean. *)

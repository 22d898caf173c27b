(** Regeneration of every table and figure in the paper's evaluation, plus
    the security experiments of §4.3 and §6 (see the per-experiment index
    in DESIGN.md). Each function prints a self-contained section comparing
    the paper's numbers with the measured ones; {!all} prints everything.
    All experiments are deterministic for a fixed [seed]. *)

val table1 :
  ?seed:int64 -> ?workers:int -> ?scale:float ->
  ?progress:Pacstack_campaign.Progress.sink -> Format.formatter -> unit
(** Table 1: maximum success probability of call-stack integrity
    violations — closed forms next to Monte-Carlo estimates at a small
    PAC width ({!Plans.table1}). [workers] defaults to 1 and the printed
    numbers are identical for any worker count. [scale] multiplies trial
    counts (tests regenerate the table at tiny scales; the numbers are
    then noisy but the shape is exercised). *)

type overheads = {
  figure5 : (string * float * (Pacstack_harden.Scheme.t * float) list) list;
      (** per SPECrate-like benchmark: name, calls per 1000 instructions
          of the baseline build, and each measured scheme's overhead %% *)
  table2 : (Pacstack_harden.Scheme.t * float * float) list;
      (** per measured scheme: geometric-mean overhead %% over SPECrate
          and over SPECspeed *)
  cpp : (Pacstack_harden.Scheme.t * float) list;
      (** PACStack with and without masking: geometric-mean overhead %%
          over the C++-like benchmarks, which the paper reports
          separately *)
}

val overheads : unit -> overheads
(** Figure 5's, Table 2's and the C++ rows. Every (variant, benchmark,
    scheme) cell is measured once, and each build must print the
    baseline's checksum. Rendered as text by {!pp_overheads} and as CSV
    by {!Export}. *)

val pp_overheads : Format.formatter -> overheads -> unit
(** Figure 5 (per-benchmark overhead, one column per [table2] scheme),
    Table 2 (geometric-mean overheads, SPECrate and SPECspeed) and the
    C++-like benchmarks' means, with the paper's numbers beside them. *)

val table2_and_figure5 : Format.formatter -> unit
(** [pp_overheads] of [overheads ()]. *)

val table3 : Format.formatter -> unit
(** Table 3: NGINX-style SSL TPS with 4 and 8 workers — the
    {!Plans.server} rows next to the paper's numbers. *)

val reuse_matrix : Format.formatter -> unit
(** §6.1: the Listing 6 attack strategies against every scheme. *)

val birthday :
  ?seed:int64 -> ?workers:int -> ?scale:float ->
  ?progress:Pacstack_campaign.Progress.sink -> Format.formatter -> unit
(** §6.2.1: harvested-token count until a PAC collision
    ({!Plans.birthday}), and the mask distinguisher advantage
    (Appendix A). [scale] multiplies trial counts as in {!table1}. *)

val bruteforce :
  ?seed:int64 -> ?workers:int -> ?scale:float ->
  ?progress:Pacstack_campaign.Progress.sink -> Format.formatter -> unit
(** §4.3: expected guesses under divide-and-conquer, re-seeded and
    independent strategies ({!Plans.guessing}), plus the end-to-end
    forked-sibling attack ({!Plans.bruteforce}). [scale] multiplies
    trial counts as in {!table1}. *)

val gadget : Format.formatter -> unit
(** §6.3.1: the signing gadget works at the PA level and is defeated by
    PACStack across tail calls. *)

val sigreturn : Format.formatter -> unit
(** §6.3.2 and Appendix B: forged sigreturn frames with and without the
    kernel [asigret] chain. *)

val unwind_demo : Format.formatter -> unit
(** §9.1: ACS-validated backtrace and frame-by-frame validated longjmp,
    rejecting forged targets. *)

val interop : Format.formatter -> unit
(** §9.2: partial instrumentation — protected app with unprotected
    libraries and vice versa. *)

val forward_cfi : Format.formatter -> unit
(** Assumption A2 exercised: coarse-grained forward CFI blocks
    mid-function targets but admits wrong function entries. *)

val gadget_surface : Format.formatter -> unit
(** Static count of usable vs PA-guarded return gadgets per scheme. *)

val sp_collisions : Format.formatter -> unit
(** Measured reuse of SP values across call sites — the weakness of the
    [-mbranch-protection] modifier (§2.2.1). *)

val injection :
  ?seed:int64 -> ?workers:int -> ?faults:int ->
  ?progress:Pacstack_campaign.Progress.sink -> Format.formatter -> unit
(** Fault-injection campaign summary ({!Plans.inject_execute}):
    per-scheme detected / benign / silent counts with Wilson intervals
    and mean / p95 detection latency in cycles, then the per-site table,
    at the collision-observable PAC width. Identical for any worker
    count. *)

val confirm : Format.formatter -> unit
(** §7.3: the compatibility suite across all schemes. *)

val fleet :
  ?seed:int64 -> ?workers:int -> ?connections:int ->
  ?progress:Pacstack_campaign.Progress.sink -> Format.formatter -> unit
(** Fleet simulation (lib/fleet): a reduced open-loop run — default 192
    connections for 1 virtual second over 4 cells, every scheme — and
    the per-scheme p50/p95/p99/p999 latency table. Identical for any
    worker count, like every campaign-backed section. *)

val observability :
  ?scheme:Pacstack_harden.Scheme.t -> Format.formatter -> unit
(** Enables lib/obs, runs a small sampler through every instrumented
    layer (a server measurement under [scheme] — default pacstack — two
    fuzz seeds and one injected fault under all schemes), then prints
    the metrics registry as a table plus the trace-event count. Leaves
    obs disabled; recorded metrics/events stay readable (e.g. for a
    [--trace] export) until [Obs.reset]. Backs [pacstack_cli metrics]. *)

val all : ?seed:int64 -> ?workers:int -> Format.formatter -> unit

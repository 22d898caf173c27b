(** The NGINX SSL-TPS experiment of §7.2 (Table 3).

    The paper measures a CPU-bound web server: every request costs one
    TLS handshake plus record processing, so throughput is
    [workers * clock / per-request cycles]. We reproduce exactly that
    structure: a deterministic handshake kernel (modular-exponentiation
    key exchange, per-record cipher transform) compiled under each scheme
    gives per-request cycles and memory operations; a calibrated
    contention model charges memory operations more as workers contend
    for the memory system, which is why the paper's 8-worker overheads
    exceed its 4-worker overheads. Client-side variance comes from
    request-size jitter across simulated connections. *)

type result = {
  scheme : Pacstack_harden.Scheme.t;
  workers : int;
  req_per_sec : float;
  sigma : float;  (** std dev across request variants, as in Table 3 *)
  cycles_per_request : float;
  mem_ops_per_request : float;
}

(** The reusable request physics: the handshake kernel, the request-size
    jitter and the calibrated contention model, shared by this Table 3
    experiment and the fleet simulator (lib/fleet). Everything here is a
    pure function of its arguments (machine execution is deterministic),
    so both consumers see identical per-request costs. *)
module Kernel : sig
  val base_records : int
  (** The response size of an unjittered request, in records (72). *)

  val records : variant:int -> int
  (** Request-size jitter: [base_records + variant mod 9], the ±σ of
      Table 3's client-side variance. *)

  val program : records:int -> Pacstack_minic.Ast.program
  (** One request: key exchange + cipher/MAC over [records] records. *)

  val clock_hz : float
  (** Simulated core clock pinning absolute throughput near Table 3. *)

  val scaling : int -> float
  (** Worker-count scaling factor (the paper's superlinear 8-worker
      baseline). *)

  val contention : int -> float
  (** Memory-contention charge per *extra* memory operation at a worker
      count — 43 at 8 workers, 1 otherwise (see DESIGN.md). *)

  val compiled :
    scheme:Pacstack_harden.Scheme.t -> records:int -> Pacstack_isa.Program.t
  (** The request compiled under a scheme, ready for [Machine.load]. *)

  val execute : ?obs_label:string -> Pacstack_isa.Program.t -> float * float
  (** Loads and runs one compiled request; [(cycles, memory operations)].
      Raises [Failure] if the request faults or runs out of fuel. A
      non-empty [obs_label] attributes the machine's lib/obs counters. *)

  val measure_request :
    scheme:Pacstack_harden.Scheme.t -> records:int -> float * float
  (** [execute] of [compiled], labelled with the scheme. *)

  val throughput :
    workers:int -> base_mem:float -> cycles:float -> mem_ops:float -> float
  (** Requests per second of [workers] cores at this per-request cost:
      [workers * clock * scaling / (cycles + contention * extra_mem)]
      where [extra_mem = max 0 (mem_ops - base_mem)]. *)
end

val handshake_program : variant:int -> Pacstack_minic.Ast.program
(** One request: key exchange + record processing; [variant] jitters the
    record count as different clients would.
    [Kernel.program ~records:(Kernel.records ~variant)]. *)

val measure :
  scheme:Pacstack_harden.Scheme.t -> workers:int -> ?variants:int -> unit -> result
(** Runs [variants] (default 10) request variants under the scheme and
    derives throughput for the worker count (4 and 8 in the paper). *)

val overhead_pct : baseline:result -> result -> float
(** Throughput degradation in percent (positive = slower than baseline). *)

val sweep_cells :
  ?worker_counts:int list ->
  ?schemes:Pacstack_harden.Scheme.t list ->
  unit ->
  (int * Pacstack_harden.Scheme.t) list
(** The Table 3 measurement grid in deterministic order, one
    [(workers, scheme)] cell per campaign shard. Defaults to the paper's
    4/8 workers against unprotected, both PACStack variants, PCan,
    Zipper Stack, PACTight and PARTS. *)

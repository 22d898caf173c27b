(** Sparse, page-granular byte-addressable memory with W⊕X enforcement.

    Addresses are 64-bit words; multi-byte accesses are little-endian and
    may cross page boundaries. Unmapped or insufficiently-permitted
    accesses raise {!Trap.Fault}.

    Performance: pages are allocated lazily. {!map} records its region,
    not its pages; a page gets its table entry on first lookup (any access,
    {!check_exec}, {!is_mapped}, {!perm_at}, {!peek64}, {!poke64}), and
    that entry shares one zero page until first written. {!unmap},
    {!protect}, {!copy}, {!digest} and {!mapped_ranges} first give every
    page of every pending region its entry. A first lookup is invisible:
    it moves neither {!generation} nor {!tlb_misses} beyond what an
    eagerly filled table would. Translations are cached in two TLBs: a
    16-entry direct-mapped data TLB, whose slot function keeps a machine's
    data, stack and shadow pages apart, and a one-entry execute TLB. Both
    are invalidated in full by {!map}/{!unmap}/{!protect}, so a stale
    translation can never outlive a permission change.

    A region mapped with an initialiser gives each page its bytes on the
    page's first data access: a load or store (on its data-TLB refill),
    {!peek64}, {!poke64}, {!protect} and {!digest}. {!check_exec},
    {!is_mapped}, {!perm_at}, {!mapped_ranges} and {!unmap} never fill a
    page, and {!copy} hands the copy its unfilled pages with their
    initialiser. A fill is invisible too, except to {!fills}. *)

type perm = { readable : bool; writable : bool; executable : bool }

val perm_r : perm
val perm_rw : perm
val perm_rx : perm
val pp_perm : Format.formatter -> perm -> unit

type t

val create : unit -> t

val page_size : int
val page_bits : int

val map :
  ?init:(int -> Bytes.t) -> t -> addr:Pacstack_util.Word64.t -> size:int -> perm -> unit
(** Maps the pages covering [\[addr, addr+size)], zeroed or, with
    [init], holding [init k] from the first data access to the [k]-th of
    them (the page holding [addr] is page 0). [init] must return a fresh
    page of {!page_size} bytes, which the memory then owns; a {!copy}
    calls the same [init] for the pages it has yet to fill. Only the
    region is recorded, so the cost grows with the mappings already
    present, not with [size]. Raises [Invalid_argument] naming the lowest
    page already mapped, if any, or if the permission is simultaneously
    writable and executable (W⊕X, assumption A1). *)

val unmap : t -> addr:Pacstack_util.Word64.t -> size:int -> unit

val protect : t -> addr:Pacstack_util.Word64.t -> size:int -> perm -> unit
(** mprotect: changes the permission of already-mapped pages, preserving
    their contents. W⊕X is still enforced; unmapped pages raise
    [Invalid_argument]. *)

val is_mapped : t -> Pacstack_util.Word64.t -> bool
val perm_at : t -> Pacstack_util.Word64.t -> perm option

val load8 : t -> Pacstack_util.Word64.t -> int
val store8 : t -> Pacstack_util.Word64.t -> int -> unit
val load64 : t -> Pacstack_util.Word64.t -> Pacstack_util.Word64.t
val store64 : t -> Pacstack_util.Word64.t -> Pacstack_util.Word64.t -> unit

val check_exec : t -> Pacstack_util.Word64.t -> unit
(** Raises unless the address lies in an executable page. *)

val peek64 : t -> Pacstack_util.Word64.t -> Pacstack_util.Word64.t option
(** Non-faulting read used by the adversary and by debugging tools:
    [None] when unmapped. Ignores read permission — the paper's adversary
    reads the whole address space (requirement R2). *)

val poke64 : t -> Pacstack_util.Word64.t -> Pacstack_util.Word64.t -> bool
(** Non-faulting write for the adversary: succeeds only on mapped,
    writable pages (W⊕X still binds the adversary); returns success. *)

val copy : t -> t
(** Deep copy (used by {!Machine.clone}). TLB miss counters restart at
    zero. *)

val fills : t -> int
(** Pages given their bytes by a {!map} initialiser since creation;
    restarts at zero in a {!copy}. *)

val tlb_misses : t -> int * int
(** [(data, exec)] TLB refills since creation. Only the miss path counts
    (it already pays a hashtable probe); hit totals are derived by the
    machine as accesses minus misses, so the TLB hit path carries no
    instrumentation cost. *)

val mapped_ranges : t -> (Pacstack_util.Word64.t * int * perm) list
(** Sorted list of (start, size, perm) for each maximal mapped run. *)

val generation : t -> int
(** Monotonic counter bumped by every {!map}/{!unmap}/{!protect}. A cache
    derived from the page table (e.g. the machine's per-code-page execute
    check) records the generation it was built at and refills when the
    counter moves — the same invalidation discipline as the internal
    TLBs. Restarts at zero in a {!copy}, so cache holders must
    treat a copied memory as fresh (use an impossible sentinel, not 0). *)

val digest : t -> Pacstack_util.Word64.t
(** Order-independent fingerprint of the full memory state: mapped page
    indices, their permissions and their contents. Two memories digest
    equal iff every observable load/permission query agrees; used by the
    engine differential suite to compare end states without enumerating
    addresses. *)

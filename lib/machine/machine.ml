module Word64 = Pacstack_util.Word64
module Rng = Pacstack_util.Rng
module Config = Pacstack_pa.Config
module Keys = Pacstack_pa.Keys
module Pac = Pacstack_pa.Pac
module Pointer = Pacstack_pa.Pointer
module Reg = Pacstack_isa.Reg
module Cond = Pacstack_isa.Cond
module Instr = Pacstack_isa.Instr
module Obs = Pacstack_obs.Obs

(* Register file layout: X0..X30, SP and PC as raw int64 slots in one
   Bytes buffer, then two slots for XZR: it reads from [zero_slot], which
   nothing writes, and writes to [discard_slot], which nothing reads. So
   every register operand is a byte offset ([read_slot]/[write_slot]),
   resolved once when an instruction is compiled, with no [match] on
   [Reg.t] left at run time. Raw slots keep the hot loop free of both
   the write barrier and the per-store Int64 box that an [int64 array]
   or a mutable int64 record field pays on every write — a register
   write is one raw store, and int64 temporaries stay unboxed inside
   each operation. *)
let sp_slot = 31 * 8
let pc_slot = 32 * 8
let zero_slot = 33 * 8
let discard_slot = 34 * 8
let regs_bytes = 35 * 8

type t = {
  cfg : Config.t;
  mem : Memory.t;
  image : Image.t;
  keys : Keys.t;
  regs : Bytes.t;  (* X0..X30, SP, PC, XZR's zero and discard slots — see above *)
  mutable flags_bits : int;  (* packed NZCV, Cond.bits_* layout *)
  mutable halted : int option;
  mutable cycles : int;
  mutable instret : int;
  mutable mem_ops : int;
  mutable forward_cfi : bool;
  hooks : (string, t -> unit) Hashtbl.t;
  mutable on_syscall : t -> int -> unit;
  mutable out : int64 list;  (* newest first *)
  (* Observability (lib/obs). Aggregates accumulate in plain fields and
     are flushed as metric deltas once per [run]/[run_until] exit, so
     the per-step cost with obs disabled is one guarded branch on the
     (rare) PA instructions and nothing anywhere else. [obs_label] is a
     pre-rendered "{scheme=...}" suffix or "". *)
  mutable obs_label : string;
  obs_pac : int array;  (* per-kind PA-instruction counts, see obs_pac_names *)
  mutable obs_mark_instret : int;
  mutable obs_mark_memops : int;
  mutable obs_mark_dmiss : int;
  mutable obs_mark_xmiss : int;
  (* Threaded-code engine (DESIGN.md, "Threaded-code execution"): one
     compiled closure per instruction in [prep.p_ops] (a compiling stub
     until its first visit, see [lazy_ops]), indexed by (pc-code_base)/4,
     plus a page-granular cached execute check over the code region.
     Each op returns the index of the next op (resolved at compile time
     for straight-line code and static branches) or -1 when the
     dispatcher must re-derive it from pc — so the hot loop chains
     compiled ops directly instead of re-validating pc every step.
     [fast_ok] certifies at load time that every in-image address is
     canonical for [cfg], so the fast path may skip [translate]. *)
  prep : prepared;  (* the program's shared half, see [prepared] *)
  mutable block_at : int;  (* the body instruction a block runs, see [run_body] *)
  fast_ok : bool;
  xpages : Bytes.t;       (* '\001' per executable code page *)
  mutable xcache_gen : int;
}

(* What loading derives from the program alone, built once by [prepare]:
   every instance shares the image and the ops table, and maps its own
   code pages, which get their bytes on their first data access (see
   [code_page]). The table starts with one stub in every slot and each
   slot is compiled on its first visit (see [lazy_ops]). Once the
   program's runs under [run] have made [warmup_steps] steps, it also
   gains a block table (see [runner_run]); nothing else in a prepared
   value changes after [prepare]. *)
and prepared = {
  p_image : Image.t;
  p_ops : (t -> int) array;
  p_code_pages : int;
  p_data_size : int;
  p_code_limit : int;  (* 4 * instruction count *)
  mutable p_steps : int;  (* steps made under [run] while [p_blocks] was [None] *)
  mutable p_blocks : blocks option;
}

(* Straight-line blocks (see "straight-line blocks" below), both arrays
   indexed like the ops and filled on first use. *)
and blocks = {
  sems : (t -> unit) array;  (* each instruction's effect, see [compile_sem] *)
  shapes : int array;  (* each entry index's packed block shape, 0 until built *)
}

(* Slot reads and writes skip the bounds check: every slot is one of the
   offsets above, all inside [regs_bytes], since [read_slot] and
   [write_slot] refuse a register number outside 0-30. The byte order is
   the host's, the same for every access. *)
external get_slot : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_slot : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let ( .%{} ) t slot = get_slot t.regs slot
let ( .%{}<- ) t slot v = set_slot t.regs slot v

let x_slot n =
  if n < 0 || n > 30 then invalid_arg (Printf.sprintf "Machine: no register X%d" n);
  n lsl 3

let read_slot = function Reg.X n -> x_slot n | Reg.SP -> sp_slot | Reg.XZR -> zero_slot
let write_slot = function Reg.X n -> x_slot n | Reg.SP -> sp_slot | Reg.XZR -> discard_slot

let get t r = t.%{read_slot r}
let set t r v = t.%{write_slot r} <- v

let pc t = t.%{pc_slot}
let set_pc t v = t.%{pc_slot} <- v
let sp t = t.%{sp_slot}
let lr t = t.%{30 lsl 3}
let set_lr t v = t.%{30 lsl 3} <- v

let canary_symbol = "__stack_chk_guard"

(* Bare machines (no kernel) still support exit and debug print. *)
let default_syscall m n =
  match n with
  | 0 -> m.halted <- Some (Int64.to_int (get m (Reg.X 0)))
  | 1 -> m.out <- get m (Reg.X 0) :: m.out
  | n -> raise (Trap.Fault (Trap.Undefined (Printf.sprintf "svc #%d with no kernel" n)))

let config t = t.cfg
let keys t = t.keys
let memory t = t.mem
let image t = t.image

let flags t = Cond.flags_of_bits t.flags_bits
let cycles t = t.cycles
let instructions_retired t = t.instret
let memory_operations t = t.mem_ops
let halted t = t.halted
let set_halted t code = t.halted <- Some code

let set_forward_cfi t v = t.forward_cfi <- v

let attach_hook t name f = Hashtbl.replace t.hooks name f
let detach_hook t name = Hashtbl.remove t.hooks name
let set_syscall_handler t f = t.on_syscall <- f
let output t = List.rev t.out
let push_output t v = t.out <- v :: t.out

(* --- address translation checks ------------------------------------- *)

let translate t addr access =
  if not (Pointer.is_canonical t.cfg addr) then raise (Trap.Fault (Trap.Translation (addr, access)))

let load64 t addr =
  translate t addr Trap.Read;
  Memory.load64 t.mem addr

let store64 t addr v =
  translate t addr Trap.Write;
  Memory.store64 t.mem addr v

let load8 t addr =
  translate t addr Trap.Read;
  Memory.load8 t.mem addr

let store8 t addr v =
  translate t addr Trap.Write;
  Memory.store8 t.mem addr v

(* --- operand helpers -------------------------------------------------- *)

let operand t = function Instr.Reg r -> get t r | Instr.Imm i -> i

(* Effective address of a memory operand, applying pre/post indexing to
   the base register. *)
let effective t ({ base; offset; index } : Instr.mem) =
  let baseval = get t base in
  let off = Int64.of_int offset in
  match index with
  | Instr.Offset -> Int64.add baseval off
  | Instr.Pre ->
    let a = Int64.add baseval off in
    set t base a;
    a
  | Instr.Post ->
    set t base (Int64.add baseval off);
    baseval

let resolve t label =
  match Image.resolve t.image ~from:(pc t) label with
  | Some a -> a
  | None -> raise (Trap.Fault (Trap.Undefined ("unresolved label " ^ label)))

let ia t = Keys.get t.keys Keys.IA
let ga t = Keys.get t.keys Keys.GA

(* --- instruction semantics (reference) -------------------------------- *)

(* The fetch-then-match semantics the threaded engine is compiled from.
   [Reference.run] still dispatches through here; the differential suite
   in test_engine.ml pins the two engines against each other. *)
let exec t instr =
  let next = Int64.add (pc t) 4L in
  let goto a = set_pc t a in
  let fallthrough () = goto next in
  let binop rd rn op f =
    set t rd (f (get t rn) (operand t op));
    fallthrough ()
  in
  match instr with
  | Instr.Add (rd, rn, op) -> binop rd rn op Int64.add
  | Instr.Sub (rd, rn, op) -> binop rd rn op Int64.sub
  | Instr.Mul (rd, rn, rm) ->
    set t rd (Int64.mul (get t rn) (get t rm));
    fallthrough ()
  | Instr.Udiv (rd, rn, rm) ->
    let d = get t rm in
    set t rd (if d = 0L then 0L else Int64.unsigned_div (get t rn) d);
    fallthrough ()
  | Instr.And_ (rd, rn, op) -> binop rd rn op Int64.logand
  | Instr.Orr (rd, rn, op) -> binop rd rn op Int64.logor
  | Instr.Eor (rd, rn, op) -> binop rd rn op Int64.logxor
  | Instr.Lsl_ (rd, rn, op) ->
    binop rd rn op (fun a b -> Int64.shift_left a (Int64.to_int b land 63))
  | Instr.Lsr_ (rd, rn, op) ->
    binop rd rn op (fun a b -> Int64.shift_right_logical a (Int64.to_int b land 63))
  | Instr.Mov (rd, op) ->
    set t rd (operand t op);
    fallthrough ()
  | Instr.Cmp (rn, op) ->
    t.flags_bits <- Cond.bits_of_compare (get t rn) (operand t op);
    fallthrough ()
  | Instr.Adr (rd, l) ->
    set t rd (resolve t l);
    fallthrough ()
  | Instr.Ldr (rt, m) ->
    set t rt (load64 t (effective t m));
    fallthrough ()
  | Instr.Str (rt, m) ->
    store64 t (effective t m) (get t rt);
    fallthrough ()
  | Instr.Ldrb (rt, m) ->
    set t rt (Int64.of_int (load8 t (effective t m)));
    fallthrough ()
  | Instr.Strb (rt, m) ->
    store8 t (effective t m) (Int64.to_int (Int64.logand (get t rt) 0xffL));
    fallthrough ()
  | Instr.Ldp (r1, r2, m) ->
    let a = effective t m in
    set t r1 (load64 t a);
    set t r2 (load64 t (Int64.add a 8L));
    fallthrough ()
  | Instr.Stp (r1, r2, m) ->
    let a = effective t m in
    store64 t a (get t r1);
    store64 t (Int64.add a 8L) (get t r2);
    fallthrough ()
  | Instr.B l -> goto (resolve t l)
  | Instr.Bcond (c, l) -> if Cond.holds_bits c t.flags_bits then goto (resolve t l) else fallthrough ()
  | Instr.Cbz (r, l) -> if get t r = 0L then goto (resolve t l) else fallthrough ()
  | Instr.Cbnz (r, l) -> if get t r <> 0L then goto (resolve t l) else fallthrough ()
  | Instr.Bl l ->
    set t Reg.lr next;
    goto (resolve t l)
  | Instr.Blr r ->
    let target = get t r in
    (* assumption A2: indirect calls must land on a function entry *)
    if t.forward_cfi && not (Image.is_function_entry t.image target) then
      raise (Trap.Fault (Trap.Cfi_violation target));
    set t Reg.lr next;
    goto target
  | Instr.Br r -> goto (get t r)
  | Instr.Ret r -> goto (get t r)
  | Instr.Retaa ->
    let lr = Pac.auth_value t.cfg (ia t) (get t Reg.lr) ~modifier:(sp t) in
    set t Reg.lr lr;
    goto lr
  | Instr.Pacia (rd, rn) ->
    set t rd (Pac.add t.cfg (ia t) (get t rd) ~modifier:(get t rn));
    fallthrough ()
  | Instr.Autia (rd, rn) ->
    set t rd (Pac.auth_value t.cfg (ia t) (get t rd) ~modifier:(get t rn));
    fallthrough ()
  | Instr.Paciasp ->
    set t Reg.lr (Pac.add t.cfg (ia t) (get t Reg.lr) ~modifier:(sp t));
    fallthrough ()
  | Instr.Autiasp ->
    set t Reg.lr (Pac.auth_value t.cfg (ia t) (get t Reg.lr) ~modifier:(sp t));
    fallthrough ()
  | Instr.Xpaci r ->
    set t r (Pac.strip t.cfg (get t r));
    fallthrough ()
  | Instr.Pacga (rd, rn, rm) ->
    set t rd (Pac.generic t.cfg (ga t) (get t rn) ~modifier:(get t rm));
    fallthrough ()
  | Instr.Svc n ->
    (* PC already points past the svc when the handler runs, as if the
       exception return address had been saved. *)
    fallthrough ();
    t.on_syscall t n
  | Instr.Nop -> fallthrough ()
  | Instr.Hlt ->
    t.halted <- Some (Int64.to_int (get t (Reg.X 0)));
    fallthrough ()
  | Instr.Hook name -> (
    fallthrough ();
    match Hashtbl.find_opt t.hooks name with
    | Some f -> f t
    | None -> ())

(* --- observability ---------------------------------------------------- *)

let set_obs_label t scheme =
  t.obs_label <- (if scheme = "" then "" else "{scheme=" ^ scheme ^ "}")

let obs_pac_names =
  [| "pacia"; "autia"; "paciasp"; "autiasp"; "retaa"; "pacga"; "xpaci";
     "chain.pac"; "chain.aut" |]

(* Only reached behind an [Obs.enabled] guard, and only on PA
   instructions; [chain.*] are the ACS link operations — pacia/autia
   with the chain register CR as modifier. *)
let obs_pac_cell = function
  | Instr.Pacia (_, rn) -> if rn = Reg.cr then 7 else 0
  | Instr.Autia (_, rn) -> if rn = Reg.cr then 8 else 1
  | Instr.Paciasp -> 2
  | Instr.Autiasp -> 3
  | Instr.Retaa -> 4
  | Instr.Pacga _ -> 5
  | Instr.Xpaci _ -> 6
  | _ -> -1

let obs_record_pac t instr =
  let cell = obs_pac_cell instr in
  if cell >= 0 then t.obs_pac.(cell) <- t.obs_pac.(cell) + 1

let obs_publish t trap =
  let label = t.obs_label in
  let c name by = if by > 0 then Obs.Metrics.incr ~by (name ^ label) in
  let dm, xm = Memory.tlb_misses t.mem in
  let instret_d = t.instret - t.obs_mark_instret in
  let memops_d = t.mem_ops - t.obs_mark_memops in
  let dmiss_d = dm - t.obs_mark_dmiss in
  let xmiss_d = xm - t.obs_mark_xmiss in
  c "machine.instructions" instret_d;
  c "machine.tlb.data_miss" dmiss_d;
  c "machine.tlb.data_hit" (max 0 (memops_d - dmiss_d));
  c "machine.tlb.exec_miss" xmiss_d;
  c "machine.tlb.exec_hit" (max 0 (instret_d - xmiss_d));
  Array.iteri
    (fun i n ->
      if n > 0 then begin
        c ("machine.pac." ^ obs_pac_names.(i)) n;
        t.obs_pac.(i) <- 0
      end)
    t.obs_pac;
  (match trap with
  | Some f -> Obs.Metrics.incr ("machine.trap." ^ Trap.kind f ^ label)
  | None -> ());
  t.obs_mark_instret <- t.instret;
  t.obs_mark_memops <- t.mem_ops;
  t.obs_mark_dmiss <- dm;
  t.obs_mark_xmiss <- xm

(* --- reference step --------------------------------------------------- *)

(* One step through the fetch-then-match path, without the halted
   check: the runners make it at each boundary. *)
let exec_reference t =
  translate t (pc t) Trap.Execute;
  Memory.check_exec t.mem (pc t);
  let instr = Image.fetch_exn t.image (pc t) in
  t.cycles <- t.cycles + Instr.cycles instr;
  t.instret <- t.instret + 1;
  (match instr with
  | Instr.Ldr _ | Instr.Str _ | Instr.Ldrb _ | Instr.Strb _ -> t.mem_ops <- t.mem_ops + 1
  | Instr.Ldp _ | Instr.Stp _ -> t.mem_ops <- t.mem_ops + 2
  | Instr.Pacia _ | Instr.Autia _ | Instr.Paciasp | Instr.Autiasp
  | Instr.Retaa | Instr.Pacga _ | Instr.Xpaci _ ->
    if Obs.enabled () then obs_record_pac t instr
  | _ -> ());
  exec t instr

(* --- threaded-code compilation ---------------------------------------- *)

(* Each instruction compiles to one closure doing exactly what one
   reference step does after fetch: bump the counters, record obs,
   execute. Everything derivable from the instruction alone — cycle
   cost, mem_ops delta, obs cell, branch targets, register slots, the
   addressing mode — is resolved here, once per (image, instruction) on
   its first visit (see [lazy_ops]), instead of per step.

   A straight-line instruction's effect is defined once, by
   [compile_sem]: its per-op closure wraps it in the counters and the PC
   update, and a block runs it bare (see "straight-line blocks").

   Fidelity rules (the differential suite enforces them):
   - counters and obs fire before semantics, as in the reference;
   - side effects ordered as in [exec]: Bl writes LR before an
     unresolved-label raise, Adr resolves before writing, pre/post
     indexing commits before a load/store trap, and a store reads the
     value it stores before the writeback;
   - a label a conditional branch never takes is allowed to stay
     unresolved, exactly like the lazy [resolve] in the reference. *)

let op_pre t cyc =
  t.cycles <- t.cycles + cyc;
  t.instret <- t.instret + 1

let op_pre_mem t cyc memops =
  t.cycles <- t.cycles + cyc;
  t.instret <- t.instret + 1;
  t.mem_ops <- t.mem_ops + memops

let count_pac t cell = if Obs.enabled () then t.obs_pac.(cell) <- t.obs_pac.(cell) + 1

let mem_ops_of = function
  | Instr.Ldr _ | Instr.Str _ | Instr.Ldrb _ | Instr.Strb _ -> 1
  | Instr.Ldp _ | Instr.Stp _ -> 2
  | _ -> 0

let code_address idx = Int64.add Image.code_base (Int64.of_int (idx lsl 2))

let unresolved label = Trap.Fault (Trap.Undefined ("unresolved label " ^ label))

(* A memory operand's addressing mode, resolved to slots: the access
   goes to base + [aoff] and base + offset is written back to [wb]. The
   offset mode writes back to [discard_slot] and post-indexing has
   [aoff] = 0, so no [match] on the mode is left at run time, and the
   writeback commits before the access can trap, as in [effective]. *)
let[@inline] mode ({ base; offset; index } : Instr.mem) =
  match index with
  | Instr.Offset -> (read_slot base, offset, discard_slot)
  | Instr.Pre -> (read_slot base, offset, write_slot base)
  | Instr.Post -> (read_slot base, 0, write_slot base)

let address t base aoff wb offset =
  let b = t.%{base} in
  t.%{wb} <- Int64.add b (Int64.of_int offset);
  Int64.add b (Int64.of_int aoff)

(* The effect of a straight-line instruction on registers, flags and
   memory (and the obs count of a PA instruction), without its counters
   or the PC update, or [None] for an instruction that can leave
   straight-line flow: a branch, call, return, [svc], [hlt] or hook. An
   [adr] whose label does not resolve raises when run, like a load that
   faults. *)
let compile_sem image idx instr : (t -> unit) option =
  let r = read_slot and w = write_slot in
  match instr with
  | Instr.Add (d, n, Instr.Reg m) ->
    let d = w d and n = r n and m = r m in
    Some (fun t -> t.%{d} <- Int64.add t.%{n} t.%{m})
  | Instr.Add (d, n, Instr.Imm i) ->
    let d = w d and n = r n in
    Some (fun t -> t.%{d} <- Int64.add t.%{n} i)
  | Instr.Sub (d, n, Instr.Reg m) ->
    let d = w d and n = r n and m = r m in
    Some (fun t -> t.%{d} <- Int64.sub t.%{n} t.%{m})
  | Instr.Sub (d, n, Instr.Imm i) ->
    let d = w d and n = r n in
    Some (fun t -> t.%{d} <- Int64.sub t.%{n} i)
  | Instr.Mul (d, n, m) ->
    let d = w d and n = r n and m = r m in
    Some (fun t -> t.%{d} <- Int64.mul t.%{n} t.%{m})
  | Instr.Udiv (d, n, m) ->
    let d = w d and n = r n and m = r m in
    Some
      (fun t ->
        let q = t.%{m} in
        t.%{d} <- (if q = 0L then 0L else Int64.unsigned_div t.%{n} q))
  | Instr.And_ (d, n, Instr.Reg m) ->
    let d = w d and n = r n and m = r m in
    Some (fun t -> t.%{d} <- Int64.logand t.%{n} t.%{m})
  | Instr.And_ (d, n, Instr.Imm i) ->
    let d = w d and n = r n in
    Some (fun t -> t.%{d} <- Int64.logand t.%{n} i)
  | Instr.Orr (d, n, Instr.Reg m) ->
    let d = w d and n = r n and m = r m in
    Some (fun t -> t.%{d} <- Int64.logor t.%{n} t.%{m})
  | Instr.Orr (d, n, Instr.Imm i) ->
    let d = w d and n = r n in
    Some (fun t -> t.%{d} <- Int64.logor t.%{n} i)
  | Instr.Eor (d, n, Instr.Reg m) ->
    let d = w d and n = r n and m = r m in
    Some (fun t -> t.%{d} <- Int64.logxor t.%{n} t.%{m})
  | Instr.Eor (d, n, Instr.Imm i) ->
    let d = w d and n = r n in
    Some (fun t -> t.%{d} <- Int64.logxor t.%{n} i)
  | Instr.Lsl_ (d, n, Instr.Imm i) ->
    let d = w d and n = r n and sh = Int64.to_int i land 63 in
    Some (fun t -> t.%{d} <- Int64.shift_left t.%{n} sh)
  | Instr.Lsl_ (d, n, Instr.Reg m) ->
    let d = w d and n = r n and m = r m in
    Some (fun t -> t.%{d} <- Int64.shift_left t.%{n} (Int64.to_int t.%{m} land 63))
  | Instr.Lsr_ (d, n, Instr.Imm i) ->
    let d = w d and n = r n and sh = Int64.to_int i land 63 in
    Some (fun t -> t.%{d} <- Int64.shift_right_logical t.%{n} sh)
  | Instr.Lsr_ (d, n, Instr.Reg m) ->
    let d = w d and n = r n and m = r m in
    Some (fun t -> t.%{d} <- Int64.shift_right_logical t.%{n} (Int64.to_int t.%{m} land 63))
  | Instr.Mov (d, Instr.Reg m) ->
    let d = w d and m = r m in
    Some (fun t -> t.%{d} <- t.%{m})
  | Instr.Mov (d, Instr.Imm i) ->
    let d = w d in
    Some (fun t -> t.%{d} <- i)
  | Instr.Cmp (n, Instr.Reg m) ->
    let n = r n and m = r m in
    Some (fun t -> t.flags_bits <- Cond.bits_of_compare t.%{n} t.%{m})
  | Instr.Cmp (n, Instr.Imm i) ->
    let n = r n in
    Some (fun t -> t.flags_bits <- Cond.bits_of_compare t.%{n} i)
  | Instr.Adr (d, l) -> (
    let d = w d in
    match Image.resolve image ~from:(code_address idx) l with
    | Some a -> Some (fun t -> t.%{d} <- a)
    | None ->
      let e = unresolved l in
      Some (fun _ -> raise e))
  | Instr.Ldr (d, m) ->
    let d = w d and b, aoff, wb = mode m and off = m.offset in
    Some (fun t -> t.%{d} <- load64 t (address t b aoff wb off))
  | Instr.Str (s, m) ->
    let s = r s and b, aoff, wb = mode m and off = m.offset in
    Some
      (fun t ->
        let v = t.%{s} in
        store64 t (address t b aoff wb off) v)
  | Instr.Ldrb (d, m) ->
    let d = w d and b, aoff, wb = mode m and off = m.offset in
    Some (fun t -> t.%{d} <- Int64.of_int (load8 t (address t b aoff wb off)))
  | Instr.Strb (s, m) ->
    let s = r s and b, aoff, wb = mode m and off = m.offset in
    Some
      (fun t ->
        let v = Int64.to_int (Int64.logand t.%{s} 0xffL) in
        store8 t (address t b aoff wb off) v)
  | Instr.Ldp (d1, d2, m) ->
    let d1 = w d1 and d2 = w d2 and b, aoff, wb = mode m and off = m.offset in
    Some
      (fun t ->
        let a = address t b aoff wb off in
        t.%{d1} <- load64 t a;
        t.%{d2} <- load64 t (Int64.add a 8L))
  | Instr.Stp (s1, s2, m) ->
    let s1 = r s1 and s2 = r s2 and b, aoff, wb = mode m and off = m.offset in
    Some
      (fun t ->
        let a = address t b aoff wb off in
        store64 t a t.%{s1};
        store64 t (Int64.add a 8L) t.%{s2})
  | Instr.Pacia (d, n) ->
    let cell = if n = Reg.cr then 7 else 0 and v = r d and d = w d and n = r n in
    Some
      (fun t ->
        count_pac t cell;
        t.%{d} <- Pac.add t.cfg (ia t) t.%{v} ~modifier:t.%{n})
  | Instr.Autia (d, n) ->
    let cell = if n = Reg.cr then 8 else 1 and v = r d and d = w d and n = r n in
    Some
      (fun t ->
        count_pac t cell;
        t.%{d} <- Pac.auth_value t.cfg (ia t) t.%{v} ~modifier:t.%{n})
  | Instr.Paciasp ->
    Some
      (fun t ->
        count_pac t 2;
        set_lr t (Pac.add t.cfg (ia t) (lr t) ~modifier:(sp t)))
  | Instr.Autiasp ->
    Some
      (fun t ->
        count_pac t 3;
        set_lr t (Pac.auth_value t.cfg (ia t) (lr t) ~modifier:(sp t)))
  | Instr.Xpaci d ->
    let v = r d and d = w d in
    Some
      (fun t ->
        count_pac t 6;
        t.%{d} <- Pac.strip t.cfg t.%{v})
  | Instr.Pacga (d, n, m) ->
    let d = w d and n = r n and m = r m in
    Some
      (fun t ->
        count_pac t 5;
        t.%{d} <- Pac.generic t.cfg (ga t) t.%{n} ~modifier:t.%{m})
  | Instr.Nop -> Some ignore
  | Instr.B _ | Instr.Bcond _ | Instr.Cbz _ | Instr.Cbnz _ | Instr.Bl _ | Instr.Blr _
  | Instr.Br _ | Instr.Ret _ | Instr.Retaa | Instr.Svc _ | Instr.Hlt | Instr.Hook _ ->
    None

(* Next-op index for a pc value produced at run time (ret/br/blr/retaa).
   -1 means "outside the ops array / misaligned": the dispatch loop then
   resynchronises from the architectural pc through the full checks.
   Only called with [t.fast_ok] (the loop never enters compiled ops
   otherwise), so an in-image result needs no canonicality check. *)
let live_index t v =
  let off = Int64.sub v Image.code_base in
  if Int64.logand off 3L = 0L && off >= 0L && off < Int64.of_int t.prep.p_code_limit then
    Int64.to_int off lsr 2
  else -1

let compile_op image nops idx instr : t -> int =
  let cyc = Instr.cycles instr in
  let nexti = if idx + 1 < nops then idx + 1 else -1 in
  match compile_sem image idx instr with
  | Some sem ->
    (* PC is derived from an [int] here rather than captured as a boxed
       [next], so the op holds no block besides itself and [sem]. *)
    let mem = mem_ops_of instr and after = idx + 1 in
    if mem = 0 then fun t -> op_pre t cyc; sem t; set_pc t (code_address after); nexti
    else fun t -> op_pre_mem t cyc mem; sem t; set_pc t (code_address after); nexti
  | None -> (
    let addr = code_address idx in
    let next = Int64.add addr 4L in
    (* Index of the op for a compile-time-known target address. *)
    let static_index a =
      let off = Int64.sub a Image.code_base in
      if Int64.logand off 3L = 0L && off >= 0L && off < Int64.of_int (4 * nops)
      then Int64.to_int off lsr 2
      else -1
    in
    (* Static view of what [resolve] would do with pc = addr; the error
       case is a preallocated exception raised only if execution actually
       needs the label. *)
    let target label =
      match Image.resolve image ~from:addr label with
      | Some a -> Ok a
      | None -> Error (unresolved label)
    in
    (* Conditional branches evaluate the label lazily in the reference, so
       a dangling label only traps when the branch is taken. *)
    let cond_branch test l =
      match target l with
      | Ok a ->
        let ti = static_index a in
        fun t ->
          op_pre t cyc;
          if test t then (set_pc t a; ti) else (set_pc t next; nexti)
      | Error e ->
        fun t ->
          op_pre t cyc;
          if test t then raise e else (set_pc t next; nexti)
    in
    match instr with
    | Instr.B l -> (
      match target l with
      | Ok a ->
        let ti = static_index a in
        fun t -> op_pre t cyc; set_pc t a; ti
      | Error e -> fun t -> op_pre t cyc; raise e)
    | Instr.Bcond (c, l) -> cond_branch (fun t -> Cond.holds_bits c t.flags_bits) l
    | Instr.Cbz (r, l) ->
      let s = read_slot r in
      cond_branch (fun t -> t.%{s} = 0L) l
    | Instr.Cbnz (r, l) ->
      let s = read_slot r in
      cond_branch (fun t -> t.%{s} <> 0L) l
    | Instr.Bl l -> (
      match target l with
      | Ok a ->
        let ti = static_index a in
        fun t ->
          op_pre t cyc;
          set_lr t next;
          set_pc t a;
          ti
      | Error e ->
        (* LR is written before [resolve] raises in the reference. *)
        fun t ->
          op_pre t cyc;
          set_lr t next;
          raise e)
    | Instr.Blr r ->
      let s = read_slot r in
      fun t ->
        op_pre t cyc;
        let target = t.%{s} in
        if t.forward_cfi && not (Image.is_function_entry image target) then
          raise (Trap.Fault (Trap.Cfi_violation target));
        set_lr t next;
        set_pc t target;
        live_index t target
    | Instr.Br r | Instr.Ret r ->
      let s = read_slot r in
      fun t ->
        op_pre t cyc;
        let v = t.%{s} in
        set_pc t v;
        live_index t v
    | Instr.Retaa ->
      fun t ->
        op_pre t cyc;
        count_pac t 4;
        let lr = Pac.auth_value t.cfg (ia t) (lr t) ~modifier:(sp t) in
        set_lr t lr;
        set_pc t lr;
        live_index t lr
    (* The remaining ops return -1 unconditionally: a syscall handler or
       hook may halt the machine, remap memory or move pc, and Hlt halts —
       the dispatch loop must re-run its full boundary checks after them. *)
    | Instr.Svc n ->
      fun t ->
        op_pre t cyc;
        set_pc t next;
        t.on_syscall t n;
        -1
    | Instr.Hlt ->
      fun t ->
        op_pre t cyc;
        t.halted <- Some (Int64.to_int (get t (Reg.X 0)));
        set_pc t next;
        -1
    | Instr.Hook name ->
      fun t ->
        op_pre t cyc;
        set_pc t next;
        (match Hashtbl.find_opt t.hooks name with
        | Some f -> f t
        | None -> ());
        -1
    | _ -> assert false (* [compile_sem] has an effect for every other instruction *))

(* --- straight-line blocks ---------------------------------------------- *)

(* Under [run], once a prepared program is warm, the loop runs a block
   per step instead of an op (DESIGN.md, "Threaded-code execution"). A
   block is entered at any op index and holds the straight-line
   instructions from there, its body, up to and including the first
   instruction that can leave straight-line flow, its exit, or the last
   instruction of its code page or of the image. The body runs through
   the shared [sems] with no counter or PC update per instruction; the
   exit is the ordinary op, which returns the next index or -1.

   A block's shape is packed into one int, so a slot is filled in one
   store: its length (body and exit) in bits 0-15, its body's memory
   operations in bits 16-31 and its body's cycles above. A page holds
   1,024 instructions, so each field fits; 0 means not built. *)

let ops_per_page = Memory.page_size / 4

(* Every [sems] slot starts as this stub. A block's builder fills the
   slots of its body before it stores the block's shape, but another
   domain may see the shape before those slots: the stub then compiles
   the same effect for itself. It finds its index in [block_at]. *)
let sem_stub t =
  let i = t.block_at in
  (Option.get (compile_sem t.image i (Image.instructions t.image).(i))) t

let build_block t tbl idx =
  let code = Image.instructions t.image in
  let last = min (Array.length code) ((idx lor (ops_per_page - 1)) + 1) - 1 in
  let rec scan i cyc mems =
    let straight =
      i < last
      && (tbl.sems.(i) != sem_stub
         ||
         match compile_sem t.image i code.(i) with
         | Some s ->
           tbl.sems.(i) <- s;
           true
         | None -> false
         (* a register outside X0-X30: the block ends here, so the
            instruction raises only if it runs, as an op *)
         | exception Invalid_argument _ -> false)
    in
    if straight then scan (i + 1) (cyc + Instr.cycles code.(i)) (mems + mem_ops_of code.(i))
    else (i - idx + 1) lor (mems lsl 16) lor (cyc lsl 32)
  in
  let shape = scan idx 0 0 in
  tbl.shapes.(idx) <- shape;
  shape

(* Runs the body [first, last) of a block. If an instruction traps, the
   machine is left as the reference leaves it: the effects before it
   (and its own, such as a pre-index writeback) are done, so only the
   counters of [first] up to it, which the caller adds once the body
   completes, and PC at it remain to be set. *)
let run_body t sems first last =
  try
    for i = first to last - 1 do
      t.block_at <- i;
      (Array.unsafe_get sems i) t
    done
  with Trap.Fault _ as e ->
    let code = Image.instructions t.image in
    let f = t.block_at in
    for i = first to f do
      t.cycles <- t.cycles + Instr.cycles code.(i);
      t.mem_ops <- t.mem_ops + mem_ops_of code.(i)
    done;
    t.instret <- t.instret + (f - first + 1);
    set_pc t (code_address f);
    raise e

(* --- runners ---------------------------------------------------------- *)

(* [xcache_gen] sentinel: [Memory.generation] restarts at 0 after a
   [Memory.copy], so 0 is a reachable value and the sentinel must be one
   no live memory ever reports. *)
let stale_gen = min_int

let refill_exec_cache t =
  for i = 0 to Bytes.length t.xpages - 1 do
    let addr = Int64.add Image.code_base (Int64.of_int (i lsl Memory.page_bits)) in
    let ok =
      match Memory.perm_at t.mem addr with
      | Some p -> p.Memory.executable
      | None -> false
    in
    Bytes.unsafe_set t.xpages i (if ok then '\001' else '\000')
  done;
  t.xcache_gen <- Memory.generation t.mem

type outcome = Halted of int | Faulted of Trap.t | Out_of_fuel

(* Why a run paused, as reported by a runner to [drive]. A runner
   performs the boundary checks — halted, then stop, then fuel, the
   reference order — exactly once per instruction boundary (stop
   predicates count their calls, e.g. "pause at the k-th visit", so a
   double check would change trigger timing). *)
type pause = Paused_halt of int | Paused_stop | Paused_fuel

let never _ = false

let runner_reference t ~stop ~fuel =
  let rec boundary budget =
    match t.halted with
    | Some code -> Paused_halt code
    | None ->
      if stop t then Paused_stop
      else if budget = 0 then Paused_fuel
      else begin
        exec_reference t;
        boundary (budget - 1)
      end
  in
  boundary fuel

(* ops are indexed per instruction word, xpages per page. *)
let xpage_shift = Memory.page_bits - 2

(* The op index at PC when compiled ops may run from there: [fast_ok],
   PC inside the image and aligned, and its page executable (the bitmap
   refilled first if the page table changed since). -1 otherwise: the
   caller then steps through [exec_reference], so every trap the fast
   path cannot prove absent (PC outside the image or misaligned, page
   not executable, [fast_ok] false because the config's VA size does not
   cover the image) is produced by exactly the reference code. It
   replaces the reference's translate + check_exec + fetch with three
   compares and one byte read. *)
let fast_index t =
  let off = Int64.sub (pc t) Image.code_base in
  if t.fast_ok && Int64.logand off 3L = 0L && off >= 0L && off < Int64.of_int t.prep.p_code_limit
  then begin
    if t.xcache_gen <> Memory.generation t.mem then refill_exec_cache t;
    let idx = Int64.to_int off lsr 2 in
    if Bytes.unsafe_get t.xpages (idx lsr xpage_shift) = '\001' then idx else -1
  end
  else -1

(* The threaded hot loop: compiled ops return the index of the next op,
   so straight-line runs and static branches chain compiled closures
   with no pc re-validation — per step only the stop/fuel boundary
   checks and one cached execute-permission byte remain. [fast]'s
   invariants: ops that can halt, remap memory or leave the image
   (hlt/svc/hook, and any branch whose target is not provably an op
   index) return -1, which drops to [boundary]/[dispatch] for the full
   protocol and pc re-derivation; hence no halted or generation check
   inside the loop. *)
let runner_threaded t ~stop ~fuel =
  let ops = t.prep.p_ops in
  let xpages = t.xpages in
  (* [run] passes the top-level [never]: recognising it by identity lets
     the hot loop replace an indirect call per step with one branch. *)
  let can_stop = stop != never in
  let rec boundary budget =
    match t.halted with
    | Some code -> Paused_halt code
    | None ->
      if stop t then Paused_stop
      else if budget = 0 then Paused_fuel
      else dispatch budget
  and dispatch budget =
    (* Boundary checks for pc already done; budget ≥ 1. *)
    let idx = fast_index t in
    if idx >= 0 then fast budget idx
    else begin
      exec_reference t;
      boundary (budget - 1)
    end
  and fast budget idx =
    let nxt = (Array.unsafe_get ops idx) t in
    let budget = budget - 1 in
    if nxt >= 0 then
      if can_stop && stop t then Paused_stop
      else if budget = 0 then Paused_fuel
      else if Bytes.unsafe_get xpages (nxt lsr xpage_shift) = '\001' then
        fast budget nxt
      else dispatch budget
    else boundary budget
  in
  boundary fuel

(* [runner_threaded] under [run] with a block per step: the boundary
   checks, one fuel check and one execute-bitmap byte per block. A block
   runs only when the budget covers all of it; otherwise the rest of the
   run, shorter than one page of instructions, takes the per-op loop, so
   fuel runs out at exactly the instruction it does there. A block adds
   its body's counters once, and writes PC once, just before its exit,
   which can trap at its own address. *)
let runner_blocks t tbl ~fuel =
  let ops = t.prep.p_ops and xpages = t.xpages and sems = tbl.sems and shapes = tbl.shapes in
  let rec boundary budget =
    match t.halted with
    | Some code -> Paused_halt code
    | None -> if budget = 0 then Paused_fuel else dispatch budget
  and dispatch budget =
    let idx = fast_index t in
    if idx >= 0 then block budget idx
    else begin
      exec_reference t;
      boundary (budget - 1)
    end
  and block budget idx =
    let shape = Array.unsafe_get shapes idx in
    let shape = if shape = 0 then build_block t tbl idx else shape in
    let len = shape land 0xffff in
    if budget < len then runner_threaded t ~stop:never ~fuel:budget
    else begin
      let exit = idx + len - 1 in
      if len > 1 then begin
        run_body t sems idx exit;
        t.cycles <- t.cycles + (shape lsr 32);
        t.instret <- t.instret + (len - 1);
        t.mem_ops <- t.mem_ops + ((shape lsr 16) land 0xffff);
        set_pc t (code_address exit)
      end;
      let nxt = (Array.unsafe_get ops exit) t in
      let budget = budget - len in
      if nxt >= 0 then
        if budget = 0 then Paused_fuel
        else if Bytes.unsafe_get xpages (nxt lsr xpage_shift) = '\001' then block budget nxt
        else dispatch budget
      else boundary budget
    end
  in
  boundary fuel

(* Steps a prepared program runs under [run], counted over all its
   instances, before it gets its block table, which costs a table of two
   words per instruction and a block build per entry point. A one-shot
   fuzz image runs ~1,078 steps over 429 distinct instructions and is
   discarded, so it never pays; an inject victim runs ~5,150 steps per
   run and serves every fault, and a spec cell runs 140k-900k steps, so
   both cross this within their first run. *)
let warmup_steps = 4096

(* The block table is published with one write of one record holding
   every new array, so no domain sees half of it. Two domains that both
   publish one leave two equivalent tables; the later write wins. *)
let publish p =
  let n = Array.length p.p_ops in
  let tbl = { sems = Array.make n sem_stub; shapes = Array.make n 0 } in
  p.p_blocks <- Some tbl;
  tbl

(* [run]'s runner: the block loop once the prepared program is warm, the
   per-op loop before that, switching mid-run at the step where it gets
   warm. *)
let runner_run t ~stop:_ ~fuel =
  let p = t.prep in
  match p.p_blocks with
  | Some tbl -> runner_blocks t tbl ~fuel
  | None -> (
    let warm = max 0 (warmup_steps - p.p_steps) in
    let start = t.instret in
    match runner_threaded t ~stop:never ~fuel:(min fuel warm) with
    | Paused_fuel when fuel > warm -> runner_blocks t (publish p) ~fuel:(fuel - warm)
    | pause ->
      p.p_steps <- p.p_steps + (t.instret - start);
      pause
    | exception e ->
      p.p_steps <- p.p_steps + (t.instret - start);
      raise e)

(* One driver owns the pause/fault-to-outcome protocol and the obs
   flush, shared by [run]/[run_until] on both engines so they cannot
   drift; the per-instruction boundary checks live in the runners. The
   fault handler is installed once around the whole loop, not per step. *)
let drive ~runner ~stop ~fuel t =
  (* the runners count the budget down to exactly 0, which a negative
     one never reaches *)
  if fuel < 0 then invalid_arg "Machine.run: negative fuel";
  let outcome =
    try
      match runner t ~stop ~fuel with
      | Paused_halt code -> Some (Halted code)
      | Paused_stop -> None
      | Paused_fuel -> Some Out_of_fuel
    with Trap.Fault f -> Some (Faulted f)
  in
  (match outcome with
  | None -> ()
    (* paused at a trigger point: the counters flush when the caller
       finishes the run *)
  | Some oc ->
    if Obs.enabled () then
      obs_publish t (match oc with Faulted f -> Some f | Halted _ | Out_of_fuel -> None));
  outcome

let run_with runner ?(fuel = 10_000_000) t =
  match drive ~runner ~stop:never ~fuel t with
  | Some oc -> oc
  | None -> invalid_arg "Machine.run: [never] stopped the loop"

let run_until_with runner ?(fuel = 10_000_000) t ~stop = drive ~runner ~stop ~fuel t

let run ?fuel t = run_with runner_run ?fuel t
let run_until ?fuel t ~stop = run_until_with runner_threaded ?fuel t ~stop

module Reference = struct
  let run ?fuel t = run_with runner_reference ?fuel t
  let run_until ?fuel t ~stop = run_until_with runner_reference ?fuel t ~stop
end

(* --- construction ----------------------------------------------------- *)

(* The threaded ops of an image, compiled on first visit: a one-shot
   image pays for the instructions it runs, not for all it holds. Every
   slot starts as [compile_stub], which finds its slot from pc, relying
   on the dispatch invariant that an op is entered with pc = code_base +
   4 * its index (the dispatcher derives the index from pc, and an op
   that returns index i has set pc to code_base + 4i). It stores the
   compiled closure in the slot and runs it. A slot's closure depends
   only on (image, index), so instances and clones of one prepared value
   share the filled slots, and two domains racing on one slot store
   equivalent closures: the race is benign and takes no lock. The stub
   reads the slots and the image from the machine and closes over
   nothing, so the table is made from a static value: no minor
   collection to create it, no remembered-set entry per slot, and
   nothing that keeps a dead image alive. *)
let compile_stub t =
  let idx = Int64.to_int (Int64.sub (pc t) Image.code_base) lsr 2 in
  let ops = t.prep.p_ops in
  let op = compile_op t.image (Array.length ops) idx (Image.instructions t.image).(idx) in
  ops.(idx) <- op;
  op t

let lazy_ops image = Array.make (Array.length (Image.instructions image)) compile_stub

(* Page [k] of a machine's code: the image's encoding, zero-padded past
   its end. *)
let code_page image k =
  let words, _pools = Image.encoded image in
  let page = Bytes.make Memory.page_size '\000' in
  let per_page = Memory.page_size / 4 in
  for i = 0 to min per_page (Array.length words - (k * per_page)) - 1 do
    Bytes.set_int32_le page (4 * i) words.((k * per_page) + i)
  done;
  page

let prepare program =
  let image = Image.build program in
  {
    p_image = image;
    p_ops = lazy_ops image;
    p_code_pages = max 1 ((Image.code_size image + Memory.page_size - 1) / Memory.page_size);
    (* one rw data region covering all objects (the image appends the
       canary guard object when the program does not declare one) *)
    p_data_size = max Memory.page_size (16 + Image.data_size image);
    p_code_limit = Image.code_size image;
    p_steps = 0;
    p_blocks = None;
  }

let prepared_image p = p.p_image

let blocks_built p =
  match p.p_blocks with
  | None -> 0
  | Some tbl -> Array.fold_left (fun n shape -> if shape = 0 then n else n + 1) 0 tbl.shapes

let instantiate ?(cfg = Config.default) ?keys ?rng p =
  let rng = match rng with Some r -> r | None -> Rng.create 0x9ac57ac4L in
  let keys = match keys with Some k -> k | None -> Keys.generate rng in
  let image = p.p_image in
  let mem = Memory.create () in
  (* the code pages hold the real encoding (what an adversary can
     disclose) from their first data access, and are rx from the first
     fetch: W^X holds throughout *)
  Memory.map mem ~addr:Image.code_base
    ~size:(p.p_code_pages * Memory.page_size)
    ~init:(code_page image) Memory.perm_rx;
  Memory.map mem ~addr:Image.data_base ~size:p.p_data_size Memory.perm_rw;
  Memory.map mem
    ~addr:(Int64.sub Image.stack_top (Int64.of_int Image.stack_size))
    ~size:Image.stack_size Memory.perm_rw;
  Memory.map mem ~addr:Image.shadow_base ~size:Image.shadow_size Memory.perm_rw;
  (* [Pointer.is_canonical] is monotone (p >> va_size = 0), so the last
     in-image address being canonical certifies the whole range; an empty
     image never takes the fast path, the flag is then irrelevant. *)
  let fast_ok =
    p.p_code_limit > 0
    && Pointer.is_canonical cfg (Int64.add Image.code_base (Int64.of_int (p.p_code_limit - 1)))
  in
  let t =
    {
      cfg;
      mem;
      image;
      keys;
      regs = Bytes.make regs_bytes '\000';
      flags_bits = 0;
      halted = None;
      cycles = 0;
      instret = 0;
      mem_ops = 0;
      forward_cfi = true;
      hooks = Hashtbl.create 4;
      on_syscall = default_syscall;
      out = [];
      obs_label = "";
      obs_pac = Array.make 9 0;
      obs_mark_instret = 0;
      obs_mark_memops = 0;
      obs_mark_dmiss = 0;
      obs_mark_xmiss = 0;
      prep = p;
      block_at = 0;
      fast_ok;
      xpages = Bytes.make p.p_code_pages '\000';
      xcache_gen = stale_gen;
    }
  in
  (match Image.symbol image canary_symbol with
  | Some a -> Memory.store64 mem a (Rng.next64 rng)
  | None -> ());
  set t Reg.SP Image.stack_top;
  set_pc t (Image.entry image);
  set t Reg.lr (Image.halt_addr image);
  set t Reg.shadow Image.shadow_base;
  t

let load ?cfg ?keys ?rng program = instantiate ?cfg ?keys ?rng (prepare program)

let clone t =
  {
    t with
    mem = Memory.copy t.mem;
    regs = Bytes.copy t.regs;
    hooks = t.hooks;
    out = t.out;
    obs_pac = Array.copy t.obs_pac;
    (* Memory.copy restarts its TLB miss counters at zero. *)
    obs_mark_dmiss = 0;
    obs_mark_xmiss = 0;
    (* ... and its generation counter: force a refill on the first step
       of the clone rather than trusting a stale-by-construction cache. *)
    xpages = Bytes.copy t.xpages;
    xcache_gen = stale_gen;
  }

(* --- contexts -------------------------------------------------------- *)

type context = {
  c_xregs : Word64.t array;
  c_sp : Word64.t;
  c_pc : Word64.t;
  c_flags : Cond.flags;
}

let save_context t =
  {
    c_xregs = Array.init 31 (fun i -> t.%{i lsl 3});
    c_sp = sp t;
    c_pc = pc t;
    c_flags = Cond.flags_of_bits t.flags_bits;
  }

let restore_context t c =
  for i = 0 to 30 do
    t.%{i lsl 3} <- c.c_xregs.(i)
  done;
  set t Reg.SP c.c_sp;
  set_pc t c.c_pc;
  t.flags_bits <- Cond.bits_of_flags c.c_flags

let context_pc c = c.c_pc

let context_get c = function
  | Reg.X n -> c.c_xregs.(n)
  | Reg.SP -> c.c_sp
  | Reg.XZR -> 0L

let flags_word (f : Cond.flags) =
  let b v i = if v then Int64.shift_left 1L i else 0L in
  Int64.logor (b f.n 3) (Int64.logor (b f.z 2) (Int64.logor (b f.c 1) (b f.v 0)))

let flags_of_word w =
  let b i = Word64.bit w i in
  { Cond.n = b 3; z = b 2; c = b 1; v = b 0 }

let context_words c =
  Array.concat [ c.c_xregs; [| c.c_sp; c.c_pc; flags_word c.c_flags |] ]

let context_of_words w =
  if Array.length w <> 34 then invalid_arg "Machine.context_of_words";
  {
    c_xregs = Array.sub w 0 31;
    c_sp = w.(31);
    c_pc = w.(32);
    c_flags = flags_of_word w.(33);
  }

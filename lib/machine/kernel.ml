module Word64 = Pacstack_util.Word64
module Rng = Pacstack_util.Rng
module Keys = Pacstack_pa.Keys
module Prf = Pacstack_pa.Prf
module Reg = Pacstack_isa.Reg

type signal_policy = Sig_unprotected | Sig_chained | Sig_chained_full

type t = { rng : Rng.t; signal_policy : signal_policy }

type proc = {
  m : Machine.t;
  mutable sig_ref : Word64.t;  (* kernel-side asigret reference, 0 = none *)
  mutable sig_depth : int;
}

let create ?(signal_policy = Sig_unprotected) rng = { rng; signal_policy }
let machine p = p.m
let signal_depth p = p.sig_depth

(* Signal frame: 34 context words + the previous asigret chain value + one
   pad word to keep SP 16-byte aligned. *)
let frame_words = 36
let frame_bytes = frame_words * 8

(* The Appendix B chain value binding the interrupted PC and CR to all
   outer interrupted contexts, keyed with the generic (GA) key. *)
let sig_token m ~pc ~cr ~prev =
  let ga = Keys.get (Machine.keys m) Keys.GA in
  Prf.mac64 ga ~data:pc ~modifier:(Int64.logxor prev (Word64.rotl cr 17))

(* Appendix B's stronger variant: "all register values could be included
   in the asigret calculation using the pacga instruction" — a pacga-style
   fold over the whole saved context. *)
let sig_token_full m ~words ~prev =
  let ga = Keys.get (Machine.keys m) Keys.GA in
  Array.fold_left (fun acc w -> Prf.mac64 ga ~data:w ~modifier:acc) prev words

let sigreturn_kill_exit_code = 139

let do_sigreturn t p =
  let m = p.m in
  let sp = Machine.get m Reg.SP in
  let words = Array.init 34 (fun i -> Memory.load64 (Machine.memory m) (Int64.add sp (Int64.of_int (8 * i)))) in
  let prev = Memory.load64 (Machine.memory m) (Int64.add sp (Int64.of_int (8 * 34))) in
  let ctx = Machine.context_of_words words in
  let accept () =
    p.sig_depth <- max 0 (p.sig_depth - 1);
    p.sig_ref <- prev;
    Machine.restore_context m ctx
  in
  match t.signal_policy with
  | Sig_unprotected -> accept ()
  | Sig_chained | Sig_chained_full ->
    let expected =
      match t.signal_policy with
      | Sig_chained_full -> sig_token_full m ~words ~prev
      | Sig_chained | Sig_unprotected ->
        let pc = Machine.context_pc ctx in
        let cr = Machine.context_get ctx Reg.cr in
        sig_token m ~pc ~cr ~prev
    in
    if Word64.equal expected p.sig_ref && p.sig_depth > 0 then accept ()
    else
      (* forged or replayed frame: the kernel terminates the process *)
      Machine.set_halted m sigreturn_kill_exit_code

let handler t p m n =
  match n with
  | 0 -> Machine.set_halted m (Int64.to_int (Machine.get m (Reg.x 0)))
  | 1 -> Machine.push_output m (Machine.get m (Reg.x 0))
  | 5 -> do_sigreturn t p
  | 7 ->
    (* mprotect(addr, size, prot): prot bits r=4 w=2 x=1. The kernel is
       the guardian of assumption A1 — W+X requests are refused. *)
    let addr = Machine.get m (Reg.x 0) in
    let size = Int64.to_int (Machine.get m (Reg.x 1)) in
    let prot = Int64.to_int (Machine.get m (Reg.x 2)) in
    let perm =
      {
        Memory.readable = prot land 4 <> 0;
        writable = prot land 2 <> 0;
        executable = prot land 1 <> 0;
      }
    in
    let result =
      match Memory.protect (Machine.memory m) ~addr ~size perm with
      | () -> 0L
      | exception Invalid_argument _ -> -1L
    in
    Machine.set m (Reg.x 0) result
  | n -> raise (Trap.Fault (Trap.Undefined (Printf.sprintf "unknown syscall %d" n)))

let adopt t machine =
  let p = { m = machine; sig_ref = 0L; sig_depth = 0 } in
  Machine.set_syscall_handler machine (fun m n -> handler t p m n);
  p

(* A fresh process image: new keys from the kernel's stream, then the
   canary from a split of it. *)
let instance t prepared =
  let keys = Keys.generate t.rng in
  Machine.instantiate ~keys ~rng:(Rng.split t.rng) prepared

let boot_prepared t prepared = adopt t (instance t prepared)
let boot t program = boot_prepared t (Machine.prepare program)

let deliver_signal t p ~handler ~signum =
  let m = p.m in
  let image = Machine.image m in
  let handler_addr =
    match Image.symbol image handler with
    | Some a -> a
    | None -> invalid_arg ("Kernel.deliver_signal: unknown handler " ^ handler)
  in
  let ctx = Machine.save_context m in
  let words = Machine.context_words ctx in
  let sp = Int64.sub (Machine.get m Reg.SP) (Int64.of_int frame_bytes) in
  Array.iteri
    (fun i w -> Memory.store64 (Machine.memory m) (Int64.add sp (Int64.of_int (8 * i))) w)
    words;
  Memory.store64 (Machine.memory m) (Int64.add sp (Int64.of_int (8 * 34))) p.sig_ref;
  (match t.signal_policy with
  | Sig_unprotected -> ()
  | Sig_chained ->
    let pc = Machine.context_pc ctx in
    let cr = Machine.context_get ctx Reg.cr in
    p.sig_ref <- sig_token m ~pc ~cr ~prev:p.sig_ref
  | Sig_chained_full -> p.sig_ref <- sig_token_full m ~words ~prev:p.sig_ref);
  p.sig_depth <- p.sig_depth + 1;
  Machine.set m Reg.SP sp;
  Machine.set m (Reg.x 0) (Int64.of_int signum);
  Machine.set m Reg.lr (Image.sigreturn_trampoline image);
  Machine.set_pc m handler_addr

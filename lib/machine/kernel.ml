module Word64 = Pacstack_util.Word64
module Rng = Pacstack_util.Rng
module Keys = Pacstack_pa.Keys
module Prf = Pacstack_pa.Prf
module Reg = Pacstack_isa.Reg

type signal_policy = Sig_unprotected | Sig_chained | Sig_chained_full

type t = {
  rng : Rng.t;
  signal_policy : signal_policy;
  mutable next_pid : int;
  mutable procs : proc list;  (* newest first *)
}

and proc = {
  pid : int;
  parent : int option;
  mutable m : Machine.t;
  mutable sig_ref : Word64.t;  (* kernel-side asigret reference, 0 = none *)
  mutable sig_depth : int;
  mutable threads : Machine.context list;  (* suspended contexts, kernel-side *)
}

let create ?(signal_policy = Sig_unprotected) rng =
  { rng; signal_policy; next_pid = 1; procs = [] }

let machine p = p.m
let pid p = p.pid
let processes t = List.rev t.procs
let children t p = List.filter (fun q -> q.parent = Some p.pid) (processes t)
let signal_depth p = p.sig_depth
let thread_count p = List.length p.threads

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
      Machine.set_halted m 139

let rec handler t p m n =
  match n with
  | 0 -> Machine.set_halted m (Int64.to_int (Machine.get m (Reg.x 0)))
  | 1 -> Machine.push_output m (Machine.get m (Reg.x 0))
  | 2 ->
    let child_m = Machine.clone m in
    let child =
      {
        pid = t.next_pid;
        parent = Some p.pid;
        m = child_m;
        sig_ref = p.sig_ref;
        sig_depth = p.sig_depth;
        threads = [];
      }
    in
    t.next_pid <- t.next_pid + 1;
    Machine.set child_m (Reg.x 0) 0L;
    Machine.set m (Reg.x 0) (Int64.of_int child.pid);
    (* the child must answer its own syscalls *)
    Machine.set_syscall_handler child_m (fun m n -> handler t child m n);
    t.procs <- child :: t.procs
  | 3 ->
    let entry = Machine.get m (Reg.x 0) in
    let stack = Machine.get m (Reg.x 1) in
    let ctx = Machine.save_context m in
    let words = Machine.context_words ctx in
    let words = Array.copy words in
    words.(31) <- stack;  (* SP *)
    words.(32) <- entry;  (* PC *)
    words.(30) <- Image.halt_addr (Machine.image m);  (* LR: thread exit *)
    p.threads <- p.threads @ [ Machine.context_of_words words ]
  | 4 -> (
    match p.threads with
    | [] -> ()
    | next :: rest ->
      let current = Machine.save_context m in
      p.threads <- rest @ [ current ];
      Machine.restore_context m next)
  | 5 -> do_sigreturn t p
  | 6 -> Machine.set m (Reg.x 0) (Int64.of_int p.pid)
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

let register t machine ~parent =
  let p = { pid = t.next_pid; parent; m = machine; sig_ref = 0L; sig_depth = 0; threads = [] } in
  t.next_pid <- t.next_pid + 1;
  Machine.set_syscall_handler machine (fun m n -> handler t p m n);
  t.procs <- p :: t.procs;
  p

(* A fresh process image: new keys from the kernel's stream, then the
   canary from a split of it. *)
let instance t prepared =
  let keys = Keys.generate t.rng in
  Machine.instantiate ~keys ~rng:(Rng.split t.rng) prepared

let boot_prepared t prepared = register t (instance t prepared) ~parent:None
let boot t program = boot_prepared t (Machine.prepare program)
let adopt t machine = register t machine ~parent:None

let exec t p program =
  let machine = instance t (Machine.prepare program) in
  Machine.set_syscall_handler machine (fun m n -> handler t p m n);
  p.m <- machine;
  p.sig_ref <- 0L;
  p.sig_depth <- 0;
  p.threads <- []

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

let rotate_threads p =
  match p.threads with
  | [] -> ()
  | next :: rest ->
    let current = Machine.save_context p.m in
    p.threads <- rest @ [ current ];
    Machine.restore_context p.m next

(* Round-robin across all live processes of the kernel, a time slice of
   [quantum] retired instructions each. Each slice is charged a whole
   quantum; the round ends once the budget is spent. *)
let run_all ?(fuel = 10_000_000) ?(quantum = 1000) t =
  if quantum <= 0 then invalid_arg "Kernel.run_all: quantum";
  if fuel < 0 then invalid_arg "Kernel.run_all: fuel";
  let live () = List.filter (fun p -> Machine.halted p.m = None) (processes t) in
  let rec slice budget = function
    | _ when budget <= 0 -> ()
    | [] -> ( match live () with [] -> () | again -> slice budget again)
    | p :: rest ->
      (match Machine.run ~fuel:(min quantum budget) p.m with
      | Machine.Faulted _ -> Machine.set_halted p.m 139
      | Machine.Halted _ | Machine.Out_of_fuel -> ());
      slice (budget - quantum) rest
  in
  slice fuel (live ());
  List.map (fun p -> (p, Machine.run ~fuel:0 p.m)) (processes t)

(* Preemptive scheduling: a timer interrupt every [quantum] retired
   instructions forces a thread switch, the registers of the preempted
   thread moving into kernel-private storage exactly as on a voluntary
   yield (§5.4 holds under preemption too). *)
let run_preemptive ?(fuel = 10_000_000) ~quantum t p =
  ignore t;
  if quantum <= 0 then invalid_arg "Kernel.run_preemptive: quantum";
  let rec go budget =
    match Machine.run ~fuel:(min quantum budget) p.m with
    | Machine.Out_of_fuel when budget > quantum ->
      rotate_threads p;
      go (budget - quantum)
    | outcome -> outcome
  in
  go fuel

module Instr = Pacstack_isa.Instr
module Reg = Pacstack_isa.Reg
module Cond = Pacstack_isa.Cond
module Program = Pacstack_isa.Program

let jmp_buf_bytes = 128

let setjmp_symbol = "setjmp"
let longjmp_symbol = "longjmp"
let pacstack_setjmp_symbol = "__pacstack_setjmp"
let pacstack_longjmp_symbol = "__pacstack_longjmp"

module Obs = Pacstack_obs.Obs

let obs_entry kind scheme =
  if Obs.enabled () then
    Obs.Metrics.incr
      (Printf.sprintf "harden.runtime.%s{scheme=%s}" kind (Scheme.to_string scheme))

let setjmp_entry scheme =
  obs_entry "setjmp" scheme;
  (Scheme.descriptor scheme).Scheme.setjmp_symbol

let longjmp_entry scheme =
  obs_entry "longjmp" scheme;
  (Scheme.descriptor scheme).Scheme.longjmp_symbol

let x0 = Reg.x 0
let x1 = Reg.x 1
let x9 = Reg.x 9
let x15 = Reg.scratch
let x28 = Reg.cr

let off base offset = { Instr.base; offset; index = Instr.Offset }

(* slot offsets inside jmp_buf *)
let slot_x i = 8 * (i - 19)  (* x19..x28 at 0..72 *)
let slot_fp = 80
let slot_lr = 88
let slot_sp = 96
let slot_x18 = 104  (* shadow-stack pointer, as bionic's setjmp does *)

let ins l = List.map (fun i -> Program.Ins i) l

(* int setjmp(jmp_buf *buf): saves callee-saved registers, FP, LR, SP;
   returns 0. *)
let setjmp_fn =
  Program.func setjmp_symbol
    (ins
       (List.concat
          [
            List.init 10 (fun i -> Instr.Str (Reg.x (19 + i), off x0 (slot_x (19 + i))));
            [
              Instr.Str (Reg.fp, off x0 slot_fp);
              Instr.Str (Reg.lr, off x0 slot_lr);
              Instr.Mov (x9, Instr.Reg Reg.SP);
              Instr.Str (x9, off x0 slot_sp);
              Instr.Str (Reg.shadow, off x0 slot_x18);
              Instr.Mov (x0, Instr.Imm 0L);
              Instr.Ret Reg.lr;
            ];
          ]))

(* void longjmp(jmp_buf *buf, int val): restores the saved environment and
   returns val (or 1 if val = 0) from the corresponding setjmp. *)
let longjmp_fn =
  Program.func longjmp_symbol
    (List.concat
       [
         ins (List.init 10 (fun i -> Instr.Ldr (Reg.x (19 + i), off x0 (slot_x (19 + i)))));
         ins
           [
             Instr.Ldr (Reg.fp, off x0 slot_fp);
             Instr.Ldr (Reg.lr, off x0 slot_lr);
             Instr.Ldr (Reg.shadow, off x0 slot_x18);
             Instr.Ldr (x9, off x0 slot_sp);
             Instr.Mov (Reg.SP, Instr.Reg x9);
             Instr.Cmp (x1, Instr.Imm 0L);
             Instr.Bcond (Cond.NE, "nonzero");
             Instr.Mov (x1, Instr.Imm 1L);
           ];
         [ Program.Lbl "nonzero" ];
         ins [ Instr.Mov (x0, Instr.Reg x1); Instr.Ret Reg.lr ];
       ])

(* Listing 4: bind the setjmp return address to both the current aret and
   the SP value before storing it into jmp_buf. Where the paper's wrapper
   rewrites LR and delegates to libc setjmp, ours performs the stores
   itself so that the wrapper can still return through the plain LR —
   behaviourally identical, but executable in a strict simulator. *)
let pacstack_setjmp_fn =
  Program.func pacstack_setjmp_symbol
    (ins
       (List.concat
          [
            List.init 10 (fun i -> Instr.Str (Reg.x (19 + i), off x0 (slot_x (19 + i))));
            [
              Instr.Str (Reg.fp, off x0 slot_fp);
              Instr.Mov (x9, Instr.Reg Reg.SP);
              Instr.Str (x9, off x0 slot_sp);
              Instr.Str (Reg.shadow, off x0 slot_x18);
              (* aret_b = pacia(ret_b, aret_i) xor pacia(SP_b, aret_i) *)
              Instr.Mov (x15, Instr.Reg Reg.SP);
              Instr.Pacia (x15, x28);
              Instr.Mov (x9, Instr.Reg Reg.lr);
              Instr.Pacia (x9, x28);
              Instr.Eor (x9, x9, Instr.Reg x15);
              Instr.Str (x9, off x0 slot_lr);
              Instr.Mov (x0, Instr.Imm 0L);
              Instr.Ret Reg.lr;
            ];
          ]))

(* Listing 5: retrieve aret_f (saved CR), the bound return address and SP
   from jmp_buf, verify, write the verified plain return address back, and
   fall through to the plain longjmp. *)
let pacstack_longjmp_fn =
  Program.func pacstack_longjmp_symbol
    (ins
       [
         Instr.Ldr (x28, off x0 (slot_x 28));
         Instr.Ldr (x9, off x0 slot_lr);
         Instr.Ldr (x15, off x0 slot_sp);
         Instr.Pacia (x15, x28);
         Instr.Eor (x9, x9, Instr.Reg x15);
         Instr.Autia (x9, x28);
         Instr.Str (x9, off x0 slot_lr);
         Instr.B longjmp_symbol;
       ])

let stack_chk_fail_fn =
  Program.func Scheme.stack_chk_fail_symbol
    (ins
       [
         Instr.Mov (x0, Instr.Imm (Int64.of_int Scheme.canary_failure_exit_code));
         Instr.Hlt;
       ])

let functions =
  [ setjmp_fn; longjmp_fn; pacstack_setjmp_fn; pacstack_longjmp_fn; stack_chk_fail_fn ]

module Instr = Pacstack_isa.Instr
module Reg = Pacstack_isa.Reg
module Program = Pacstack_isa.Program

let is_self_move = function
  | Instr.Mov (rd, Instr.Reg rs) -> Reg.equal rd rs
  | Instr.Add (rd, rn, Instr.Imm 0L) | Instr.Sub (rd, rn, Instr.Imm 0L) -> Reg.equal rd rn
  | _ -> false

(* str r, [slot]; ldr r, [same slot]  -->  drop the reload (plain SP/FP
   offset addressing only; pre/post indexing mutates the base). *)
let redundant_reload a b =
  match a, b with
  | ( Instr.Str (r1, { Instr.base = b1; offset = o1; index = Instr.Offset }),
      Instr.Ldr (r2, { Instr.base = b2; offset = o2; index = Instr.Offset }) ) ->
    Reg.equal r1 r2 && Reg.equal b1 b2 && o1 = o2
  | _ -> false

(* Appends [item] to [kept] (the output so far, newest first). Every
   rewrite compares the incoming item with the kept item before it, so a
   removal re-exposes that item to whatever follows: one left-to-right
   pass reaches the fixpoint. The three rewrites only delete, and none
   deletes an instruction another one matches on (a self move, a [b], a
   reload), so that fixpoint is unique. *)
let rec push kept item =
  match kept, item with
  | _, Program.Ins i when is_self_move i -> kept
  | Program.Ins a :: _, Program.Ins b when redundant_reload a b -> kept
  | Program.Ins (Instr.B target) :: older, Program.Lbl l when target = l -> push older item
  | _ -> item :: kept

let function_pass (f : Program.func) =
  { f with body = List.rev (List.fold_left push [] f.body) }

let program_pass (p : Program.t) = Program.map_funcs function_pass p

let removed_count before after =
  Program.instruction_count before - Program.instruction_count after

module Word64 = Pacstack_util.Word64
module Machine = Pacstack_machine.Machine
module Memory = Pacstack_machine.Memory
module Image = Pacstack_machine.Image
module Kernel = Pacstack_machine.Kernel
module Trap = Pacstack_machine.Trap
module Reg = Pacstack_isa.Reg
module Scenarios = Pacstack_workloads.Scenarios
module Scheme = Pacstack_harden.Scheme

type outcome = Hijacked | Bent | Detected of string | No_effect

exception Benign_run_failed of { scheme : Scheme.t; outcome : string }

let () =
  Printexc.register_printer (function
    | Benign_run_failed { scheme; outcome } ->
      Some
        (Printf.sprintf "Adversary.Benign_run_failed(scheme %s: %s)"
           (Scheme.to_string scheme) outcome)
    | _ -> None)

let outcome_to_string = function
  | Hijacked -> "HIJACKED"
  | Bent -> "bent"
  | Detected m -> "detected (" ^ m ^ ")"
  | No_effect -> "no effect"

let pp_outcome fmt o = Format.pp_print_string fmt (outcome_to_string o)

let equal_outcome a b =
  match a, b with
  | Hijacked, Hijacked | Bent, Bent | No_effect, No_effect -> true
  | Detected _, Detected _ -> true
  | (Hijacked | Bent | Detected _ | No_effect), _ -> false

let read m addr = Memory.peek64 (Machine.memory m) addr
let write m addr v = Memory.poke64 (Machine.memory m) addr v

let frame_record m = Machine.get m Reg.fp
let return_slot m = Int64.add (frame_record m) (Int64.of_int Scheme.return_slot_offset)
let chain_slot m = Int64.add (frame_record m) (Int64.of_int Scheme.chain_spill_offset)

let shadow_top_slot m =
  let rec scan last addr =
    match read m addr with
    | Some v when not (Word64.equal v 0L) -> scan (Some addr) (Int64.add addr 8L)
    | Some _ | None -> last
  in
  scan None Image.shadow_base

let symbol m name = Image.symbol (Machine.image m) name

let classify ~expected m outcome =
  let out = Machine.output m in
  let hijacked = List.exists (Word64.equal Scenarios.evil_marker) out in
  match outcome with
  | _ when hijacked -> Hijacked
  | Machine.Faulted f -> Detected (Trap.to_string f)
  | Machine.Halted c when c = Scheme.canary_failure_exit_code -> Detected "stack canary"
  | Machine.Halted c when c = Kernel.sigreturn_kill_exit_code ->
    Detected "kernel sigreturn validation"
  | Machine.Halted _ | Machine.Out_of_fuel -> if out = expected then No_effect else Bent

let benign_output scheme program =
  let compiled = Pacstack_minic.Compile.compile ~scheme program in
  let m = Machine.load compiled in
  match Machine.run ~fuel:10_000_000 m with
  | Machine.Halted _ -> Machine.output m
  | Machine.Faulted f ->
    raise (Benign_run_failed { scheme; outcome = "benign run faulted: " ^ Trap.to_string f })
  | Machine.Out_of_fuel -> raise (Benign_run_failed { scheme; outcome = "benign run out of fuel" })

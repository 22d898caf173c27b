module Word64 = Pacstack_util.Word64
module Rng = Pacstack_util.Rng
module Machine = Pacstack_machine.Machine
module Kernel = Pacstack_machine.Kernel
module Image = Pacstack_machine.Image
module Memory = Pacstack_machine.Memory
module Trap = Pacstack_machine.Trap
module Reg = Pacstack_isa.Reg
module Scheme = Pacstack_harden.Scheme
module Compile = Pacstack_minic.Compile
module Scenarios = Pacstack_workloads.Scenarios

let victim_scheme = Scheme.pacstack

(* Fabricate a full signal frame whose restored PC is [evil] and redirect
   the machine to the sigreturn trampoline — the §6.3.2 premise of a raw
   [svc] gadget reachable by the adversary. *)
let forge_and_trigger m =
  match Adversary.symbol m "evil" with
  | None -> ()
  | Some evil ->
    let sp = Machine.get m Reg.SP in
    let frame = Int64.sub sp 512L in
    let ctx = Machine.save_context m in
    let words = Machine.context_words ctx in
    words.(32) <- evil;  (* PC *)
    words.(31) <- sp;    (* restored SP *)
    words.(28) <- 0xdeadL;  (* CR of the adversary's choosing *)
    Array.iteri
      (fun idx w -> ignore (Adversary.write m (Int64.add frame (Int64.of_int (8 * idx))) w))
      words;
    ignore (Adversary.write m (Int64.add frame (Int64.of_int (8 * 34))) 0L);
    (* the modelled gadget: control reaches the trampoline with SP pointing
       at the forged frame *)
    Machine.set m Reg.SP frame;
    Machine.set_pc m (Image.sigreturn_trampoline (Machine.image m))

let run_victim ~policy ~attach ~deliver_real_signal =
  let victim = Scenarios.sigreturn_victim in
  let expected = Adversary.benign_output victim_scheme victim in
  (* a benign signal prints 105 before the final sum *)
  let expected = if deliver_real_signal then 105L :: expected else expected in
  let program = Compile.compile ~scheme:victim_scheme victim in
  let kernel = Kernel.create ~signal_policy:policy (Rng.create 0x51637L) in
  let machine = Machine.load program in
  let proc = Kernel.adopt kernel machine in
  if attach then Machine.attach_hook machine "gadget" forge_and_trigger;
  if deliver_real_signal then begin
    (* run the victim 400 instructions in (or to its halt); a fault on
       the way propagates as the trap *)
    (match Machine.run ~fuel:400 machine with
    | Machine.Faulted f -> raise (Trap.Fault f)
    | Machine.Halted _ | Machine.Out_of_fuel -> ());
    Kernel.deliver_signal kernel proc ~handler:"handler" ~signum:5
  end;
  let outcome = Machine.run machine ~fuel:2_000_000 in
  Adversary.classify ~expected machine outcome

let attack ~policy ?(deliver_real_signal = true) () =
  run_victim ~policy ~attach:true ~deliver_real_signal

let benign_roundtrip ~policy =
  match run_victim ~policy ~attach:false ~deliver_real_signal:true with
  | Adversary.No_effect -> true
  | Adversary.Hijacked | Adversary.Bent | Adversary.Detected _ -> false

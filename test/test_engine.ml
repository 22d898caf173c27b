(* Differential suite pinning the threaded-code engine to the reference
   interpreter.  [Machine.run] executes straight-line blocks of
   per-image compiled closures (machine.ml, "threaded-code compilation"
   and "straight-line blocks"); [Machine.Reference] is the original
   fetch-then-match loop kept as the oracle, and [Machine.run_until]
   runs on it.  Everything observable must be bit-identical across the
   two: outcome, trap, every register, flags, pc, all counters, program
   output and the full memory state (via [Memory.digest]).

   The suite also pins the execute-check invalidation: the threaded
   engine caches per-code-page execute permission keyed by
   [Memory.generation], so a [protect]/[unmap] of a code page — from
   outside a run or from a hook in mid-run — must trap exactly like the
   reference.

   It pins the loader split: [Machine.load] is
   [instantiate (prepare p)], and a prepared program backs any number
   of instances that must each run exactly like a fresh [load].

   Finally it pins the blocks themselves: the fuzz corpus on a second
   instance, which reuses the blocks the first built, a trap in the
   middle of a block and fuel running out at every position of a
   block. The [prepare] group's two-domain case builds its programs'
   blocks while both domains run them. *)

module Machine = Pacstack_machine.Machine
module Memory = Pacstack_machine.Memory
module Image = Pacstack_machine.Image
module Kernel = Pacstack_machine.Kernel
module Trap = Pacstack_machine.Trap
module Scheme = Pacstack_harden.Scheme
module Compile = Pacstack_minic.Compile
module Driver = Pacstack_fuzz.Driver
module Program = Pacstack_isa.Program
module Instr = Pacstack_isa.Instr
module Reg = Pacstack_isa.Reg
module Word64 = Pacstack_util.Word64
module Rng = Pacstack_util.Rng
module Asm = Pacstack_isa.Asm

let campaign_seed = 1L (* same stream as the tier-1 fuzz smoke *)
let fuel = 100_000

(* --- everything observable about a finished run ----------------------- *)

type snap = {
  outcome : Machine.outcome;
  cycles : int;
  instret : int;
  mem_ops : int;
  pc : int64;
  regs : int64 list; (* X0..X30, SP *)
  flags : Pacstack_isa.Cond.flags;
  output : int64 list;
  mem_digest : int64;
}

let snap_of m outcome =
  {
    outcome;
    cycles = Machine.cycles m;
    instret = Machine.instructions_retired m;
    mem_ops = Machine.memory_operations m;
    pc = Machine.pc m;
    regs =
      List.init 31 (fun i -> Machine.get m (Reg.X i)) @ [ Machine.get m Reg.SP ];
    flags = Machine.flags m;
    output = Machine.output m;
    mem_digest = Memory.digest (Machine.memory m);
  }

let plain runf m = snap_of m (runf m)
let plain_threaded m = plain (Machine.run ~fuel) m
let plain_reference m = plain (Machine.Reference.run ~fuel) m

let outcome_equal a b =
  match a, b with
  | Machine.Halted x, Machine.Halted y -> x = y
  | Machine.Faulted f, Machine.Faulted g -> Trap.equal f g
  | Machine.Out_of_fuel, Machine.Out_of_fuel -> true
  | _ -> false

let pp_outcome fmt = function
  | Machine.Halted c -> Format.fprintf fmt "halted(%d)" c
  | Machine.Faulted f -> Format.fprintf fmt "faulted(%a)" Trap.pp f
  | Machine.Out_of_fuel -> Format.fprintf fmt "out-of-fuel"

let check_same ~what a b =
  if not (outcome_equal a.outcome b.outcome) then
    Alcotest.failf "%s: outcome %a vs %a" what pp_outcome a.outcome pp_outcome
      b.outcome;
  if a.cycles <> b.cycles then
    Alcotest.failf "%s: cycles %d vs %d" what a.cycles b.cycles;
  if a.instret <> b.instret then
    Alcotest.failf "%s: instret %d vs %d" what a.instret b.instret;
  if a.mem_ops <> b.mem_ops then
    Alcotest.failf "%s: mem_ops %d vs %d" what a.mem_ops b.mem_ops;
  if not (Int64.equal a.pc b.pc) then
    Alcotest.failf "%s: pc %Lx vs %Lx" what a.pc b.pc;
  if a.regs <> b.regs then Alcotest.failf "%s: register file differs" what;
  if a.flags <> b.flags then Alcotest.failf "%s: flags differ" what;
  if a.output <> b.output then Alcotest.failf "%s: output differs" what;
  if not (Int64.equal a.mem_digest b.mem_digest) then
    Alcotest.failf "%s: memory digest %Lx vs %Lx" what a.mem_digest b.mem_digest

(* --- 200 fuzz programs x all registered schemes, full-run equivalence --------------- *)

(* Each program's first instance, which builds its blocks as it runs
   (the [blocks] group compares a second instance, which reuses them). *)
let test_differential () =
  for seed = 0 to 199 do
    let ast = Driver.program_of_seed ~campaign_seed seed in
    List.iter
      (fun scheme ->
        let program = Compile.compile ~scheme ast in
        let what = Format.asprintf "seed %d / %a" seed Scheme.pp scheme in
        check_same ~what
          (plain_threaded (Machine.load program))
          (plain_reference (Machine.load program)))
      Scheme.all
  done

(* --- lockstep: one-instruction runs on both engines --------------------- *)

(* A one-instruction run of a block longer than one instruction runs
   the first instruction of its body and pauses there. *)
let test_step_lockstep () =
  for seed = 0 to 19 do
    let ast = Driver.program_of_seed ~campaign_seed seed in
    List.iter
      (fun scheme ->
        let program = Compile.compile ~scheme ast in
        let a = Machine.load program in
        let b = Machine.load program in
        let steps = ref 0 in
        let continue = ref true in
        while !continue && !steps < 5_000 do
          incr steps;
          let oa = Machine.run ~fuel:1 a in
          let ob = Machine.Reference.run ~fuel:1 b in
          let what = Format.asprintf "seed %d / %a at step %d" seed Scheme.pp scheme !steps in
          if not (outcome_equal oa ob) then
            Alcotest.failf "%s: %a vs %a" what pp_outcome oa pp_outcome ob;
          if not (Int64.equal (Machine.pc a) (Machine.pc b)) then
            Alcotest.failf "%s: pc %Lx vs %Lx" what (Machine.pc a) (Machine.pc b);
          if Machine.cycles a <> Machine.cycles b then
            Alcotest.failf "%s: cycle divergence" what;
          match oa with
          | Machine.Out_of_fuel -> ()
          | Machine.Halted _ | Machine.Faulted _ -> continue := false
        done)
      Scheme.all
  done

(* --- run_until: a pause resumes identically on both engines ----------- *)

(* [run_until] pauses a machine at its 700th instruction; [Machine.run]
   and [Machine.Reference.run] then finish two such machines alike, from
   the middle of whatever block the pause fell in. *)
let test_run_until_pauses () =
  for seed = 0 to 19 do
    let program =
      Compile.compile ~scheme:Scheme.pacstack
        (Driver.program_of_seed ~campaign_seed seed)
    in
    let finish runf =
      let m = Machine.load program in
      match Machine.run_until ~fuel m ~stop:(fun m -> Machine.instructions_retired m >= 700) with
      | None -> plain runf m
      | Some outcome -> snap_of m outcome
    in
    check_same ~what:(Printf.sprintf "seed %d: resumed" seed)
      (finish (Machine.run ~fuel))
      (finish (Machine.Reference.run ~fuel))
  done

(* --- negative fuel ------------------------------------------------------- *)

(* The runners count the budget down to exactly 0: a negative budget is
   refused, where it would otherwise never run out, and nothing runs.
   The program halts, so an engine that accepted the budget fails here
   rather than hanging. *)
let rejects_negative_fuel runs () =
  let m = Machine.load (Asm.parse ".entry main\n.func main\n  mov x0, #0\n  hlt\n.endfunc") in
  let refused = Invalid_argument "Machine.run: negative fuel" in
  List.iter
    (fun (what, run) -> Alcotest.check_raises what refused (fun () -> run ~fuel:(-1) m))
    runs;
  Alcotest.(check int) "nothing ran" 0 (Machine.instructions_retired m)

(* --- execute-check invalidation --------------------------------------- *)

(* [n] straight-line marker instructions then hlt: long enough to cross
   into the second code page (1024 instructions per 4 KiB page). *)
let straightline n =
  Program.make ~entry:"main"
    [
      {
        Program.name = "main";
        body =
          List.init n (fun _ -> Program.Ins (Instr.Mov (Reg.X 1, Instr.Imm 7L)))
          @ [ Program.Ins Instr.Hlt ];
      };
    ]

let page2 = Int64.add Image.code_base (Int64.of_int Memory.page_size)

let both_engines f =
  f "threaded" (fun ~fuel m -> Machine.run ~fuel m);
  f "reference" (fun ~fuel m -> Machine.Reference.run ~fuel m)

(* Pause a fresh machine after 500 instructions, in the first code page. *)
let paused_straightline name run =
  let m = Machine.load (straightline 1500) in
  (match run ~fuel:500 m with
  | Machine.Out_of_fuel -> ()
  | oc -> Alcotest.failf "%s: expected a pause, got %a" name pp_outcome oc);
  m

let test_protect_mid_run () =
  both_engines (fun name run ->
    let m = paused_straightline name run in
    (* revoke execute on the second code page while paused in the first *)
    Memory.protect (Machine.memory m) ~addr:page2 ~size:Memory.page_size
      Memory.perm_r;
    (match run ~fuel m with
    | Machine.Faulted (Trap.Permission (a, Trap.Execute)) ->
      Alcotest.(check int64) (name ^ ": faulting pc") page2 a;
      Alcotest.(check int64) (name ^ ": pc at fault") page2 (Machine.pc m);
      Alcotest.(check int) (name ^ ": steps before fault") 1024
        (Machine.instructions_retired m)
    | oc -> Alcotest.failf "%s: expected execute fault, got %a" name pp_outcome oc);
    (* restore execute: the cached check must revalidate and finish *)
    Memory.protect (Machine.memory m) ~addr:page2 ~size:Memory.page_size
      Memory.perm_rx;
    match run ~fuel m with
    | Machine.Halted 0 -> ()
    | oc -> Alcotest.failf "%s: expected halt after restore, got %a" name pp_outcome oc)

let test_unmap_mid_run () =
  both_engines (fun name run ->
    let m = paused_straightline name run in
    Memory.unmap (Machine.memory m) ~addr:page2 ~size:Memory.page_size;
    match run ~fuel m with
    | Machine.Faulted (Trap.Unmapped (a, Trap.Execute)) ->
      Alcotest.(check int64) (name ^ ": faulting pc") page2 a
    | oc -> Alcotest.failf "%s: expected unmapped fault, got %a" name pp_outcome oc)

(* Runs one instance of [prepared] under [run], which builds the blocks
   it enters, so that a later instance reuses them. *)
let warm ~what prepared =
  ignore (Machine.run ~fuel (Machine.instantiate prepared));
  if Machine.blocks_built prepared = 0 then Alcotest.failf "%s: no block built" what

let test_hook_protects_own_page () =
  (* a hook revokes execute on the page it runs in: the very next
     instruction must fault, on both engines, even though the run loop
     never left [run] between the hook and the fault; under [run] the
     hook is a block's exit and the next block's execute check must see
     the change, on a first instance and on one whose blocks exist *)
  let program =
    Program.make ~entry:"main"
      [
        {
          Program.name = "main";
          body =
            [
              Program.Ins (Instr.Hook "mprot");
              Program.Ins Instr.Nop;
              Program.Ins Instr.Hlt;
            ];
        };
      ]
  in
  let check name run m =
    Machine.attach_hook m "mprot" (fun m ->
        Memory.protect (Machine.memory m) ~addr:Image.code_base
          ~size:Memory.page_size Memory.perm_r);
    match run ~fuel m with
    | Machine.Faulted (Trap.Permission (_, Trap.Execute)) ->
      Alcotest.(check int) (name ^ ": faulted on the next instruction") 1
        (Machine.instructions_retired m)
    | oc -> Alcotest.failf "%s: expected execute fault, got %a" name pp_outcome oc
  in
  both_engines (fun name run -> check name run (Machine.load program));
  let prepared = Machine.prepare program in
  warm ~what:"hook program" prepared;
  check "threaded, second instance" (fun ~fuel m -> Machine.run ~fuel m)
    (Machine.instantiate prepared)

(* --- straight-line blocks ------------------------------------------------- *)

(* Every fuzz program of the corpus, on a second instance that reuses
   the blocks the first built, runs under [run] exactly like the
   reference. *)
let test_differential_blocks () =
  for seed = 0 to 199 do
    let ast = Driver.program_of_seed ~campaign_seed seed in
    List.iter
      (fun scheme ->
        let what = Format.asprintf "seed %d / %a (blocks)" seed Scheme.pp scheme in
        let prepared = Machine.prepare (Compile.compile ~scheme ast) in
        warm ~what prepared;
        check_same ~what
          (plain_threaded (Machine.instantiate prepared))
          (plain_reference (Machine.instantiate prepared)))
      Scheme.all
  done

(* A hot loop of ten instructions, one block from [loop] to [b.ne]. Its
   body stores, then loads through x3 with pre-index writeback: x3 is the
   stack pointer until x1 reaches 1024, when it becomes sp + 2^40, so the
   1,024th load traps in the middle of the block, after the writeback,
   ~10,240 steps in. *)
let hot_loop =
  Asm.parse
    {|.entry main
.func main
  mov x1, #0
  mov x5, #0
  mov x6, #0
loop:
  add x1, x1, #1
  lsr x3, x1, #10
  lsl x3, x3, #40
  add x3, x3, sp
  str x1, [sp, #-16]
  add x5, x5, x1
  ldr x4, [x3, #-8]!
  eor x6, x6, x4
  cmp x1, #2000
  b.ne loop
  mov x0, #0
  hlt
.endfunc|}

let hot_loop_ldr = Int64.add Image.code_base (Int64.of_int (4 * 9))

(* A trap inside a block leaves PC at the trapping load, the writeback
   done, and all three counters where the reference leaves them: on the
   first instance, which builds the blocks, and on a second, which
   reuses them. *)
let test_trap_mid_block () =
  let prepared = Machine.prepare hot_loop in
  let reference = plain_reference (Machine.instantiate prepared) in
  (match reference.outcome with
  | Machine.Faulted _ -> ()
  | oc -> Alcotest.failf "the reference ended %a, not with a trap" pp_outcome oc);
  Alcotest.(check int64) "the reference traps at the load" hot_loop_ldr reference.pc;
  check_same ~what:"first instance" (plain_threaded (Machine.instantiate prepared)) reference;
  Alcotest.(check bool) "blocks built" true (Machine.blocks_built prepared > 0);
  check_same ~what:"second instance" (plain_threaded (Machine.instantiate prepared)) reference

(* Fuel that runs out inside a block stops at exactly the reference's
   instruction: every budget from 1 to three loop iterations, and across
   three iterations ~5,000 steps in, on instances whose blocks exist. *)
let test_fuel_mid_block () =
  let prepared = Machine.prepare hot_loop in
  warm ~what:"hot loop" prepared;
  List.iter
    (fun fuel ->
      let what = Printf.sprintf "fuel %d" fuel in
      let threaded = plain (Machine.run ~fuel) (Machine.instantiate prepared) in
      let reference = plain (Machine.Reference.run ~fuel) (Machine.instantiate prepared) in
      if not (outcome_equal threaded.outcome Machine.Out_of_fuel) then
        Alcotest.failf "%s: %a, not out of fuel" what pp_outcome threaded.outcome;
      check_same ~what threaded reference)
    (List.init 33 (fun i -> i + 1) @ List.init 33 (fun i -> 5000 + i))

(* [run] takes the block path: a prepared value holds no block, and one
   run of the hot loop builds some. A build whose [run] never reaches
   the block runner fails here. *)
let test_hot_program_builds_blocks () =
  let prepared = Machine.prepare hot_loop in
  Alcotest.(check int) "cold" 0 (Machine.blocks_built prepared);
  ignore (Machine.run ~fuel (Machine.instantiate prepared));
  Alcotest.(check bool) "blocks built in the first run" true
    (Machine.blocks_built prepared > 0)

(* A register number outside X0-X30 names no slot of the register file,
   whose accesses skip the bounds check: [get] and [set] refuse it, and
   so does running an instruction that names one, on both engines. After
   a loop of 5,000 iterations, the instruction ends the block that
   follows; with a load through an unmapped address just before it, both
   engines trap at the load instead. *)
let test_register_range () =
  let m = Machine.load hot_loop in
  List.iter
    (fun n ->
      let refused what f =
        match f () with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.failf "%s accepted X %d" what n
      in
      refused "get" (fun () -> ignore (Machine.get m (Reg.X n)));
      refused "set" (fun () -> Machine.set m (Reg.X n) 1L))
    [ -1; 31; 32; 33; 34; 35; 40 ];
  let program ~load =
    let ins i = Program.Ins i in
    Program.make ~entry:"main"
      [
        {
          Program.name = "main";
          body =
            [
              ins (Instr.Mov (Reg.X 1, Instr.Imm 0L));
              Program.Lbl "loop";
              ins (Instr.Add (Reg.X 1, Reg.X 1, Instr.Imm 1L));
              ins (Instr.Cmp (Reg.X 1, Instr.Imm 5000L));
              ins (Instr.Bcond (Pacstack_isa.Cond.NE, "loop"));
            ]
            @ (if load then
                 [ ins (Instr.Ldr (Reg.X 4, { Instr.base = Reg.X 1; offset = 0; index = Offset })) ]
               else [])
            @ [ ins (Instr.Mov (Reg.X 35, Instr.Imm 1L)); ins Instr.Hlt ];
        };
      ]
  in
  both_engines (fun name run ->
    match run ~fuel (Machine.load (program ~load:false)) with
    | exception Invalid_argument _ -> ()
    | oc -> Alcotest.failf "%s: mov x35 ran to %a" name pp_outcome oc);
  let prepared = Machine.prepare (program ~load:true) in
  let threaded = plain_threaded (Machine.instantiate prepared) in
  Alcotest.(check bool) "blocks built" true (Machine.blocks_built prepared > 0);
  (match threaded.outcome with
  | Machine.Faulted _ -> ()
  | oc -> Alcotest.failf "the load through x1 = 5000 ended %a, not with a trap" pp_outcome oc);
  check_same ~what:"load before mov x35" threaded
    (plain_reference (Machine.instantiate prepared))

(* --- prepare once, instantiate many ------------------------------------- *)

(* Two successive instances of one prepared program, keyed from equal
   rng seeds, must each run exactly like [load] of the same program:
   running an instance leaves nothing behind in the prepared value. *)
let test_prepare_instantiate () =
  for seed = 0 to 199 do
    let ast = Driver.program_of_seed ~campaign_seed seed in
    List.iter
      (fun scheme ->
        let program = Compile.compile ~scheme ast in
        let rng () = Rng.create (Int64.of_int seed) in
        let run = plain_threaded in
        let loaded = run (Machine.load ~rng:(rng ()) program) in
        let prepared = Machine.prepare program in
        for i = 1 to 2 do
          let what = Format.asprintf "seed %d / %a / instance %d" seed Scheme.pp scheme i in
          check_same ~what loaded (run (Machine.instantiate ~rng:(rng ()) prepared))
        done)
      Scheme.all
  done

(* From [main] on the second code page, the guest prints the first code
   doubleword, remaps the first code page rw (svc 7), overwrites that
   doubleword and prints it again. *)
let self_modifying =
  Asm.parse
    (String.concat "\n"
       ([ ".entry main"; ".func filler" ]
       @ List.init 1100 (fun _ -> "  nop")
       @ [
           "  ret"; ".endfunc"; ".func main"; "  adr x4, filler"; "  ldr x0, [x4]";
           "  svc #1"; "  mov x0, x4"; "  mov x1, #4096"; "  mov x2, #6"; "  svc #7";
           "  svc #1"; "  mov x5, #291"; "  str x5, [x4]"; "  ldr x0, [x4]"; "  svc #1";
           "  mov x0, #0"; "  svc #0"; ".endfunc";
         ]))

(* Instances own their code bytes: what one guest writes into its
   (remapped) code page is invisible to a later instance of the same
   prepared value, which finds the original encoding and runs alike. *)
let test_instances_isolated () =
  let prepared = Machine.prepare self_modifying in
  let boot () = Kernel.machine (Kernel.boot_prepared (Kernel.create (Rng.create 5L)) prepared) in
  let run = plain_threaded in
  let m1 = boot () in
  let words, _ = Image.encoded (Machine.image m1) in
  let original =
    Int64.logor
      (Int64.logand (Int64.of_int32 words.(0)) 0xffff_ffffL)
      (Int64.shift_left (Int64.of_int32 words.(1)) 32)
  in
  let first = run m1 in
  Alcotest.(check (list int64)) "first instance: original, mprotect ok, overwritten"
    [ original; 0L; 291L ] first.output;
  let m2 = boot () in
  Alcotest.(check int64) "later instance sees the original bytes" original
    (Memory.load64 (Machine.memory m2) Image.code_base);
  check_same ~what:"later instance" first (run m2)

(* --- ops compile on first visit ------------------------------------- *)

(* [main] calls [broken] only if [call]; [broken] branches to a label
   that exists nowhere. Built directly: [Program.make] would refuse the
   dangling label. *)
let dangling ~call =
  let ins i = Program.Ins i in
  {
    Program.funcs =
      [
        {
          Program.name = "main";
          body =
            (if call then [ ins (Instr.Bl "broken") ] else [])
            @ [ ins (Instr.Mov (Reg.X 0, Instr.Imm 0L)); ins Instr.Hlt ];
        };
        { Program.name = "broken"; body = [ ins Instr.Nop; ins (Instr.B "nowhere") ] };
      ];
    data = [];
    entry = "main";
  }

(* A label resolves when its instruction compiles, but the branch only
   traps when taken: never-visited code holding a dangling label
   prepares and runs like the reference, and taking it traps
   [unresolved label nowhere] at the same pc after the same
   instructions on both engines. *)
let test_dangling_label () =
  let run_both program =
    let prepared = Machine.prepare program in
    let threaded = plain_threaded (Machine.instantiate prepared) in
    let reference = plain_reference (Machine.instantiate prepared) in
    check_same ~what:"dangling label" threaded reference;
    threaded
  in
  let clean = run_both (dangling ~call:false) in
  Alcotest.(check bool) "never-called dangling label: halts 0" true
    (outcome_equal clean.outcome (Machine.Halted 0));
  let program = dangling ~call:true in
  let taken = run_both program in
  let broken = Image.symbol (Image.build program) "broken" in
  Alcotest.(check bool) "taken dangling label traps" true
    (outcome_equal taken.outcome
       (Machine.Faulted (Trap.Undefined "unresolved label nowhere")));
  Alcotest.(check (option int64)) "at the branch" (Option.map (Int64.add 4L) broken)
    (Some taken.pc);
  Alcotest.(check int) "after bl, nop and b" 3 taken.instret

(* Encoding stays eager: code the encoding cannot hold is refused by
   [prepare], even where it is never run. *)
let test_unencodable_at_prepare () =
  let far = { Instr.base = Reg.SP; offset = 5000; index = Instr.Offset } in
  let program =
    Program.make ~entry:"main"
      [
        { Program.name = "main"; body = [ Program.Ins Instr.Hlt ] };
        { Program.name = "never"; body = [ Program.Ins (Instr.Ldr (Reg.X 0, far)) ] };
      ]
  in
  match Machine.prepare program with
  | exception Pacstack_isa.Encode.Unencodable _ -> ()
  | _ -> Alcotest.fail "prepare accepted an unencodable offset"

(* --- loading costs what the run reads ------------------------------------ *)

(* Seed 0 of the smoke stream under pacstack: 1084 instructions, two
   code pages. *)
let two_page_program () =
  Compile.compile ~scheme:Scheme.pacstack (Driver.program_of_seed ~campaign_seed 0)

(* [prepare] forces no minor collection. OCaml 5 forces one to create a
   major-heap array (over 256 words) from a young initial value, as the
   loader once did for the code array, the encoding and the ops table
   of every image. The program is compiled after a collection, so its
   instructions are young, as in a fuzz run; compile and prepare
   allocate far less than the default minor heap. *)
let test_prepare_no_forced_collection () =
  Gc.minor ();
  let program = two_page_program () in
  let before = (Gc.quick_stat ()).minor_collections in
  let prepared = Machine.prepare program in
  let after = (Gc.quick_stat ()).minor_collections in
  Alcotest.(check int) "minor collections during prepare" 0 (after - before);
  Alcotest.(check bool) "at least 300 instructions" true
    (Image.code_size (Machine.image (Machine.instantiate prepared)) >= 4 * 300)

(* Code pages get their bytes on their first data access. A run that
   only executes its code fills no page, so the instance encodes
   nothing, and neither do [is_mapped], [perm_at] or [mapped_ranges]. A
   read fills the page it reads, with the bytes an eagerly encoding
   loader wrote (the doublewords below were read from one), and a copy
   of the memory carries its unfilled pages. *)
let test_code_filled_on_first_read () =
  let first_doubleword = Some 0x5c07c00011f7c000L in
  let m = Machine.instantiate (Machine.prepare (two_page_program ())) in
  Alcotest.(check bool) "the run halts" true
    (outcome_equal (Machine.run ~fuel m) (Machine.Halted 0));
  let mem = Machine.memory m in
  ignore (Memory.is_mapped mem Image.code_base);
  ignore (Memory.perm_at mem Image.code_base);
  ignore (Memory.mapped_ranges mem);
  Alcotest.(check int) "pages filled by the run and the queries" 0 (Memory.fills mem);
  let copy = Memory.copy mem in
  Alcotest.(check (option int64)) "first doubleword" first_doubleword
    (Memory.peek64 mem Image.code_base);
  Alcotest.(check int) "pages filled by the first read" 1 (Memory.fills mem);
  Alcotest.(check (option int64)) "second page" (Some 0x5c90006044981f00L)
    (Memory.peek64 mem (Int64.add Image.code_base 4096L));
  Alcotest.(check int) "pages filled by a read of the second" 2 (Memory.fills mem);
  Alcotest.(check int) "pages filled in the copy" 0 (Memory.fills copy);
  Alcotest.(check (option int64)) "the copy's first doubleword" first_doubleword
    (Memory.peek64 copy Image.code_base)

(* One cold prepared value backs machines on two domains at once, as
   the inject engine's victim memo does under [--workers 2]: both
   domains start together on unfilled ops and block tables and race to
   fill their slots. Every run equals a sequential run of a separately
   prepared copy, state, counters and output alike. The sequential runs of the fuzz
   program and the victim halt; the hot loop's trap at its load, in the
   middle of a block. *)
let test_prepared_across_domains () =
  let halts snap = match snap.outcome with Machine.Halted _ -> true | _ -> false in
  let traps_at_load snap =
    match snap.outcome with Machine.Faulted _ -> Int64.equal snap.pc hot_loop_ldr | _ -> false
  in
  let programs =
    [
      ("fuzz seed 0 / pacstack", two_page_program (), "a halt", halts);
      ( "pacstack victim",
        Compile.compile ~scheme:Scheme.pacstack (Pacstack_inject.Victim.program ()),
        "a halt", halts );
      ("hot loop", hot_loop, "a trap at its load", traps_at_load);
    ]
  in
  let rounds = 4 in
  List.iter
    (fun (what, program, ending, ends) ->
      let run prepared =
        plain (Machine.run ~fuel) (Machine.instantiate ~rng:(Rng.create 3L) prepared)
      in
      let sequential = run (Machine.prepare program) in
      if not (ends sequential) then
        Alcotest.failf "%s: the sequential run ended %a at pc %Lx, not with %s" what pp_outcome
          sequential.outcome sequential.pc ending;
      let prepared = Machine.prepare program in
      let ready = Atomic.make 0 in
      let worker () =
        Atomic.incr ready;
        while Atomic.get ready < 2 do
          Domain.cpu_relax ()
        done;
        List.init rounds (fun _ -> run prepared)
      in
      let a = Domain.spawn worker in
      let b = Domain.spawn worker in
      List.iteri
        (fun i snap -> check_same ~what:(Printf.sprintf "%s / run %d" what i) sequential snap)
        (Domain.join a @ Domain.join b);
      Alcotest.(check bool) (what ^ ": blocks built during the runs") true
        (Machine.blocks_built prepared > 0))
    programs

let () =
  Alcotest.run "engine"
    [
      ( "differential",
        [
          Alcotest.test_case "200 seeds x all registered schemes bit-identical" `Quick
            test_differential;
          Alcotest.test_case "step lockstep" `Quick test_step_lockstep;
          Alcotest.test_case "run_until pauses identically" `Quick
            test_run_until_pauses;
        ] );
      ( "fuel",
        [
          Alcotest.test_case "threaded rejects negative fuel" `Quick
            (rejects_negative_fuel [ ("run", fun ~fuel m -> ignore (Machine.run ~fuel m)) ]);
          Alcotest.test_case "reference rejects negative fuel" `Quick
            (rejects_negative_fuel
               [
                 ("Reference.run", fun ~fuel m -> ignore (Machine.Reference.run ~fuel m));
                 ( "run_until",
                   fun ~fuel m -> ignore (Machine.run_until ~fuel m ~stop:(fun _ -> false)) );
               ]);
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "protect revokes execute mid-run" `Quick
            test_protect_mid_run;
          Alcotest.test_case "unmap traps mid-run" `Quick test_unmap_mid_run;
          Alcotest.test_case "hook protects its own page" `Quick
            test_hook_protects_own_page;
        ] );
      ( "prepare",
        [
          Alcotest.test_case "200 seeds x all schemes: instances run like load" `Quick
            test_prepare_instantiate;
          Alcotest.test_case "instances own their code pages" `Quick
            test_instances_isolated;
          Alcotest.test_case "dangling label compiled only where run" `Quick
            test_dangling_label;
          Alcotest.test_case "unencodable code refused at prepare" `Quick
            test_unencodable_at_prepare;
          Alcotest.test_case "prepare forces no minor collection" `Quick
            test_prepare_no_forced_collection;
          Alcotest.test_case "code pages fill on their first data read" `Quick
            test_code_filled_on_first_read;
          Alcotest.test_case "one cold prepared on two domains at once" `Quick
            test_prepared_across_domains;
        ] );
      ( "blocks",
        [
          Alcotest.test_case "200 seeds x all schemes, warm, bit-identical" `Quick
            test_differential_blocks;
          Alcotest.test_case "trap in the middle of a block" `Quick test_trap_mid_block;
          Alcotest.test_case "fuel runs out inside a block" `Quick test_fuel_mid_block;
          Alcotest.test_case "a hot program builds blocks" `Quick
            test_hot_program_builds_blocks;
          Alcotest.test_case "register outside X0-X30 refused" `Quick test_register_range;
        ] );
    ]

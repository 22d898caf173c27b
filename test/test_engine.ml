(* Differential suite pinning the threaded-code engine to the reference
   interpreter.  [Machine.run]/[run_until] dispatch through per-image
   compiled closures (machine.ml, "threaded-code compilation");
   [Machine.Reference] is the original fetch-then-match loop kept as the
   oracle.  Everything observable must be bit-identical across the two:
   outcome, trap, every register, flags, pc, all counters, program
   output, the full memory state (via [Memory.digest]) and the
   per-instruction pc trace, recorded by a [run_until] observer.

   The suite also pins the execute-check invalidation: the threaded
   engine caches per-code-page execute permission keyed by
   [Memory.generation], so a [protect]/[unmap] of a code page — from
   outside a run or from a hook in mid-run — must trap exactly like the
   reference.

   Finally it pins the loader split: [Machine.load] is
   [instantiate (prepare p)], and a prepared program backs any number
   of instances that must each run exactly like a fresh [load]. *)

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
  trace_len : int;
  trace_hash : int64;
}

let fnv h v = Int64.mul (Int64.logxor h v) 0x100000001b3L

let snap_of m outcome ~trace_len ~trace_hash =
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
    trace_len;
    trace_hash;
  }

let fnv_basis = 0xcbf29ce484222325L

(* [untilf] runs [m] under a pc-trace observer: a [run_until] predicate
   that hashes pc at every instruction boundary and never stops. *)
let observe untilf m =
  let h = ref fnv_basis in
  let n = ref 0 in
  let stop m = incr n; h := fnv !h (Machine.pc m); false in
  match untilf m ~stop with
  | Some outcome -> snap_of m outcome ~trace_len:!n ~trace_hash:!h
  | None -> Alcotest.fail "the observer stopped the run"

(* A run with no predicate: [Machine.run]'s [stop == never] loop, a
   separate branch of the threaded runner. *)
let plain runf m = snap_of m (runf m) ~trace_len:0 ~trace_hash:fnv_basis

let threaded_until m ~stop = Machine.run_until ~fuel m ~stop
let reference_until m ~stop = Machine.Reference.run_until ~fuel m ~stop

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
    Alcotest.failf "%s: memory digest %Lx vs %Lx" what a.mem_digest b.mem_digest;
  if a.trace_len <> b.trace_len then
    Alcotest.failf "%s: trace length %d vs %d" what a.trace_len b.trace_len;
  if not (Int64.equal a.trace_hash b.trace_hash) then
    Alcotest.failf "%s: pc-trace hash differs over %d steps" what a.trace_len

(* --- 200 fuzz programs x all registered schemes, full-run equivalence --------------- *)

let test_differential () =
  for seed = 0 to 199 do
    let ast = Driver.program_of_seed ~campaign_seed seed in
    List.iter
      (fun scheme ->
        let program = Compile.compile ~scheme ast in
        let threaded = observe threaded_until (Machine.load program) in
        let reference = observe reference_until (Machine.load program) in
        let what =
          Format.asprintf "seed %d / %a" seed Scheme.pp scheme
        in
        check_same ~what threaded reference;
        check_same ~what:(what ^ " (plain run)")
          (plain (fun m -> Machine.run ~fuel m) (Machine.load program))
          { reference with trace_len = 0; trace_hash = fnv_basis })
      Scheme.all
  done

(* --- lockstep: one-instruction runs on both engines --------------------- *)

let test_step_lockstep () =
  for seed = 0 to 19 do
    let program =
      Compile.compile ~scheme:Scheme.pacstack
        (Driver.program_of_seed ~campaign_seed seed)
    in
    let a = Machine.load program in
    let b = Machine.load program in
    let steps = ref 0 in
    let continue = ref true in
    while !continue && !steps < 5_000 do
      incr steps;
      let oa = Machine.run ~fuel:1 a in
      let ob = Machine.Reference.run ~fuel:1 b in
      if not (outcome_equal oa ob) then
        Alcotest.failf "seed %d: %a vs %a at step %d" seed pp_outcome oa pp_outcome ob
          !steps;
      if not (Int64.equal (Machine.pc a) (Machine.pc b)) then
        Alcotest.failf "seed %d: pc %Lx vs %Lx at step %d" seed (Machine.pc a)
          (Machine.pc b) !steps;
      if Machine.cycles a <> Machine.cycles b then
        Alcotest.failf "seed %d: cycle divergence at step %d" seed !steps;
      match oa with
      | Machine.Out_of_fuel -> ()
      | Machine.Halted _ | Machine.Faulted _ -> continue := false
    done
  done

(* --- run_until: pause points and stop-call counts must agree ----------- *)

let test_run_until_pauses () =
  for seed = 0 to 19 do
    let program =
      Compile.compile ~scheme:Scheme.pacstack
        (Driver.program_of_seed ~campaign_seed seed)
    in
    let run_one runf untilf =
      let m = Machine.load program in
      let calls = ref 0 in
      let stop m = incr calls; Machine.instructions_retired m >= 700 in
      let paused = untilf m ~stop in
      let mid = (Machine.pc m, Machine.instructions_retired m, !calls) in
      (* resume to the end with a plain run *)
      let final = match paused with None -> Some (runf m) | some -> some in
      (paused = None, mid, final)
    in
    let pa, mida, fina =
      run_one (fun m -> Machine.run ~fuel m) (Machine.run_until ~fuel)
    in
    let pb, midb, finb =
      run_one
        (fun m -> Machine.Reference.run ~fuel m)
        (Machine.Reference.run_until ~fuel)
    in
    if pa <> pb then Alcotest.failf "seed %d: one engine paused, one did not" seed;
    if mida <> midb then
      Alcotest.failf "seed %d: pause state differs (pc/instret/stop-calls)" seed;
    match fina, finb with
    | Some oa, Some ob when outcome_equal oa ob -> ()
    | _ -> Alcotest.failf "seed %d: final outcome differs after resume" seed
  done

(* --- negative fuel ------------------------------------------------------- *)

(* The runners count the budget down to exactly 0: a negative budget is
   refused, where it would otherwise never run out, and nothing runs.
   The program halts, so an engine that accepted the budget fails here
   rather than hanging. *)
let rejects_negative_fuel run run_until () =
  let m = Machine.load (Asm.parse ".entry main\n.func main\n  mov x0, #0\n  hlt\n.endfunc") in
  let refused = Invalid_argument "Machine.run: negative fuel" in
  Alcotest.check_raises "run" refused (fun () -> ignore (run ~fuel:(-1) m));
  Alcotest.check_raises "run_until" refused (fun () ->
      ignore (run_until ~fuel:(-1) m ~stop:(fun _ -> false)));
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

let test_hook_protects_own_page () =
  (* a hook revokes execute on the page it runs in: the very next
     instruction must fault, on both engines, even though the run loop
     never left [run] between the hook and the fault *)
  both_engines (fun name run ->
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
    let m = Machine.load program in
    Machine.attach_hook m "mprot" (fun m ->
        Memory.protect (Machine.memory m) ~addr:Image.code_base
          ~size:Memory.page_size Memory.perm_r);
    match run ~fuel m with
    | Machine.Faulted (Trap.Permission (_, Trap.Execute)) ->
      Alcotest.(check int) (name ^ ": faulted on the next instruction") 1
        (Machine.instructions_retired m)
    | oc -> Alcotest.failf "%s: expected execute fault, got %a" name pp_outcome oc)

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
        let run = observe threaded_until in
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
  let run = observe threaded_until in
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
    let threaded = observe threaded_until (Machine.instantiate prepared) in
    let reference = observe reference_until (Machine.instantiate prepared) in
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
   domains start together on an unfilled ops table and race to fill its
   slots. Every run equals a sequential run of a separately prepared
   copy, state, counters and output alike. *)
let test_prepared_across_domains () =
  let programs =
    [
      ("fuzz seed 0 / pacstack", two_page_program ());
      ( "pacstack victim",
        Compile.compile ~scheme:Scheme.pacstack (Pacstack_inject.Victim.program ()) );
    ]
  in
  let rounds = 4 in
  List.iter
    (fun (what, program) ->
      let run prepared =
        plain (Machine.run ~fuel) (Machine.instantiate ~rng:(Rng.create 3L) prepared)
      in
      let sequential = run (Machine.prepare program) in
      (match sequential.outcome with
      | Machine.Halted _ -> ()
      | oc -> Alcotest.failf "%s: the sequential run ended %a" what pp_outcome oc);
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
        (Domain.join a @ Domain.join b))
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
            (rejects_negative_fuel
               (fun ~fuel m -> Machine.run ~fuel m)
               (fun ~fuel m ~stop -> Machine.run_until ~fuel m ~stop));
          Alcotest.test_case "reference rejects negative fuel" `Quick
            (rejects_negative_fuel
               (fun ~fuel m -> Machine.Reference.run ~fuel m)
               (fun ~fuel m ~stop -> Machine.Reference.run_until ~fuel m ~stop));
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
    ]

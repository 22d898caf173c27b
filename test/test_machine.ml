(* Tests for the machine simulator: memory, instruction semantics, faults,
   the kernel personality (signals, sigreturn, mprotect) and the
   ACS-validating unwinder. *)

module Word64 = Pacstack_util.Word64
module Rng = Pacstack_util.Rng
module Config = Pacstack_pa.Config
module Memory = Pacstack_machine.Memory
module Machine = Pacstack_machine.Machine
module Kernel = Pacstack_machine.Kernel
module Image = Pacstack_machine.Image
module Trap = Pacstack_machine.Trap
module Unwind = Pacstack_machine.Unwind
module Asm = Pacstack_isa.Asm
module Reg = Pacstack_isa.Reg
module Scheme = Pacstack_harden.Scheme

let check_w64 = Alcotest.testable Word64.pp Word64.equal

(* --- Memory ---------------------------------------------------------------- *)

let test_mem_map_load_store () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000L ~size:4096 Memory.perm_rw;
  Memory.store64 m 0x1008L 0xdeadbeefL;
  Alcotest.check check_w64 "load back" 0xdeadbeefL (Memory.load64 m 0x1008L);
  Memory.store8 m 0x1000L 0xab;
  Alcotest.(check int) "byte" 0xab (Memory.load8 m 0x1000L)

let test_mem_little_endian () =
  let m = Memory.create () in
  Memory.map m ~addr:0L ~size:4096 Memory.perm_rw;
  Memory.store64 m 0L 0x0102030405060708L;
  Alcotest.(check int) "LSB first" 0x08 (Memory.load8 m 0L);
  Alcotest.(check int) "MSB last" 0x01 (Memory.load8 m 7L)

let test_mem_cross_page () =
  let m = Memory.create () in
  Memory.map m ~addr:0L ~size:8192 Memory.perm_rw;
  let addr = 0xffcL in
  Memory.store64 m addr 0x1122334455667788L;
  Alcotest.check check_w64 "cross-page roundtrip" 0x1122334455667788L (Memory.load64 m addr)

let test_mem_unmapped_fault () =
  let m = Memory.create () in
  Alcotest.check_raises "read" (Trap.Fault (Trap.Unmapped (0x5000L, Trap.Read))) (fun () ->
      ignore (Memory.load64 m 0x5000L))

let test_mem_wxorx () =
  Alcotest.check_raises "w+x refused" (Invalid_argument "Memory.map: W^X violation") (fun () ->
      Memory.map (Memory.create ()) ~addr:0L ~size:16
        { Memory.readable = true; writable = true; executable = true })

let test_mem_permissions () =
  let m = Memory.create () in
  Memory.map m ~addr:0L ~size:4096 Memory.perm_rx;
  Alcotest.check_raises "write to rx" (Trap.Fault (Trap.Permission (0x10L, Trap.Write)))
    (fun () -> Memory.store64 m 0x10L 1L);
  Memory.check_exec m 0x10L;
  Memory.map m ~addr:0x1000L ~size:4096 Memory.perm_rw;
  Alcotest.check_raises "exec of rw" (Trap.Fault (Trap.Permission (0x1000L, Trap.Execute)))
    (fun () -> Memory.check_exec m 0x1000L)

let test_mem_double_map () =
  let m = Memory.create () in
  Memory.map m ~addr:0L ~size:4096 Memory.perm_rw;
  Alcotest.check_raises "double map" (Invalid_argument "Memory.map: page 0 already mapped")
    (fun () -> Memory.map m ~addr:0L ~size:16 Memory.perm_rw);
  Memory.unmap m ~addr:0L ~size:4096;
  Memory.map m ~addr:0L ~size:4096 Memory.perm_r

let test_mem_peek_poke () =
  let m = Memory.create () in
  Memory.map m ~addr:0L ~size:4096 Memory.perm_rx;
  Memory.map m ~addr:0x1000L ~size:4096 Memory.perm_rw;
  Alcotest.(check bool) "peek unmapped" true (Memory.peek64 m 0x9000L = None);
  Alcotest.(check bool) "peek rx allowed" true (Memory.peek64 m 0x0L = Some 0L);
  Alcotest.(check bool) "poke rx refused" false (Memory.poke64 m 0x0L 1L);
  Alcotest.(check bool) "poke rw ok" true (Memory.poke64 m 0x1000L 5L);
  Alcotest.check check_w64 "poked" 5L (Memory.load64 m 0x1000L);
  (* poke straddling into an unwritable page must not partially write *)
  Alcotest.(check bool) "straddling poke refused" false (Memory.poke64 m 0xffcL 0x1234L);
  Alcotest.check check_w64 "no partial write" 0L
    (Word64.extract (Memory.load64 m 0x1000L) ~lo:32 ~width:16)

let test_mem_copy_independent () =
  let m = Memory.create () in
  Memory.map m ~addr:0L ~size:4096 Memory.perm_rw;
  Memory.store64 m 0L 1L;
  let c = Memory.copy m in
  Memory.store64 m 0L 2L;
  Alcotest.check check_w64 "copy unchanged" 1L (Memory.load64 c 0L)

(* The TLBs must never let a cached translation outlive a
   permission change: populate the TLB, drop the permission, and the very
   next access has to fault. *)

let perm_none = { Memory.readable = false; writable = false; executable = false }

let test_mem_tlb_protect () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000L ~size:4096 Memory.perm_rw;
  Memory.store64 m 0x1000L 0x42L;
  Alcotest.check check_w64 "read populates TLB" 0x42L (Memory.load64 m 0x1000L);
  Memory.protect m ~addr:0x1000L ~size:4096 perm_none;
  Alcotest.check_raises "stale-TLB read after protect"
    (Trap.Fault (Trap.Permission (0x1000L, Trap.Read)))
    (fun () -> ignore (Memory.load64 m 0x1000L));
  Alcotest.check_raises "stale-TLB write after protect"
    (Trap.Fault (Trap.Permission (0x1000L, Trap.Write)))
    (fun () -> Memory.store64 m 0x1000L 1L);
  (* restoring the permission restores access, contents intact *)
  Memory.protect m ~addr:0x1000L ~size:4096 Memory.perm_r;
  Alcotest.check check_w64 "contents survive protect" 0x42L (Memory.load64 m 0x1000L)

let test_mem_tlb_unmap () =
  let m = Memory.create () in
  Memory.map m ~addr:0x2000L ~size:4096 Memory.perm_rw;
  Memory.store64 m 0x2000L 0x99L;
  Alcotest.check check_w64 "read populates TLB" 0x99L (Memory.load64 m 0x2000L);
  Memory.unmap m ~addr:0x2000L ~size:4096;
  Alcotest.check_raises "stale-TLB read after unmap"
    (Trap.Fault (Trap.Unmapped (0x2000L, Trap.Read)))
    (fun () -> ignore (Memory.load64 m 0x2000L));
  (* remapping must not resurrect the old page's contents *)
  Memory.map m ~addr:0x2000L ~size:4096 Memory.perm_rw;
  Alcotest.check check_w64 "remapped page is zero" 0L (Memory.load64 m 0x2000L)

let test_mem_tlb_exec () =
  let m = Memory.create () in
  Memory.map m ~addr:0x4000L ~size:4096 Memory.perm_rx;
  Memory.check_exec m 0x4000L;
  (* populated x-TLB *)
  Memory.protect m ~addr:0x4000L ~size:4096 Memory.perm_rw;
  Alcotest.check_raises "stale-TLB exec after protect"
    (Trap.Fault (Trap.Permission (0x4000L, Trap.Execute)))
    (fun () -> Memory.check_exec m 0x4000L);
  Memory.protect m ~addr:0x4000L ~size:4096 Memory.perm_rx;
  Memory.check_exec m 0x4000L;
  Memory.unmap m ~addr:0x4000L ~size:4096;
  Alcotest.check_raises "stale-TLB exec after unmap"
    (Trap.Fault (Trap.Unmapped (0x4000L, Trap.Execute)))
    (fun () -> Memory.check_exec m 0x4000L)

let test_mem_ranges () =
  let m = Memory.create () in
  Memory.map m ~addr:0L ~size:8192 Memory.perm_rw;
  Memory.map m ~addr:0x10000L ~size:4096 Memory.perm_rx;
  match Memory.mapped_ranges m with
  | [ (a1, s1, _); (a2, s2, _) ] ->
    Alcotest.check check_w64 "first base" 0L a1;
    Alcotest.(check int) "first size" 8192 s1;
    Alcotest.check check_w64 "second base" 0x10000L a2;
    Alcotest.(check int) "second size" 4096 s2
  | rs -> Alcotest.fail (Printf.sprintf "expected 2 runs, got %d" (List.length rs))

(* [map] records a region and each page gets its table entry on first
   lookup; none of that may show. The region below is page-aligned at
   page 0x20 and never touched unless a test says so. *)
let region_base = 0x20000L
let region_pages = 16

let with_region () =
  let m = Memory.create () in
  Memory.map m ~addr:region_base ~size:(region_pages * Memory.page_size) Memory.perm_rw;
  m

let test_mem_lazy_overlap () =
  (* a page with its table entry just below the region ([mapped_ranges]
     gives every page mapped so far its entry), then the region *)
  let m = Memory.create () in
  Memory.map m ~addr:0x1f000L ~size:Memory.page_size Memory.perm_r;
  ignore (Memory.mapped_ranges m);
  Memory.map m ~addr:region_base ~size:(region_pages * Memory.page_size) Memory.perm_rw;
  let refuse addr pages named =
    Alcotest.check_raises
      (Printf.sprintf "map at %Lx names page %x" addr named)
      (Invalid_argument (Printf.sprintf "Memory.map: page %x already mapped" named))
      (fun () -> Memory.map m ~addr ~size:(pages * Memory.page_size) Memory.perm_r)
  in
  refuse 0x25000L 1 0x25;
  refuse 0x2f000L 2 0x2f;
  refuse 0x1e000L 4 0x1f;
  refuse 0x10000L 64 0x1f;
  (* a touched page above an untouched one: the lowest is named *)
  Memory.store64 m 0x27000L 1L;
  refuse 0x26000L 3 0x26;
  refuse 0x27000L 3 0x27;
  (* refused maps left nothing behind *)
  Memory.map m ~addr:0x30000L ~size:Memory.page_size Memory.perm_r;
  Alcotest.(check bool) "page below the probes still unmapped" false
    (Memory.is_mapped m 0x1e000L)

let ranges m =
  List.map
    (fun (a, n, p) -> (a, n / Memory.page_size, Format.asprintf "%a" Memory.pp_perm p))
    (Memory.mapped_ranges m)

let check_ranges = Alcotest.(check (list (triple int64 int string)))

let test_mem_lazy_protect_unmap () =
  let m = with_region () in
  Memory.protect m ~addr:0x23000L ~size:Memory.page_size Memory.perm_r;
  Alcotest.check_raises "write to the protected page"
    (Trap.Fault (Trap.Permission (0x23008L, Trap.Write)))
    (fun () -> Memory.store64 m 0x23008L 1L);
  Alcotest.check check_w64 "protected page reads zero" 0L (Memory.load64 m 0x23008L);
  Memory.store64 m 0x24000L 5L;
  Alcotest.check check_w64 "neighbour still writable" 5L (Memory.load64 m 0x24000L);
  check_ranges "pages around the protected one"
    [ (0x20000L, 3, "rw-"); (0x23000L, 1, "r--"); (0x24000L, 12, "rw-") ]
    (ranges m);
  let u = with_region () in
  Memory.unmap u ~addr:0x25000L ~size:Memory.page_size;
  Alcotest.check_raises "read of the unmapped page"
    (Trap.Fault (Trap.Unmapped (0x25000L, Trap.Read)))
    (fun () -> ignore (Memory.load64 u 0x25000L));
  Alcotest.(check bool) "page after it still mapped" true (Memory.is_mapped u 0x26000L);
  Alcotest.check_raises "protect across the hole"
    (Invalid_argument "Memory.protect: page 25 not mapped")
    (fun () -> Memory.protect u ~addr:0x25000L ~size:(2 * Memory.page_size) Memory.perm_r);
  check_ranges "pages around the hole"
    [ (0x20000L, 5, "rw-"); (0x26000L, 10, "rw-") ]
    (ranges u);
  Memory.map u ~addr:0x25000L ~size:Memory.page_size Memory.perm_rw;
  Alcotest.check check_w64 "remapped page is zero" 0L (Memory.load64 u 0x25000L)

let test_mem_first_touch_invisible () =
  let fresh () =
    let m = with_region () in
    Memory.map m ~addr:0x40000L ~size:Memory.page_size Memory.perm_rx;
    m
  in
  let touched = fresh () and untouched = fresh () in
  let gen = Memory.generation touched in
  ignore (Memory.load64 touched 0x23000L);
  ignore (Memory.load8 touched 0x23001L);
  Memory.check_exec touched 0x40000L;
  ignore (Memory.is_mapped touched 0x2f000L);
  ignore (Memory.peek64 touched 0x2e000L);
  Alcotest.(check int) "generation unchanged" gen (Memory.generation touched);
  Alcotest.(check (pair int int)) "one refill per stream, as with a filled table" (1, 1)
    (Memory.tlb_misses touched);
  Alcotest.check check_w64 "digest unchanged" (Memory.digest untouched) (Memory.digest touched);
  Alcotest.(check bool) "mapped ranges unchanged" true
    (Memory.mapped_ranges untouched = Memory.mapped_ranges touched);
  Alcotest.(check int) "digest and ranges move no generation" gen (Memory.generation touched)

(* A region mapped with an initialiser gives a page its bytes on the
   page's first data access and on nothing else, and a copy carries the
   pages it has yet to fill (memory.mli). Page k of the region below
   holds the byte 'A' + k. *)
let test_mem_init_fill_rules () =
  let m = Memory.create () in
  let calls = ref [] in
  let init k =
    calls := k :: !calls;
    Bytes.make Memory.page_size (Char.chr (Char.code 'A' + k))
  in
  Memory.map ~init m ~addr:region_base ~size:(4 * Memory.page_size) Memory.perm_rx;
  let page k = Int64.add region_base (Int64.of_int (k * Memory.page_size)) in
  let byte k = Char.code 'A' + k in
  let filled what expected = Alcotest.(check (list int)) what expected (List.rev !calls) in
  Memory.check_exec m (page 0);
  ignore (Memory.is_mapped m (page 1));
  ignore (Memory.perm_at m (page 2));
  ignore (Memory.mapped_ranges m);
  filled "check_exec, is_mapped, perm_at and mapped_ranges fill nothing" [];
  let c = Memory.copy m in
  Alcotest.(check int) "a load reads the initialiser's bytes" (byte 1) (Memory.load8 m (page 1));
  ignore (Memory.load64 m (Int64.add (page 1) 8L));
  filled "a load fills its page once" [ 1 ];
  Alcotest.(check (option int64)) "peek64" (Some (Int64.mul 0x0101010101010101L (Int64.of_int (byte 2))))
    (Memory.peek64 m (page 2));
  filled "peek64 fills" [ 1; 2 ];
  Memory.protect m ~addr:(page 3) ~size:Memory.page_size Memory.perm_rw;
  filled "protect fills" [ 1; 2; 3 ];
  Alcotest.(check int) "the remapped page keeps its bytes" (byte 3) (Memory.load8 m (page 3));
  Alcotest.(check bool) "poke64 writes it" true (Memory.poke64 m (page 3) 0L);
  Memory.unmap m ~addr:(page 0) ~size:Memory.page_size;
  ignore (Memory.digest m);
  filled "unmap fills nothing, digest nothing left" [ 1; 2; 3 ];
  Alcotest.(check int) "fills" 3 (Memory.fills m);
  Alcotest.(check int) "the copy filled nothing" 0 (Memory.fills c);
  ignore (Memory.digest c);
  filled "digest fills every page of the copy" [ 1; 2; 3; 0; 1; 2; 3 ];
  Alcotest.(check int) "the copy's own bytes" (byte 3) (Memory.load8 c (page 3))

(* The data TLB has several slots. A machine's data, stack and shadow
   pages each keep their own, so loads alternating between them refill
   once per page, and every map/unmap/protect must clear every slot. *)
let stack_page = Int64.sub Image.stack_top (Int64.of_int Memory.page_size)

let with_machine_pages () =
  let m = Memory.create () in
  List.iter
    (fun addr -> Memory.map m ~addr ~size:Memory.page_size Memory.perm_rw)
    [ Image.data_base; stack_page; Image.shadow_base ];
  m

let test_mem_tlb_every_slot () =
  let filled () =
    let m = with_machine_pages () in
    (* the data page first, the shadow page last *)
    List.iter
      (fun a -> ignore (Memory.load64 m a))
      [ Image.data_base; stack_page; Image.shadow_base; Image.data_base; stack_page ];
    Alcotest.(check (pair int int)) "three pages, three slots" (3, 0) (Memory.tlb_misses m);
    m
  in
  let m = filled () in
  Memory.protect m ~addr:Image.data_base ~size:Memory.page_size perm_none;
  Alcotest.check_raises "read of the protected data page"
    (Trap.Fault (Trap.Permission (Image.data_base, Trap.Read)))
    (fun () -> ignore (Memory.load64 m Image.data_base));
  let m = filled () in
  Memory.unmap m ~addr:stack_page ~size:Memory.page_size;
  Alcotest.check_raises "read of the unmapped stack page"
    (Trap.Fault (Trap.Unmapped (stack_page, Trap.Read)))
    (fun () -> ignore (Memory.load64 m stack_page));
  Alcotest.check check_w64 "shadow page still reads" 0L (Memory.load64 m Image.shadow_base)

let test_mem_tlb_refills () =
  let m = with_machine_pages () in
  for i = 0 to 999 do
    Memory.store64 m (Int64.add stack_page 8L) (Int64.of_int i);
    ignore (Memory.load64 m (Int64.add Image.data_base 8L))
  done;
  Alcotest.(check (pair int int)) "2000 alternating accesses, two refills" (2, 0)
    (Memory.tlb_misses m)

(* --- Machine semantics ------------------------------------------------------ *)

let run_asm ?cfg src =
  let m = Machine.load ?cfg (Asm.parse src) in
  (Machine.run ~fuel:100_000 m, m)

let expect_output src expected =
  match run_asm src with
  | Machine.Halted 0, m ->
    Alcotest.(check (list int64)) "output" expected (Machine.output m)
  | Machine.Halted c, _ -> Alcotest.fail (Printf.sprintf "exit %d" c)
  | Machine.Faulted f, _ -> Alcotest.fail (Trap.to_string f)
  | Machine.Out_of_fuel, _ -> Alcotest.fail "fuel"

let test_arithmetic () =
  expect_output
    {|.entry main
.func main
  mov x1, #10
  mov x2, #3
  add x3, x1, x2
  mov x0, x3
  svc #1
  sub x3, x1, x2
  mov x0, x3
  svc #1
  mul x3, x1, x2
  mov x0, x3
  svc #1
  udiv x3, x1, x2
  mov x0, x3
  svc #1
  mov x4, #0
  udiv x3, x1, x4
  mov x0, x3
  svc #1
  mov x0, #0
  hlt
.endfunc|}
    [ 13L; 7L; 30L; 3L; 0L ]

let test_logic_shifts () =
  expect_output
    {|.entry main
.func main
  mov x1, #12
  mov x2, #10
  and x0, x1, x2
  svc #1
  orr x0, x1, x2
  svc #1
  eor x0, x1, x2
  svc #1
  lsl x0, x1, #2
  svc #1
  lsr x0, x1, #2
  svc #1
  mov x0, #0
  hlt
.endfunc|}
    [ 8L; 14L; 6L; 48L; 3L ]

let test_branches () =
  expect_output
    {|.entry main
.func main
  mov x1, #0
  mov x2, #0
loop:
  add x2, x2, x1
  add x1, x1, #1
  cmp x1, #5
  b.lt loop
  mov x0, x2
  svc #1
  cbz x1, bad
  cbnz x2, good
bad:
  mov x0, #99
  svc #1
good:
  mov x0, #0
  hlt
.endfunc|}
    [ 10L ]

let test_stack_pair_ops () =
  expect_output
    {|.entry main
.func main
  mov x1, #111
  mov x2, #222
  stp x1, x2, [sp, #-16]!
  mov x1, #0
  mov x2, #0
  ldp x1, x2, [sp], #16
  mov x0, x1
  svc #1
  mov x0, x2
  svc #1
  mov x0, #0
  hlt
.endfunc|}
    [ 111L; 222L ]

let test_call_return () =
  expect_output
    {|.entry main
.func main
  mov x0, #5
  bl addseven
  svc #1
  adr x9, addseven
  mov x0, #10
  blr x9
  svc #1
  mov x0, #0
  hlt
.endfunc
.func addseven
  add x0, x0, #7
  ret
.endfunc|}
    [ 12L; 17L ]

let test_write_to_code_faults () =
  match run_asm ".entry main\n.func main\n  adr x1, main\n  str x1, [x1]\n  hlt\n.endfunc" with
  | Machine.Faulted (Trap.Permission (_, Trap.Write)), _ -> ()
  | _ -> Alcotest.fail "expected W^X fault"

let test_exec_of_data_faults () =
  match
    run_asm ".data buf 16\n.entry main\n.func main\n  adr x1, buf\n  br x1\n  hlt\n.endfunc"
  with
  | Machine.Faulted (Trap.Permission (_, Trap.Execute)), _ -> ()
  | _ -> Alcotest.fail "expected execute fault"

let test_noncanonical_load_faults () =
  match
    run_asm
      ".entry main\n.func main\n  mov x1, #1\n  lsl x1, x1, #62\n  ldr x2, [x1]\n  hlt\n.endfunc"
  with
  | Machine.Faulted (Trap.Translation (_, Trap.Read)), _ -> ()
  | _ -> Alcotest.fail "expected translation fault"

(* Bytes are read from the highest down, so a load that straddles into
   an unmapped page traps at its last byte, on both engines. *)
let test_straddling_load_trap () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000L ~size:Memory.page_size Memory.perm_rw;
  Alcotest.check_raises "Memory.load64"
    (Trap.Fault (Trap.Unmapped (0x2003L, Trap.Read)))
    (fun () -> ignore (Memory.load64 m 0x1ffcL));
  (* the data region is one page here, with nothing mapped above it *)
  let addr = Int64.add Image.data_base (Int64.of_int (Memory.page_size - 4)) in
  let p =
    Asm.parse
      (Printf.sprintf ".entry main\n.func main\n  mov x1, #%Ld\n  ldr x2, [x1]\n  hlt\n.endfunc" addr)
  in
  let expected = Trap.Unmapped (Int64.add addr 7L, Trap.Read) in
  List.iter
    (fun (engine, run) ->
      match run (Machine.load p) with
      | Machine.Faulted f when f = expected -> ()
      | Machine.Faulted f -> Alcotest.fail (engine ^ ": " ^ Trap.to_string f)
      | _ -> Alcotest.fail (engine ^ ": expected a fault"))
    [
      ("threaded", fun m -> Machine.run ~fuel:100 m);
      ("reference", fun m -> Machine.Reference.run ~fuel:100 m);
    ]

let test_retaa_roundtrip () =
  (* paciasp at entry, retaa at exit: the Listing 1 pattern *)
  expect_output
    {|.entry main
.func main
  mov x0, #1
  bl protected
  svc #1
  mov x0, #0
  hlt
.endfunc
.func protected
  paciasp
  stp fp, lr, [sp, #-16]!
  add x0, x0, #41
  ldp fp, lr, [sp], #16
  retaa
.endfunc|}
    [ 42L ]

let test_retaa_detects_corruption () =
  (* overwriting the signed return address with a plain one faults *)
  match
    run_asm
      {|.entry main
.func main
  bl victim
  hlt
.endfunc
.func victim
  paciasp
  stp fp, lr, [sp, #-16]!
  adr x9, main
  str x9, [sp, #8]
  ldp fp, lr, [sp], #16
  retaa
.endfunc|}
  with
  | Machine.Faulted (Trap.Translation (_, Trap.Execute)), _ -> ()
  | r, _ ->
    Alcotest.fail
      (match r with
      | Machine.Halted c -> Printf.sprintf "halted %d" c
      | Machine.Faulted f -> Trap.to_string f
      | Machine.Out_of_fuel -> "fuel")

let test_pacia_autia_machine () =
  expect_output
    {|.entry main
.func main
  mov x1, #4096
  mov x2, #77
  pacia x1, x2
  autia x1, x2
  mov x0, x1
  svc #1
  mov x0, #0
  hlt
.endfunc|}
    [ 4096L ]

let test_xpaci () =
  expect_output
    {|.entry main
.func main
  mov x1, #4096
  mov x2, #77
  pacia x1, x2
  xpaci x1
  mov x0, x1
  svc #1
  mov x0, #0
  hlt
.endfunc|}
    [ 4096L ]

let test_hooks () =
  let m = Machine.load (Asm.parse ".entry main\n.func main\n  hook probe\n  mov x0, #0\n  hlt\n.endfunc") in
  let fired = ref 0 in
  Machine.attach_hook m "probe" (fun _ -> incr fired);
  ignore (Machine.run m);
  Alcotest.(check int) "hook fired once" 1 !fired

let test_clone_independent () =
  let m = Machine.load (Asm.parse ".entry main\n.func main\n  mov x0, #0\n  hlt\n.endfunc") in
  let c = Machine.clone m in
  Machine.set m (Reg.x 5) 9L;
  Alcotest.check check_w64 "clone regs isolated" 0L (Machine.get c (Reg.x 5));
  (* data_base holds the canary guard; use an untouched slot further in *)
  let slot = Int64.add Image.data_base 64L in
  Memory.store64 (Machine.memory m) slot 3L;
  Alcotest.check check_w64 "clone memory isolated" 0L (Memory.load64 (Machine.memory c) slot)

let test_context_words_roundtrip () =
  let m = Machine.load (Asm.parse ".entry main\n.func main\n  hlt\n.endfunc") in
  Machine.set m (Reg.x 7) 0x77L;
  let ctx = Machine.save_context m in
  let words = Machine.context_words ctx in
  Alcotest.(check int) "34 words" 34 (Array.length words);
  let ctx2 = Machine.context_of_words words in
  Alcotest.check check_w64 "x7 preserved" 0x77L (Machine.context_get ctx2 (Reg.x 7));
  Alcotest.check check_w64 "pc preserved" (Machine.pc m) (Machine.context_pc ctx2)

let test_xzr_semantics () =
  expect_output
    {|.entry main
.func main
  mov xzr, #5
  mov x0, xzr
  svc #1
  mov x0, #0
  hlt
.endfunc|}
    [ 0L ]

(* --- Kernel ------------------------------------------------------------------ *)

let boot src =
  let k = Kernel.create (Rng.create 1L) in
  let p = Kernel.boot k (Asm.parse src) in
  (k, p, Kernel.machine p)

(* The kernel answers exit, print, sigreturn and mprotect only: the
   numbers that once forked, spawned a thread, yielded and read the pid
   trap like any other unassigned number. *)
let test_removed_syscalls_trap () =
  List.iter
    (fun n ->
      let _, _, m = boot (Printf.sprintf ".entry main\n.func main\n  svc #%d\n  hlt\n.endfunc" n) in
      match Machine.run m with
      | Machine.Faulted (Trap.Undefined msg) ->
        Alcotest.(check string) (Printf.sprintf "svc #%d" n) (Printf.sprintf "unknown syscall %d" n) msg
      | _ -> Alcotest.failf "svc #%d did not trap" n)
    [ 2; 3; 4; 6 ]

let signal_src =
  {|.entry main
.func main
  mov x1, #0
loop:
  add x1, x1, #1
  cmp x1, #2000
  b.lt loop
  mov x0, x1
  svc #1
  mov x0, #0
  hlt
.endfunc
.func handler
  mov x0, #41
  svc #1
  ret
.endfunc|}

let test_signal_roundtrip () =
  let k, p, m = boot signal_src in
  ignore (Machine.run ~fuel:50 m);
  let x1_before = Machine.get m (Reg.x 1) in
  Kernel.deliver_signal k p ~handler:"handler" ~signum:7;
  Alcotest.(check int) "depth 1" 1 (Kernel.signal_depth p);
  (match Machine.run m with
  | Machine.Halted 0 -> ()
  | _ -> Alcotest.fail "run failed");
  ignore x1_before;
  Alcotest.(check (list int64)) "handler then main" [ 41L; 2000L ] (Machine.output m);
  Alcotest.(check int) "depth restored" 0 (Kernel.signal_depth p)

let test_chained_sigreturn_rejects_forgery () =
  let k, p, m =
    let kernel = Kernel.create ~signal_policy:Kernel.Sig_chained (Rng.create 2L) in
    let p = Kernel.boot kernel (Asm.parse signal_src) in
    (kernel, p, Kernel.machine p)
  in
  ignore (Machine.run ~fuel:50 m);
  Kernel.deliver_signal k p ~handler:"handler" ~signum:7;
  (* adversary corrupts the saved PC in the signal frame *)
  let sp = Machine.get m Reg.SP in
  let pc_slot = Int64.add sp (Int64.of_int (8 * 32)) in
  Memory.store64 (Machine.memory m) pc_slot 0x4242L;
  (match Machine.run m with
  | Machine.Halted 139 -> ()
  | Machine.Halted c -> Alcotest.fail (Printf.sprintf "exit %d, wanted kill 139" c)
  | Machine.Faulted f -> Alcotest.fail (Trap.to_string f)
  | Machine.Out_of_fuel -> Alcotest.fail "fuel")

let test_unprotected_sigreturn_accepts_forgery () =
  let k = Kernel.create ~signal_policy:Kernel.Sig_unprotected (Rng.create 2L) in
  let p = Kernel.boot k (Asm.parse signal_src) in
  let m = Kernel.machine p in
  ignore (Machine.run ~fuel:50 m);
  Kernel.deliver_signal k p ~handler:"handler" ~signum:7;
  let sp = Machine.get m Reg.SP in
  (* corrupt saved x1 so the loop terminates immediately: mainline kernels
     restore whatever the frame says *)
  Memory.store64 (Machine.memory m) (Int64.add sp 8L) 1_999_999L;
  (match Machine.run m with
  | Machine.Halted 0 -> ()
  | _ -> Alcotest.fail "run failed");
  match Machine.output m with
  | [ 41L; v ] -> Alcotest.(check bool) "forged register honoured" true (v >= 1_999_999L)
  | _ -> Alcotest.fail "unexpected output"

let test_chained_full_rejects_any_register () =
  (* the pacga-over-everything variant detects forgery of a register the
     plain chain does not cover *)
  let forged_x5 policy =
    let k = Kernel.create ~signal_policy:policy (Rng.create 2L) in
    let p = Kernel.boot k (Asm.parse signal_src) in
    let m = Kernel.machine p in
    ignore (Machine.run ~fuel:50 m);
    Kernel.deliver_signal k p ~handler:"handler" ~signum:7;
    let sp = Machine.get m Reg.SP in
    Memory.store64 (Machine.memory m) (Int64.add sp (Int64.of_int (8 * 5))) 0xbadL;
    Machine.run m
  in
  (match forged_x5 Kernel.Sig_chained with
  | Machine.Halted 0 -> ()  (* PC/CR-only chain accepts the forged X5 *)
  | _ -> Alcotest.fail "plain chain should accept a forged X5");
  match forged_x5 Kernel.Sig_chained_full with
  | Machine.Halted 139 -> ()
  | _ -> Alcotest.fail "full chain should kill the forger"

let test_chained_full_benign () =
  let k = Kernel.create ~signal_policy:Kernel.Sig_chained_full (Rng.create 2L) in
  let p = Kernel.boot k (Asm.parse signal_src) in
  let m = Kernel.machine p in
  ignore (Machine.run ~fuel:50 m);
  Kernel.deliver_signal k p ~handler:"handler" ~signum:7;
  match Machine.run m with
  | Machine.Halted 0 ->
    Alcotest.(check (list int64)) "output" [ 41L; 2000L ] (Machine.output m)
  | _ -> Alcotest.fail "benign signal failed under full chaining"

let test_guest_mprotect () =
  let src =
    {|.data buf 4096
.entry main
.func main
  adr x0, main
  mov x1, #4096
  mov x2, #7
  svc #7
  svc #1
  adr x0, buf
  mov x1, #4096
  mov x2, #4
  svc #7
  svc #1
  adr x3, buf
  str x3, [x3]
  mov x0, #0
  hlt
.endfunc|}
  in
  let k = Kernel.create (Rng.create 3L) in
  let p = Kernel.boot k (Asm.parse src) in
  let m = Kernel.machine p in
  match Machine.run m with
  | Machine.Faulted (Trap.Permission (_, Trap.Write)) ->
    (* W+X on code refused, read-only remap succeeded, then the store to
       the now read-only data page faulted *)
    Alcotest.(check (list int64)) "syscall results" [ -1L; 0L ] (Machine.output m)
  | r ->
    Alcotest.fail
      (match r with
      | Machine.Halted c -> Printf.sprintf "halted %d" c
      | Machine.Faulted f -> Trap.to_string f
      | Machine.Out_of_fuel -> "fuel")

(* --- debugging with run_until ---------------------------------------------------- *)

(* A breakpoint or a watchpoint is a [run_until] predicate; inspection
   reads the paused machine. *)

let debug_machine () =
  Machine.load
    (Asm.parse
       {|.data counter 8
.entry main
.func main
  bl helper
  bl helper
  mov x0, #0
  hlt
.endfunc
.func helper
  stp fp, lr, [sp, #-16]!
  mov fp, sp
  adr x1, counter
  ldr x2, [x1]
  add x2, x2, #1
  str x2, [x1]
  ldp fp, lr, [sp], #16
  ret
.endfunc|})

(* A breakpoint: pc at the entry of function [name]. *)
let at_entry m name =
  let entry = Option.get (Image.symbol (Machine.image m) name) in
  fun m -> Int64.equal (Machine.pc m) entry

let test_debug_breakpoints () =
  let m = debug_machine () in
  let at_helper = at_entry m "helper" in
  (match Machine.run_until m ~stop:at_helper with
  | None ->
    Alcotest.(check (option string)) "stopped in helper" (Some "helper")
      (Image.function_at (Machine.image m) (Machine.pc m))
  | Some _ -> Alcotest.fail "expected first breakpoint");
  (* the pause holds pc at the breakpoint: continue past it first *)
  ignore (Machine.run ~fuel:1 m);
  (match Machine.run_until m ~stop:at_helper with
  | None -> ()
  | Some _ -> Alcotest.fail "expected second breakpoint");
  ignore (Machine.run ~fuel:1 m);
  match Machine.run_until m ~stop:at_helper with
  | Some (Machine.Halted 0) -> ()
  | _ -> Alcotest.fail "expected halt"

let test_debug_watchpoint () =
  let m = debug_machine () in
  let counter = Option.get (Image.symbol (Machine.image m) "counter") in
  let watched m = Memory.peek64 (Machine.memory m) counter in
  let old = watched m in
  match Machine.run_until m ~stop:(fun m -> watched m <> old) with
  | None ->
    Alcotest.(check (option int64)) "old" (Some 0L) old;
    Alcotest.(check (option int64)) "new" (Some 1L) (watched m);
    Alcotest.(check bool) "paused right after the store" true
      (match Image.fetch (Machine.image m) (Int64.sub (Machine.pc m) 4L) with
      | Some (Pacstack_isa.Instr.Str _) -> true
      | _ -> false)
  | Some _ -> Alcotest.fail "expected watchpoint"

let test_debug_inspection () =
  let m = debug_machine () in
  (match Machine.run_until m ~stop:(at_entry m "helper") with
  | None -> ()
  | Some _ -> Alcotest.fail "no bp");
  (* step into the prologue so the frame record exists *)
  ignore (Machine.run ~fuel:2 m);
  let image = Machine.image m in
  let mem = Machine.memory m in
  (* each frame record holds the caller's fp and the return address *)
  let rec frames acc fp =
    if Word64.equal fp 0L then List.rev acc
    else
      match Memory.peek64 mem fp, Memory.peek64 mem (Int64.add fp 8L) with
      | Some caller_fp, Some ret -> frames (Image.function_at image ret :: acc) caller_fp
      | _ -> List.rev acc
  in
  Alcotest.(check (list (option string))) "backtrace" [ Some "helper"; Some "main" ]
    (Image.function_at image (Machine.pc m) :: frames [] (Machine.get m Reg.fp));
  Alcotest.(check bool) "pc past the prologue" true
    (match Image.fetch image (Machine.pc m) with
    | Some (Pacstack_isa.Instr.Adr _) -> true
    | _ -> false);
  match Machine.run m with
  | Machine.Halted 0 -> ()
  | _ -> Alcotest.fail "runs on to the halt"

(* --- Unwinder ------------------------------------------------------------------ *)

let pacstack_chain_src =
  (* three nested PACStack-instrumented functions, then a hook *)
  let module B = Pacstack_minic.Build in
  let module Ast = Pacstack_minic.Ast in
  Pacstack_minic.Compile.compile ~scheme:Scheme.pacstack
    (Ast.program
       [
         Ast.fdef "f3" ~locals:[ Ast.Scalar "t" ]
           B.[ Ast.Hook "probe"; set "t" (call "id" [ i 3 ]); ret (v "t") ];
         Ast.fdef "id" ~params:[ "x" ] B.[ ret (v "x") ];
         Ast.fdef "f2" ~locals:[ Ast.Scalar "t" ] B.[ set "t" (call "f3" []); ret (v "t") ];
         Ast.fdef "f1" ~locals:[ Ast.Scalar "t" ] B.[ set "t" (call "f2" []); ret (v "t") ];
         Ast.fdef "main" ~locals:[ Ast.Scalar "t" ]
           B.[ set "t" (call "f1" []); print (v "t"); ret (i 0) ];
       ])

let test_unwind_backtrace () =
  let m = Machine.load pacstack_chain_src in
  let seen = ref [] in
  Machine.attach_hook m "probe" (fun m ->
      match Unwind.backtrace m with
      | Ok frames -> seen := List.filter_map (fun f -> f.Unwind.func) frames
      | Error e -> Alcotest.fail e.Unwind.reason);
  (match Machine.run m with
  | Machine.Halted 0 -> ()
  | _ -> Alcotest.fail "victim failed");
  Alcotest.(check (list string)) "call chain" [ "f2"; "f1"; "main"; "__halt" ] !seen

let test_unwind_detects_tamper () =
  let m = Machine.load pacstack_chain_src in
  let result = ref None in
  Machine.attach_hook m "probe" (fun m ->
      (* corrupt the deepest stored chain value, then unwind *)
      let fp = Machine.get m Reg.fp in
      let slot = Int64.sub fp 16L in
      let v = Option.get (Memory.peek64 (Machine.memory m) slot) in
      ignore (Memory.poke64 (Machine.memory m) slot (Int64.logxor v 0xff00000000L));
      result := Some (Unwind.backtrace m));
  ignore (Machine.run m);
  match !result with
  | Some (Error e) ->
    Alcotest.(check int) "fails at the first frame" 0 e.Unwind.depth;
    Alcotest.(check string) "authentication failure" "authentication failure" e.Unwind.reason
  | Some (Ok _) -> Alcotest.fail "tampered chain unwound successfully"
  | None -> Alcotest.fail "hook never fired"

let test_unwind_max_depth () =
  let m = Machine.load pacstack_chain_src in
  let result = ref None in
  Machine.attach_hook m "probe" (fun m -> result := Some (Unwind.backtrace ~max_depth:2 m));
  ignore (Machine.run m);
  match !result with
  | Some (Error e) -> Alcotest.(check string) "depth limit" "max depth exceeded" e.Unwind.reason
  | _ -> Alcotest.fail "expected depth error"

(* --- Figure 5's call counts ---------------------------------------------------- *)

(* Figure 5's calls/ki: every kernel's unprotected Rate build, observed
   to its halt, counts these calls over these instructions. *)
let test_kernel_call_counts () =
  List.iter
    (fun (name, calls, instructions) ->
      let bench = Option.get (Pacstack_workloads.Speclike.find name) in
      Alcotest.(check (pair int int)) name (calls, instructions)
        (Pacstack_report.Plans.call_counts bench))
    [
      ("perlbench", 2_438, 329_499);
      ("gcc", 1_896, 449_133);
      ("mcf", 797, 139_532);
      ("lbm", 0, 897_286);
      ("xz", 16_928, 670_647);
      ("x264", 660, 140_947);
      ("imagick", 360, 332_859);
      ("nab", 120, 417_621);
    ]

(* --- validated longjmp -------------------------------------------------------- *)

let unwind_victim_m () =
  Machine.load
    (Pacstack_minic.Compile.compile ~scheme:Scheme.pacstack
       (Pacstack_workloads.Scenarios.unwind_victim ~depth:4))

let test_validated_longjmp_transfers () =
  let m = unwind_victim_m () in
  let fired = ref false in
  Machine.attach_hook m "deep" (fun m ->
      fired := true;
      let jb = Option.get (Image.symbol (Machine.image m) "jb") in
      match Unwind.validated_longjmp m ~jmp_buf:jb ~value:55L with
      | Ok d -> Alcotest.(check bool) "unwound several frames" true (d > 0)
      | Error e -> Alcotest.fail e.Unwind.reason);
  (match Machine.run ~fuel:1_000_000 m with
  | Machine.Halted 0 -> ()
  | _ -> Alcotest.fail "victim failed");
  Alcotest.(check bool) "hook fired" true !fired;
  Alcotest.(check (list int64)) "landed with the value" [ 55L ] (Machine.output m)

let test_validated_longjmp_zero_becomes_one () =
  let m = unwind_victim_m () in
  Machine.attach_hook m "deep" (fun m ->
      let jb = Option.get (Image.symbol (Machine.image m) "jb") in
      ignore (Unwind.validated_longjmp m ~jmp_buf:jb ~value:0L));
  ignore (Machine.run ~fuel:1_000_000 m);
  Alcotest.(check (list int64)) "longjmp(0) delivers 1" [ 1L ] (Machine.output m)

let test_validated_longjmp_rejects_forgery () =
  let m = unwind_victim_m () in
  let result = ref None in
  Machine.attach_hook m "deep" (fun m ->
      let jb = Option.get (Image.symbol (Machine.image m) "jb") in
      (* corrupt the buffer's bound return address *)
      let slot = Int64.add jb 88L in
      let v = Option.get (Memory.peek64 (Machine.memory m) slot) in
      ignore (Memory.poke64 (Machine.memory m) slot (Int64.logxor v 0x1234L));
      result := Some (Unwind.validated_longjmp m ~jmp_buf:jb ~value:55L));
  ignore (Machine.run ~fuel:1_000_000 m);
  match !result with
  | Some (Error e) ->
    Alcotest.(check string) "refused" "jmp_buf return address failed authentication"
      e.Unwind.reason
  | Some (Ok _) -> Alcotest.fail "forged jmp_buf accepted"
  | None -> Alcotest.fail "hook never fired"

(* --- forward CFI + code bytes --------------------------------------------------- *)

let test_forward_cfi_blocks_midfunction () =
  let src =
    ".entry main\n.func main\n  adr x9, main\n  add x9, x9, #8\n  blr x9\n  hlt\n.endfunc\n"
  in
  let m = Machine.load (Asm.parse src) in
  (match Machine.run m with
  | Machine.Faulted (Trap.Cfi_violation _) -> ()
  | _ -> Alcotest.fail "expected CFI violation");
  (* same program with CFI disabled spins through main again *)
  let m2 = Machine.load (Asm.parse src) in
  Machine.set_forward_cfi m2 false;
  match Machine.run ~fuel:100 m2 with
  | Machine.Faulted (Trap.Cfi_violation _) -> Alcotest.fail "CFI fired while disabled"
  | _ -> ()

let test_forward_cfi_allows_entries () =
  let src =
    ".entry main\n.func main\n  adr x9, callee\n  blr x9\n  mov x0, #0\n  hlt\n.endfunc\n.func callee\n  ret\n.endfunc\n"
  in
  match Machine.run (Machine.load (Asm.parse src)) with
  | Machine.Halted 0 -> ()
  | _ -> Alcotest.fail "entry-targeted blr should pass"

let test_code_bytes_resident () =
  (* the encoded program is readable in the executable pages and
     disassembles back to itself *)
  let prog = Asm.parse ".entry main\n.func main\n  paciasp\n  nop\n  hlt\n.endfunc\n" in
  let m = Machine.load prog in
  let image = Machine.image m in
  let words, pools = Image.encoded image in
  Array.iteri
    (fun i w ->
      let addr = Int64.add Image.code_base (Int64.of_int (4 * i)) in
      let in_mem =
        Int64.to_int
          (Int64.logand (Memory.load64 (Machine.memory m) (Int64.logand addr (Int64.lognot 7L)))
             0xffffffffL)
      in
      ignore in_mem;
      let b0 = Memory.load8 (Machine.memory m) addr in
      Alcotest.(check int) "low byte matches" (Int32.to_int w land 0xff) b0)
    words;
  Alcotest.(check bool) "disassembly mentions paciasp" true
    (String.length (Pacstack_isa.Encode.disassemble words pools) > 0);
  Alcotest.(check bool) "entry is a function entry" true
    (Image.is_function_entry image (Image.entry image));
  Alcotest.(check bool) "entry+4 is not" false
    (Image.is_function_entry image (Int64.add (Image.entry image) 4L))

let () =
  Alcotest.run "machine"
    [
      ( "memory",
        [
          Alcotest.test_case "map/load/store" `Quick test_mem_map_load_store;
          Alcotest.test_case "little endian" `Quick test_mem_little_endian;
          Alcotest.test_case "cross page" `Quick test_mem_cross_page;
          Alcotest.test_case "unmapped fault" `Quick test_mem_unmapped_fault;
          Alcotest.test_case "W^X" `Quick test_mem_wxorx;
          Alcotest.test_case "permissions" `Quick test_mem_permissions;
          Alcotest.test_case "double map" `Quick test_mem_double_map;
          Alcotest.test_case "peek/poke" `Quick test_mem_peek_poke;
          Alcotest.test_case "copy independence" `Quick test_mem_copy_independent;
          Alcotest.test_case "TLB invalidated by protect" `Quick test_mem_tlb_protect;
          Alcotest.test_case "TLB invalidated by unmap" `Quick test_mem_tlb_unmap;
          Alcotest.test_case "exec TLB invalidation" `Quick test_mem_tlb_exec;
          Alcotest.test_case "mapped ranges" `Quick test_mem_ranges;
          Alcotest.test_case "overlap with an untouched region" `Quick test_mem_lazy_overlap;
          Alcotest.test_case "protect/unmap inside an untouched region" `Quick
            test_mem_lazy_protect_unmap;
          Alcotest.test_case "first touch invisible" `Quick test_mem_first_touch_invisible;
          Alcotest.test_case "TLB invalidation reaches every slot" `Quick test_mem_tlb_every_slot;
          Alcotest.test_case "TLB refills per page" `Quick test_mem_tlb_refills;
          Alcotest.test_case "initialised region fills on data access" `Quick
            test_mem_init_fill_rules;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "arithmetic" `Quick test_arithmetic;
          Alcotest.test_case "logic and shifts" `Quick test_logic_shifts;
          Alcotest.test_case "branches" `Quick test_branches;
          Alcotest.test_case "stack pairs" `Quick test_stack_pair_ops;
          Alcotest.test_case "call/return" `Quick test_call_return;
          Alcotest.test_case "W^X on code" `Quick test_write_to_code_faults;
          Alcotest.test_case "exec of data" `Quick test_exec_of_data_faults;
          Alcotest.test_case "non-canonical deref" `Quick test_noncanonical_load_faults;
          Alcotest.test_case "straddling load trap address" `Quick test_straddling_load_trap;
          Alcotest.test_case "retaa roundtrip" `Quick test_retaa_roundtrip;
          Alcotest.test_case "retaa detects corruption" `Quick test_retaa_detects_corruption;
          Alcotest.test_case "pacia/autia" `Quick test_pacia_autia_machine;
          Alcotest.test_case "xpaci" `Quick test_xpaci;
          Alcotest.test_case "hooks" `Quick test_hooks;
          Alcotest.test_case "clone independence" `Quick test_clone_independent;
          Alcotest.test_case "context words" `Quick test_context_words_roundtrip;
          Alcotest.test_case "xzr" `Quick test_xzr_semantics;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "signal roundtrip" `Quick test_signal_roundtrip;
          Alcotest.test_case "chained sigreturn rejects forgery" `Quick
            test_chained_sigreturn_rejects_forgery;
          Alcotest.test_case "unprotected sigreturn accepts forgery" `Quick
            test_unprotected_sigreturn_accepts_forgery;
          Alcotest.test_case "guest mprotect respects W^X" `Quick test_guest_mprotect;
          Alcotest.test_case "full chain covers all registers" `Quick
            test_chained_full_rejects_any_register;
          Alcotest.test_case "full chain benign round-trip" `Quick test_chained_full_benign;
        ] );
      ( "unwind",
        [
          Alcotest.test_case "backtrace" `Quick test_unwind_backtrace;
          Alcotest.test_case "detects tamper" `Quick test_unwind_detects_tamper;
          Alcotest.test_case "max depth" `Quick test_unwind_max_depth;
          Alcotest.test_case "validated longjmp transfers" `Quick
            test_validated_longjmp_transfers;
          Alcotest.test_case "validated longjmp(0) -> 1" `Quick
            test_validated_longjmp_zero_becomes_one;
          Alcotest.test_case "validated longjmp rejects forgery" `Quick
            test_validated_longjmp_rejects_forgery;
        ] );
      (* alcotest pads the name column to the longest group name, ten
         characters here; a wider or narrower column cuts the long test
         names of this suite elsewhere *)
      ( "kernel abi",
        [ Alcotest.test_case "fork, thread, yield and getpid trap" `Quick test_removed_syscalls_trap ] );
      ( "debug",
        [
          Alcotest.test_case "breakpoints" `Quick test_debug_breakpoints;
          Alcotest.test_case "watchpoints" `Quick test_debug_watchpoint;
          Alcotest.test_case "inspection" `Quick test_debug_inspection;
        ] );
      ( "profile",
        [
          Alcotest.test_case "SPEC-like kernels: calls and instructions" `Quick
            test_kernel_call_counts;
        ] );
      ( "cfi+code",
        [
          Alcotest.test_case "CFI blocks mid-function" `Quick test_forward_cfi_blocks_midfunction;
          Alcotest.test_case "CFI allows entries" `Quick test_forward_cfi_allows_entries;
          Alcotest.test_case "code bytes resident" `Quick test_code_bytes_resident;
        ] );
    ]

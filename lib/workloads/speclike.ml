module Ast = Pacstack_minic.Ast
module B = Pacstack_minic.Build
module Compile = Pacstack_minic.Compile
module Scheme = Pacstack_harden.Scheme
module Machine = Pacstack_machine.Machine
module Trap = Pacstack_machine.Trap

type variant = Rate | Speed

let variant_to_string = function Rate -> "rate" | Speed -> "speed"

type benchmark = {
  name : string;
  description : string;
  program : variant -> Ast.program;
}

let scale = function Rate -> 1 | Speed -> 3

(* address of 64-bit word [e] of global array [g] *)
let widx g e = B.(glob g + (e lsl i 3))
let bidx g e = B.(glob g + e)

(* --- perlbench: interpreter-style dispatch, very call-heavy ----------- *)

let perlbench variant =
  let n = 1200 * scale variant in
  let op name body = Ast.fdef name ~params:[ "x" ] body in
  Ast.program
    ~globals:[ ("ops", 8 * 4) ]
    [
      op "op_inc" B.[ ret (v "x" + i 1) ];
      op "op_tri" B.[ ret (v "x" * i 3) ];
      op "op_mix" B.[ ret (v "x" lxor (v "x" lsr i 3)) ];
      op "op_dbl" B.[ ret (v "x" + (v "x" lsl i 1)) ];
      Ast.fdef "dispatch" ~params:[ "op"; "x" ]
        ~locals:[ Ast.Scalar "f" ]
        B.[
          set "f" (load (widx "ops" (v "op" land i 3)));
          ret (Ast.Call_ptr (v "f", [ v "x" ]));
        ];
      Ast.fdef "scan" ~params:[ "x" ]
        ~locals:[ Ast.Array ("buf", 32); Ast.Scalar "j"; Ast.Scalar "s" ]
        B.[
          for_ "j" ~from:(i 0) ~below:(i 4)
            [ store (idx "buf" (v "j" lsl i 3)) (v "x" + v "j") ];
          set "s" (i 0);
          for_ "j" ~from:(i 0) ~below:(i 4)
            [ set "s" (v "s" + load (idx "buf" (v "j" lsl i 3))) ];
          ret (v "s");
        ];
      Ast.fdef "main"
        ~locals:[ Ast.Scalar "acc"; Ast.Scalar "k"; Ast.Scalar "j" ]
        B.[
          store (widx "ops" (i 0)) (fn "op_inc");
          store (widx "ops" (i 1)) (fn "op_tri");
          store (widx "ops" (i 2)) (fn "op_mix");
          store (widx "ops" (i 3)) (fn "op_dbl");
          set "acc" (i 7);
          for_ "k" ~from:(i 0) ~below:(i n)
            [
              set "acc" (call "dispatch" [ v "k"; v "acc" ]);
              for_ "j" ~from:(i 0) ~below:(i 12)
                [ set "acc" ((v "acc" lxor (v "acc" lsr i 13)) + v "j") ];
              if_ ((v "k" land i 31) == i 0)
                [ set "acc" (v "acc" + call "scan" [ v "acc" ]) ]
                [];
            ];
          print (v "acc");
          ret (i 0);
        ];
    ]

(* --- gcc: deep recursion over expression-like structure, call-heavy --- *)

let gcc variant =
  let rounds = 24 * scale variant in
  Ast.program
    [
      Ast.fdef "fold" ~params:[ "n"; "acc" ]
        B.[
          if_ (v "n" == i 0) [ ret (v "acc") ] [];
          Ast.Tail_call ("fold", [ v "n" - i 1; (v "acc" lxor v "n") + i 3 ]);
        ];
      Ast.fdef "visit" ~params:[ "d" ]
        ~locals:[ Ast.Scalar "l"; Ast.Scalar "r"; Ast.Scalar "j"; Ast.Scalar "t" ]
        B.[
          if_ (v "d" <= i 1) [ ret (i 1) ] [];
          set "t" (v "d");
          for_ "j" ~from:(i 0) ~below:(i 20)
            [ set "t" ((v "t" + (v "d" * v "j")) lxor (v "t" lsr i 5)) ];
          set "l" (call "visit" [ v "d" - i 1 ]);
          set "r" (call "fold" [ i 2; v "l" ]);
          ret ((v "l" + v "r") lxor v "t");
        ];
      Ast.fdef "main"
        ~locals:[ Ast.Scalar "s"; Ast.Scalar "k" ]
        B.[
          set "s" (i 0);
          for_ "k" ~from:(i 0) ~below:(i rounds)
            [ set "s" (v "s" + call "visit" [ i 40 ]) ];
          print (v "s");
          ret (i 0);
        ];
    ]

(* --- mcf: pointer chasing with a periodic helper, medium calls -------- *)

let mcf variant =
  let nodes = 1024 in
  let steps = 3000 * scale variant in
  Ast.program
    ~globals:[ ("next", 8 * nodes) ]
    [
      Ast.fdef "clamp" ~params:[ "x" ] B.[ ret (v "x" land i 0xffff) ];
      Ast.fdef "relax" ~params:[ "t" ]
        ~locals:[ Ast.Scalar "c" ]
        B.[
          set "c" (call "clamp" [ v "t" ]);
          ret (v "c" + (v "t" lsr i 16));
        ];
      Ast.fdef "snapshot" ~params:[ "x" ]
        ~locals:[ Ast.Array ("log", 32); Ast.Scalar "j"; Ast.Scalar "s" ]
        B.[
          for_ "j" ~from:(i 0) ~below:(i 4) [ store (idx "log" (v "j" lsl i 3)) (v "x" lsr v "j") ];
          set "s" (i 0);
          for_ "j" ~from:(i 0) ~below:(i 4) [ set "s" (v "s" + load (idx "log" (v "j" lsl i 3))) ];
          ret (v "s");
        ];
      Ast.fdef "main"
        ~locals:[ Ast.Scalar "k"; Ast.Scalar "cur"; Ast.Scalar "total" ]
        B.[
          for_ "k" ~from:(i 0) ~below:(i nodes)
            [ store (widx "next" (v "k")) (((v "k" * i 193) + i 7) land i 1023) ];
          set "cur" (i 1);
          set "total" (i 0);
          for_ "k" ~from:(i 0) ~below:(i steps)
            [
              set "cur" (load (widx "next" (v "cur")));
              set "total" (v "total" + v "cur");
              if_ ((v "k" land i 7) == i 0)
                [ set "total" (call "relax" [ v "total" ]) ]
                [];
              if_ ((v "k" land i 63) == i 1)
                [ set "total" (v "total" lxor call "snapshot" [ v "total" ]) ]
                [];
            ];
          print (v "total");
          ret (i 0);
        ];
    ]

(* --- lbm: stencil sweeps, essentially no calls ------------------------ *)

let lbm variant =
  let cells = 512 in
  let cells_m1 = cells - 1 in
  let sweeps = 40 * scale variant in
  Ast.program
    ~globals:[ ("grid", 8 * cells) ]
    [
      Ast.fdef "main"
        ~locals:[ Ast.Scalar "s"; Ast.Scalar "k"; Ast.Scalar "acc"; Ast.Scalar "m" ]
        B.[
          for_ "k" ~from:(i 0) ~below:(i cells)
            [ store (widx "grid" (v "k")) ((v "k" * i 37) land i 4095) ];
          for_ "s" ~from:(i 0) ~below:(i sweeps)
            [
              for_ "k" ~from:(i 1) ~below:(i cells_m1)
                [
                  set "m" (load (widx "grid" (v "k" - i 1)) + load (widx "grid" (v "k")));
                  store (widx "grid" (v "k"))
                    ((v "m" + load (widx "grid" (v "k" + i 1))) / i 3);
                ];
            ];
          set "acc" (i 0);
          for_ "k" ~from:(i 0) ~below:(i cells)
            [ set "acc" (v "acc" + load (widx "grid" (v "k"))) ];
          print (v "acc");
          ret (i 0);
        ];
    ]

(* --- xz: byte-stream digesting in 8-byte chunks, medium calls --------- *)

let xz variant =
  let bytes = 4096 in
  let nblocks = bytes / 32 in
  let passes = 4 * scale variant in
  Ast.program
    ~globals:[ ("buf", bytes) ]
    [
      Ast.fdef "mix8" ~params:[ "c"; "b" ]
        B.[ ret ((v "c" lsl i 1) lxor v "b" lxor (v "c" lsr i 7)) ];
      Ast.fdef "digest_block" ~params:[ "p"; "c" ]
        ~locals:[ Ast.Scalar "j" ]
        B.[
          for_ "j" ~from:(i 0) ~below:(i 32)
            [ set "c" (call "mix8" [ v "c"; load8 (v "p" + v "j") ]) ];
          ret (v "c");
        ];
      Ast.fdef "pad_tail" ~params:[ "c" ]
        ~locals:[ Ast.Array ("pad", 16); Ast.Scalar "s" ]
        B.[
          store (idx "pad" (i 0)) (v "c" lxor i 0x5c);
          store (idx "pad" (i 8)) (v "c" lxor i 0x36);
          set "s" (load (idx "pad" (i 0)) + load (idx "pad" (i 8)));
          ret (v "s");
        ];
      Ast.fdef "main"
        ~locals:[ Ast.Scalar "k"; Ast.Scalar "p"; Ast.Scalar "crc" ]
        B.[
          for_ "k" ~from:(i 0) ~below:(i bytes)
            [ store8 (bidx "buf" (v "k")) ((v "k" * i 131) land i 255) ];
          set "crc" (i 0);
          for_ "p" ~from:(i 0) ~below:(i passes)
            [
              for_ "k" ~from:(i 0) ~below:(i nblocks)
                [
                  set "crc" (call "digest_block" [ bidx "buf" (v "k" lsl i 5); v "crc" ]);
                  if_ ((v "k" land i 15) == i 2)
                    [ set "crc" (v "crc" + call "pad_tail" [ v "crc" land i 255 ]) ]
                    [];
                ];
            ];
          print (v "crc");
          ret (i 0);
        ];
    ]

(* --- x264: per-block cost with leaf SAD helpers, medium-high calls ---- *)

let x264 variant =
  let blocks = 220 * scale variant in
  Ast.program
    ~globals:[ ("frame", 8 * 512) ]
    [
      Ast.fdef "sad8" ~params:[ "p"; "q" ]
        ~locals:[ Ast.Scalar "j"; Ast.Scalar "s"; Ast.Scalar "d" ]
        B.[
          set "s" (i 0);
          for_ "j" ~from:(i 0) ~below:(i 8)
            [
              set "d" (load (v "p" + (v "j" lsl i 3)) - load (v "q" + (v "j" lsl i 3)));
              set "s" (v "s" + (v "d" lxor (v "d" lsr i 63)));
            ];
          ret (v "s");
        ];
      Ast.fdef "block_cost" ~params:[ "b" ]
        ~locals:[ Ast.Scalar "p"; Ast.Scalar "q"; Ast.Scalar "c1"; Ast.Scalar "c2" ]
        B.[
          set "p" (widx "frame" ((v "b" * i 16) land i 255));
          set "q" (widx "frame" (((v "b" * i 16) + i 128) land i 255));
          set "c1" (call "sad8" [ v "p"; v "q" ]);
          set "c2" (call "sad8" [ v "q"; v "p" ]);
          ret (v "c1" + v "c2");
        ];
      Ast.fdef "main"
        ~locals:[ Ast.Scalar "k"; Ast.Scalar "cost" ]
        B.[
          for_ "k" ~from:(i 0) ~below:(i 512)
            [ store (widx "frame" (v "k")) ((v "k" * i 2654435761) land i 65535) ];
          set "cost" (i 0);
          for_ "k" ~from:(i 0) ~below:(i blocks)
            [ set "cost" (v "cost" + call "block_cost" [ v "k" ]) ];
          print (v "cost");
          ret (i 0);
        ];
    ]

(* --- imagick: per-pixel arithmetic with a per-row helper, low-medium --- *)

let imagick variant =
  let rows = 120 * scale variant in
  let cols = 64 in
  Ast.program
    ~globals:[ ("img", 8 * cols) ]
    [
      Ast.fdef "clamp255" ~params:[ "x" ]
        B.[
          if_ (v "x" > i 255) [ ret (i 255) ] [];
          ret (v "x");
        ];
      Ast.fdef "edge_buf" ~params:[ "x" ]
        ~locals:[ Ast.Array ("edge", 24); Ast.Scalar "j"; Ast.Scalar "s" ]
        B.[
          for_ "j" ~from:(i 0) ~below:(i 3) [ store (idx "edge" (v "j" lsl i 3)) (v "x" + v "j") ];
          set "s" (load (idx "edge" (i 0)) + load (idx "edge" (i 8)));
          ret (v "s" + load (idx "edge" (i 16)));
        ];
      Ast.fdef "row_op" ~params:[ "r"; "acc" ]
        ~locals:[ Ast.Scalar "k"; Ast.Scalar "px" ]
        B.[
          for_ "k" ~from:(i 0) ~below:(i cols)
            [
              set "px" (load (widx "img" (v "k")));
              set "px" (((v "px" * i 77) + (v "r" * i 19)) lsr i 6);
              store (widx "img" (v "k")) (v "px" land i 1023);
              set "acc" (v "acc" + (v "px" land i 255));
            ];
          ret (call "clamp255" [ v "acc" land i 4095 ] + call "edge_buf" [ v "acc" land i 255 ]);
        ];
      Ast.fdef "main"
        ~locals:[ Ast.Scalar "r"; Ast.Scalar "acc"; Ast.Scalar "k" ]
        B.[
          for_ "k" ~from:(i 0) ~below:(i cols) [ store (widx "img" (v "k")) (v "k" * i 3) ];
          set "acc" (i 0);
          for_ "r" ~from:(i 0) ~below:(i rows)
            [ set "acc" (call "row_op" [ v "r"; v "acc" ]) ];
          print (v "acc");
          ret (i 0);
        ];
    ]

(* --- nab: nested arithmetic accumulation, very few calls -------------- *)

let nab variant =
  let outer = 60 * scale variant in
  let inner = 256 in
  Ast.program
    [
      Ast.fdef "sq" ~params:[ "x" ] B.[ ret (v "x" * v "x") ];
      Ast.fdef "norm" ~params:[ "x" ] B.[ ret (call "sq" [ v "x" ] lsr i 8) ];
      Ast.fdef "main"
        ~locals:[ Ast.Scalar "a"; Ast.Scalar "b"; Ast.Scalar "f"; Ast.Scalar "e" ]
        B.[
          set "e" (i 0);
          for_ "a" ~from:(i 0) ~below:(i outer)
            [
              for_ "b" ~from:(i 0) ~below:(i inner)
                [
                  set "f" (((v "a" * i 13) + (v "b" * i 7)) land i 8191);
                  set "e" (v "e" + ((v "f" * v "f") lsr i 4));
                ];
              set "e" (call "norm" [ v "e" ] + (v "e" land i 65535));
            ];
          print (v "e");
          ret (i 0);
        ];
    ]

(* --- C++-flavoured kernels (the paper reports C++ overheads of 2.0 %
   masked / 0.9 % unmasked separately from Table 2) -------------------- *)

(* omnetpp: discrete-event simulation with vtable-style indirect dispatch *)
let omnetpp variant =
  let events = 260 * scale variant in
  Ast.program
    ~globals:[ ("vtable", 8 * 4); ("queue", 8 * 64) ]
    [
      Ast.fdef "ev_timer" ~params:[ "t" ] B.[ ret ((v "t" * i 5) + i 3) ];
      Ast.fdef "ev_packet" ~params:[ "t" ] B.[ ret (v "t" lxor (v "t" lsr i 7)) ];
      Ast.fdef "ev_queue" ~params:[ "t" ] B.[ ret (v "t" + (v "t" lsr i 2)) ];
      Ast.fdef "ev_stat" ~params:[ "t" ] B.[ ret (v "t" * i 9) ];
      Ast.fdef "handle" ~params:[ "kind"; "t" ]
        ~locals:[ Ast.Scalar "f"; Ast.Scalar "r"; Ast.Scalar "j" ]
        B.[
          set "f" (load (widx "vtable" (v "kind" land i 3)));
          set "r" (Ast.Call_ptr (v "f", [ v "t" ]));
          for_ "j" ~from:(i 0) ~below:(i 42)
            [ set "r" ((v "r" + (v "j" * i 11)) land i 0xffffff) ];
          ret (v "r");
        ];
      Ast.fdef "main"
        ~locals:[ Ast.Scalar "k"; Ast.Scalar "clock"; Ast.Scalar "acc" ]
        B.[
          store (widx "vtable" (i 0)) (fn "ev_timer");
          store (widx "vtable" (i 1)) (fn "ev_packet");
          store (widx "vtable" (i 2)) (fn "ev_queue");
          store (widx "vtable" (i 3)) (fn "ev_stat");
          set "clock" (i 1);
          set "acc" (i 0);
          for_ "k" ~from:(i 0) ~below:(i events)
            [
              set "clock" (call "handle" [ v "k"; v "clock" ]);
              set "acc" ((v "acc" + v "clock") land i64 0xffffffffL);
            ];
          print (v "acc");
          ret (i 0);
        ];
    ]

(* leela: game-tree search, recursion with evaluation leaves *)
let leela variant =
  let rounds = 4 * scale variant in
  Ast.program
    [
      Ast.fdef "eval_leaf" ~params:[ "pos" ]
        ~locals:[ Ast.Scalar "j"; Ast.Scalar "sc" ]
        B.[
          set "sc" (v "pos");
          for_ "j" ~from:(i 0) ~below:(i 28)
            [ set "sc" ((v "sc" * i 31) lxor (v "sc" lsr i 11)) ];
          ret (v "sc" land i 0xffff);
        ];
      Ast.fdef "search" ~params:[ "pos"; "depth" ]
        ~locals:[ Ast.Scalar "best"; Ast.Scalar "m"; Ast.Scalar "sc" ]
        B.[
          if_ (v "depth" == i 0) [ ret (call "eval_leaf" [ v "pos" ]) ] [];
          (* move generation *)
          set "best" (v "pos");
          for_ "m" ~from:(i 0) ~below:(i 18)
            [ set "best" ((v "best" + (v "m" * i 7)) lxor (v "best" lsr i 9)) ];
          set "best" (i 0);
          for_ "m" ~from:(i 0) ~below:(i 3)
            [
              set "sc" (call "search" [ (v "pos" * i 3) + v "m"; v "depth" - i 1 ]);
              if_ (v "sc" > v "best") [ set "best" (v "sc") ] [];
            ];
          ret (v "best");
        ];
      Ast.fdef "main"
        ~locals:[ Ast.Scalar "k"; Ast.Scalar "total" ]
        B.[
          set "total" (i 0);
          for_ "k" ~from:(i 0) ~below:(i rounds)
            [ set "total" (v "total" + call "search" [ v "k" + i 1; i 5 ]) ];
          print (v "total");
          ret (i 0);
        ];
    ]

(* xalancbmk: tree transformation with string-hash leaves *)
let xalancbmk variant =
  let nodes = 420 * scale variant in
  Ast.program
    ~globals:[ ("tree", 8 * 256) ]
    [
      Ast.fdef "hash_name" ~params:[ "h"; "n" ]
        B.[ ret (((v "h" * i 131) + v "n") land i64 0x3fffffffL) ];
      Ast.fdef "transform" ~params:[ "node" ]
        ~locals:[ Ast.Scalar "h"; Ast.Scalar "j" ]
        B.[
          set "h" (load (widx "tree" (v "node" land i 255)));
          for_ "j" ~from:(i 0) ~below:(i 8)
            [ set "h" (call "hash_name" [ v "h"; v "node" + v "j" ]) ];
          for_ "j" ~from:(i 0) ~below:(i 10)
            [ set "h" ((v "h" + (v "j" * i 3)) lxor (v "h" lsr i 5)) ];
          store (widx "tree" (v "node" land i 255)) (v "h");
          ret (v "h");
        ];
      Ast.fdef "main"
        ~locals:[ Ast.Scalar "k"; Ast.Scalar "acc" ]
        B.[
          for_ "k" ~from:(i 0) ~below:(i 256) [ store (widx "tree" (v "k")) (v "k" * i 17) ];
          set "acc" (i 0);
          for_ "k" ~from:(i 0) ~below:(i nodes)
            [ set "acc" ((v "acc" + call "transform" [ v "k" ]) land i64 0xffffffffL) ];
          print (v "acc");
          ret (i 0);
        ];
    ]

(* --- catalogue --------------------------------------------------------- *)

let all =
  [
    { name = "perlbench"; description = "interpreter-style dispatch, very call-heavy"; program = perlbench };
    { name = "gcc"; description = "deep recursion and tail calls, call-heavy"; program = gcc };
    { name = "mcf"; description = "pointer chasing with periodic helpers"; program = mcf };
    { name = "lbm"; description = "stencil sweeps, no calls in the hot loop"; program = lbm };
    { name = "xz"; description = "byte-stream digesting in blocks"; program = xz };
    { name = "x264"; description = "block cost with leaf SAD helpers"; program = x264 };
    { name = "imagick"; description = "per-pixel arithmetic with per-row helper"; program = imagick };
    { name = "nab"; description = "nested arithmetic accumulation, few calls"; program = nab };
  ]

let cpp =
  [
    { name = "omnetpp"; description = "event simulation with vtable dispatch (C++-like)"; program = omnetpp };
    { name = "leela"; description = "game-tree search (C++-like)"; program = leela };
    { name = "xalancbmk"; description = "tree transformation (C++-like)"; program = xalancbmk };
  ]

let find name = List.find_opt (fun b -> b.name = name) (all @ cpp)

type measurement = {
  bench : string;
  variant : variant;
  scheme : Scheme.t;
  cycles : int;
  instructions : int;
  mem_ops : int;
  checksum : int64;
}

let measure ~scheme variant bench =
  let program = Compile.compile ~scheme (bench.program variant) in
  let m = Machine.load program in
  match Machine.run ~fuel:100_000_000 m with
  | Machine.Halted 0 -> (
    match List.rev (Machine.output m) with
    | checksum :: _ ->
      {
        bench = bench.name;
        variant;
        scheme;
        cycles = Machine.cycles m;
        instructions = Machine.instructions_retired m;
        mem_ops = Machine.memory_operations m;
        checksum;
      }
    | [] -> failwith (bench.name ^ ": no checksum printed"))
  | Machine.Halted c -> failwith (Printf.sprintf "%s: exit code %d" bench.name c)
  | Machine.Faulted f -> failwith (Printf.sprintf "%s: fault: %s" bench.name (Trap.to_string f))
  | Machine.Out_of_fuel -> failwith (bench.name ^ ": out of fuel")

let overhead_pct ~baseline m =
  Pacstack_util.Stats.overhead_pct ~baseline:(float_of_int baseline.cycles)
    ~measured:(float_of_int m.cycles)

let measure_cell ~variant ~scheme name =
  match find name with
  | Some bench -> measure ~scheme variant bench
  | None -> failwith ("Speclike.measure_cell: unknown benchmark " ^ name)

module Word64 = Pacstack_util.Word64
module Rng = Pacstack_util.Rng
module Config = Pacstack_pa.Config
module Machine = Pacstack_machine.Machine
module Scheme = Pacstack_harden.Scheme
module Ast = Pacstack_minic.Ast
module B = Pacstack_minic.Build
module Compile = Pacstack_minic.Compile
module Scenarios = Pacstack_workloads.Scenarios

(* main prints f's result before returning, so a surviving stage-1 guess
   (f returned despite the forged chain slot) is observable to the
   adversary even though main's own return then crashes. *)
let victim =
  Ast.program
    [
      Scenarios.(
        Ast.fdef "f" ~locals:[ Ast.Scalar "t" ]
          B.[
            Ast.Hook overwrite_hook;
            set "t" (call "id" [ i 55 ]);
            ret (v "t");
          ]);
      Ast.fdef "id" ~params:[ "x" ] B.[ ret (v "x") ];
      Ast.fdef "main" ~locals:[ Ast.Scalar "x" ]
        B.[
          set "x" (call "f" []);
          print (v "x");
          ret (i 0);
        ];
    ]

let total_guesses ?(pac_bits = 6) ~trials rng =
  if trials <= 0 then invalid_arg "Bruteforce.total_guesses";
  let cfg = Config.make ~pac_bits () in
  let program = Compile.compile ~scheme:Scheme.pacstack victim in
  let space = Int64.to_int (Word64.mask pac_bits) + 1 in
  let total = ref 0 in
  for _ = 1 to trials do
    (* one parent per trial: fresh PA keys, i.e. a fresh program start *)
    let parent = Machine.load ~cfg ~rng:(Rng.split rng) program in
    (* any canonical address serves as the injected jump target *)
    let evil = 0x7000_0000L in
    let rec guess n =
      (* sibling n: a fork of the parent, sharing its keys *)
      let child = Machine.clone parent in
      let forged =
        let address = Int64.add evil (Int64.of_int (8 * (n / space))) in
        Pacstack_pa.Pointer.with_pac_field cfg address (Int64.of_int (n mod space))
      in
      Machine.attach_hook child Scenarios.overwrite_hook (fun m ->
          ignore (Adversary.write m (Adversary.chain_slot m) forged));
      let _ = Machine.run ~fuel:100_000 child in
      Machine.detach_hook child Scenarios.overwrite_hook;
      if List.exists (Word64.equal 55L) (Machine.output child) then n + 1 else guess (n + 1)
    in
    total := !total + guess 0
  done;
  !total

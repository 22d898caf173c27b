module Word64 = Pacstack_util.Word64
module Machine = Pacstack_machine.Machine
module Scheme = Pacstack_harden.Scheme
module Compile = Pacstack_minic.Compile
module Scenarios = Pacstack_workloads.Scenarios

type strategy = Arbitrary_redirect | Sibling_reuse | Linear_overflow

exception Missing_evil_function of { symbol : string; scheme : Scheme.t }

let () =
  Printexc.register_printer (function
    | Missing_evil_function { symbol; scheme } ->
      Some
        (Printf.sprintf "Reuse.Missing_evil_function(victim has no %S under scheme %s)" symbol
           (Scheme.to_string scheme))
    | _ -> None)

let strategy_to_string = function
  | Arbitrary_redirect -> "arbitrary redirect"
  | Sibling_reuse -> "sibling PAC reuse"
  | Linear_overflow -> "linear buffer overflow"

let all_strategies = [ Arbitrary_redirect; Sibling_reuse; Linear_overflow ]

let rounds = 3

type loot = {
  mutable ret_value : Word64.t option;  (* a's stored return-address slot *)
  mutable chain_value : Word64.t option;  (* a's stored aret_{i-1} *)
  mutable shadow_value : Word64.t option;  (* a's shadow-stack entry *)
  mutable fired : bool;
}

let harvest m loot =
  if loot.ret_value = None then begin
    loot.ret_value <- Adversary.read m (Adversary.return_slot m);
    loot.chain_value <- Adversary.read m (Adversary.chain_slot m);
    loot.shadow_value <-
      Option.bind (Adversary.shadow_top_slot m) (fun slot -> Adversary.read m slot)
  end

let inject ~scheme ~strategy m loot =
  if not loot.fired then begin
    loot.fired <- true;
    let evil =
      match Adversary.symbol m "evil" with
      | Some a -> a
      | None -> raise (Missing_evil_function { symbol = "evil"; scheme })
    in
    let poke addr v = ignore (Adversary.write m addr v) in
    (* besides the saved LR, hit whatever extra word the scheme's
       epilogue derives the return target from *)
    let poke_control_slot v =
      match Scheme.control_slot scheme with
      | Scheme.Return_slot -> ()
      | Scheme.Chain_slot -> Option.iter (fun x -> poke (Adversary.chain_slot m) x) v
      | Scheme.Shadow_slot -> (
        match Adversary.shadow_top_slot m with
        | Some slot -> Option.iter (poke slot) v
        | None -> ())
    in
    match strategy with
    | Arbitrary_redirect ->
      poke (Adversary.return_slot m) evil;
      poke_control_slot (Some evil)
    | Sibling_reuse -> (
      Option.iter (poke (Adversary.return_slot m)) loot.ret_value;
      match Scheme.control_slot scheme with
      | Scheme.Return_slot -> ()
      | Scheme.Chain_slot -> Option.iter (poke (Adversary.chain_slot m)) loot.chain_value
      | Scheme.Shadow_slot -> (
        match Adversary.shadow_top_slot m with
        | Some slot -> Option.iter (poke slot) loot.shadow_value
        | None -> ()))
    | Linear_overflow ->
      (* a contiguous sled from below b's locals up through the frame
         record — trampling buffers, spill slots, the canary, the PACStack
         chain slot and the stored return address alike *)
      let fp = Adversary.frame_record m in
      let rec sled addr =
        if Int64.unsigned_compare addr (Int64.add fp 8L) <= 0 then begin
          poke addr evil;
          sled (Int64.add addr 8L)
        end
      in
      sled (Int64.sub fp 168L)
  end

let attack ~scheme ?(overrides = []) ?victim strategy =
  let victim = match victim with Some v -> v | None -> Scenarios.listing6 ~rounds in
  let expected = Adversary.benign_output scheme victim in
  let program = Compile.compile ~scheme ~overrides victim in
  let m = Machine.load program in
  let loot = { ret_value = None; chain_value = None; shadow_value = None; fired = false } in
  Machine.attach_hook m Scenarios.disclose_hook (fun m -> harvest m loot);
  Machine.attach_hook m Scenarios.overwrite_hook (fun m -> inject ~scheme ~strategy m loot);
  let outcome = Machine.run ~fuel:300_000 m in
  Adversary.classify ~expected m outcome

let matrix () =
  List.map
    (fun strategy ->
      (strategy, List.map (fun scheme -> (scheme, attack ~scheme strategy)) Scheme.all))
    all_strategies

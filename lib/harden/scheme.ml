(* The hardening-scheme registry.

   A scheme is one self-describing {!descriptor} — name/aliases, the
   prologue/epilogue codegen, the injectable control slot, observability
   (§3 adversary), chain-register use, setjmp/longjmp entries and
   function-pointer sealing hooks — registered once here.  [t] is an
   opaque registry index (a plain immediate int, so it marshals across
   the campaign engine's fork-based process pools and compares with
   polymorphic equality), and every consumer reads descriptors through
   the accessors of this module.

   The six legacy schemes emit byte-for-byte the sequences the old
   match ladders produced (pinned by test_engine's differential suite
   and the fuzz oracle); the four new ones come from the related work
   in PAPERS.md: PCan, Zipper Stack, PACTight sealing and PARTS-style
   forward-edge [pacia]. *)

module Instr = Pacstack_isa.Instr
module Reg = Pacstack_isa.Reg
module Cond = Pacstack_isa.Cond
module Obs = Pacstack_obs.Obs

type t = int

type traits = { is_leaf : bool; has_arrays : bool; locals_bytes : int }

type slot = Return_slot | Chain_slot | Shadow_slot

type descriptor = {
  name : string;  (** canonical name; [to_string] returns it *)
  aliases : string list;  (** extra spellings accepted by [of_string] *)
  prologue : traits -> Instr.t list;
  epilogue : traits -> Instr.t list;  (** ends in the returning instruction *)
  control_slot : slot;
  observable : bool;
  chained_signal : bool;  (** kernel validates sigreturn frames (Appendix B) *)
  setjmp_symbol : string;
  longjmp_symbol : string;
  fnptr_seal : Reg.t -> Instr.t list;  (** appended after [adr rd, func] *)
  fnptr_call : Reg.t -> Instr.t list;  (** the whole indirect-call sequence *)
}

exception Duplicate_scheme of { name : string; key : string }

let () =
  Printexc.register_printer (function
    | Duplicate_scheme { name; key } ->
      Some
        (Printf.sprintf
           "Scheme.Duplicate_scheme(registering %S: name or alias %S already taken)" name
           key)
    | _ -> None)

let registry : descriptor array ref = ref [||]
let by_name : (string, int) Hashtbl.t = Hashtbl.create 64

let register d =
  let id = Array.length !registry in
  let keys = List.map String.lowercase_ascii (d.name :: d.aliases) in
  (* Reject before claiming anything: a failed registration must leave
     the table untouched, or [of_string] could hand out an index with
     no descriptor behind it. *)
  List.iter
    (fun key ->
      if Hashtbl.mem by_name key then raise (Duplicate_scheme { name = d.name; key }))
    keys;
  List.iter (fun key -> Hashtbl.replace by_name key id) keys;
  registry := Array.append !registry [| d |];
  id

let registered_count () = Array.length !registry
let descriptor t = !registry.(t)
let to_string t = (descriptor t).name

(* Total over everything [to_string] can produce by construction: the
   canonical name is claimed in [by_name] at registration, so a
   registered scheme always round-trips. *)
let of_string s = Hashtbl.find_opt by_name (String.lowercase_ascii s)

let pp fmt t = Format.pp_print_string fmt (to_string t)
let equal (a : t) (b : t) = Int.equal a b
let chained_signal t = (descriptor t).chained_signal
let fnptr_seal t = (descriptor t).fnptr_seal
let fnptr_call t = (descriptor t).fnptr_call
let prologue t = (descriptor t).prologue
let epilogue t = (descriptor t).epilogue
let control_slot t = (descriptor t).control_slot
let observable t = (descriptor t).observable

let traits ?(is_leaf = false) ?(has_arrays = false) ?(locals_bytes = 0) () =
  if locals_bytes < 0 || locals_bytes land 15 <> 0 then
    invalid_arg "Scheme.traits: locals_bytes must be 16-byte aligned";
  { is_leaf; has_arrays; locals_bytes }

(* ------------------------------------------------------------------ *)
(* Shared codegen (the moral AArch64FrameLowering)                     *)

(* Relative to a non-leaf function's FP (see push_record and
   pacstack_prologue below). *)
let return_slot_offset = 8
let chain_spill_offset = -16

let stack_chk_fail_symbol = "__stack_chk_fail"
let canary_failure_exit_code = 134
let guard_symbol = "__stack_chk_guard"
let canary_slot t = t.locals_bytes + 8

let sub_sp n = if n = 0 then [] else [ Instr.Sub (Reg.SP, Reg.SP, Instr.Imm (Int64.of_int n)) ]
let add_sp n = if n = 0 then [] else [ Instr.Add (Reg.SP, Reg.SP, Instr.Imm (Int64.of_int n)) ]

let mem base offset index = { Instr.base; offset; index }

(* Standard frame record push/pop. *)
let push_record =
  [ Instr.Stp (Reg.fp, Reg.lr, mem Reg.SP (-16) Instr.Pre); Instr.Mov (Reg.fp, Instr.Reg Reg.SP) ]

let pop_record = [ Instr.Ldp (Reg.fp, Reg.lr, mem Reg.SP 16 Instr.Post) ]

let x9 = Reg.x 9
let x10 = Reg.x 10
let x15 = Reg.scratch
let x18 = Reg.shadow
let x28 = Reg.cr

let canary_store t =
  [
    Instr.Adr (x9, guard_symbol);
    Instr.Ldr (x9, mem x9 0 Instr.Offset);
    Instr.Str (x9, mem Reg.SP (canary_slot t) Instr.Offset);
  ]

let canary_check t =
  [
    Instr.Ldr (x9, mem Reg.SP (canary_slot t) Instr.Offset);
    Instr.Adr (x10, guard_symbol);
    Instr.Ldr (x10, mem x10 0 Instr.Offset);
    Instr.Cmp (x9, Instr.Reg x10);
    Instr.Bcond (Cond.NE, stack_chk_fail_symbol);
  ]

(* The PACStack mask sequence of Listing 3: X15 <- pacia(0, CR), applied to
   LR with an exclusive-or, then cleared. *)
let mask_apply =
  [
    Instr.Mov (x15, Instr.Reg Reg.XZR);
    Instr.Pacia (x15, x28);
    Instr.Eor (Reg.lr, Reg.lr, Instr.Reg x15);
    Instr.Mov (x15, Instr.Reg Reg.XZR);
  ]

let pacstack_prologue ~masked =
  [
    Instr.Str (x28, mem Reg.SP (-32) Instr.Pre);
    Instr.Stp (Reg.fp, Reg.lr, mem Reg.SP 16 Instr.Offset);
    Instr.Add (Reg.fp, Reg.SP, Instr.Imm 16L);
    Instr.Pacia (Reg.lr, x28);
  ]
  @ (if masked then mask_apply else [])
  @ [ Instr.Mov (x28, Instr.Reg Reg.lr) ]

let pacstack_epilogue ~masked =
  [
    Instr.Mov (Reg.lr, Instr.Reg x28);
    Instr.Ldr (Reg.fp, mem Reg.SP 16 Instr.Offset);
    Instr.Ldr (x28, mem Reg.SP 32 Instr.Post);
  ]
  @ (if masked then mask_apply else [])
  @ [ Instr.Autia (Reg.lr, x28); Instr.Ret Reg.lr ]

(* Counts the PA instrumentation a pass emits (compile-time events, not
   executions — the machine counts those): [harden.emit.pac]/[.aut] per
   scheme, and [.chain_link] for the ACS link operations whose modifier
   is the chain register. *)
let obs_count_emitted name instrs =
  if Obs.enabled () then begin
    let label = "{scheme=" ^ name ^ "}" in
    List.iter
      (function
        | Instr.Pacia (_, rn) ->
          Obs.Metrics.incr ("harden.emit.pac" ^ label);
          if rn = x28 then Obs.Metrics.incr ("harden.emit.chain_link" ^ label)
        | Instr.Paciasp | Instr.Pacga _ -> Obs.Metrics.incr ("harden.emit.pac" ^ label)
        | Instr.Autia (_, rn) ->
          Obs.Metrics.incr ("harden.emit.aut" ^ label);
          if rn = x28 then Obs.Metrics.incr ("harden.emit.chain_link" ^ label)
        | Instr.Autiasp | Instr.Retaa -> Obs.Metrics.incr ("harden.emit.aut" ^ label)
        | _ -> ())
      instrs
  end;
  instrs

(* Leaf functions (no calls) never spill LR and are skipped by the
   LR-protecting schemes, mirroring the paper's §7.1 heuristic. *)
let leaf_prologue t = sub_sp t.locals_bytes
let leaf_epilogue t = add_sp t.locals_bytes @ [ Instr.Ret Reg.lr ]
let plain_prologue t = push_record @ sub_sp t.locals_bytes
let plain_epilogue t = add_sp t.locals_bytes @ pop_record @ [ Instr.Ret Reg.lr ]

let no_seal (_ : Reg.t) = []
let plain_call r = [ Instr.Blr r ]

(* Defaults shared by most descriptors; each scheme overrides what it
   actually changes. *)
let base name =
  {
    name;
    aliases = [];
    prologue = (fun t -> obs_count_emitted name (if t.is_leaf then leaf_prologue t else plain_prologue t));
    epilogue = (fun t -> obs_count_emitted name (if t.is_leaf then leaf_epilogue t else plain_epilogue t));
    control_slot = Return_slot;
    observable = true;
    chained_signal = false;
    setjmp_symbol = "setjmp";
    longjmp_symbol = "longjmp";
    fnptr_seal = no_seal;
    fnptr_call = plain_call;
  }

(* ------------------------------------------------------------------ *)
(* The six legacy schemes (§7), bit-identical to the old match ladders *)

let unprotected = register { (base "baseline") with aliases = [ "none"; "unprotected" ] }

let stack_protector =
  let name = "stack-protector-strong" in
  register
    {
      (base name) with
      aliases = [ "canary" ];
      (* canary frames take priority over the leaf shortcut: a leaf
         holding addressable buffers still gets the guard *)
      prologue =
        (fun t ->
          obs_count_emitted name
            (if t.has_arrays then push_record @ sub_sp (t.locals_bytes + 16) @ canary_store t
             else if t.is_leaf then leaf_prologue t
             else plain_prologue t));
      epilogue =
        (fun t ->
          obs_count_emitted name
            (if t.has_arrays then
               canary_check t @ add_sp (t.locals_bytes + 16) @ pop_record @ [ Instr.Ret Reg.lr ]
             else if t.is_leaf then leaf_epilogue t
             else plain_epilogue t));
    }

let branch_protection =
  let name = "branch-protection" in
  register
    {
      (base name) with
      aliases = [ "mbranch-protection" ];
      prologue =
        (fun t ->
          obs_count_emitted name
            (if t.is_leaf then leaf_prologue t
             else (Instr.Paciasp :: push_record) @ sub_sp t.locals_bytes));
      epilogue =
        (fun t ->
          obs_count_emitted name
            (if t.is_leaf then leaf_epilogue t
             else add_sp t.locals_bytes @ pop_record @ [ Instr.Retaa ]));
    }

let shadow_stack =
  let name = "shadow-call-stack" in
  register
    {
      (base name) with
      aliases = [ "shadowcallstack"; "scs" ];
      prologue =
        (fun t ->
          obs_count_emitted name
            (if t.is_leaf then leaf_prologue t
             else
               (Instr.Str (Reg.lr, mem x18 8 Instr.Post) :: push_record) @ sub_sp t.locals_bytes));
      epilogue =
        (fun t ->
          obs_count_emitted name
            (if t.is_leaf then leaf_epilogue t
             else
               add_sp t.locals_bytes @ pop_record
               @ [ Instr.Ldr (Reg.lr, mem x18 (-8) Instr.Pre); Instr.Ret Reg.lr ]));
      control_slot = Shadow_slot;
    }

let pacstack_variant ~masked =
  let name = if masked then "pacstack" else "pacstack-nomask" in
  register
    {
      (base name) with
      prologue =
        (fun t ->
          obs_count_emitted name
            (if t.is_leaf then leaf_prologue t
             else pacstack_prologue ~masked @ sub_sp t.locals_bytes));
      epilogue =
        (fun t ->
          obs_count_emitted name
            (if t.is_leaf then leaf_epilogue t
             else add_sp t.locals_bytes @ pacstack_epilogue ~masked));
      control_slot = Chain_slot;
      (* masked spills are indistinguishable from random (Appendix A) *)
      observable = not masked;
      chained_signal = true;
      setjmp_symbol = "__pacstack_setjmp";
      longjmp_symbol = "__pacstack_longjmp";
    }

let pacstack_nomask = pacstack_variant ~masked:false
let pacstack = pacstack_variant ~masked:true

(* ------------------------------------------------------------------ *)
(* The related-work zoo (PAPERS.md)                                    *)

(* PCan: per-function PAC'd canaries.  Instead of the global
   __stack_chk_guard word, the canary is [pacga(LR, SP)] — bound to the
   concrete return address and frame — computed in the prologue, stored
   in the stack-protector slot, recomputed in the epilogue from the
   *saved* LR and compared.  A corrupted saved return address (or
   canary) aborts with the canary exit code before the return
   executes. *)
let pcan =
  let name = "pcan" in
  let prologue t =
    push_record
    @ sub_sp (t.locals_bytes + 16)
    @ [ Instr.Pacga (x9, Reg.lr, Reg.SP); Instr.Str (x9, mem Reg.SP (canary_slot t) Instr.Offset) ]
  in
  let epilogue t =
    [
      Instr.Ldr (x9, mem Reg.SP (canary_slot t) Instr.Offset);
      (* the frame record's saved LR, SP-relative: fp + 8 = sp + locals + 24 *)
      Instr.Ldr (x10, mem Reg.SP (t.locals_bytes + 24) Instr.Offset);
      Instr.Pacga (x10, x10, Reg.SP);
      Instr.Cmp (x9, Instr.Reg x10);
      Instr.Bcond (Cond.NE, stack_chk_fail_symbol);
    ]
    @ add_sp (t.locals_bytes + 16)
    @ pop_record @ [ Instr.Ret Reg.lr ]
  in
  register
    {
      (base name) with
      aliases = [ "pacd-canary"; "pac-canary" ];
      prologue =
        (fun t -> obs_count_emitted name (if t.is_leaf then leaf_prologue t else prologue t));
      epilogue =
        (fun t -> obs_count_emitted name (if t.is_leaf then leaf_epilogue t else epilogue t));
    }

(* Zipper Stack: the top register X28 holds a running hash of the whole
   return chain — [top_i = H(ret_i, top_{i-1})] via [pacga] — with no
   masking.  The prologue spills the previous top next to the frame
   record (same layout as the PACStack CR spill) and absorbs the new
   return address; the epilogue recomputes the hash from the two stack
   words and compares it against the register before restoring either.
   Tampering with the saved LR, the spilled top or X28 itself makes the
   compare fail and aborts. *)
let zipper =
  let name = "zipper-stack" in
  let prologue t =
    [
      Instr.Str (x28, mem Reg.SP (-32) Instr.Pre);
      Instr.Stp (Reg.fp, Reg.lr, mem Reg.SP 16 Instr.Offset);
      Instr.Add (Reg.fp, Reg.SP, Instr.Imm 16L);
      Instr.Pacga (x28, Reg.lr, x28);
    ]
    @ sub_sp t.locals_bytes
  in
  let epilogue t =
    add_sp t.locals_bytes
    @ [
        Instr.Ldr (x9, mem Reg.SP 24 Instr.Offset) (* saved LR (fp + 8) *);
        Instr.Ldr (x10, mem Reg.SP 0 Instr.Offset) (* spilled previous top (fp - 16) *);
        Instr.Pacga (x15, x9, x10);
        Instr.Cmp (x15, Instr.Reg x28);
        Instr.Bcond (Cond.NE, stack_chk_fail_symbol);
        Instr.Mov (Reg.lr, Instr.Reg x9);
        Instr.Ldr (Reg.fp, mem Reg.SP 16 Instr.Offset);
        Instr.Mov (x28, Instr.Reg x10);
        Instr.Add (Reg.SP, Reg.SP, Instr.Imm 32L);
        Instr.Ret Reg.lr;
      ]
  in
  register
    {
      (base name) with
      aliases = [ "zipper" ];
      prologue =
        (fun t -> obs_count_emitted name (if t.is_leaf then leaf_prologue t else prologue t));
      epilogue =
        (fun t -> obs_count_emitted name (if t.is_leaf then leaf_epilogue t else epilogue t));
      (* the hash tokens sit readable on the stack; nothing masks them *)
    }

(* PACTight-style pointer sealing: function pointers are signed with
   [pacia] at creation (zero modifier — one global pointer context) and
   authenticated immediately before every indirect call, so a corrupted
   function-pointer table entry authenticates to a non-canonical address
   and traps at the [blr].  Backward edge is deliberately left at the
   baseline: the scheme isolates the forward-edge contribution. *)
let pactight =
  register
    {
      (base "pactight") with
      aliases = [ "pactight-seal" ];
      fnptr_seal = (fun rd -> [ Instr.Pacia (rd, Reg.XZR) ]);
      fnptr_call = (fun r -> [ Instr.Autia (r, Reg.XZR); Instr.Blr r ]);
    }

(* PARTS-style forward-edge protection: [paciasp]/[retaa] on the
   backward edge (exactly branch-protection's Listing 1 frames) plus
   type-id-keyed [pacia] on every code pointer — the modifier is the
   pointer's static type id, materialised in X15 around the sign and
   authenticate.  Our mini-C has one function-pointer type, so one
   type id. *)
let parts =
  let name = "parts" in
  let type_id = 17L in
  register
    {
      (base name) with
      aliases = [ "parts-fwd"; "pauth-cfi" ];
      prologue =
        (fun t ->
          obs_count_emitted name
            (if t.is_leaf then leaf_prologue t
             else (Instr.Paciasp :: push_record) @ sub_sp t.locals_bytes));
      epilogue =
        (fun t ->
          obs_count_emitted name
            (if t.is_leaf then leaf_epilogue t
             else add_sp t.locals_bytes @ pop_record @ [ Instr.Retaa ]));
      fnptr_seal =
        (fun rd ->
          [
            Instr.Mov (x15, Instr.Imm type_id);
            Instr.Pacia (rd, x15);
            Instr.Mov (x15, Instr.Reg Reg.XZR);
          ]);
      fnptr_call =
        (fun r ->
          [
            Instr.Mov (x15, Instr.Imm type_id);
            Instr.Autia (r, x15);
            Instr.Mov (x15, Instr.Reg Reg.XZR);
            Instr.Blr r;
          ]);
    }

(* ------------------------------------------------------------------ *)

let legacy =
  [ unprotected; stack_protector; branch_protection; shadow_stack; pacstack_nomask; pacstack ]

let all = legacy @ [ pcan; zipper; pactight; parts ]

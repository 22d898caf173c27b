module Word64 = Pacstack_util.Word64
module Rng = Pacstack_util.Rng
module Stats = Pacstack_util.Stats
module Prf = Pacstack_pa.Prf

type estimate = {
  successes : int;
  trials : int;
  rate : float;
  ci_low : float;
  ci_high : float;
}

let estimate ~successes ~trials =
  if trials <= 0 then invalid_arg "Games.estimate";
  let ci_low, ci_high = Stats.wilson ~successes ~trials in
  { successes; trials; rate = float_of_int successes /. float_of_int trials; ci_low; ci_high }

(* Pooling two binomial samples is associative and commutative on the
   (successes, trials) pair; the derived fields are recomputed, so merged
   shard estimates are identical however the campaign ordered them. *)
let merge_estimates a b = estimate ~successes:(a.successes + b.successes) ~trials:(a.trials + b.trials)

let pp_estimate fmt e =
  Format.fprintf fmt "%d/%d = %.2e [%.2e, %.2e]" e.successes e.trials e.rate e.ci_low e.ci_high

let token prf ~bits ~data ~modifier = Prf.mac prf ~bits ~data ~modifier

(* --- §6.2.1 birthday harvesting -------------------------------------- *)

let birthday_total ?(bits = 16) ~trials rng =
  if trials <= 0 then invalid_arg "Games.birthday_total";
  let total = ref 0 in
  for _ = 1 to trials do
    let prf = Prf.of_rng rng in
    let ret_c = Rng.next64 rng in
    let seen = Hashtbl.create 512 in
    let rec harvest n =
      let modifier = Rng.next64 rng in
      let t = token prf ~bits ~data:ret_c ~modifier in
      if Hashtbl.mem seen t then n + 1
      else begin
        Hashtbl.replace seen t ();
        harvest (n + 1)
      end
    in
    total := !total + harvest 0
  done;
  !total

(* --- Table 1 cells ---------------------------------------------------- *)

(* The §6.2 attack template: function C was set up to return to ret_A via
   aret_A (token over modifier m_A); the adversary substitutes aret_B and
   wins (AG-Load) iff H(ret_C, aret_B) = H(ret_C, aret_A); for arbitrary
   targets it additionally needs the forged token inside aret_B to verify
   (AG-Jump). *)

let mask prf ~bits ~modifier = token prf ~bits ~data:0L ~modifier

let on_graph_trial ~masked ~bits ~harvest prf rng =
  let ret_c = Rng.next64 rng in
  (* Harvest [harvest] authenticated return addresses for ret_C along
     distinct paths (distinct previous-aret modifiers): entry k's
     modifier is the k-th of the next [harvest] draws. The adversary sees
     the stored (possibly masked) token together with its modifier. The
     first visible collision alone decides the pair, so entries are read
     lazily ([Rng.peek]) and the scan stops there: at b = 8 that is ~20
     draws into a harvest of hundreds. The stream skips the whole
     harvest, so every later draw is where drawing it in full leaves it. *)
  let harvested = Rng.copy rng in
  Rng.skip rng harvest;
  let token_at k = token prf ~bits ~data:ret_c ~modifier:(Rng.peek harvested k) in
  let visible k =
    let t = token_at k in
    if masked then Int64.logxor t (mask prf ~bits ~modifier:(Rng.peek harvested k)) else t
  in
  let seen = Hashtbl.create 64 in
  let rec first_visible_collision k =
    if k = harvest then None
    else
      let v = visible k in
      match Hashtbl.find_opt seen v with
      | Some j -> Some (j, k)
      | None ->
        Hashtbl.replace seen v k;
        first_visible_collision (k + 1)
  in
  (* The substitution pair: with visible collisions, a real one;
     otherwise (masking) any pair. *)
  let i, j =
    match first_visible_collision 0 with
    | Some p -> p
    | None ->
      let i = Rng.int rng harvest in
      let j = (i + 1 + Rng.int rng (harvest - 1)) mod harvest in
      (i, j)
  in
  (* AG-Load succeeds iff the true (unmasked) tokens collide. *)
  Word64.equal (token_at i) (token_at j)

let off_graph_trial ~arbitrary ~bits prf rng =
  let ret_c = Rng.next64 rng in
  let aret_a = Rng.next64 rng in
  let aret_b = Rng.next64 rng in
  let load_ok =
    Word64.equal (token prf ~bits ~data:ret_c ~modifier:aret_a)
      (token prf ~bits ~data:ret_c ~modifier:aret_b)
  in
  if not arbitrary then load_ok
  else
    (* AG-Jump: the token embedded in aret_B must also verify for a
       never-signed target address; the adversary can only guess it. *)
    let ret_b = Rng.next64 rng in
    let guessed = Rng.bits rng bits in
    load_ok && Word64.equal guessed (token prf ~bits ~data:ret_b ~modifier:(Rng.next64 rng))

let violation_success ~masked ~kind ~bits ?(harvest = 2000) ~trials rng =
  if trials <= 0 then invalid_arg "Games.violation_success";
  let successes = ref 0 in
  for _ = 1 to trials do
    let prf = Prf.of_rng rng in
    let ok =
      match (kind : Analysis.violation_kind) with
      | Analysis.On_graph -> on_graph_trial ~masked ~bits ~harvest prf rng
      | Analysis.Off_graph_to_call_site -> off_graph_trial ~arbitrary:false ~bits prf rng
      | Analysis.Off_graph_arbitrary -> off_graph_trial ~arbitrary:true ~bits prf rng
    in
    if ok then incr successes
  done;
  estimate ~successes:!successes ~trials

(* --- Appendix A distinguisher ----------------------------------------- *)

let mask_distinguisher_advantage ~bits ~queries ~trials rng =
  if trials <= 0 || queries < 2 then invalid_arg "Games.mask_distinguisher_advantage";
  let correct = ref 0 in
  for _ = 1 to trials do
    let prf = Prf.of_rng rng in
    let real = Rng.bool rng in
    let data = Rng.next64 rng in
    (* Sample the visible stream: masked real tokens or uniform noise. *)
    let sample () =
      if real then
        let modifier = Rng.next64 rng in
        Int64.logxor (token prf ~bits ~data ~modifier) (mask prf ~bits ~modifier)
      else Rng.bits rng bits
    in
    (* Distinguisher: compare the observed collision count against the
       birthday expectation for uniform tokens; guess "real" when below. *)
    let seen = Hashtbl.create queries in
    let collisions = ref 0 in
    for _ = 1 to queries do
      let v = sample () in
      if Hashtbl.mem seen v then incr collisions else Hashtbl.replace seen v ()
    done;
    let expected =
      float_of_int (queries * (queries - 1)) /. (2.0 *. (2.0 ** float_of_int bits))
    in
    let guess_real = float_of_int !collisions < expected in
    if guess_real = real then incr correct
  done;
  abs_float ((float_of_int !correct /. float_of_int trials) -. 0.5)

(* --- Appendix A, Theorem 1 -------------------------------------------------- *)

type theorem1 = {
  collision_advantage : float;
  distinguisher_advantage : float;
  bound : float;
  holds : bool;
}

let theorem1_check ~bits ~queries ~trials rng =
  (* G-PAC-Collision: the adversary sees [queries] masked tokens and names
     a pair it believes collides; its advantage is the success rate beyond
     the blind 2^-b baseline. *)
  let successes = ref 0 in
  for _ = 1 to trials do
    let prf = Prf.of_rng rng in
    let data = Rng.next64 rng in
    let entries =
      Array.init queries (fun _ ->
          let modifier = Rng.next64 rng in
          let t = token prf ~bits ~data ~modifier in
          (t, Int64.logxor t (mask prf ~bits ~modifier)))
    in
    (* best effort: pick a visibly-colliding masked pair if any, else any *)
    let pick =
      let seen = Hashtbl.create queries in
      let found = ref None in
      Array.iteri
        (fun i (_, visible) ->
          match Hashtbl.find_opt seen visible with
          | Some j when !found = None -> found := Some (j, i)
          | Some _ | None -> Hashtbl.replace seen visible i)
        entries;
      match !found with
      | Some p -> p
      | None -> (0, 1 + Rng.int rng (queries - 1))
    in
    let (t1, _), (t2, _) = (entries.(fst pick), entries.(snd pick)) in
    if Word64.equal t1 t2 then incr successes
  done;
  let collision_advantage =
    Float.max 0.0
      ((float_of_int !successes /. float_of_int trials) -. (2.0 ** float_of_int (-bits)))
  in
  let distinguisher_advantage = mask_distinguisher_advantage ~bits ~queries ~trials rng in
  (* three-sigma Monte-Carlo slack on both estimates *)
  let slack = 3.0 /. sqrt (float_of_int trials) in
  let bound = (2.0 *. distinguisher_advantage) +. slack in
  { collision_advantage; distinguisher_advantage; bound; holds = collision_advantage <= bound }

(* --- §4.3 guessing ----------------------------------------------------- *)

type guess_strategy = Divide_and_conquer | Reseeded | Independent

let pp_guess_strategy fmt = function
  | Divide_and_conquer -> Format.pp_print_string fmt "divide-and-conquer (shared keys)"
  | Reseeded -> Format.pp_print_string fmt "re-seeded chains"
  | Independent -> Format.pp_print_string fmt "independent joint guess"

let guessing_total ~strategy ~bits ~trials rng =
  if trials <= 0 then invalid_arg "Games.guessing_total";
  let space = Int64.to_int (Word64.mask bits) + 1 in
  let total = ref 0 in
  for _ = 1 to trials do
    let guesses = ref 0 in
    (match strategy with
    | Divide_and_conquer ->
      (* The token answers are fixed across siblings (inherited chain
         state), so each stage is enumerated without replacement. *)
      let stage () =
        let answer = Rng.int rng space in
        guesses := !guesses + answer + 1
      in
      stage ();
      stage ()
    | Reseeded ->
      (* Every sibling re-seeds its chain: each guess faces a fresh
         uniform answer, so a stage is geometric with mean 2^b. *)
      let stage () =
        let rec go () =
          incr guesses;
          if Rng.int rng space <> 0 then go ()
        in
        go ()
      in
      stage ();
      stage ()
    | Independent ->
      (* One shot must get both tokens right. *)
      let rec go () =
        incr guesses;
        if not (Rng.int rng space = 0 && Rng.int rng space = 0) then go ()
      in
      go ());
    total := !total + !guesses
  done;
  !total

(* Tests for the pointer-authentication layer: pointer layout, PAC
   computation/verification and the architectural corner cases the paper's
   attacks depend on (error-bit propagation, the pac-on-invalid bit flip). *)

module Word64 = Pacstack_util.Word64
module Rng = Pacstack_util.Rng
module Config = Pacstack_pa.Config
module Pointer = Pacstack_pa.Pointer
module Pac = Pacstack_pa.Pac
module Keys = Pacstack_pa.Keys
module Prf = Pacstack_pa.Prf

let check_w64 = Alcotest.testable Word64.pp Word64.equal
let qtest name count gen prop = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

let cfg = Config.default
let prf = Prf.create 0xfeedL

let canonical_gen =
  QCheck2.Gen.(map (fun a -> Int64.logand (Int64.of_int a) (Word64.mask 39)) int)

let modifier_gen =
  QCheck2.Gen.(
    map2 (fun a b -> Int64.logxor (Int64.of_int a) (Int64.shift_left (Int64.of_int b) 31)) int int)

(* --- Config ---------------------------------------------------------------- *)

let test_config_default () =
  Alcotest.(check int) "va_size 39" 39 cfg.Config.va_size;
  Alcotest.(check int) "16 PAC bits" 16 cfg.Config.pac_bits;
  Alcotest.(check int) "pac_lo" 39 (Config.pac_lo cfg);
  Alcotest.(check int) "error bit 63" 63 (Config.error_bit cfg)

let test_config_validation () =
  Alcotest.check_raises "too many PAC bits" (Invalid_argument "Pa.Config.make: pac_bits")
    (fun () -> ignore (Config.make ~va_size:39 ~pac_bits:17 ()));
  Alcotest.check_raises "zero PAC bits" (Invalid_argument "Pa.Config.make: pac_bits")
    (fun () -> ignore (Config.make ~pac_bits:0 ()));
  Alcotest.check_raises "bad va_size" (Invalid_argument "Pa.Config.make: va_size") (fun () ->
      ignore (Config.make ~va_size:60 ()));
  Alcotest.check_raises "wider than Prf.mac" (Invalid_argument "Pa.Config.make: pac_bits")
    (fun () -> ignore (Config.make ~va_size:16 ~pac_bits:33 ()))

(* Below va_size 23 the free bits outnumber the 32 a MAC yields: the
   default width is capped there, so every default config can sign. *)
let test_config_default_signs () =
  for va_size = 16 to 52 do
    let c = Config.make ~va_size () in
    Alcotest.(check int) "default width" (min 32 (55 - va_size)) c.Config.pac_bits;
    match Pac.auth c prf (Pac.add c prf 0x1230L ~modifier:7L) ~modifier:7L with
    | Pac.Valid addr -> Alcotest.check check_w64 "authenticated" 0x1230L addr
    | Pac.Invalid _ -> Alcotest.failf "va_size %d: signed pointer rejected" va_size
  done

let test_config_with_pac_bits () =
  let c = Config.with_pac_bits cfg 8 in
  Alcotest.(check int) "narrowed" 8 c.Config.pac_bits;
  Alcotest.(check int) "va_size kept" 39 c.Config.va_size

(* --- Pointer ---------------------------------------------------------------- *)

let test_pointer_canonical () =
  Alcotest.(check bool) "low pointer canonical" true (Pointer.is_canonical cfg 0x12345L);
  Alcotest.(check bool) "max canonical" true
    (Pointer.is_canonical cfg (Word64.mask 39));
  Alcotest.(check bool) "bit 39 set" false
    (Pointer.is_canonical cfg (Int64.shift_left 1L 39));
  Alcotest.(check bool) "error bit" false (Pointer.is_canonical cfg Int64.min_int)

let prop_pointer_pac_field =
  qtest "pac field embed/extract" 300
    QCheck2.Gen.(tup2 canonical_gen (int_range 0 0xffff))
    (fun (p, pac) ->
      let pac = Int64.of_int pac in
      let p' = Pointer.with_pac_field cfg p pac in
      Word64.equal (Pointer.pac_field cfg p') pac
      && Word64.equal (Pointer.address cfg p') p)

let test_pointer_error_flag () =
  let bad = Pointer.set_error cfg 0x1234L in
  Alcotest.(check bool) "has error" true (Pointer.has_error cfg bad);
  Alcotest.(check bool) "not canonical" false (Pointer.is_canonical cfg bad);
  Alcotest.check check_w64 "address preserved" 0x1234L (Pointer.address cfg bad)

let test_auth_split () =
  let p = Pointer.with_pac_field cfg 0x42L 0xbeefL in
  let pac, addr = Pointer.auth_split cfg p in
  Alcotest.check check_w64 "pac" 0xbeefL pac;
  Alcotest.check check_w64 "addr" 0x42L addr

(* --- Pac ---------------------------------------------------------------------- *)

let prop_sign_verify =
  qtest "pac/aut roundtrip" 300
    QCheck2.Gen.(tup2 canonical_gen modifier_gen)
    (fun (p, modifier) ->
      match Pac.auth cfg prf (Pac.add cfg prf p ~modifier) ~modifier with
      | Pac.Valid addr -> Word64.equal addr p
      | Pac.Invalid _ -> false)

let test_auth_wrong_modifier () =
  let signed = Pac.add cfg prf 0x1000L ~modifier:1L in
  match Pac.auth cfg prf signed ~modifier:2L with
  | Pac.Valid _ -> Alcotest.fail "wrong modifier accepted"
  | Pac.Invalid p ->
    Alcotest.(check bool) "error bit set" true (Pointer.has_error cfg p);
    Alcotest.check check_w64 "address stripped" 0x1000L (Pointer.address cfg p)

let test_auth_tampered_pac () =
  let signed = Pac.add cfg prf 0x1000L ~modifier:1L in
  let tampered = Word64.flip_bit signed (Config.pac_lo cfg) in
  match Pac.auth cfg prf tampered ~modifier:1L with
  | Pac.Valid _ -> Alcotest.fail "tampered PAC accepted"
  | Pac.Invalid _ -> ()

let test_auth_tampered_address () =
  let signed = Pac.add cfg prf 0x1000L ~modifier:1L in
  let tampered = Word64.flip_bit signed 3 in
  match Pac.auth cfg prf tampered ~modifier:1L with
  | Pac.Valid _ -> Alcotest.fail "tampered address accepted"
  | Pac.Invalid _ -> ()

let test_failed_pointer_never_revalidates () =
  (* even if the PAC field of an error-flagged pointer happens to match,
     the error bit keeps it invalid *)
  let signed = Pac.add cfg prf 0x2000L ~modifier:7L in
  let failed = Pointer.set_error cfg signed in
  let failed = Pointer.with_pac_field cfg failed (Pointer.pac_field cfg signed) in
  let failed = Word64.set_bit failed 63 true in
  match Pac.auth cfg prf failed ~modifier:7L with
  | Pac.Valid _ -> Alcotest.fail "error-flagged pointer revalidated"
  | Pac.Invalid _ -> ()

let test_strip () =
  let signed = Pac.add cfg prf 0x3000L ~modifier:9L in
  Alcotest.check check_w64 "xpac strips" 0x3000L (Pac.strip cfg signed)

let test_pac_on_invalid_flips_bit () =
  (* the §6.3.1 gadget precondition: signing a non-canonical pointer
     yields the PAC of the stripped address with bit p flipped *)
  let target = 0x4000L in
  let clean = Pac.add cfg prf target ~modifier:5L in
  let corrupted = Pointer.set_error cfg target in
  let dirty = Pac.add cfg prf corrupted ~modifier:5L in
  Alcotest.check check_w64 "exactly PAC bit 0 differs" (Int64.shift_left 1L (Config.pac_lo cfg))
    (Int64.logxor clean dirty)

let test_pacga () =
  let mac = Pac.generic cfg prf 0x123456789abcdefL ~modifier:0x42L in
  Alcotest.check check_w64 "low half zero" 0L (Word64.extract mac ~lo:0 ~width:32);
  Alcotest.(check bool) "high half nonzero" false
    (Word64.equal (Word64.extract mac ~lo:32 ~width:32) 0L);
  let mac2 = Pac.generic cfg prf 0x123456789abcdefL ~modifier:0x43L in
  Alcotest.(check bool) "modifier-sensitive" false (Word64.equal mac mac2)

let test_small_pac_collision_rate () =
  (* with b bits, random pointers verify with probability about 2^-b *)
  let small = Config.make ~pac_bits:8 () in
  let rng = Rng.create 5L in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    let p = Pointer.with_pac_field small (Rng.bits rng 39) (Rng.bits rng 8) in
    match Pac.auth small prf p ~modifier:(Rng.next64 rng) with
    | Pac.Valid _ -> incr hits
    | Pac.Invalid _ -> ()
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.4f near 1/256" rate)
    true
    (rate > 0.5 /. 256.0 && rate < 2.0 /. 256.0)

(* --- Prf ------------------------------------------------------------------------- *)

let test_prf_truncation () =
  let full = Prf.mac64 prf ~data:123L ~modifier:456L in
  let t16 = Prf.mac prf ~bits:16 ~data:123L ~modifier:456L in
  Alcotest.check check_w64 "low 16 bits" (Int64.logand full 0xffffL) t16

let test_prf_bits_validation () =
  Alcotest.check_raises "0 bits" (Invalid_argument "Prf.mac: bits") (fun () ->
      ignore (Prf.mac prf ~bits:0 ~data:0L ~modifier:0L));
  Alcotest.check_raises "33 bits" (Invalid_argument "Prf.mac: bits") (fun () ->
      ignore (Prf.mac prf ~bits:33 ~data:0L ~modifier:0L))

let test_prf_fast_quality () =
  (* ~uniform 8-bit tokens over distinct modifiers *)
  let prf = Prf.create 0x5eedL in
  let buckets = Array.make 256 0 in
  for i = 1 to 25600 do
    let t = Int64.to_int (Prf.mac prf ~bits:8 ~data:99L ~modifier:(Int64.of_int i)) in
    buckets.(t) <- buckets.(t) + 1
  done;
  Array.iter
    (fun c -> Alcotest.(check bool) "bucket near 100" true (c > 50 && c < 160))
    buckets

(* Mean output bits flipped by one flipped input bit, over 400 draws:
   about 32 for a random function. *)
let avalanche flip =
  let rng = Rng.create 0xa11L in
  let total = ref 0 in
  let n = 400 in
  for _ = 1 to n do
    let d = Rng.next64 rng and m = Rng.next64 rng in
    let bit = Rng.int rng 64 in
    let c1, c2 = flip d m bit in
    total := !total + Word64.hamming c1 c2
  done;
  float_of_int !total /. float_of_int n

let check_avalanche what mean =
  Alcotest.(check bool) (Printf.sprintf "%s avalanche %.1f" what mean) true
    (mean > 28.0 && mean < 36.0)

let test_avalanche_data () =
  check_avalanche "data"
    (avalanche (fun d m bit ->
         ( Prf.mac64 prf ~data:d ~modifier:m,
           Prf.mac64 prf ~data:(Word64.flip_bit d bit) ~modifier:m )))

let test_avalanche_modifier () =
  check_avalanche "modifier"
    (avalanche (fun d m bit ->
         ( Prf.mac64 prf ~data:d ~modifier:m,
           Prf.mac64 prf ~data:d ~modifier:(Word64.flip_bit m bit) )))

let test_avalanche_key () =
  check_avalanche "key"
    (avalanche (fun d m bit ->
         ( Prf.mac64 prf ~data:d ~modifier:m,
           Prf.mac64 (Prf.create (Word64.flip_bit 0xfeedL bit)) ~data:d ~modifier:m )))

(* Each mixing round is a bijection, so under one key and modifier the
   full 64-bit MAC is a permutation of the data, as a tweakable block
   cipher's output is. *)
let prop_injective_per_modifier =
  qtest "injective per modifier" 200
    QCheck2.Gen.(tup2 modifier_gen modifier_gen)
    (fun (d1, d2) ->
      Word64.equal d1 d2
      || not (Word64.equal (Prf.mac64 prf ~data:d1 ~modifier:9L) (Prf.mac64 prf ~data:d2 ~modifier:9L)))

let test_prf_modifier_sensitivity () =
  let a = Prf.mac64 prf ~data:5L ~modifier:1L in
  let b = Prf.mac64 prf ~data:5L ~modifier:2L in
  Alcotest.(check bool) "different modifiers differ" false (Word64.equal a b)

let test_prf_equal () =
  Alcotest.(check bool) "same secret equal" true (Prf.equal (Prf.create 1L) (Prf.create 1L));
  Alcotest.(check bool) "different secrets differ" false
    (Prf.equal (Prf.create 1L) (Prf.create 2L))

let test_prf_of_rng () =
  let r = Rng.create 11L and twin = Rng.create 11L in
  let p = Prf.of_rng r in
  Alcotest.(check bool) "keyed by the first draw" true (Prf.equal p (Prf.create (Rng.next64 twin)));
  Alcotest.check check_w64 "exactly one draw" (Rng.next64 twin) (Rng.next64 r)

(* Frozen vectors recorded from this implementation: a changed mixing
   constant or rotation fails here by name, not only as a shifted golden
   table. *)
let test_prf_frozen_vectors () =
  List.iter
    (fun (secret, data, modifier, mac) ->
      Alcotest.check check_w64
        (Printf.sprintf "H_%Lx(%Lx, %Lx)" secret data modifier)
        mac
        (Prf.mac64 (Prf.create secret) ~data ~modifier))
    [
      (0xfeedL, 0L, 0L, 0x0ac2f14e05e56ea9L);
      (0xfeedL, 1L, 2L, 0xfa950fef1ebe9b6aL);
      (0xfeedL, 0x7fdeadbeefL, 0x1234L, 0x646c4b2580bd7439L);
      (0L, 0L, 0L, 0xfb1c32080e1a9d42L);
      (0x5eedL, -1L, -1L, 0xaef861083f91abd2L);
      (0x0123456789abcdefL, 0x4000L, 5L, 0xf2332e664e9a97adL);
    ]

(* --- Keys ------------------------------------------------------------------------ *)

let test_keys_distinct () =
  let keys = Keys.generate (Rng.create 11L) in
  let macs =
    List.map (fun w -> Prf.mac64 (Keys.get keys w) ~data:1L ~modifier:2L) Keys.all
  in
  Alcotest.(check int) "five distinct keys" 5 (List.length (List.sort_uniq compare macs))

let test_keys_regenerate () =
  let rng = Rng.create 12L in
  let a = Keys.generate rng in
  let b = Keys.generate rng in
  Alcotest.(check bool) "regenerated keys differ" false (Keys.equal a b);
  Alcotest.(check bool) "reflexive" true (Keys.equal a a)

(* One MAC per key of a fixed generator: pins the order in which the
   five keys come off the stream (GA first, IA last), which every golden
   table depends on. *)
let test_keys_frozen () =
  let keys = Keys.generate (Rng.create 11L) in
  List.iter2
    (fun w mac ->
      Alcotest.check check_w64 (Keys.which_to_string w) mac
        (Prf.mac64 (Keys.get keys w) ~data:1L ~modifier:2L))
    Keys.all
    [
      0x1a97cd260fe5fc9cL; 0x37b10033acc50c80L; 0x5a6c446e61678ac7L; 0x2fd40fc14a42a41aL;
      0x553d5b242e3de1faL;
    ]

let test_key_names () =
  Alcotest.(check string) "IA name" "APIAKey" (Keys.which_to_string Keys.IA);
  Alcotest.(check int) "five keys" 5 (List.length Keys.all)

let () =
  Alcotest.run "pa"
    [
      ( "config",
        [
          Alcotest.test_case "defaults" `Quick test_config_default;
          Alcotest.test_case "validation" `Quick test_config_validation;
          Alcotest.test_case "with_pac_bits" `Quick test_config_with_pac_bits;
          Alcotest.test_case "default signs at every va_size" `Quick test_config_default_signs;
        ] );
      ( "pointer",
        [
          Alcotest.test_case "canonical" `Quick test_pointer_canonical;
          prop_pointer_pac_field;
          Alcotest.test_case "error flag" `Quick test_pointer_error_flag;
          Alcotest.test_case "auth_split" `Quick test_auth_split;
        ] );
      ( "pac",
        [
          prop_sign_verify;
          Alcotest.test_case "wrong modifier rejected" `Quick test_auth_wrong_modifier;
          Alcotest.test_case "tampered PAC rejected" `Quick test_auth_tampered_pac;
          Alcotest.test_case "tampered address rejected" `Quick test_auth_tampered_address;
          Alcotest.test_case "error bit sticks" `Quick test_failed_pointer_never_revalidates;
          Alcotest.test_case "xpac" `Quick test_strip;
          Alcotest.test_case "pac on invalid flips bit p" `Quick test_pac_on_invalid_flips_bit;
          Alcotest.test_case "pacga" `Quick test_pacga;
          Alcotest.test_case "collision rate at b=8" `Quick test_small_pac_collision_rate;
        ] );
      ( "prf",
        [
          Alcotest.test_case "truncation" `Quick test_prf_truncation;
          Alcotest.test_case "bits validation" `Quick test_prf_bits_validation;
          Alcotest.test_case "fast PRF uniformity" `Quick test_prf_fast_quality;
          Alcotest.test_case "data avalanche" `Quick test_avalanche_data;
          Alcotest.test_case "modifier avalanche" `Quick test_avalanche_modifier;
          Alcotest.test_case "key avalanche" `Quick test_avalanche_key;
          prop_injective_per_modifier;
          Alcotest.test_case "modifier sensitivity" `Quick test_prf_modifier_sensitivity;
          Alcotest.test_case "equality" `Quick test_prf_equal;
          Alcotest.test_case "of_rng draws one word" `Quick test_prf_of_rng;
          Alcotest.test_case "frozen vectors" `Quick test_prf_frozen_vectors;
        ] );
      ( "keys",
        [
          Alcotest.test_case "distinct" `Quick test_keys_distinct;
          Alcotest.test_case "frozen draw order" `Quick test_keys_frozen;
          Alcotest.test_case "regeneration" `Quick test_keys_regenerate;
          Alcotest.test_case "names" `Quick test_key_names;
        ] );
    ]

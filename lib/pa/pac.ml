module Word64 = Pacstack_util.Word64

type result = Valid of Pointer.t | Invalid of Pointer.t

let[@inline] compute cfg prf ~address ~modifier =
  Prf.mac prf ~bits:(cfg : Config.t).pac_bits ~data:(Pointer.address cfg address) ~modifier

let[@inline] add cfg prf p ~modifier =
  let stripped = Pointer.address cfg p in
  let pac = compute cfg prf ~address:stripped ~modifier in
  (* A pointer whose upper bits are not canonical is signed as if they
     were, but with PAC bit 0 flipped to record the corruption. *)
  let pac = if Pointer.is_canonical cfg p then pac else Word64.flip_bit pac 0 in
  Pointer.with_pac_field cfg stripped pac

let[@inline] auth cfg prf p ~modifier =
  let stripped = Pointer.address cfg p in
  let expected = compute cfg prf ~address:stripped ~modifier in
  let embedded = Pointer.pac_field cfg p in
  (* The error flag itself lives above the PAC field, so a previously
     failed pointer never re-validates. *)
  if Word64.equal expected embedded && not (Pointer.has_error cfg p) then Valid stripped
  else Invalid (Pointer.set_error cfg p)

(* Allocation-free [auth] for the execution hot paths: the valid/invalid
   distinction is already encoded in the returned pointer (error bit), so
   the [result] box adds nothing the caller needs. *)
let[@inline] auth_value cfg prf p ~modifier =
  let stripped = Pointer.address cfg p in
  let expected = compute cfg prf ~address:stripped ~modifier in
  let embedded = Pointer.pac_field cfg p in
  if Word64.equal expected embedded && not (Pointer.has_error cfg p) then stripped
  else Pointer.set_error cfg p

let strip = Pointer.address

let[@inline] generic _cfg prf v ~modifier =
  let mac = Prf.mac prf ~bits:32 ~data:v ~modifier in
  Int64.shift_left mac 32

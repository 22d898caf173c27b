module Word64 = Pacstack_util.Word64

type perm = { readable : bool; writable : bool; executable : bool }

let perm_r = { readable = true; writable = false; executable = false }
let perm_rw = { readable = true; writable = true; executable = false }
let perm_rx = { readable = true; writable = false; executable = true }
let perm_none = { readable = false; writable = false; executable = false }

let pp_perm fmt p =
  Format.fprintf fmt "%c%c%c"
    (if p.readable then 'r' else '-')
    (if p.writable then 'w' else '-')
    (if p.executable then 'x' else '-')

let page_size = 4096
let page_bits = 12

(* Pages are allocated lazily, twice over. [map] only records its region
   (see [pending]); a page gets its table entry on first lookup,
   and that entry shares [zero_page] (all-zero, read-only by convention
   — every write path materialises a private copy first). So mapping the
   1 MiB stack costs one region record, and a run pays a table entry
   only for each page it touches, and 4 KiB only for each page it
   writes. A region mapped with an initialiser goes one step further:
   its pages keep [zero_page] and the initialiser in [init] until their
   first data access ([fill]), so code pages that are only executed are
   never given bytes. *)
let zero_page = Bytes.make page_size '\000'

(* [init] comes after [data] and [perm], so the TLB hit path reads the
   fields it always read. *)
type page = { mutable data : Bytes.t; perm : perm; mutable init : (int -> Bytes.t) option }

(* A mapped region, [first..last] by page index, whose pages get their
   table entries on first lookup; [init] takes a page index. *)
type region = { first : int; last : int; rperm : perm; init : (int -> Bytes.t) option }

(* The page table is keyed by page index as an [int] (indices are
   addr lsr 12 < 2^52), so a probe neither boxes nor compares a boxed
   key. *)
module Pages = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

(* Two TLBs keyed by page index, both invalidated by map/unmap/protect:
   a direct-mapped data TLB for loads/stores, and a one-entry execute TLB
   for the per-step code check, so the two access streams don't evict
   each other. Compiled mini-C keeps locals in stack slots and globals in
   the data region, so the data TLB needs several entries: with one, every
   global access swapped the stack page out and back in. The slot folds
   bits 16.. of the index into its low bits. The first data page (index
   0x200) and the first shadow page (0x60000) are both multiples of 2^9,
   so a plain low-bit mask would put them in one slot; folded, they land
   in slots 0 and 6 and the stack pages below [stack_top] in 8, 9, ...
   The tag [-1] can never equal a real index. *)
let tlb_size = 16

let[@inline] tlb_slot idx = (idx lxor (idx lsr 16)) land (tlb_size - 1)

type t = {
  pages : page Pages.t;
  (* Mapped regions not yet fully in [pages], pairwise disjoint. A page
     is mapped iff it has a table entry or lies in one of them; a
     region's page that has an entry is never re-created from the
     region. unmap/protect/copy/digest/mapped_ranges first give every
     pending page its entry ([materialise]), so they see one table. *)
  mutable pending : region list;
  tlb_d_tags : int array;  (* page index cached in each slot, or -1 *)
  tlb_d_pages : page array;
  mutable tlb_x_idx : int;
  mutable tlb_x_page : page;
  (* Refill counters for observability. Only the (already slow) miss
     path pays them — hit counts are reconstructed by the machine from
     mem_ops/instret — so the TLB hit path stays untouched. *)
  mutable tlb_d_miss : int;
  mutable tlb_x_miss : int;
  mutable fills : int;  (* pages given their bytes by an initialiser *)
  (* Bumped by every map/unmap/protect. External caches derived from
     the page table (the machine's page-granular execute cache) compare
     this against their snapshot instead of subscribing to
     invalidations — same discipline as the TLBs above. A page's
     first-lookup table entry changes nothing observable and bumps
     nothing. *)
  mutable generation : int;
}

let no_page = { data = zero_page; perm = perm_none; init = None }

let of_pages pages =
  {
    pages;
    pending = [];
    tlb_d_tags = Array.make tlb_size (-1);
    tlb_d_pages = Array.make tlb_size no_page;
    tlb_x_idx = -1;
    tlb_x_page = no_page;
    tlb_d_miss = 0;
    tlb_x_miss = 0;
    fills = 0;
    generation = 0;
  }

let create () = of_pages (Pages.create 64)

let invalidate_tlb t =
  Array.fill t.tlb_d_tags 0 tlb_size (-1);
  Array.fill t.tlb_d_pages 0 tlb_size no_page;
  t.tlb_x_idx <- -1;
  t.tlb_x_page <- no_page;
  t.generation <- t.generation + 1

let generation t = t.generation

let[@inline] page_index addr = Int64.to_int (Int64.shift_right_logical addr page_bits)
let[@inline] page_offset addr = Int64.to_int addr land (page_size - 1)

let in_region idx r = r.first <= idx && idx <= r.last

(* The table entry of page [idx], created on first lookup of a page of a
   pending region. *)
let lookup t idx =
  match Pages.find_opt t.pages idx with
  | Some _ as found -> found
  | None -> (
    match List.find_opt (in_region idx) t.pending with
    | None -> None
    | Some r ->
      let p = { data = zero_page; perm = r.rperm; init = r.init } in
      Pages.replace t.pages idx p;
      Some p)

(* Gives page [idx] its bytes if its region has an initialiser and it
   has none yet. Every data access makes this call first, and only the
   data TLB's miss path among them is hot, so a page in the data TLB
   always has its bytes. *)
let fill t idx (p : page) =
  match p.init with
  | None -> ()
  | Some init ->
    let data = init idx in
    if Bytes.length data <> page_size then invalid_arg "Memory.map: initialiser page size";
    p.data <- data;
    p.init <- None;
    t.fills <- t.fills + 1

let lookup_data t idx =
  let found = lookup t idx in
  (match found with Some p -> fill t idx p | None -> ());
  found

let materialise t =
  List.iter
    (fun r ->
      for idx = r.first to r.last do
        if not (Pages.mem t.pages idx) then
          Pages.replace t.pages idx { data = zero_page; perm = r.rperm; init = r.init }
      done)
    t.pending;
  t.pending <- []

(* The lowest mapped page of [first..last]: the nearest start among the
   overlapping pending regions, or a table entry in the range. The
   table holds the pages touched so far, few next to the pages of a
   region. *)
let lowest_mapped t first last =
  let lowest = ref max_int in
  let note idx = if idx < !lowest then lowest := idx in
  List.iter (fun r -> if r.first <= last && first <= r.last then note (max r.first first)) t.pending;
  Pages.iter (fun idx _ -> if first <= idx && idx <= last then note idx) t.pages;
  if !lowest = max_int then None else Some !lowest

(* The checks every new mapping makes; returns its page range. *)
let claim t ~addr ~size perm =
  if size <= 0 then invalid_arg "Memory.map: size";
  if perm.writable && perm.executable then invalid_arg "Memory.map: W^X violation";
  let first = page_index addr in
  let last = page_index (Int64.add addr (Int64.of_int (size - 1))) in
  (match lowest_mapped t first last with
  | Some idx -> invalid_arg (Printf.sprintf "Memory.map: page %x already mapped" idx)
  | None -> ());
  (first, last)

let map ?init t ~addr ~size perm =
  let first, last = claim t ~addr ~size perm in
  let init = Option.map (fun f idx -> f (idx - first)) init in
  t.pending <- { first; last; rperm = perm; init } :: t.pending;
  invalidate_tlb t

let unmap t ~addr ~size =
  if size <= 0 then invalid_arg "Memory.unmap: size";
  materialise t;
  let first = page_index addr in
  let last = page_index (Int64.add addr (Int64.of_int (size - 1))) in
  for idx = first to last do
    Pages.remove t.pages idx
  done;
  invalidate_tlb t

let protect t ~addr ~size perm =
  if size <= 0 then invalid_arg "Memory.protect: size";
  if perm.writable && perm.executable then invalid_arg "Memory.protect: W^X violation";
  materialise t;
  let first = page_index addr in
  let last = page_index (Int64.add addr (Int64.of_int (size - 1))) in
  for idx = first to last do
    match Pages.find_opt t.pages idx with
    | None -> invalid_arg (Printf.sprintf "Memory.protect: page %x not mapped" idx)
    | Some p ->
      fill t idx p;
      Pages.replace t.pages idx { p with perm }
  done;
  invalidate_tlb t

let find t addr = lookup t (page_index addr)

let is_mapped t addr = find t addr <> None
let perm_at t addr = Option.map (fun p -> p.perm) (find t addr)

(* The data-TLB miss path, out of line so that every load and store
   inlines only the hit test: one table probe, then the slot is
   refilled. *)
let[@inline never] refill_data t addr idx access =
  match lookup_data t idx with
  | Some p ->
    let slot = tlb_slot idx in
    t.tlb_d_miss <- t.tlb_d_miss + 1;
    Array.unsafe_set t.tlb_d_tags slot idx;
    Array.unsafe_set t.tlb_d_pages slot p;
    p
  | None -> raise (Trap.Fault (Trap.Unmapped (addr, access)))

(* Hot-path translation: one compare on a TLB hit. *)
let[@inline] page_for t addr access =
  let idx = page_index addr in
  let slot = tlb_slot idx in
  if Array.unsafe_get t.tlb_d_tags slot = idx then Array.unsafe_get t.tlb_d_pages slot
  else refill_data t addr idx access

(* A write to a page still sharing [zero_page] first gives it a private
   zeroed copy. *)
let writable_data p =
  if p.data == zero_page then p.data <- Bytes.make page_size '\000';
  p.data

let load8 t addr =
  let p = page_for t addr Trap.Read in
  if not p.perm.readable then raise (Trap.Fault (Trap.Permission (addr, Trap.Read)));
  Char.code (Bytes.get p.data (page_offset addr))

let store8 t addr v =
  let p = page_for t addr Trap.Write in
  if not p.perm.writable then raise (Trap.Fault (Trap.Permission (addr, Trap.Write)));
  Bytes.set (writable_data p) (page_offset addr) (Char.chr (v land 0xff))

(* A load that crosses a page boundary, a byte at a time from the
   highest, so one that straddles into an unmapped page traps at
   [addr + 7]. A loop, not a local recursive function: a closure here
   would stop ocamlopt from inlining [load64] into each ldr op, and every
   ldr would box its address and result. *)
let load64_straddle t addr =
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (load8 t (Int64.add addr (Int64.of_int i))))
  done;
  !v

(* The in-page fast paths of [load64]/[store64] skip the bounds check:
   they run only for [off <= page_size - 8], and every page's data is
   [page_size] bytes (the zero page, a fresh page, a copy of one, or an
   initialiser's page, whose size [map] checks). *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

let get64le b off = if Sys.big_endian then bswap64 (get64u b off) else get64u b off
let set64le b off v = set64u b off (if Sys.big_endian then bswap64 v else v)

let load64 t addr =
  (* Fast path: the common aligned access within one page. *)
  let off = page_offset addr in
  if off <= page_size - 8 then begin
    let p = page_for t addr Trap.Read in
    if not p.perm.readable then raise (Trap.Fault (Trap.Permission (addr, Trap.Read)));
    get64le p.data off
  end
  else load64_straddle t addr

let store64 t addr v =
  let off = page_offset addr in
  if off <= page_size - 8 then begin
    let p = page_for t addr Trap.Write in
    if not p.perm.writable then raise (Trap.Fault (Trap.Permission (addr, Trap.Write)));
    set64le (writable_data p) off v
  end
  else
    for i = 0 to 7 do
      store8 t (Int64.add addr (Int64.of_int i)) (Int64.to_int (Word64.extract v ~lo:(8 * i) ~width:8))
    done

let check_exec t addr =
  let idx = page_index addr in
  let p =
    if idx = t.tlb_x_idx then t.tlb_x_page
    else
      match lookup t idx with
      | Some p ->
        t.tlb_x_miss <- t.tlb_x_miss + 1;
        t.tlb_x_idx <- idx;
        t.tlb_x_page <- p;
        p
      | None -> raise (Trap.Fault (Trap.Unmapped (addr, Trap.Execute)))
  in
  if not p.perm.executable then raise (Trap.Fault (Trap.Permission (addr, Trap.Execute)))

(* The adversary's accesses read or write bytes, so their pages are
   filled first. *)
let find_data t addr = lookup_data t (page_index addr)

let peek64 t addr =
  match find_data t addr with
  | None -> None
  | Some _ -> (
    (* Crossing into an unmapped page also yields None. *)
    try
      let rec go i acc =
        if i < 0 then acc
        else
          match find_data t (Int64.add addr (Int64.of_int i)) with
          | None -> raise Exit
          | Some p ->
            let b = Char.code (Bytes.get p.data (page_offset (Int64.add addr (Int64.of_int i)))) in
            go (i - 1) (Int64.logor (Int64.shift_left acc 8) (Int64.of_int b))
      in
      Some (go 7 0L)
    with Exit -> None)

let poke64 t addr v =
  let writable_at a =
    match find_data t a with Some p -> p.perm.writable | None -> false
  in
  let ok = ref true in
  for i = 0 to 7 do
    if not (writable_at (Int64.add addr (Int64.of_int i))) then ok := false
  done;
  if !ok then
    for i = 0 to 7 do
      let a = Int64.add addr (Int64.of_int i) in
      let p = page_for t a Trap.Write in
      Bytes.set (writable_data p) (page_offset a) (Char.chr (Int64.to_int (Word64.extract v ~lo:(8 * i) ~width:8)))
    done;
  !ok

let copy t =
  materialise t;
  let pages = Pages.create (Pages.length t.pages) in
  Pages.iter
    (fun k p ->
      let data = if p.data == zero_page then zero_page else Bytes.copy p.data in
      Pages.replace pages k { p with data })
    t.pages;
  of_pages pages

let tlb_misses t = (t.tlb_d_miss, t.tlb_x_miss)
let fills t = t.fills

(* FNV-1a over the mapped pages in index order: permissions and contents
   both feed the hash, so two memories digest equal iff they are
   observably identical. Page contents hash position-independently (a
   fold from a fixed seed), letting the shared [zero_page]'s hash be
   computed once and reused for every still-pristine page. *)
let fnv_prime = 0x100000001b3L
let fnv_seed = 0xcbf29ce484222325L
let fnv_mix h v = Int64.mul (Int64.logxor h v) fnv_prime

let hash_page_data data =
  let h = ref fnv_seed in
  for i = 0 to (page_size / 8) - 1 do
    h := fnv_mix !h (Bytes.get_int64_le data (i * 8))
  done;
  !h

let zero_page_hash = lazy (hash_page_data zero_page)

let digest t =
  materialise t;
  let idxs = List.sort Int.compare (Pages.fold (fun k _ acc -> k :: acc) t.pages []) in
  List.fold_left
    (fun h idx ->
      let p = Pages.find t.pages idx in
      fill t idx p;
      let perm_bits =
        (if p.perm.readable then 1 else 0)
        lor (if p.perm.writable then 2 else 0)
        lor if p.perm.executable then 4 else 0
      in
      let content =
        if p.data == zero_page then Lazy.force zero_page_hash else hash_page_data p.data
      in
      fnv_mix (fnv_mix (fnv_mix h (Int64.of_int idx)) (Int64.of_int perm_bits)) content)
    fnv_seed idxs

let mapped_ranges t =
  materialise t;
  let idxs = Pages.fold (fun k p acc -> (k, p.perm) :: acc) t.pages [] in
  let idxs = List.sort (fun (a, _) (b, _) -> Int.compare a b) idxs in
  let rec runs acc = function
    | [] -> List.rev acc
    | (idx, perm) :: rest -> (
      let addr = Int64.shift_left (Int64.of_int idx) page_bits in
      match acc with
      | (start, size, p) :: tl
        when p = perm && Int64.equal (Int64.add start (Int64.of_int size)) addr ->
        runs ((start, size + page_size, p) :: tl) rest
      | _ -> runs ((addr, page_size, perm) :: acc) rest)
  in
  runs [] idxs

type t = {
  funcs : Program.func list;
  data : Program.data list;
}

exception Corrupt of string

let magic = "PACO"
let version = 1

let of_program (p : Program.t) = { funcs = p.funcs; data = p.data }

let defined_symbols t =
  List.map (fun (f : Program.func) -> f.name) t.funcs
  @ List.map (fun (d : Program.data) -> d.dname) t.data

let referenced_symbols t =
  let defined = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace defined s ()) (defined_symbols t);
  let locals f =
    let tbl = Hashtbl.create 8 in
    List.iter
      (function Program.Lbl l -> Hashtbl.replace tbl l () | Program.Ins _ -> ())
      f.Program.body;
    tbl
  in
  let refs = Hashtbl.create 16 in
  List.iter
    (fun (f : Program.func) ->
      let local = locals f in
      List.iter
        (fun i ->
          match Instr.reads_label i with
          | Some l when not (Hashtbl.mem local l || Hashtbl.mem defined l) ->
            Hashtbl.replace refs l ()
          | Some _ | None -> ())
        (Program.instructions f))
    t.funcs;
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) refs [])

(* --- serialization ------------------------------------------------------- *)

let put_u16 b v =
  if v < 0 || v > 0xffff then raise (Corrupt "u16 out of range");
  Buffer.add_char b (Char.chr (v land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xff))

let put_u32 b v =
  Buffer.add_char b (Char.chr (v land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 24) land 0xff))

let put_u64 b (v : int64) =
  for i = 0 to 7 do
    Buffer.add_char b (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff))
  done

let put_str b s =
  put_u16 b (String.length s);
  Buffer.add_string b s

let write t =
  let b = Buffer.create 1024 in
  Buffer.add_string b magic;
  put_u16 b version;
  put_u16 b (List.length t.data);
  List.iter
    (fun (d : Program.data) ->
      put_str b d.dname;
      put_u32 b d.size)
    t.data;
  put_u16 b (List.length t.funcs);
  List.iter
    (fun (f : Program.func) ->
      put_str b f.name;
      let words, pools = Encode.encode (Array.of_list (Program.instructions f)) in
      (* item stream: labels interleaved with indices into the word array *)
      put_u32 b (List.length f.body);
      let widx = ref 0 in
      List.iter
        (function
          | Program.Lbl l ->
            Buffer.add_char b '\000';
            put_str b l
          | Program.Ins _ ->
            Buffer.add_char b '\001';
            put_u32 b (Int32.to_int words.(!widx) land 0xffffffff);
            incr widx)
        f.body;
      put_u16 b (Array.length pools.Encode.constants);
      Array.iter (put_u64 b) pools.Encode.constants;
      put_u16 b (Array.length pools.Encode.symbols);
      Array.iter (put_str b) pools.Encode.symbols)
    t.funcs;
  Buffer.contents b

type reader = { s : string; mutable pos : int }

let need r n = if r.pos + n > String.length r.s then raise (Corrupt "truncated object file")

let get_byte r =
  need r 1;
  let c = Char.code r.s.[r.pos] in
  r.pos <- r.pos + 1;
  c

let get_u16 r =
  let a = get_byte r in
  a lor (get_byte r lsl 8)

let get_u32 r =
  let a = get_u16 r in
  a lor (get_u16 r lsl 16)

let get_u64 r =
  let rec go i acc =
    if i = 8 then acc
    else go (i + 1) (Int64.logor acc (Int64.shift_left (Int64.of_int (get_byte r)) (8 * i)))
  in
  go 0 0L

let get_str r =
  let n = get_u16 r in
  need r n;
  let s = String.sub r.s r.pos n in
  r.pos <- r.pos + n;
  s

let read s =
  let r = { s; pos = 0 } in
  need r 4;
  if String.sub s 0 4 <> magic then raise (Corrupt "bad magic");
  r.pos <- 4;
  if get_u16 r <> version then raise (Corrupt "unsupported version");
  let ndata = get_u16 r in
  let data =
    List.init ndata (fun _ ->
        let dname = get_str r in
        let size = get_u32 r in
        { Program.dname; size })
  in
  let nfuncs = get_u16 r in
  let funcs =
    List.init nfuncs (fun _ ->
        let name = get_str r in
        let nitems = get_u32 r in
        (* first pass: raw items with encoded words *)
        let raw =
          List.init nitems (fun _ ->
              match get_byte r with
              | 0 -> `Lbl (get_str r)
              | 1 -> `Word (Int32.of_int (get_u32 r))
              | t -> raise (Corrupt (Printf.sprintf "bad item tag %d" t)))
        in
        let nconst = get_u16 r in
        let constants = Array.init nconst (fun _ -> get_u64 r) in
        let nsym = get_u16 r in
        let symbols = Array.init nsym (fun _ -> get_str r) in
        let pools = { Encode.constants; symbols } in
        let body =
          List.map
            (function
              | `Lbl l -> Program.Lbl l
              | `Word w -> (
                match Encode.decode w pools with
                | i -> Program.Ins i
                | exception Invalid_argument m -> raise (Corrupt m)))
            raw
        in
        { Program.name; body })
  in
  if r.pos <> String.length s then raise (Corrupt "trailing bytes");
  { funcs; data }

let save t path = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc (write t))

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> read s
  | exception Sys_error m -> raise (Corrupt m)

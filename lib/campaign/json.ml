module Sketch = Pacstack_util.Sketch

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- printing ----------------------------------------------------------- *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f ->
    (* JSON has no nan/inf literal; [%.17g] would print one and the
       resulting document would not parse (not even by [parse] below).
       Non-finite floats degrade to null, like most JSON encoders. *)
    if not (Float.is_finite f) then Buffer.add_string buf "null"
    else if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string buf (Printf.sprintf "%.1f" f)
    else Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | String s -> escape buf s
  | List vs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        emit buf v)
      vs;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape buf k;
        Buffer.add_char buf ':';
        emit buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  emit buf v;
  Buffer.contents buf

let pp fmt v = Format.pp_print_string fmt (to_string v)

(* --- parsing ------------------------------------------------------------ *)

exception Bad of string

type cursor = { text : string; mutable pos : int }

let peek c = if c.pos < String.length c.text then Some c.text.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  let rec go () =
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      go ()
    | _ -> ()
  in
  go ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> raise (Bad (Printf.sprintf "expected %c at %d, found %c" ch c.pos x))
  | None -> raise (Bad (Printf.sprintf "expected %c at %d, found end of input" ch c.pos))

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.text && String.sub c.text c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else raise (Bad (Printf.sprintf "bad literal at %d" c.pos))

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> raise (Bad "unterminated string")
    | Some '"' -> advance c
    | Some '\\' ->
      advance c;
      (match peek c with
      | Some '"' -> Buffer.add_char buf '"'
      | Some '\\' -> Buffer.add_char buf '\\'
      | Some '/' -> Buffer.add_char buf '/'
      | Some 'n' -> Buffer.add_char buf '\n'
      | Some 'r' -> Buffer.add_char buf '\r'
      | Some 't' -> Buffer.add_char buf '\t'
      | Some 'b' -> Buffer.add_char buf '\b'
      | Some 'f' -> Buffer.add_char buf '\012'
      | Some 'u' ->
        if c.pos + 4 >= String.length c.text then raise (Bad "truncated \\u escape");
        let hex = String.sub c.text (c.pos + 1) 4 in
        let code =
          try int_of_string ("0x" ^ hex) with _ -> raise (Bad "bad \\u escape")
        in
        (* ASCII pass-through only; everything else becomes '?' *)
        Buffer.add_char buf (if code < 0x80 then Char.chr code else '?');
        c.pos <- c.pos + 4
      | _ -> raise (Bad "bad escape"));
      advance c;
      go ()
    | Some ch ->
      Buffer.add_char buf ch;
      advance c;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let rec go () =
    match peek c with
    | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') ->
      advance c;
      go ()
    | _ -> ()
  in
  go ();
  let s = String.sub c.text start (c.pos - start) in
  let is_float = String.exists (fun ch -> ch = '.' || ch = 'e' || ch = 'E') s in
  if is_float then
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> raise (Bad (Printf.sprintf "bad number %S" s))
  else
    match int_of_string_opt s with
    | Some n -> Int n
    | None -> (
      (* out-of-range integer literal: fall back to float *)
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> raise (Bad (Printf.sprintf "bad number %S" s)))

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> raise (Bad "empty input")
  | Some 'n' -> literal c "null" Null
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some '"' -> String (parse_string c)
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      List []
    end
    else begin
      let items = ref [ parse_value c ] in
      let rec go () =
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          items := parse_value c :: !items;
          go ()
        | Some ']' -> advance c
        | _ -> raise (Bad (Printf.sprintf "expected , or ] at %d" c.pos))
      in
      go ();
      List (List.rev !items)
    end
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
      advance c;
      Obj []
    end
    else begin
      let field () =
        skip_ws c;
        let k = parse_string c in
        skip_ws c;
        expect c ':';
        (k, parse_value c)
      in
      let fields = ref [ field () ] in
      let rec go () =
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          fields := field () :: !fields;
          go ()
        | Some '}' -> advance c
        | _ -> raise (Bad (Printf.sprintf "expected , or } at %d" c.pos))
      in
      go ();
      Obj (List.rev !fields)
    end
  | Some ch -> raise (Bad (Printf.sprintf "unexpected %c at %d" ch c.pos))

let parse text =
  let c = { text; pos = 0 } in
  match parse_value c with
  | v ->
    skip_ws c;
    if c.pos = String.length text then Ok v
    else Error (Printf.sprintf "trailing garbage at %d" c.pos)
  | exception Bad msg -> Error msg

(* --- accessors ---------------------------------------------------------- *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None
let to_int = function Int n -> Some n | _ -> None

let to_float = function
  | Float f -> Some f
  | Int n -> Some (float_of_int n)
  | _ -> None

let to_str = function String s -> Some s | _ -> None
let to_list = function List vs -> Some vs | _ -> None
let to_bool = function Bool b -> Some b | _ -> None

(* --- sketches ------------------------------------------------------------ *)

let of_sketch (s : Sketch.t) =
  Obj
    [
      ("count", Int s.count);
      ("sum", Float s.sum);
      ("min", Float s.min);
      ("max", Float s.max);
      ("counts", List (Array.to_list (Array.map (fun c -> Int c) s.counts)));
    ]

let to_sketch ~edges json =
  let empty = Sketch.empty edges in
  let num k = Option.bind (member k json) to_float in
  let cells = Option.map (List.map to_int) (Option.bind (member "counts" json) to_list) in
  match (Option.bind (member "count" json) to_int, num "sum", cells) with
  | Some count, Some sum, Some cells
    when List.length cells = Array.length empty.counts
         && List.for_all (function Some c -> c >= 0 | None -> false) cells ->
    let counts = Array.of_list (List.map Option.get cells) in
    if Array.fold_left ( + ) 0 counts <> count then None
    else if count = 0 then Some empty
    else (
      match (num "min", num "max") with
      | Some min, Some max -> Some { empty with count; sum; min; max; counts }
      | _ -> None)
  | _ -> None

(* Spans of the traced run.

   A span is one call into a layer's public function, timed from the
   benchmark around the call; spans inside the library are a later
   change. Spans and counts are kept in memory and written out when the
   run ends, so tracing costs no I/O while ops are timed. Untraced runs
   never reach this module. *)

type span = { name : string; op : int; start : float; stop : float }

let spans : span list ref = ref []
let counts : (string, int) Hashtbl.t = Hashtbl.create 8
let op = ref 0

(* Spans recorded from now on belong to op [i]. *)
let set_op i = op := i

let add name ~start ~stop = spans := { name; op = !op; start; stop } :: !spans

let time name f =
  let start = Host.now () in
  let v = f () in
  add name ~start ~stop:(Host.now ());
  v

let count name n =
  Hashtbl.replace counts name (n + Option.value (Hashtbl.find_opt counts name) ~default:0)

let counted name = Option.value (Hashtbl.find_opt counts name) ~default:0

(* Per span name: nominal-host seconds (each span scaled by its op's
   normalisation factor) and calls. *)
let totals (factor : float array) =
  let h = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let d = (s.stop -. s.start) *. factor.(s.op) in
      let t, c = Option.value (Hashtbl.find_opt h s.name) ~default:(0.0, 0) in
      Hashtbl.replace h s.name (t +. d, c + 1))
    !spans;
  fun name -> Option.value (Hashtbl.find_opt h name) ~default:(0.0, 0)

let write path =
  let oc = open_out path in
  let t0 = List.fold_left (fun t s -> Float.min t s.start) infinity !spans in
  List.iter
    (fun s ->
      Printf.fprintf oc "{\"name\":%S,\"op\":%d,\"start_us\":%.1f,\"dur_us\":%.1f}\n" s.name s.op
        ((s.start -. t0) *. 1e6)
        ((s.stop -. s.start) *. 1e6))
    (List.rev !spans);
  close_out oc

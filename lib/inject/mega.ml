(* Deprecated aliases for code written against the former mega-campaign
   statistics: the one injection-statistics type is now {!Engine.stats},
   which is constant-size on its own. No logic lives here. *)

type cell = Engine.cell = {
  detected : int;
  benign : int;
  silent : int;
  latency : Pacstack_util.Sketch.t;
}

type t = Engine.stats = {
  faults : int;
  cells : (string * cell) list;
  site_cells : ((string * string) * cell) list;
  silents : Engine.reproducer list;
}

let empty = Engine.empty
let merge = Engine.merge
let run_range = Engine.run_range

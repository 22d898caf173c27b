(** A minimal JSON value type with a printer and a parser, used for the
    campaign checkpoint manifest and the CLI's [--json] result export.

    Deliberately tiny: no streaming, no Unicode escapes beyond [\uXXXX]
    pass-through on input, integers kept exact (separate from floats) so
    trial counters and 64-bit seeds survive a write/read round trip. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact one-line rendering (canonical for checkpoint lines).
    Non-finite [Float]s (nan, ±infinity) render as [null] — JSON has no
    literal for them, and anything else would produce a document that
    {!parse} itself rejects. The encode→decode round trip is therefore
    lossy exactly there: [Float nan] comes back as [Null]. *)

val pp : Format.formatter -> t -> unit

val parse : string -> (t, string) result
(** Parses one JSON value; trailing non-whitespace is an error. Numbers
    without [.], [e] or [E] parse as [Int], everything else as [Float]. *)

(** {1 Accessors} — total functions returning [option]. *)

val member : string -> t -> t option
(** First binding of the key in an [Obj]; [None] otherwise. *)

val to_int : t -> int option
(** [Int n] gives [Some n]; other constructors give [None]. *)

val to_float : t -> float option
(** [Float] or [Int] (widened); [None] otherwise. *)

val to_str : t -> string option
val to_list : t -> t list option
val to_bool : t -> bool option

(** {1 Sketches} — the one codec of {!Pacstack_util.Sketch}, shared by
    the fleet and injection checkpoint payloads. *)

val of_sketch : Pacstack_util.Sketch.t -> t
(** [{"count":..,"sum":..,"min":..,"max":..,"counts":[..]}]; the edges
    are not written (the reader supplies them). An empty sketch's
    infinite extremes render as [null]. *)

val to_sketch : edges:float array -> t -> Pacstack_util.Sketch.t option
(** Decodes {!of_sketch}'s output over [edges], exactly. A line is
    trusted only if some sketch could have written it: one cell per
    bucket, no negative cell, cell mass equal to [count], and numeric
    [min]/[max] when [count > 0]. Anything else is [None], so a
    checkpointed shard re-runs instead of poisoning the totals. *)

(** A minimal JSON reader/writer, used for every tool-emitted JSON
    artifact (batch reports, pass statistics) and to validate them in
    tests and CI without taking on a JSON dependency. The reader is
    strict; [\uXXXX] escapes decode to UTF-8 (surrogate pairs combine,
    unpaired surrogates are rejected). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** [parse src] parses exactly one JSON value spanning all of [src]
    (modulo whitespace); [Error msg] carries a byte offset. *)
val parse : string -> (t, string) result

(** [member key v] — field lookup on [Obj]; [None] on other values. *)
val member : string -> t -> t option

(** [to_string v] renders [v] compactly (no whitespace). Object fields
    keep their list order. Integer-valued numbers render without a
    decimal point; other floats with the fewest digits that round-trip
    through {!parse}. Raises [Invalid_argument] on non-finite numbers. *)
val to_string : t -> string

(** [num_int i] is [Num (float_of_int i)]. *)
val num_int : int -> t

(** [to_int v] — [Some i] iff [v] is an integer-valued [Num]. *)
val to_int : t -> int option

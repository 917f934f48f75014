(** Minimal JSON values: the wire format of the telemetry layer.

    Everything the observability stack serializes (metric snapshots, JSONL
    trace lines, catapult arrays) is built from this type, and everything
    it reads back ([boundedreg trace summary], the exporter tests) is
    parsed into it. The printer emits canonical one-line JSON with no
    trailing spaces, so byte-identical traces follow from identical
    values. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_buffer : Buffer.t -> t -> unit
val to_string : t -> string

val add_int : Buffer.t -> int -> unit
(** [add_int b i] appends exactly [string_of_int i], digit by digit,
    without building the string. *)

val escape_to : Buffer.t -> string -> unit
(** [escape_to b s] appends [s] as a quoted JSON string: double quote
    and backslash are backslash-escaped, newline, carriage return and
    tab by name, other bytes below [0x20] as [\u00XX]; every other
    byte (DEL, UTF-8) is copied verbatim. A string with nothing to
    escape is appended in one blit. *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on missing fields and non-objects. *)

val to_int : t -> int option
val to_str : t -> string option
val to_list : t -> t list option
(** Constructor projections; [None] on any other constructor. *)

val member_int : string -> t -> int option
val member_str : string -> t -> string option
val member_list : string -> t -> t list option
(** [member] composed with the matching projection — the accessors the
    corpus and witness readers (fleet, trace summary) are built from. *)

val of_string : string -> (t, string) result
(** Full JSON parser (objects, arrays, strings with escapes, numbers,
    literals). A [\u] escape takes exactly four hex digits and decodes
    to UTF-8; a surrogate pair decodes to one four-byte code point, and
    a lone surrogate is an error. [Error] carries a position-tagged
    message. *)

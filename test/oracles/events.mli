(** The tree-building JSON event encoding {!Obs.Sink.add_event}
    replaced — a field list wrapped in an {!Obs.Json.Obj} and printed —
    and the per-byte string escaper behind {!Obs.Json.escape_to}'s
    no-escape fast path, kept as their differential oracles. *)

val event_fields : Obs.Sink.event -> (string * Obs.Json.t) list
(** [name]/[cat]/[ph]/[ts]/[pid]/[tid], [s:"t"] on instants, [args]
    when non-empty. *)

val event_json : Obs.Sink.event -> Obs.Json.t
(** [Obj (event_fields e)]. *)

val escape_bytewise : string -> string
(** [s] as a quoted JSON string, escaped one byte at a time. *)

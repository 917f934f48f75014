(** ABD messages as single unboxed ints.

    Bit-field layout, LSB first: [tag:2 | reg:10 | op:16 | ts:16 |
    value:18] — 62 bits, inside OCaml's 63-bit immediate range. A network
    instantiated at ['m = int] keeps its payload rings as [int array]s,
    so the packed chaos fleet's send/deliver path allocates nothing.

    Encoders are unchecked (hot path); {!Chaos.validate} rejects, via
    {!fits_static}, every configuration that could overflow a field. *)

val max_reg : int
val max_op : int
val max_ts : int
val max_value : int

(** {1 Tags} — mirror the [Abd.msg] constructors. *)

val t_write_req : int
val t_write_ack : int
val t_read_req : int
val t_read_reply : int

(** {1 Encoders} *)

val write_req : reg:int -> ts:int -> value:int -> op:int -> int
val write_ack : reg:int -> op:int -> int
val read_req : reg:int -> op:int -> int
val read_reply : reg:int -> ts:int -> value:int -> op:int -> int

(** {1 Decoders} — mask-and-shift; unused fields of a tag decode as 0. *)

val tag : int -> int
val reg : int -> int
val op : int -> int
val ts : int -> int
val value : int -> int

val fits_static : registers:int -> writes:int -> max_ops:int -> bool
(** Every field of a static ABD workload with these bounds fits the
    layout: registers in [0..max_reg], timestamps and values bounded by
    the write count, per-node operation ids bounded by [max_ops]. *)

(** The boxed static chaos fleet: one {!Msgpass.Abd} record per process,
    ['v Abd.msg] constructors on the wire and a fresh network per run —
    the builder {!Msgpass.Chaos}'s pooled packed fleet replaced, kept as
    its differential oracle. *)

val to_msg : int -> int Msgpass.Abd.msg
(** Decode a {!Msgpass.Pack}ed message to the boxed message type. *)

val of_msg : int Msgpass.Abd.msg -> int
(** Encode a boxed message; fields must be in range (unchecked). *)

val prop_packed_matches_boxed : QCheck.Test.t
(** The pooled packed fleet and a freshly built boxed one agree — plan,
    history, event and delivery counts, verdict and hop mask — on seeded
    random runs of the [sound] and [frontier] presets at several [n], on
    replays of those runs' compiled plans, and on replays of mutants and
    crossovers of them. *)

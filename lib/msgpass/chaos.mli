(** Chaos campaigns: ABD register emulations under injected faults, with
    machine-checked atomicity verdicts and shrunk counterexamples.

    One run drives an [n]-process {!Net} of ABD peers (the {!Abd} state
    machine, flattened and {!Pack}ed), gives process 0 a script of writes
    to register 0 and processes [1..readers] a script of sequential reads,
    drives deliveries through a {!Faults} layer, and records every
    operation's invocation/response on a logical clock. Fleets are pooled
    per domain and per fleet shape ([n], [t], [quorum], [writes],
    [readers], [reads], [membership]): a run resets a pooled fleet rather
    than building one.
    The recorded history is handed to {!Check.Linearize}: a sound quorum
    ([n - t], [t < n/2]) must yield [Linearizable] under any plan — crash,
    drop, duplication, reordering, delay — while the [t = n/2] frontier
    (disjoint quorums, the Section 9 open problem staged by E13) admits
    runs whose completed write vanishes from a later read:
    [Nonlinearizable], found by seed search rather than eyeballing.

    A failing random run is then {e shrunk}: {!Check.Shrink.ddmin} deletes
    fault-plan actions while replaying ({!run_plan}) keeps the verdict,
    converging on a 1-minimal plan — for the frontier configuration,
    around 17 delivery events: one write-request delivery, one read served
    by fresh copies, one read served by stale ones.

    With [membership] set, the fleet is dynamic instead: {!Dynreg} peers
    over a churning membership, with an α-bounded schedule of
    enter/leave events rolled per run (the ACEKW adversary) and quorums
    sized against gossiped views widened by [churn_slack]. The same
    client harness, pool, checker, shrinker and replay machinery applies
    — churn events are ordinary plan actions. *)

type dyn = {
  seed_members : int;  (** slots [0..seed_members-1] present at start *)
  churn_rate : int;  (** α: max churn events per window; [0] = no churn *)
  churn_window : int;  (** window length, in fault events *)
  churn_slack : int;
      (** quorum widening handed to {!Dynreg.create} — sound when at
          least the churn rate *)
  width_bits : int option;  (** timestamp width; [None] = unbounded *)
  joiner_reads : int;  (** reads each joiner runs after activating *)
}

type config = {
  n : int;
  t : int;  (** resilience parameter handed to {!Abd.create} *)
  quorum : int option;  (** override; [None] = the sound [n - t] *)
  writes : int;  (** writer ops: values [1..writes] to register 0 *)
  readers : int;  (** processes [1..readers] run read scripts *)
  reads : int;  (** sequential reads per reader *)
  crashes : int;  (** up to this many seeded random crash injections *)
  profile : Faults.profile;
  max_events : int;
  membership : dyn option;
      (** [None]: the static ABD fleet, {!Pack}ed. [Some]: the dynamic
          {!Dynreg} fleet ([t] and [quorum] are then unused — quorums
          come from views). *)
}

val sound : ?n:int -> ?t:int -> unit -> config
(** Default [n = 4], [t = 1]: quorum [n - t] with crash, drop, duplication,
    reorder and delay faults (drops capped per channel so operations keep
    completing; safety never depends on the cap). *)

val frontier : ?n:int -> unit -> config
(** The E13 configuration: quorum [n / 2], no crashes, delivery faults
    only — the campaign that must find a stale read. *)

val churn :
  ?n:int ->
  ?seed_members:int ->
  ?rate:int ->
  ?window:int ->
  ?slack:int ->
  ?width_bits:int ->
  unit ->
  config
(** The sound dynamic configuration: default [n = 8] slots, 5 seeded,
    one churn event per 60-event window, quorums widened by the rate
    ([slack] defaults to [rate]). No crashes — the preset isolates the
    churn axis. [width_bits] additionally bounds Dynreg timestamps. *)

val churn_frontier : ?n:int -> ?seed_members:int -> unit -> config
(** Above-bound churn with zero slack under the static frontier's
    delay/reorder profile — the campaign that must find a stale read
    caused by reconfiguration: a write acknowledged partly by members
    about to leave, then invisible to a plain majority of survivors. *)

val validate : config -> (config * string list, string) result
(** Construction-time validation. [Error] for unsatisfiable, vacuous or
    unrepresentable settings: [n] outside [1..{!Net.max_slots}], negative
    counts, quorum outside [1..n], a static config without a quorum
    override whose [t] is not below [n/2], a static config whose [writes]
    or [reads] overflow the {!Pack} message fields, bad churn parameters.
    [Ok] pairs a possibly-clamped config with human-readable warnings
    (today: [crashes > t] clamps to [t]). {!campaign} applies this
    itself — hard errors raise [Invalid_argument], warnings print to
    stderr once per campaign — and every run raises [Invalid_argument]
    on a hard error. *)

type rng_point = {
  rng_state : int64;
      (** the {!Bits.Rng} stream state at the start of the fault loop —
          after the crash and churn patterns were rolled *)
  crash_at : (int * int) list;  (** the crash schedule that roll produced *)
  churn : Membership.churn;  (** the churn schedule ditto *)
}
(** The resolved randomness of one run: everything {!run_at} needs to
    re-execute a single mid-campaign run without re-rolling the prefix
    of the stream that led to it. *)

type outcome = {
  verdict : int Check.Linearize.verdict;
  history : int Check.Linearize.event list;
  plan : Faults.compiled;
      (** the replayable record of the run, in packed opcode form —
          {!Faults.decompile} recovers the action list when one is
          needed (shrinking, corpus persistence) *)
  events : int;  (** fault-layer actions executed *)
  deliveries : int;
  completed : int;  (** operations that got a response *)
  hop_mask : int;
      (** {!Net.hop_mask} of the run's network: which hop-latency buckets
          its deliveries occupied — a fleet coverage signal *)
  rng_point : rng_point option;
      (** [Some] for randomized runs ({!run_random}, {!run_at});
          [None] for scripted replays ({!run_plan}) *)
}

val failed : outcome -> bool

val run_random : seed:int -> config -> outcome
(** One seeded campaign run: random crash pattern (at most
    [config.crashes], never more than [config.t] processes), then
    {!Faults.run_random} until quiescence or [config.max_events]. *)

val run_at : rng_point -> config -> outcome
(** Re-execute one randomized run from its recorded {!rng_point} —
    bit-for-bit: [run_at (Option.get o.rng_point) config] for an
    [o = run_random ~seed config] reproduces [o]'s plan, history and
    verdict without re-rolling the crash-derivation prefix. The per-run
    trace instants ([chaos.run]) carry the point's fields, so any single
    run of a traced campaign is replayable from the trace alone. *)

val run_plan : config -> Faults.plan -> outcome
(** Deterministic replay of a plan against a freshly reset fleet —
    bit-for-bit:
    [run_plan c (Faults.decompile (run_random ~seed c).plan)] reproduces
    the run. The plan is {!Faults.compile}d first, so out-of-range
    operands raise [Invalid_argument] before anything executes. *)

val run_compiled : config -> Faults.compiled -> outcome
(** {!run_plan} over an already-compiled plan — what the fleet executes
    for corpus entries and mutants, which it holds compiled. *)

val shrink : config -> Faults.plan -> Faults.plan * int
(** ddmin a failing plan down to a 1-minimal failing plan, and the number
    of replays spent. Returns the input unchanged when it does not fail. *)

type found = {
  seed : int;
  original : outcome;
  shrunk : Faults.plan;
  shrunk_outcome : outcome;  (** replay of the shrunk plan: still failing *)
  shrink_tests : int;
}

type campaign = {
  runs : int;  (** runs actually completed *)
  requested : int;  (** runs asked for *)
  degraded : bool;  (** the deadline stopped the campaign early *)
  violations : int;
  total_events : int;
  total_completed : int;
  first : found option;  (** first violation, shrunk and re-verified *)
}

val campaign :
  ?deadline:float -> ?jobs:int -> seed:int -> runs:int -> config -> campaign
(** Seeds [seed .. seed + runs - 1], every run checked; the first failing
    run is shrunk and its shrunk plan replayed. [deadline] (seconds,
    default none) is checked between runs: when it passes, the campaign
    stops early with [degraded = true] and however many runs it finished —
    graceful degradation rather than an unbounded tail. An individual run
    is already bounded by [config.max_events], so the overshoot past the
    deadline is at most one run (plus one shrink, if that run fails).

    [jobs] (default 1) fans the seeded runs — mutually independent by
    construction — over a domain pool ({!Sched.Par.run_units}). Outcomes
    are folded in seed order on the calling domain, where the per-run
    metrics, trace instants and the first violation's shrink also happen:
    for a fixed [seed], verdicts, counts and traces are byte-identical
    across any [jobs]. The one exception is a tripped [deadline], where
    how many runs finished inherently depends on the pool; the fold still
    consumes a contiguous seed prefix, mirroring sequential semantics. *)

type verdict =
  | Verified_sampled of { runs : int; requested : int }
      (** no violation in [runs] seeded runs; [runs < requested] means the
          deadline degraded the campaign *)
  | Violation of found  (** a nonlinearizable run, shrunk and replayed *)

val verdict : campaign -> verdict
val verdict_ok : verdict -> bool
val pp_verdict : Format.formatter -> verdict -> unit

val pp_campaign : Format.formatter -> campaign -> unit

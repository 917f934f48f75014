(** Exhaustive enumeration of schedules — the model-checking side of the
    simulator.

    Impossibility arguments in the paper quantify over {e all} executions;
    for small systems (2–3 processes, short protocols) we can visit all of
    them. The engine walks a single scheduler state depth-first, undoing
    steps on backtrack instead of copying the state per branch, merges
    interleavings that converge to the same canonical state, and prunes
    redundant orderings of commuting operations (sleep-set partial-order
    reduction). Together these preserve the set of reachable {e final}
    states — every distinct terminal state is still visited exactly once —
    while the number of explored nodes collapses from the full
    [C(2L, L) ~ 4^L] interleaving tree. The original copy-per-branch
    walker is the reference oracle of the differential tests
    (test/oracles/naive_explore.ml). See DESIGN.md "Exploration engine"
    for the soundness argument. *)

type stats = {
  nodes : int;  (** DFS nodes expanded (including terminals) *)
  terminals : int;  (** complete executions handed to the visitor *)
  deduped : int;  (** subtree re-entries skipped by the visited set *)
  pruned : int;  (** step branches skipped by sleep-set POR *)
  truncated : int;  (** paths abandoned at the step budget *)
  peak_depth : int;  (** deepest path, in memory steps *)
}

val zero_stats : stats
val add_stats : stats -> stats -> stats

val pp_stats : Format.formatter -> stats -> unit
(** One line: [nodes=… terminals=… deduped=… pruned=… truncated=…
    peak_depth=…] — the same keys as the [explore.*] metrics and the
    bench JSON, so every surface reports identical names. *)

val publish_stats : stats -> unit
(** Fold one run's tallies into the [explore.*] metrics registry (and
    count one run). [explore] does this itself unless [quiet]; the
    parallel driver publishes its merged totals through here so a
    partitioned run still registers as a single exploration. *)

type outcome =
  | Complete  (** every reachable terminal state was visited *)
  | Exhausted of exhausted
      (** a {!Budget} cap tripped first; the unvisited subtrees are on the
          frontier *)

and exhausted = {
  frontier : Budget.frontier;
      (** the root-to-subtree choice path of every part of the state space
          the budgeted run did not enter — serializable
          ({!Budget.frontier_to_string}) and resumable ([explore ~resume]) *)
  reason : Budget.stop_reason;
}

type result = { stats : stats; outcome : outcome }

val pp_outcome : Format.formatter -> outcome -> unit
(** [complete], or [exhausted (node-cap, 17 frontier paths)]. *)

val explore :
  ?max_steps:int ->
  ?max_crashes:int ->
  ?dedup:bool ->
  ?por:bool ->
  ?budget:Budget.t ->
  ?resume:Budget.frontier ->
  ?clock:(unit -> float) ->
  ?quiet:bool ->
  ?on_truncated:(('v, 'i, 'a) Scheduler.state -> unit) ->
  init:(unit -> ('v, 'i, 'a) Scheduler.state) ->
  (('v, 'i, 'a) Scheduler.state -> unit) ->
  result
(** The engine. Visits every reachable terminal state (all processes decided
    or crashed) of every interleaving of the running processes, branching on
    crashing any running process before any step while fewer than
    [max_crashes] (default 0) have crashed. Crash branches are canonical:
    between two steps, crash pids only increase — the crash {e set} is what
    matters, not its order. [dedup] (default true) keys a visited set on the
    per-process observation histories; [por] (default true) enables
    sleep-set commutativity pruning. With both off the engine expands
    exactly the naive walker's tree (one terminal visit per schedule).
    Paths exceeding [max_steps] (default 10_000) memory steps are abandoned
    after calling [on_truncated] (default: nothing) — the guard against
    non-wait-free protocols.

    [budget] (default {!Budget.unlimited}) bounds the whole exploration:
    when its deadline, node cap, or terminal cap trips, no further subtree
    is entered and the result's outcome is [Exhausted] with the frontier of
    abandoned subtrees; the dedup-table cap degrades memoization instead of
    stopping. [resume] (a frontier from an earlier [Exhausted] result over
    the {e same} [init]) explores exactly the abandoned subtrees: chaining
    budgeted calls until [Complete] visits every terminal state a single
    unbudgeted call would have, and with [dedup]/[por] off the terminal
    counts partition exactly. [clock] (default: the shared {!Budget.now})
    is the deadline's time source, overridable for deterministic tests —
    the shared default means concurrent explorations judge the same
    deadline. [quiet] (default false) marks the call as an internal
    segment of a larger run: no span, no budget-trip instant, no registry
    publication — {!Par.explore} uses it for seed passes and per-unit
    worker calls and reports the merged whole once.

    The visitor receives the engine's single journaled state; it may read
    anything ({!Scheduler.decisions}, {!Scheduler.trace}, memory contents,
    step counts — all reflect exactly the current path) but must not step,
    crash, or undo it, and must not retain it after returning. *)

val interleavings :
  ?max_steps:int ->
  ?budget:Budget.t ->
  ?on_truncated:(('v, 'i, 'a) Scheduler.state -> unit) ->
  init:(unit -> ('v, 'i, 'a) Scheduler.state) ->
  (('v, 'i, 'a) Scheduler.state -> unit) ->
  outcome
(** [explore] with no crashes and the default reductions: the visitor runs
    once per distinct reachable final state, and the outcome says whether
    the enumeration was complete. Callers that need one visit per schedule
    (counting, probability weighting) use {!count} or
    [explore ~dedup:false ~por:false]. *)

val interleavings_with_crashes :
  ?max_steps:int ->
  ?budget:Budget.t ->
  ?on_truncated:(('v, 'i, 'a) Scheduler.state -> unit) ->
  max_crashes:int ->
  init:(unit -> ('v, 'i, 'a) Scheduler.state) ->
  (('v, 'i, 'a) Scheduler.state -> unit) ->
  outcome
(** [explore ~max_crashes] keeping only the outcome. *)

val find :
  ?max_steps:int ->
  ?budget:Budget.t ->
  init:(unit -> ('v, 'i, 'a) Scheduler.state) ->
  (('v, 'i, 'a) Scheduler.state -> bool) ->
  ('v, 'i, 'a) Scheduler.state option * outcome
(** First complete crash-free execution satisfying the predicate. [None]
    paired with [Complete] means no such execution exists; [None] with
    [Exhausted _] means the budget tripped before the search could say. *)

val count :
  ?max_steps:int ->
  ?budget:Budget.t ->
  init:(unit -> ('v, 'i, 'a) Scheduler.state) ->
  unit ->
  int * outcome
(** Number of complete crash-free interleavings — schedules, not distinct
    states, so this runs with [dedup] and [por] off. The count is exact
    only when the outcome is [Complete]. *)

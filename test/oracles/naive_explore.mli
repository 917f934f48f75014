(** The copy-per-branch schedule walkers {!Sched.Explore} replaced: fork
    the full state ({!Sched.Scheduler.copy}) at every branch, visit once
    per maximal schedule, no reductions. Kept as the reference oracle —
    the differential tests assert the optimized engine reaches exactly
    the same terminal states. *)

val interleavings :
  ?max_steps:int ->
  ?on_truncated:(('v, 'i, 'a) Sched.Scheduler.state -> unit) ->
  init:(unit -> ('v, 'i, 'a) Sched.Scheduler.state) ->
  (('v, 'i, 'a) Sched.Scheduler.state -> unit) ->
  unit
(** Every crash-free maximal schedule, one visit each. Paths longer than
    [max_steps] (default 10_000) steps go to [on_truncated] instead. *)

val interleavings_with_crashes :
  ?max_steps:int ->
  ?on_truncated:(('v, 'i, 'a) Sched.Scheduler.state -> unit) ->
  max_crashes:int ->
  init:(unit -> ('v, 'i, 'a) Sched.Scheduler.state) ->
  (('v, 'i, 'a) Sched.Scheduler.state -> unit) ->
  unit
(** {!interleavings} with crash branching (canonical increasing-pid
    crash order, so each crash set is enumerated once per position). *)

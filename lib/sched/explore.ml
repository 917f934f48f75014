(* The exploration engine. Three independent mechanisms stack on top of a
   depth-first walk over one shared, journaled scheduler state:

   - undo-based backtracking: instead of [Scheduler.copy] at every branch
     (memory copy + five array copies), a branch is [step]; recurse;
     [undo_to] — the journal is a flat arena, so a branch allocates
     nothing at all in raw mode.

   - state deduplication: the canonical name of a state is the per-process
     observation history (which ops ran, and what every read returned).
     Programs are deterministic and registers are single-writer, so equal
     histories imply equal continuations, statuses, and memory — a revisited
     canonical state's subtree is skipped. The hash of the canonical name
     is maintained incrementally, Zobrist-style: each observation cell
     contributes a pseudo-random word indexed by (pid, per-pid position,
     value), XORed into one running hash — stepping and undoing are both
     a single XOR, never a rehash of the histories. Exact structural
     comparison inside each bucket remains the correctness backstop.

   - sleep-set partial-order reduction: after the subtree stepping process
     [p] is explored, sibling subtrees need not step [p] again until some
     process performs an operation conflicting with [p]'s next op. In SWMR
     memory only a read and a write of the same register conflict: any two
     reads commute, and writes by distinct processes land in distinct
     registers.

   Sleep sets and the visited set interact (Godefroid's state-matching
   caveat): a state first met with sleep set S had the transitions in S
   pruned, so a later visit with sleep set T only skips the subtree when
   S ⊆ T; otherwise the transitions in S \ T are re-expanded and the stored
   set shrinks to S ∩ T. The canonical crash order (increasing pid between
   steps) is tracked the same way: each visited state remembers the lowest
   crash floor it was expanded with. See DESIGN.md "Exploration engine".

   The raw walk (dedup and POR off) is the benchmark floor and the
   differential baseline, so its inner loop is kept allocation-free:
   enabled sets come from {!Scheduler.running_mask}, observation keys and
   hashes are only maintained when dedup is on, conflict peeks only when
   POR is on, and root-to-node choice paths are only consed when a budget
   could trip and need them for the resumable frontier. *)

type stats = {
  nodes : int;
  terminals : int;
  deduped : int;
  pruned : int;
  truncated : int;
  peak_depth : int;
}

let zero_stats =
  { nodes = 0; terminals = 0; deduped = 0; pruned = 0; truncated = 0;
    peak_depth = 0 }

let add_stats a b =
  {
    nodes = a.nodes + b.nodes;
    terminals = a.terminals + b.terminals;
    deduped = a.deduped + b.deduped;
    pruned = a.pruned + b.pruned;
    truncated = a.truncated + b.truncated;
    peak_depth = max a.peak_depth b.peak_depth;
  }

(* Field names match the Obs.Metrics registry (explore.nodes, ...,
   explore.peak_depth) and the bench JSON, so every surface that reports
   the engine reports identical keys. *)
let pp_stats ppf s =
  Format.fprintf ppf
    "nodes=%d terminals=%d deduped=%d pruned=%d truncated=%d peak_depth=%d"
    s.nodes s.terminals s.deduped s.pruned s.truncated s.peak_depth

(* The per-run [stats] record is a view the engine also folds into the
   process-wide registry when a run finishes: local refs keep the hot
   loop allocation-free, the registry keeps the cross-run tallies that
   snapshots and traces export. *)
let m_nodes = Obs.Metrics.counter "explore.nodes"
let m_terminals = Obs.Metrics.counter "explore.terminals"
let m_deduped = Obs.Metrics.counter "explore.deduped"
let m_pruned = Obs.Metrics.counter "explore.pruned"
let m_truncated = Obs.Metrics.counter "explore.truncated"
let m_peak_depth = Obs.Metrics.gauge "explore.peak_depth"
let m_budget_trips = Obs.Metrics.counter "explore.budget_trips"
let m_runs = Obs.Metrics.counter "explore.runs"

let h_terminal_depth =
  Obs.Metrics.histogram
    ~bounds:[| 4; 8; 16; 32; 64; 128; 256; 512; 1024; 4096 |]
    "explore.terminal_depth"

let publish_stats s =
  Obs.Metrics.inc m_runs;
  Obs.Metrics.add m_nodes s.nodes;
  Obs.Metrics.add m_terminals s.terminals;
  Obs.Metrics.add m_deduped s.deduped;
  Obs.Metrics.add m_pruned s.pruned;
  Obs.Metrics.add m_truncated s.truncated;
  Obs.Metrics.set_max m_peak_depth s.peak_depth

(* One observation per step of one process. A write's value is a
   deterministic function of the history so far, so only reads need to
   record what they returned. *)
type ('v, 'i) cell =
  | C_write
  | C_read of 'v
  | C_write_input
  | C_read_input of 'i option
  | C_crash

type visited_entry = { mutable sleep_stored : int; mutable floor_stored : int }

type outcome =
  | Complete
  | Exhausted of exhausted

and exhausted = { frontier : Budget.frontier; reason : Budget.stop_reason }

type result = { stats : stats; outcome : outcome }

let pp_outcome ppf = function
  | Complete -> Format.pp_print_string ppf "complete"
  | Exhausted { frontier; reason } ->
      Format.fprintf ppf "exhausted (%a, %d frontier paths)"
        Budget.pp_stop_reason reason
        (Budget.frontier_size frontier)

let popcount m =
  let c = ref 0 and m = ref m in
  while !m <> 0 do
    c := !c + (!m land 1);
    m := !m lsr 1
  done;
  !c

let explore ?(max_steps = 10_000) ?(max_crashes = 0) ?(dedup = true)
    ?(por = true) ?(budget = Budget.unlimited) ?resume ?clock ?(quiet = false)
    ?(on_truncated = fun _ -> ()) ~init visit =
  let state = init () in
  Scheduler.enable_journal state;
  let n = Scheduler.n state in
  if n >= Sys.int_size - 1 then
    invalid_arg "Explore.explore: sleep-set bitmasks need n < word size";
  let mem = Scheduler.memory state in
  (* Per-pid observation histories (newest cell first), their lengths, and
     the single running Zobrist hash over all of them. Maintained only
     when [dedup] is on — the raw walk never touches them. *)
  let keys = Array.make n ([] : _ cell list) in
  let pdepth = Array.make n 0 in
  let zhash = ref 0 in
  let crash_vh = Zobrist.value_hash C_crash in
  let visited : (int, (('v, 'i) cell list array * visited_entry) list ref)
      Hashtbl.t =
    Hashtbl.create 1024
  in
  let monitor = Budget.arm ?clock budget in
  (* An unlimited budget can never trip: skip the per-node poll, and skip
     consing root-to-node choice paths — they exist only to seed the
     resumable frontier a trip would produce. *)
  let track_budget = not (Budget.is_unlimited budget) in
  (* [quiet] marks an internal segment of a larger run (the parallel
     driver's seed passes and per-unit worker calls): no span, no
     budget-trip instant, no registry publication — the driver reports
     the merged whole once, so telemetry keeps the shape of a single
     exploration regardless of how the work was partitioned. *)
  if not quiet then
    Obs.Span.begin_ ~cat:"explore"
      ~args:
        [
          ("n", Obs.Json.Int n);
          ("max_steps", Obs.Json.Int max_steps);
          ("max_crashes", Obs.Json.Int max_crashes);
          ("dedup", Obs.Json.Bool dedup);
          ("por", Obs.Json.Bool por);
        ]
      "explore";
  (* Once a cap trips, no further subtree is entered: every node reached
     after the trip records its root-to-node choice path instead, and the
     collected paths become the resumable frontier. *)
  let stop = ref None in
  let frontier = ref [] in
  let visited_count = ref 0 in
  let nodes = ref 0 and terminals = ref 0 and deduped = ref 0
  and pruned = ref 0 and truncated = ref 0 and peak_depth = ref 0 in
  (* Does the next op of process [i] conflict with the next op of process
     [j]?  Only a read and a write of the same (SWMR) register do. *)
  let conflict a i b j =
    match (a, b) with
    | Scheduler.Op_write, Scheduler.Op_read r -> r = i
    | Scheduler.Op_read r, Scheduler.Op_write -> r = j
    | Scheduler.Op_write_input, Scheduler.Op_read_input r -> r = i
    | Scheduler.Op_read_input r, Scheduler.Op_write_input -> r = j
    | _ -> false
  in
  let indep_filter op p mask =
    let kept = ref 0 in
    for u = 0 to n - 1 do
      if
        mask land (1 lsl u) <> 0
        && not (conflict op p (Scheduler.peek state u) u)
      then kept := !kept lor (1 lsl u)
    done;
    !kept
  in
  let observation p =
    match Scheduler.peek state p with
    | Scheduler.Op_write -> C_write
    | Scheduler.Op_read j -> C_read (Memory.peek mem j)
    | Scheduler.Op_write_input -> C_write_input
    | Scheduler.Op_read_input j -> C_read_input (Memory.read_input mem j)
    | Scheduler.Op_halted -> assert false
  in
  (* Record one observation of process [p]: cons the cell, XOR its
     Zobrist contribution into the running hash. Undo is the caller
     restoring the saved list head, length, and hash word. *)
  let push_obs p obs =
    keys.(p) <- obs :: keys.(p);
    zhash :=
      !zhash
      lxor Zobrist.cell ~pid:p ~pos:pdepth.(p) ~vhash:(Zobrist.value_hash obs);
    pdepth.(p) <- pdepth.(p) + 1
  in
  (* A crashed process's trailing reads are invisible: they wrote nothing
     and its decision is void, so crashing right away and crashing after a
     few more reads reach the same state. Canonicalizing the victim's key
     (drop the read suffix, then append the crash marker) merges them.
     Reads that precede a write must stay — they determined its value.
     Each dropped cell's Zobrist contribution is XORed back out, so the
     canonicalization is O(dropped suffix), not O(history). *)
  let rec strip_reads p key pos h =
    match key with
    | ((C_read _ | C_read_input _) as c) :: rest ->
        strip_reads p rest (pos - 1)
          (h lxor Zobrist.cell ~pid:p ~pos:(pos - 1)
                 ~vhash:(Zobrist.value_hash c))
    | _ -> (key, pos, h)
  in
  let push_crash_obs p =
    let stripped, pos, h = strip_reads p keys.(p) pdepth.(p) !zhash in
    keys.(p) <- C_crash :: stripped;
    zhash := h lxor Zobrist.cell ~pid:p ~pos ~vhash:crash_vh;
    pdepth.(p) <- pos + 1
  in
  (* Whenever a subtree has no dedup, no POR, no budget to poll, no trace
     to journal and no crash budget left, it is a pure product walk:
     hand it to the fused scheduler-level DFS, which keeps per-edge undo
     data on the call stack instead of in the journal. This covers the
     whole tree in raw mode, and the post-last-crash subtrees of a raw
     crashy run. *)
  let fused =
    (not dedup) && (not por) && (not track_budget)
    && not (Scheduler.recording_trace state)
  in
  let fused_visit state depth =
    if !Obs.Metrics.hot then Obs.Metrics.observe h_terminal_depth depth;
    visit state
  in
  let rec node ~sleep ~depth ~crashes ~floor ~path =
    if fused && crashes >= max_crashes then begin
      let nd, tm, tr, pk =
        Scheduler.raw_dfs state ~depth ~max_depth:max_steps ~visit:fused_visit
          ~on_truncated
      in
      nodes := !nodes + nd;
      terminals := !terminals + tm;
      truncated := !truncated + tr;
      if pk > !peak_depth then peak_depth := pk
    end
    else if track_budget && !stop <> None then
      frontier := List.rev path :: !frontier
    else
      match
        if track_budget then
          Budget.stopped monitor ~nodes:!nodes ~terminals:!terminals
        else None
      with
      | Some r ->
          stop := Some r;
          if not quiet then begin
            Obs.Metrics.inc m_budget_trips;
            Obs.Span.instant ~cat:"explore"
              ~args:
                [
                  ("reason", Obs.Json.Str (Budget.stop_reason_to_string r));
                  ("nodes", Obs.Json.Int !nodes);
                  ("terminals", Obs.Json.Int !terminals);
                ]
              "budget-trip"
          end;
          frontier := List.rev path :: !frontier
      | None -> begin
          incr nodes;
          (* Periodic progress sample, cadenced on the node count so the
             instants replay identically; [quiet] internal segments (and
             the fused raw walk, which never reaches this function per
             node) emit none. *)
          if (not quiet) && !nodes land 4095 = 0 then
            Obs.Span.instant ~cat:"explore"
              ~args:
                [
                  ("nodes", Obs.Json.Int !nodes);
                  ("terminals", Obs.Json.Int !terminals);
                  ("peak_depth", Obs.Json.Int !peak_depth);
                ]
              "explore.progress";
          if depth > !peak_depth then peak_depth := depth;
          let enabled = Scheduler.running_mask state in
          let terminal = enabled = 0 in
          let sleep = if por then sleep land enabled else 0 in
          if (not terminal) && depth >= max_steps then begin
            incr truncated;
            on_truncated state
          end
          else if not dedup then
            fresh ~sleep ~depth ~crashes ~floor ~enabled ~path
          else begin
            let h = !zhash in
            let bucket =
              match Hashtbl.find_opt visited h with
              | Some b -> b
              | None ->
                  let b = ref [] in
                  Hashtbl.add visited h b;
                  b
            in
            match List.find_opt (fun (k, _) -> k = keys) !bucket with
            | None ->
                (* The dedup-table cap bounds memory, not progress: a full
                   table stops memoizing new states and the walk carries
                   on, merely re-exploring convergent interleavings. *)
                if not (Budget.visited_full monitor ~visited:!visited_count)
                then begin
                  bucket :=
                    ( Array.copy keys,
                      { sleep_stored = sleep; floor_stored = floor } )
                    :: !bucket;
                  incr visited_count
                end;
                fresh ~sleep ~depth ~crashes ~floor ~enabled ~path
            | Some (_, _) when terminal -> incr deduped
            | Some (_, e) ->
                (* Transitions slept on every earlier visit but awake now
                   must be expanded; likewise crash pids below every
                   earlier floor. *)
                let reopen_steps =
                  e.sleep_stored land lnot sleep land enabled
                in
                let reopen_crashes =
                  crashes < max_crashes && floor < e.floor_stored
                in
                if reopen_steps = 0 && not reopen_crashes then incr deduped
                else begin
                  let covered =
                    sleep lor (enabled land lnot e.sleep_stored)
                  in
                  let crash_hi =
                    if reopen_crashes then e.floor_stored else floor
                  in
                  e.sleep_stored <- e.sleep_stored land sleep;
                  e.floor_stored <- min e.floor_stored floor;
                  expand ~step_mask:reopen_steps ~covered ~crash_lo:floor
                    ~crash_hi ~depth ~crashes ~enabled ~path
                end
          end
        end
  and fresh ~sleep ~depth ~crashes ~floor ~enabled ~path =
    if enabled = 0 then begin
      incr terminals;
      if !Obs.Metrics.hot then Obs.Metrics.observe h_terminal_depth depth;
      visit state
    end
    else begin
      if sleep <> 0 then pruned := !pruned + popcount sleep;
      expand ~step_mask:(enabled land lnot sleep) ~covered:sleep
        ~crash_lo:floor ~crash_hi:n ~depth ~crashes ~enabled ~path
    end
  and expand ~step_mask ~covered ~crash_lo ~crash_hi ~depth ~crashes ~enabled
      ~path =
    let covered = ref covered in
    for p = 0 to n - 1 do
      if step_mask land (1 lsl p) <> 0 then begin
        let child_sleep =
          if por then indep_filter (Scheduler.peek state p) p !covered else 0
        in
        let old_key = keys.(p) and old_h = !zhash in
        if dedup then push_obs p (observation p);
        let m = Scheduler.journal_mark state in
        Scheduler.step state p;
        node ~sleep:child_sleep ~depth:(depth + 1) ~crashes ~floor:0
          ~path:(if track_budget then Budget.Step p :: path else path);
        Scheduler.undo_to state m;
        if dedup then begin
          keys.(p) <- old_key;
          pdepth.(p) <- pdepth.(p) - 1;
          zhash := old_h
        end;
        covered := !covered lor (1 lsl p)
      end
    done;
    if crashes < max_crashes then
      for p = max 0 crash_lo to crash_hi - 1 do
        if enabled land (1 lsl p) <> 0 then begin
          (* A crash only touches the victim's status: it commutes with
             every other process's next op, so the whole covered set stays
             asleep in the crash subtree. *)
          let child_sleep = if por then !covered land lnot (1 lsl p) else 0 in
          let old_key = keys.(p) and old_h = !zhash and old_d = pdepth.(p) in
          if dedup then push_crash_obs p;
          let m = Scheduler.journal_mark state in
          Scheduler.crash state p;
          node ~sleep:child_sleep ~depth ~crashes:(crashes + 1)
            ~floor:(p + 1)
            ~path:(if track_budget then Budget.Crash p :: path else path);
          Scheduler.undo_to state m;
          if dedup then begin
            keys.(p) <- old_key;
            pdepth.(p) <- old_d;
            zhash := old_h
          end
        end
      done
  in
  (* Resuming re-executes a frontier path's choices (maintaining the
     observation keys exactly as [expand] would have) and explores the
     subtree below it. Fresh visited and sleep sets only ever make the
     resumed walk explore {e more} than the original would have — sound,
     and complete because every abandoned subtree is on the frontier. *)
  let run_prefix prefix =
    if !stop <> None then frontier := prefix :: !frontier
    else begin
      let saved_keys = Array.copy keys
      and saved_pdepth = Array.copy pdepth
      and saved_zhash = !zhash in
      let m0 = Scheduler.journal_mark state in
      let depth = ref 0 and crashes = ref 0 and floor = ref 0 in
      List.iter
        (fun choice ->
          match choice with
          | Budget.Step p ->
              if dedup then push_obs p (observation p);
              Scheduler.step state p;
              incr depth;
              floor := 0
          | Budget.Crash p ->
              if dedup then push_crash_obs p;
              Scheduler.crash state p;
              incr crashes;
              floor := p + 1)
        prefix;
      node ~sleep:0 ~depth:!depth ~crashes:!crashes ~floor:!floor
        ~path:(List.rev prefix);
      Scheduler.undo_to state m0;
      Array.blit saved_keys 0 keys 0 n;
      Array.blit saved_pdepth 0 pdepth 0 n;
      zhash := saved_zhash
    end
  in
  (* Visitors may abort the walk by raising ([find], the harness's early
     stop): the span still closes and the partial tallies still reach the
     registry before the exception continues. *)
  let escaped =
    match
      match resume with
      | None -> node ~sleep:0 ~depth:0 ~crashes:0 ~floor:0 ~path:[]
      | Some paths -> List.iter run_prefix paths
    with
    | () -> None
    | exception exn -> Some (exn, Printexc.get_raw_backtrace ())
  in
  let stats =
    {
      nodes = !nodes;
      terminals = !terminals;
      deduped = !deduped;
      pruned = !pruned;
      truncated = !truncated;
      peak_depth = !peak_depth;
    }
  in
  let outcome =
    match !stop with
    | None -> Complete
    | Some reason -> Exhausted { frontier = List.rev !frontier; reason }
  in
  if not quiet then begin
    publish_stats stats;
    Obs.Span.end_ ~cat:"explore"
      ~args:
        [
          ("nodes", Obs.Json.Int stats.nodes);
          ("terminals", Obs.Json.Int stats.terminals);
          ("deduped", Obs.Json.Int stats.deduped);
          ("pruned", Obs.Json.Int stats.pruned);
          ("truncated", Obs.Json.Int stats.truncated);
          ("peak_depth", Obs.Json.Int stats.peak_depth);
          ( "outcome",
            Obs.Json.Str
              (match (escaped, outcome) with
              | Some _, _ -> "aborted"
              | None, Complete -> "complete"
              | None, Exhausted { reason; _ } ->
                  Budget.stop_reason_to_string reason) );
        ]
      "explore"
  end;
  (match escaped with
  | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
  | None -> ());
  { stats; outcome }

(* {2 Compatibility wrappers} *)

let interleavings ?max_steps ?budget ?on_truncated ~init visit =
  (explore ?max_steps ?budget ?on_truncated ~init visit).outcome

let interleavings_with_crashes ?max_steps ?budget ?on_truncated ~max_crashes
    ~init visit =
  (explore ?max_steps ~max_crashes ?budget ?on_truncated ~init visit).outcome

exception Found

let find ?max_steps ?budget ~init pred =
  let result = ref None in
  let outcome = ref Complete in
  (try
     let r =
       explore ?max_steps ?budget ~init (fun state ->
           if pred state then begin
             result := Some state;
             raise Found
           end)
     in
     outcome := r.outcome
   with Found -> ());
  (!result, !outcome)

let count ?max_steps ?budget ~init () =
  let r =
    explore ?max_steps ?budget ~dedup:false ~por:false ~init (fun _ -> ())
  in
  (r.stats.terminals, r.outcome)

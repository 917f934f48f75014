module L = Check.Linearize

let m_runs = Obs.Metrics.counter "chaos.runs"
let m_violations = Obs.Metrics.counter "chaos.violations"

type dyn = {
  seed_members : int;
  churn_rate : int;
  churn_window : int;
  churn_slack : int;
  width_bits : int option;
  joiner_reads : int;
}

type config = {
  n : int;
  t : int;
  quorum : int option;
  writes : int;
  readers : int;
  reads : int;
  crashes : int;
  profile : Faults.profile;
  max_events : int;
  membership : dyn option;
}

let default_profile =
  {
    Faults.reliable with
    drop = 0.08;
    duplicate = 0.06;
    defer = 0.12;
    delay = 0.05;
    delay_span = 12;
    max_channel_drops = 4;
  }

let sound ?(n = 4) ?(t = 1) () =
  {
    n;
    t;
    quorum = None;
    writes = 2;
    readers = 2;
    reads = 3;
    crashes = t;
    profile = default_profile;
    max_events = 4_000;
    membership = None;
  }

let frontier ?(n = 4) () =
  {
    n;
    t = 0;
    quorum = Some (n / 2);
    writes = 2;
    readers = 2;
    reads = 4;
    crashes = 0;
    (* Disjoint quorums only misbehave when a write settles in one half
       while reads are served entirely by the other. Long delay bursts and
       aggressive reordering manufacture that partition; loss stays modest
       and per-channel bounded so operations still complete — a dead
       channel stalls the protocol instead of staling it. (Profile chosen
       by sweep: ~3.5% violation rate over seeds 1..200, minimal shrunk
       witnesses under 20 deliveries.) *)
    profile =
      {
        default_profile with
        drop = 0.10;
        defer = 0.3;
        delay = 0.25;
        delay_span = 40;
        max_channel_drops = 4;
      };
    max_events = 4_000;
    membership = None;
  }

(* Below-bound churn: one join-or-leave per 60-event window, quorums
   widened by exactly that rate. The writer and one reader churn among
   the seed members; the remaining slots are late joiners that run their
   read scripts after activating. No crashes — churn and crashes are
   separate budgets, and this preset isolates the churn axis. *)
let churn ?(n = 8) ?(seed_members = 5) ?(rate = 1) ?(window = 60) ?slack
    ?width_bits () =
  {
    n;
    t = 0;
    quorum = None;
    writes = 2;
    readers = 2;
    reads = 3;
    crashes = 0;
    profile = default_profile;
    max_events = 4_000;
    membership =
      Some
        {
          seed_members;
          churn_rate = rate;
          churn_window = window;
          churn_slack = Option.value slack ~default:rate;
          width_bits;
          joiner_reads = 2;
        };
  }

(* Above-bound churn with unwidened quorums: departures are rapid-fire
   (spacing ~2 events) while slack 0 sizes quorums as plain majorities
   of whatever view each node has — a write acknowledged partly by
   members about to leave can then be invisible to a read majority of
   the survivors. Delay bursts and reordering (the static frontier's
   mix) stretch the window in which the two quorums miss each other.
   The small seed group (4 of 8) maximizes how much of the write quorum
   the leavers can take with them. *)
let churn_frontier ?(n = 8) ?(seed_members = 4) () =
  let base = frontier ~n () in
  {
    base with
    quorum = None;
    membership =
      Some
        {
          seed_members;
          churn_rate = 6;
          churn_window = 12;
          churn_slack = 0;
          width_bits = None;
          joiner_reads = 2;
        };
  }

(* ------------------------------------------------------------------ *)
(* Config validation *)

let validate config =
  let err fmt = Printf.ksprintf (fun e -> Error e) fmt in
  let static = config.membership = None in
  if config.n <= 0 then err "n must be positive (got %d)" config.n
  else if config.n > Net.max_slots then
    err "n %d exceeds the network's %d slots" config.n Net.max_slots
  else if config.t < 0 then err "t must be non-negative (got %d)" config.t
  else if
    config.writes < 0 || config.readers < 0 || config.reads < 0
    || config.crashes < 0
  then
    err
      "writes, readers, reads and crashes must be non-negative (got %d, %d, \
       %d, %d)"
      config.writes config.readers config.reads config.crashes
  else if static && config.quorum = None && 2 * config.t >= config.n then
    err "t = %d needs t < n/2 (n = %d) for the sound quorum n - t" config.t
      config.n
  else if
    static
    && not
         (Pack.fits_static ~registers:config.n ~writes:config.writes
            ~max_ops:(max config.writes config.reads))
  then
    err
      "writes %d / reads %d exceed the packed message layout (at most %d \
       each)"
      config.writes config.reads
      (min Pack.max_op (min Pack.max_ts Pack.max_value))
  else
    match config.quorum with
    | Some q when q < 1 || q > config.n ->
        err "quorum %d outside 1..n (n = %d): unsatisfiable or vacuous" q
          config.n
    | _ -> (
        match config.membership with
        | Some d when d.seed_members < 1 || d.seed_members > config.n ->
            err "seed_members %d outside 1..n (n = %d)" d.seed_members config.n
        | Some d when d.churn_rate < 0 ->
            err "churn_rate must be non-negative (got %d)" d.churn_rate
        | Some d when d.churn_window < 1 ->
            err "churn_window must be positive (got %d)" d.churn_window
        | Some d when d.churn_slack < 0 ->
            err "churn_slack must be non-negative (got %d)" d.churn_slack
        | Some { width_bits = Some b; _ } when b < 1 || b > 30 ->
            err "width_bits %d outside 1..30" b
        | Some d when d.joiner_reads < 0 ->
            err "joiner_reads must be non-negative (got %d)" d.joiner_reads
        | _ ->
            (* Soft problem: more crashes than the tolerance the quorum
               was sized for. The campaign would silently clamp at the
               crash roll; clamp loudly here instead. *)
            if config.crashes > config.t then
              Ok
                ( { config with crashes = config.t },
                  [
                    Printf.sprintf
                      "crashes %d exceeds fault tolerance t = %d: clamped to \
                       %d (a quorum of n - t survives at most t crashes)"
                      config.crashes config.t config.t;
                  ] )
            else Ok (config, []))

type rng_point = {
  rng_state : int64;
  crash_at : (int * int) list;
  churn : Membership.churn;
}

type outcome = {
  verdict : int L.verdict;
  history : int L.event list;
  plan : Faults.compiled;
  events : int;
  deliveries : int;
  completed : int;
  hop_mask : int;
  rng_point : rng_point option;
}

let failed o =
  match o.verdict with L.Nonlinearizable _ -> true | L.Linearizable _ -> false

(* ------------------------------------------------------------------ *)
(* The client harness.

   Every chaos fleet is one pooled harness around a protocol node. The
   harness owns what a run records: the operation scripts against
   register 0 — pid 0 writes values [1..writes], the readers run
   sequential reads, and late joiners (dynamic fleets only) run
   [joiner_reads] reads once activated — the pending-operation table,
   and every invocation and response stamped on a shared logical clock,
   so the recorded real-time order is exactly the callback order of the
   simulation. The node ({!packed_nodes} for the static ABD fleet,
   {!dyn_nodes} for the Dynreg one) calls [next_op] to start a script
   operation and [complete] when one returns; a handler's own sends go
   out before the completion-triggered next operation's, and the
   response stamp precedes the next invocation stamp.

   Fleets are pooled per domain and per fleet shape: a run is a [reset]
   (fill the arrays, rewind the recorder, re-run the start scripts over
   [Net.reset]) rather than a rebuild, so the steady-state cost of a
   chaos run is the fault loop itself. *)

(* Growable parallel int columns holding completed operations in
   completion order: (proc, value, inv stamp, res stamp). Pid 0 is the
   only writer, so an operation is a write iff its proc is 0. *)
type hist = {
  mutable h_len : int;
  mutable h_proc : int array;
  mutable h_val : int array;
  mutable h_inv : int array;
  mutable h_res : int array;
}

let hist_append h proc value inv res =
  if h.h_len = Array.length h.h_proc then begin
    let g a =
      let b = Array.make (2 * Array.length a) 0 in
      Array.blit a 0 b 0 h.h_len;
      b
    in
    h.h_proc <- g h.h_proc;
    h.h_val <- g h.h_val;
    h.h_inv <- g h.h_inv;
    h.h_res <- g h.h_res
  end;
  let i = h.h_len in
  h.h_proc.(i) <- proc;
  h.h_val.(i) <- value;
  h.h_inv.(i) <- inv;
  h.h_res.(i) <- res;
  h.h_len <- i + 1

type client = {
  seeded : int;  (** slots [0..seeded-1] start present; the rest join *)
  writes : int;
  mutable writes_started : int;  (** also the value pid 0 is writing *)
  script_reads : int array;  (** per pid: reads in its script *)
  reads_left : int array;
  pend_inv : int array;  (** per pid: invocation stamp, -1 when idle *)
  mutable stamp : int;
  h : hist;
}

let client_create config =
  let n = config.n in
  let seeded, joiner_reads =
    match config.membership with
    | None -> (n, 0)
    | Some d -> (d.seed_members, d.joiner_reads)
  in
  let script_reads =
    Array.init n (fun me ->
        if me = 0 then 0
        else if me >= seeded then joiner_reads
        else if me <= config.readers then config.reads
        else 0)
  in
  let col () = Array.make 64 0 in
  {
    seeded;
    writes = config.writes;
    writes_started = 0;
    script_reads;
    reads_left = Array.copy script_reads;
    pend_inv = Array.make n (-1);
    stamp = 0;
    h = { h_len = 0; h_proc = col (); h_val = col (); h_inv = col (); h_res = col () };
  }

let client_reset c =
  let n = Array.length c.pend_inv in
  c.writes_started <- 0;
  Array.blit c.script_reads 0 c.reads_left 0 n;
  Array.fill c.pend_inv 0 n (-1);
  c.stamp <- 0;
  c.h.h_len <- 0

(* Start [me]'s next script operation, stamping its invocation: a write
   of [v >= 1], a read ([0]), or nothing left to run ([-1]). *)
let next_op c me =
  let k =
    if me = 0 then
      if c.writes_started < c.writes then begin
        c.writes_started <- c.writes_started + 1;
        c.writes_started
      end
      else -1
    else if c.reads_left.(me) > 0 then begin
      c.reads_left.(me) <- c.reads_left.(me) - 1;
      0
    end
    else -1
  in
  if k >= 0 then begin
    c.stamp <- c.stamp + 1;
    c.pend_inv.(me) <- c.stamp
  end;
  k

(* [me]'s operation returned: [wrote] for a write quorum, otherwise a
   read of [value]. A completed write records the value pid 0 is
   writing; a read records the value it returned. *)
let complete c me ~wrote value =
  let inv = c.pend_inv.(me) in
  if inv >= 0 then begin
    c.pend_inv.(me) <- -1;
    c.stamp <- c.stamp + 1;
    let value =
      if not wrote then value else if me = 0 then c.writes_started else 0
    in
    hist_append c.h me value inv c.stamp
  end

(* Completed operations in completion order, then the still-pending ones
   in ascending pid order — incomplete, which the checker reads as "may
   or may not have taken effect": a crashed process's or a leaver's
   last operation. *)
let finalize c =
  let op proc value = if proc = 0 then L.Write value else L.Read value in
  let tail = ref [] in
  for me = Array.length c.pend_inv - 1 downto 0 do
    let inv = c.pend_inv.(me) in
    if inv >= 0 then begin
      let op = op me (if me = 0 then c.writes_started else 0) in
      tail := { L.proc = me; reg = 0; op; inv; res = None } :: !tail
    end
  done;
  let h = c.h in
  let rec go i acc =
    if i < 0 then acc
    else
      let proc = h.h_proc.(i) in
      go (i - 1)
        ({ L.proc; reg = 0; op = op proc h.h_val.(i); inv = h.h_inv.(i);
           res = Some h.h_res.(i) }
        :: acc)
  in
  go (h.h_len - 1) !tail

(* ------------------------------------------------------------------ *)
(* The static node: ABD flattened for the hot path.

   The protocol is the [Abd] state machine with all of its state in int
   arrays indexed by pid (and [pid * n + reg] for the register copies),
   and messages {!Pack}ed into immediate ints pushed straight into the
   arena network, so the send/deliver path allocates nothing.

   Its oracle is a boxed build over [Abd] records (test/oracles/boxed.ml):
   a qcheck differential there requires identical plans, histories,
   counts, verdicts and hop masks from both. Besides the harness's
   ordering rules, the subtle point it pins is the quorum tie-break: the
   latest-arrived reply among maximal timestamps wins (the boxed fold
   over a newest-first reply list), reproduced here by the incremental
   [ts >= best_ts] replacement rule. *)

(* Phase codes, mirroring [Abd.phase]. *)
let ph_idle = 0
let ph_writing = 1
let ph_collecting = 2
let ph_writing_back = 3

let packed_nodes config c =
  let n = config.n in
  let quorum = Option.value config.quorum ~default:(n - config.t) in
  let nn = n * n in
  (* Protocol state: copies/[my_ts] are per (pid, reg); the rest per pid.
     [ph_cnt] is the ack count in Writing/Writing_back and the reply
     count in Collecting; [ph_ts]/[ph_val] track the running best reply
     while Collecting, and [ph_val] then carries the read-back value
     through Writing_back. *)
  let copies_ts = Array.make nn 0 and copies_val = Array.make nn 0 in
  let my_ts = Array.make nn 0 in
  let next_op_id = Array.make n 0 in
  let phase = Array.make n ph_idle in
  let ph_op = Array.make n 0 and ph_reg = Array.make n 0 in
  let ph_cnt = Array.make n 0 in
  let ph_ts = Array.make n 0 and ph_val = Array.make n 0 in
  let nodes ~send me =
    let base = me * n in
    let broadcast m =
      for j = 0 to n - 1 do
        send ~dst:j m
      done
    in
    let start_next () =
      let k = next_op c me in
      if k >= 0 then begin
        next_op_id.(me) <- next_op_id.(me) + 1;
        ph_op.(me) <- next_op_id.(me);
        ph_cnt.(me) <- 0;
        if k >= 1 then begin
          my_ts.(base) <- my_ts.(base) + 1;
          phase.(me) <- ph_writing;
          broadcast
            (Pack.write_req ~reg:0 ~ts:my_ts.(base) ~value:k
               ~op:next_op_id.(me))
        end
        else begin
          phase.(me) <- ph_collecting;
          ph_reg.(me) <- 0;
          broadcast (Pack.read_req ~reg:0 ~op:next_op_id.(me))
        end
      end
    in
    let p_message ~from m =
      let tag = Pack.tag m in
      if tag = Pack.t_write_req then begin
        let reg = Pack.reg m in
        let ts = Pack.ts m in
        let idx = base + reg in
        if ts > copies_ts.(idx) then begin
          copies_ts.(idx) <- ts;
          copies_val.(idx) <- Pack.value m
        end;
        send ~dst:from (Pack.write_ack ~reg ~op:(Pack.op m))
      end
      else if tag = Pack.t_read_req then begin
        let reg = Pack.reg m in
        let idx = base + reg in
        send ~dst:from
          (Pack.read_reply ~reg ~ts:copies_ts.(idx) ~value:copies_val.(idx)
             ~op:(Pack.op m))
      end
      else if tag = Pack.t_write_ack then begin
        (* The only completion point, as in [Abd]. *)
        let ph = phase.(me) in
        if (ph = ph_writing || ph = ph_writing_back) && ph_op.(me) = Pack.op m
        then begin
          let acks = ph_cnt.(me) + 1 in
          if acks >= quorum then begin
            phase.(me) <- ph_idle;
            complete c me ~wrote:(ph = ph_writing) ph_val.(me);
            start_next ()
          end
          else ph_cnt.(me) <- acks
        end
      end
      else begin
        (* Read_reply *)
        let reg = Pack.reg m in
        let op = Pack.op m in
        if phase.(me) = ph_collecting && ph_op.(me) = op && ph_reg.(me) = reg
        then begin
          let ts = Pack.ts m in
          let cnt = ph_cnt.(me) + 1 in
          if cnt = 1 || ts >= ph_ts.(me) then begin
            ph_ts.(me) <- ts;
            ph_val.(me) <- Pack.value m
          end;
          if cnt >= quorum then begin
            (* Write back before completing: atomicity. *)
            let best_ts = ph_ts.(me) and best = ph_val.(me) in
            phase.(me) <- ph_writing_back;
            ph_cnt.(me) <- 0;
            let idx = base + reg in
            if best_ts > copies_ts.(idx) then begin
              copies_ts.(idx) <- best_ts;
              copies_val.(idx) <- best
            end;
            broadcast (Pack.write_req ~reg ~ts:best_ts ~value:best ~op)
          end
          else ph_cnt.(me) <- cnt
        end
      end
    in
    { Net.p_start = start_next; p_message; p_leave = ignore }
  in
  let reset () =
    Array.fill copies_ts 0 nn 0;
    Array.fill copies_val 0 nn 0;
    Array.fill my_ts 0 nn 0;
    Array.fill next_op_id 0 n 0;
    Array.fill phase 0 n ph_idle;
    Array.fill ph_op 0 n 0;
    Array.fill ph_reg 0 n 0;
    Array.fill ph_cnt 0 n 0;
    Array.fill ph_ts 0 n 0;
    Array.fill ph_val 0 n 0
  in
  (nodes, reset)

(* The dynamic node: a {!Dynreg} peer, whose late joiners start their
   scripts on [Activated]. A leaver's pending operation stays pending —
   finalize records it incomplete, which is exactly the semantics of
   departing mid-operation. Reset rebuilds the peers; they are a few
   small records, and Dynreg allocates per message anyway. *)
let dyn_nodes config d c =
  let n = config.n in
  let initial = Membership.initial d.seed_members in
  let fresh me =
    Dynreg.create ~n ~me ~slack:d.churn_slack ?width_bits:d.width_bits
      ~registers:1
      ~init:(fun _ -> 0)
      ~initial ()
  in
  let regs = Array.init n fresh in
  let nodes ~send me =
    let out = List.iter (fun (dst, m) -> send ~dst m) in
    let start_next () =
      let k = next_op c me in
      if k >= 1 then out (Dynreg.begin_write regs.(me) ~reg:0 k)
      else if k = 0 then out (Dynreg.begin_read regs.(me) ~reg:0)
    in
    {
      Net.p_start =
        (fun () ->
          out (Dynreg.start regs.(me));
          if Dynreg.is_active regs.(me) then start_next ());
      p_message =
        (fun ~from m ->
          out (Dynreg.handle regs.(me) ~from m);
          match Dynreg.take_completion regs.(me) with
          | None -> ()
          | Some Dynreg.Activated -> start_next ()
          | Some Dynreg.Wrote ->
              complete c me ~wrote:true 0;
              start_next ()
          | Some (Dynreg.Read_value v) ->
              complete c me ~wrote:false v;
              start_next ());
      p_leave = (fun () -> out (Dynreg.farewell regs.(me)));
    }
  in
  (nodes, fun () -> Array.iteri (fun me _ -> regs.(me) <- fresh me) regs)

(* A pooled fleet: the harness, a protocol node's reset, and the
   fault-wrapped network the two speak over. The message type differs
   between the nodes, so it packs away. *)
type fleet =
  | Fleet : {
      ft : 'm Faults.t;
      client : client;
      reset_nodes : unit -> unit;
    }
      -> fleet

let fleet_create config =
  let c = client_create config in
  let present pid = pid < c.seeded in
  let build (nodes, reset_nodes) =
    Fleet
      {
        ft = Faults.wrap (Net.create_push ~present ~n:config.n ~nodes ());
        client = c;
        reset_nodes;
      }
  in
  match config.membership with
  | None -> build (packed_nodes config c)
  | Some d -> build (dyn_nodes config d c)

(* One pooled fleet per (domain, fleet shape): parallel campaign
   workers each grow their own pool in domain-local storage, so no fleet
   is ever shared across domains. The key is what the fleet is built
   from — not the fault profile, crash budget or event cap, which the
   fleet swarm re-rolls on every fresh run. *)
let pool = Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let acquire config =
  (* Past [validate], every message field fits the unchecked {!Pack}
     encoders and every {!Dynreg.create} argument is in range. *)
  (match validate config with
  | Error e -> invalid_arg ("Chaos: " ^ e)
  | Ok _ -> ());
  let tbl = Domain.DLS.get pool in
  let shape =
    ( config.n,
      config.t,
      config.quorum,
      config.writes,
      config.readers,
      config.reads,
      config.membership )
  in
  let f =
    match Hashtbl.find_opt tbl shape with
    | Some f -> f
    | None ->
        let f = fleet_create config in
        Hashtbl.add tbl shape f;
        f
  in
  let (Fleet { ft; client; reset_nodes }) = f in
  client_reset client;
  reset_nodes ();
  Faults.reset ft;
  Net.reset ~present:(fun pid -> pid < client.seeded) (Faults.net ft);
  f

let outcome_of ?rng_point (Fleet { ft; client; _ }) =
  let history = finalize client in
  let plan = Faults.compiled_plan ft in
  {
    verdict =
      L.check ~pp:Format.pp_print_int ~init:(fun _ -> 0) ~equal:Int.equal
        history;
    history;
    plan;
    events = Faults.events ft;
    deliveries = Faults.compiled_deliveries plan;
    completed =
      List.fold_left
        (fun k (e : int L.event) -> if e.res <> None then k + 1 else k)
        0 history;
    hop_mask = Net.hop_mask (Faults.net ft);
    rng_point;
  }

let random_crashes rng config =
  let how_many =
    Bits.Rng.int rng (min config.crashes config.t + 1)
  in
  let pids = Array.init config.n (fun i -> i) in
  Bits.Rng.shuffle rng pids;
  List.init how_many (fun i ->
      (pids.(i), Bits.Rng.int rng (max 1 (config.max_events / 4))))

(* The α-bounded churn roll. Joiners are the unseeded slots, in pid
   order; leavers are seed members other than the writer (pid 0 keeps
   the write script alive — a departed writer would make most runs
   trivially linearizable). Static configs draw nothing, so their rng
   stream — and every published seed — is untouched. *)
let random_churn rng config =
  match config.membership with
  | None -> Membership.no_churn
  | Some d ->
      Membership.random rng
        ~joiners:
          (List.init (config.n - d.seed_members) (fun i -> d.seed_members + i))
        ~leavers:(List.init (d.seed_members - 1) (fun i -> i + 1))
        ~rate:d.churn_rate ~window:d.churn_window
        ~span:(max 1 (config.max_events / 4))

(* The replay point is taken after the crash and churn patterns have
   been rolled: resuming from it re-runs exactly the fault-injection
   loop, without re-rolling the schedule-derivation prefix of the
   stream. *)
let run_at point config =
  let rng = Bits.Rng.of_state point.rng_state in
  let profile =
    {
      config.profile with
      crash_at = config.profile.crash_at @ point.crash_at;
      enter_at = config.profile.enter_at @ point.churn.Membership.enter_at;
      leave_at = config.profile.leave_at @ point.churn.Membership.leave_at;
    }
  in
  let (Fleet { ft; _ } as f) = acquire config in
  Faults.run_random ~rng ~profile ~max_events:config.max_events ft;
  outcome_of ~rng_point:point f

let run_random ~seed config =
  let rng = Bits.Rng.make seed in
  let crash_at = random_crashes rng config in
  let churn = random_churn rng config in
  run_at { rng_state = Bits.Rng.state rng; crash_at; churn } config

let run_compiled config compiled =
  let (Fleet { ft; _ } as f) = acquire config in
  Faults.replay_compiled ft compiled;
  outcome_of f

let run_plan config plan =
  (* Compiling first both validates the (possibly hand-edited) plan's
     operands against the universe size and turns the replay into a
     dense int-array walk — the form every shrink probe and corpus
     mutant re-execution takes. *)
  run_compiled config (Faults.compile ~n:config.n plan)

let shrink config plan =
  let test p = failed (run_plan config p) in
  Check.Shrink.minimize_count ~test plan

type found = {
  seed : int;
  original : outcome;
  shrunk : Faults.plan;
  shrunk_outcome : outcome;
  shrink_tests : int;
}

type campaign = {
  runs : int;
  requested : int;
  degraded : bool;
  violations : int;
  total_events : int;
  total_completed : int;
  first : found option;
}

let campaign ?deadline ?(jobs = 1) ~seed ~runs config =
  (* Construction-time validation: hard errors raise here rather than
     letting an unsatisfiable quorum silently run; soft problems (more
     crashes than t) clamp with a warning — printed once per campaign,
     not per run, so ddmin's replay storm stays quiet. *)
  let config =
    match validate config with
    | Error e -> invalid_arg (Printf.sprintf "Chaos.campaign: %s" e)
    | Ok (config, warnings) ->
        List.iter
          (fun w -> Printf.eprintf "chaos: warning: %s\n%!" w)
          warnings;
        config
  in
  (* The campaign span carries the resolved seed: a violation reported
     from a trace is replayable without the console output. *)
  Obs.Span.begin_ ~cat:"chaos"
    ~args:
      ([
         ("seed", Obs.Json.Int seed);
         ("runs", Obs.Json.Int runs);
         ("n", Obs.Json.Int config.n);
         ("t", Obs.Json.Int config.t);
         ( "quorum",
           Obs.Json.Int
             (Option.value config.quorum ~default:(config.n - config.t)) );
       ]
      @
      match config.membership with
      | None -> []
      | Some d ->
          [
            ("seed_members", Obs.Json.Int d.seed_members);
            ("churn_rate", Obs.Json.Int d.churn_rate);
            ("churn_window", Obs.Json.Int d.churn_window);
            ("churn_slack", Obs.Json.Int d.churn_slack);
            ( "width_bits",
              match d.width_bits with
              | Some b -> Obs.Json.Int b
              | None -> Obs.Json.Null );
          ])
    "chaos.campaign";
  let monitor =
    Sched.Budget.arm (Sched.Budget.make ?deadline ())
  in
  let over_deadline () =
    match deadline with
    | None -> false
    | Some d -> Sched.Budget.elapsed monitor >= d
  in
  let acc =
    ref
      {
        runs = 0;
        requested = runs;
        degraded = false;
        violations = 0;
        total_events = 0;
        total_completed = 0;
        first = None;
      }
  in
  (* Fold one run's outcome into the campaign, on the main domain: the
     per-run metrics, trace instant and (for the first violation) the
     inline shrink happen here in seed order, so a parallel campaign
     replays exactly the sequential tally — byte-identical verdicts,
     counts and traces for a fixed seed. *)
  let tally s o =
    Obs.Metrics.inc m_runs;
    if failed o then Obs.Metrics.inc m_violations;
    (* Each run's instant carries its resolved RNG point (state after the
       crash-pattern prefix, plus the crash schedule itself): a single
       mid-campaign run replays from the trace via [run_at], without
       re-rolling the campaign prefix. *)
    Obs.Span.instant ~cat:"chaos"
      ~args:
        ([
           ("seed", Obs.Json.Int s);
           ( "verdict",
             Obs.Json.Str
               (if failed o then "nonlinearizable" else "linearizable") );
           ("events", Obs.Json.Int o.events);
           ("completed", Obs.Json.Int o.completed);
         ]
        @
        match o.rng_point with
        | None -> []
        | Some p ->
            let pid_at entries =
              Obs.Json.List
                (List.map
                   (fun (pid, at) ->
                     Obs.Json.List [ Obs.Json.Int pid; Obs.Json.Int at ])
                   entries)
            in
            [
              ("rng_state", Obs.Json.Str (Int64.to_string p.rng_state));
              ("crash_at", pid_at p.crash_at);
            ]
            @
            if p.churn = Membership.no_churn then []
            else
              [
                ("enter_at", pid_at p.churn.Membership.enter_at);
                ("leave_at", pid_at p.churn.Membership.leave_at);
              ])
      "chaos.run";
    let c = !acc in
    let first =
      match (c.first, failed o) with
      | None, true ->
          let shrunk, shrink_tests = shrink config (Faults.decompile o.plan) in
          let found =
            {
              seed = s;
              original = o;
              shrunk;
              shrunk_outcome = run_plan config shrunk;
              shrink_tests;
            }
          in
          (* First NONLINEARIZABLE verdict: dump the flight recorder.
             The rings now hold the failing run's chaos.run instant
             (rng point, crash/churn schedule) and the shrink replays —
             enough to reproduce without having traced. Best-effort and
             silent: campaigns run inside tests too. *)
          ignore (Obs.Recorder.dump ~reason:"nonlinearizable" () : string option);
          Some found
      | first, _ -> first
    in
    acc :=
      {
        c with
        runs = c.runs + 1;
        violations = (c.violations + if failed o then 1 else 0);
        total_events = c.total_events + o.events;
        total_completed = c.total_completed + o.completed;
        first;
      }
  in
  (try
     if jobs <= 1 then
       for s = seed to seed + runs - 1 do
         (* The deadline is checked between runs: an individual run is
            bounded by [config.max_events], so the overshoot is one run. *)
         if over_deadline () then begin
           acc := { !acc with degraded = true };
           raise Exit
         end;
         tally s (run_random ~seed:s config)
       done
     else begin
       (* Seeded runs are mutually independent — each resets a fleet
          from its own domain's pool and draws from its own rng — so the
          campaign loop fans out as-is.
          Workers skip (rather than start) runs past the deadline; the
          fold below consumes outcomes in seed order and stops at the
          first skipped one, mirroring the sequential contiguous-prefix
          semantics, so only a deadline can make jobs counts differ. *)
       let seeds = Array.init runs (fun i -> seed + i) in
       let results =
         Sched.Par.run_units_ev ~jobs ~units:seeds (fun s ->
             if over_deadline () then None
             else Some (run_random ~seed:s config))
       in
       (* Replay each unit's captured events immediately before its
          tally — run events then run instant, run events then run
          instant — exactly the interleaving the sequential loop
          emits, so a traced campaign is byte-identical at any [jobs].
          Events of runs past the first deadline skip are dropped; the
          sequential loop never ran those runs at all. *)
       Array.iteri
         (fun i (r, events) ->
           match r with
           | None ->
               acc := { !acc with degraded = true };
               raise Exit
           | Some o ->
               Obs.Span.replay events;
               tally seeds.(i) o)
         results
     end
   with Exit -> ());
  let c = !acc in
  Obs.Span.end_ ~cat:"chaos"
    ~args:
      [
        ("runs", Obs.Json.Int c.runs);
        ("violations", Obs.Json.Int c.violations);
        ("degraded", Obs.Json.Bool c.degraded);
        ( "first_violation_seed",
          match c.first with
          | Some f -> Obs.Json.Int f.seed
          | None -> Obs.Json.Null );
      ]
    "chaos.campaign";
  c

type verdict =
  | Verified_sampled of { runs : int; requested : int }
  | Violation of found

let verdict c =
  match c.first with
  | Some f -> Violation f
  | None -> Verified_sampled { runs = c.runs; requested = c.requested }

let verdict_ok = function
  | Verified_sampled _ -> true
  | Violation _ -> false

let pp_verdict ppf = function
  | Verified_sampled { runs; requested } ->
      if runs = requested then
        Format.fprintf ppf "verified (sampled): %d/%d runs linearizable" runs
          requested
      else
        Format.fprintf ppf
          "verified (sampled, DEGRADED by deadline): %d/%d runs linearizable"
          runs requested
  | Violation f ->
      Format.fprintf ppf "violation at seed %d: %a" f.seed
        (L.pp_verdict Format.pp_print_int)
        f.shrunk_outcome.verdict

let pp_campaign ppf c =
  Format.fprintf ppf
    "%d runs, %d violation(s), %d fault events, %d completed ops" c.runs
    c.violations c.total_events c.total_completed;
  if c.degraded then
    Format.fprintf ppf " (deadline: stopped %d run(s) short)"
      (c.requested - c.runs);
  match c.first with
  | None -> ()
  | Some f ->
      Format.fprintf ppf
        "@ first at seed %d: plan %d events -> shrunk %d (%d deliveries, %d \
         replays); replayed verdict: %a"
        f.seed
        (Faults.compiled_length f.original.plan)
        (List.length f.shrunk)
        (Faults.deliveries f.shrunk)
        f.shrink_tests
        (L.pp_verdict Format.pp_print_int)
        f.shrunk_outcome.verdict

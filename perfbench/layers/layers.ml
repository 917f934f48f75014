(* The benchmark's traced run: every workload's work driven in-process
   through the public functions of the layers it crosses, each call
   timed as a span from outside the library code.

   Usage:
     layers.exe --workload W --seed S --persist-gens G --resume-gens R
                --k K --dir DIR

   Every decomposition runs on every invocation, each on the inputs of
   the workload that exercises it (explore_raw, e17_grid, and the two
   fleet workloads sharing one corpus), so each layer metric has one
   definition. The workload named by --workload scopes the rows that
   belong to a whole run: gc.*, unattributed_share and trace_overhead.

   The runner changes into DIR (campaigns drop flight-recorder dumps in
   the working directory), writes the spans to DIR/spans.jsonl — one
   {"id","name","parent","start_ns","end_ns"} object per line — and
   prints one JSON object on stdout: the per-layer metrics under
   "metrics" and the outputs run.py checks under "facts". *)

module C = Msgpass.Chaos
module F = Msgpass.Fleet
module Fa = Msgpass.Faults
module L = Check.Linearize

let now () = Int64.to_int (Monotonic_clock.now ())

(* ---------- spans ---------- *)

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 for a root span *)
  start : int;
  mutable stop : int;
}

let tracing = ref false
let closed : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 0

let span name f =
  if not !tracing then f ()
  else begin
    incr next_id;
    let parent = match !stack with p :: _ -> p.id | [] -> 0 in
    let s = { id = !next_id; name; parent; start = now (); stop = 0 } in
    stack := s :: !stack;
    let r = f () in
    s.stop <- now ();
    stack := List.tl !stack;
    closed := s :: !closed;
    r
  end

(* Total duration and count of the closed spans named [name]. Every
   layer span is a leaf, so its duration is its self time. *)
let totals name =
  List.fold_left
    (fun (d, n) s -> if s.name = name then (d + s.stop - s.start, n + 1) else (d, n))
    (0, 0) !closed

let dur_ns name = fst (totals name)
let count name = snd (totals name)

let per name = float_of_int (dur_ns name) /. float_of_int (max 1 (count name))

let write_spans file t0 =
  Out_channel.with_open_text file (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}\n"
            s.id s.name s.parent (s.start - t0) (s.stop - t0))
        (List.rev !closed))

(* A decomposition run twice: untraced, then traced. Returns the traced
   result and (untraced_s, traced_s). *)
let twice f =
  tracing := false;
  let t0 = now () in
  ignore (f ());
  let untraced = now () - t0 in
  tracing := true;
  let t1 = now () in
  let r = f () in
  let traced = now () - t1 in
  tracing := false;
  (r, (float_of_int untraced *. 1e-9, float_of_int traced *. 1e-9))

let timed f =
  let t0 = now () in
  let r = f () in
  (r, float_of_int (now () - t0) *. 1e-9)

(* Allocation and collection deltas around [f]. *)
type gc_delta = { minor : float; promoted : float; major : float; majors : int }

let with_gc f =
  let a = Gc.quick_stat () in
  let r = f () in
  let b = Gc.quick_stat () in
  ( r,
    {
      minor = b.Gc.minor_words -. a.Gc.minor_words;
      promoted = b.Gc.promoted_words -. a.Gc.promoted_words;
      major = b.Gc.major_words -. a.Gc.major_words;
      majors = b.Gc.major_collections - a.Gc.major_collections;
    } )

let words d = d.minor +. d.major -. d.promoted

(* A second, separately timed check of a run's recorded history. Its
   span is a probe: extra work the workload does not do, timed so the
   checker's share can be taken out of the replay that contains it. *)
let probe name (o : C.outcome) =
  span name (fun () ->
      ignore
        (L.check ~pp:Format.pp_print_int ~init:(fun _ -> 0) ~equal:Int.equal
           o.C.history))

let validated c =
  match C.validate c with Ok (c, _) -> c | Error e -> failwith e

(* ---------- explore_raw ---------- *)

let explore_run ~k () =
  let algorithm = Core.Alg1_one_bit.algorithm ~k in
  let init () =
    Sched.Scheduler.start
      ~memory:(algorithm.Tasks.Harness.memory ())
      ~programs:(fun pid -> algorithm.Tasks.Harness.program ~pid ~input:pid)
      ()
  in
  (* The CLI's terminal digest, so the result is checkable against its
     published value. *)
  let terminal_digest st =
    Hashtbl.hash
      ( Array.to_list (Sched.Scheduler.decisions st),
        Array.to_list (Sched.Memory.contents (Sched.Scheduler.memory st)),
        Sched.Scheduler.crashed st )
  in
  let r =
    Sched.Par.explore ~max_crashes:1 ~dedup:false ~por:false ~jobs:1 ~init
      ~fold:(fun st (c, d) -> (c + 1, d + terminal_digest st))
      ~merge:(fun (c1, d1) (c2, d2) -> (c1 + c2, d1 + d2))
      (0, 0)
  in
  (r.Sched.Par.stats, snd r.Sched.Par.value land 0xffffffff)

(* ---------- e17_grid ---------- *)

module E = Experiments.Exp_churn

let null_ppf = Format.make_formatter (fun _ _ _ -> ()) ignore

let e17_whole () =
  match Experiments.Registry.find "E17" with
  | Some e -> e.Experiments.Registry.run Experiments.Ctx.default null_ppf
  | None -> failwith "E17 is not registered"

(* What Chaos.campaign does for one grid cell: every seeded run checked,
   the first violation shrunk and its shrunk plan replayed. Returns the
   violation count, the first violation and its shrunk plan, and the
   shrink's replay count. *)
let churn_campaign ~seed ~runs cfg =
  let cfg = validated cfg in
  let violations = ref 0 and first = ref None in
  let replay f =
    let o = span "replay.churn" f in
    probe "linearize.churn" o;
    o
  in
  for s = seed to seed + runs - 1 do
    let o = replay (fun () -> C.run_random ~seed:s cfg) in
    if C.failed o then begin
      incr violations;
      if !first = None then first := Some o
    end
  done;
  match !first with
  | None -> (!violations, None, 0)
  | Some o ->
      let plan, tests =
        span "shrink" (fun () -> C.shrink cfg (Fa.decompile o.C.plan))
      in
      ignore (replay (fun () -> C.run_plan cfg plan) : C.outcome);
      (!violations, Some (o, plan), tests)

(* The grid's violation counts, the pinned witness's
   [original events; shrunk events; deliveries; churn actions], and the
   replays all its shrinks spent. *)
let e17_decomposed () =
  span "e17_grid" @@ fun () ->
  let replays = ref 0 in
  let campaign ~seed ~runs cfg =
    let v, found, tests = churn_campaign ~seed ~runs cfg in
    replays := !replays + tests;
    (v, found)
  in
  let cells =
    List.map
      (fun (_, rate, window, slack) ->
        List.map
          (fun width_bits ->
            fst
              (campaign ~seed:E.grid_seed ~runs:E.grid_runs
                 (E.cell ~rate ~window ~slack ~width_bits)))
          E.widths)
      E.regimes
  in
  let witness =
    match snd (campaign ~seed:E.witness_seed ~runs:1 (C.churn_frontier ())) with
    | None -> []
    | Some (o, plan) ->
        [
          Fa.compiled_length o.C.plan;
          List.length plan;
          Fa.deliveries plan;
          List.length
            (List.filter
               (function Fa.Enter _ | Fa.Leave _ -> true | _ -> false)
               plan);
        ]
  in
  (cells, witness, !replays)

(* ---------- fleet_persist / fleet_resume ---------- *)

let frontier = C.frontier ()

let fleet ?corpus_dir ~gens ~seed () =
  F.campaign ~generations:gens ~jobs:1 ?corpus_dir ~seed frontier

let report_text r = Format.asprintf "%a" F.pp_report r

let file_size f = (Unix.stat f).Unix.st_size

let copy_file src dst =
  let data = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc data)

let copy_dir src dst =
  Unix.mkdir dst 0o755;
  Array.iter
    (fun f -> copy_file (Filename.concat src f) (Filename.concat dst f))
    (Sys.readdir src)

(* The layer calls of a fleet, on the plans of a persisted corpus: load
   it, compile every plan, replay it, classify the run, and mutate it
   (every fifth parent crosses over with its successor instead), then
   shrink the first violating plan — the work a resumed campaign does
   before its first generation, plus the per-job work of a generation. *)
let fleet_decomposed dir () =
  span "fleet" @@ fun () ->
  let n = frontier.C.n in
  let entries =
    match span "persist.load" (fun () -> F.load_corpus dir) with
    | Ok es -> Array.of_list es
    | Error e -> failwith e
  in
  let plans = Array.map (fun (e : F.entry) -> e.F.plan) entries in
  let compiled =
    Array.map (fun p -> span "faults.compile" (fun () -> Fa.compile ~n p)) plans
  in
  let outcomes, gc =
    with_gc (fun () ->
        Array.map
          (fun c -> span "replay.static" (fun () -> C.run_compiled frontier c))
          compiled)
  in
  Array.iter (probe "linearize.static") outcomes;
  Array.iter
    (fun o ->
      span "coverage" (fun () ->
          ignore (F.signature_of o : F.signature);
          match o.C.verdict with
          | L.Nonlinearizable { reg; reason } ->
              ignore (F.violation_class ~reg ~reason : int)
          | L.Linearizable _ -> ()))
    outcomes;
  let rng = Bits.Rng.make 1 in
  let len = Array.length plans in
  Array.iteri
    (fun i p ->
      span "mutate" (fun () ->
          if i mod 5 = 4 && len > 1 then
            ignore (F.crossover rng p plans.((i + 1) mod len) : Fa.plan)
          else ignore (F.mutate rng ~n p : Fa.plan)))
    plans;
  let shrink_tests =
    match Array.find_index C.failed outcomes with
    | None -> 0
    | Some i -> snd (span "shrink" (fun () -> C.shrink frontier plans.(i)))
  in
  (len, gc, shrink_tests)

(* ---------- metrics ---------- *)

let metrics : (string * float) list ref = ref []
let put name v = metrics := (name, v) :: !metrics
let facts : (string * string) list ref = ref []
let fact name json = facts := (name, json) :: !facts

let json_ints l = "[" ^ String.concat "," (List.map string_of_int l) ^ "]"

let witness_shrink_tests r =
  List.fold_left (fun a w -> a + w.F.shrink_tests) 0 r.F.witnesses

let () =
  let workload = ref "" and seed = ref 0 and persist_gens = ref 0
  and resume_gens = ref 0 and k = ref 0 and dir = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W");
      ("--seed", Arg.Set_int seed, "S");
      ("--persist-gens", Arg.Set_int persist_gens, "G");
      ("--resume-gens", Arg.Set_int resume_gens, "R");
      ("--k", Arg.Set_int k, "K");
      ("--dir", Arg.Set_string dir, "DIR");
    ]
    (fun a -> raise (Arg.Bad a))
    "layers.exe --workload W --seed S --persist-gens G --resume-gens R --k K \
     --dir DIR";
  if !dir = "" || !persist_gens < 1 || !resume_gens < 1 || !k < 1 then
    failwith "every option is required";
  Sys.chdir !dir;
  let t_start = now () in
  (* Per workload: whole-run seconds, its gc delta, the seconds the
     layers account for, and the decomposition's (untraced, traced)
     seconds. *)
  let scoped = Hashtbl.create 4 in
  let scope name ~whole ~gc ~attributed ~overhead =
    Hashtbl.replace scoped name (whole, gc, attributed, overhead)
  in
  let ns_s x = float_of_int x *. 1e-9 in
  (* explore_raw: the decomposition is the one call, so its untraced pass
     is the whole run *)
  let ((stats, digest), explore_gc), explore_pass =
    twice (fun () ->
        span "explore_raw" (fun () ->
            with_gc (fun () -> span "explore" (explore_run ~k:!k))))
  in
  let nodes = float_of_int stats.Sched.Explore.nodes in
  put "explore.ns_per_node" (float_of_int (dur_ns "explore") /. nodes);
  put "explore.words_per_node" (words explore_gc /. nodes);
  fact "explore"
    (Printf.sprintf "{\"nodes\":%d,\"terminals\":%d,\"digest\":\"0x%08x\"}"
       stats.Sched.Explore.nodes stats.Sched.Explore.terminals digest);
  scope "explore_raw" ~whole:(fst explore_pass) ~gc:explore_gc
    ~attributed:(ns_s (dur_ns "explore"))
    ~overhead:explore_pass;
  (* e17_grid *)
  let ((), whole_e17), gc_e17 = with_gc (fun () -> timed e17_whole) in
  let (cells, witness, grid_replays), e17_pass = twice e17_decomposed in
  put "replay.churn.ns_per_run"
    (float_of_int (dur_ns "replay.churn" - dur_ns "linearize.churn")
    /. float_of_int (count "replay.churn"));
  let grid_shrink_ns = dur_ns "shrink" in
  put "shrink.s" (ns_s grid_shrink_ns);
  put "shrink.replays" (float_of_int grid_replays);
  put "shrink.ns_per_replay"
    (float_of_int grid_shrink_ns /. float_of_int (max 1 grid_replays));
  fact "e17"
    (Printf.sprintf "{\"cells\":[%s],\"witness\":%s}"
       (String.concat "," (List.map json_ints cells))
       (json_ints witness));
  scope "e17_grid" ~whole:whole_e17 ~gc:gc_e17
    ~attributed:(ns_s (dur_ns "replay.churn" + grid_shrink_ns))
    ~overhead:e17_pass;
  (* fleet_persist, with and without its corpus directory *)
  let persist_dir = "persist" and resume_dir = "resume" in
  let (r_full, whole_full), gc_full =
    with_gc (fun () ->
        timed (fleet ~corpus_dir:persist_dir ~gens:!persist_gens ~seed:!seed))
  in
  let r_mem, whole_mem = timed (fleet ~gens:!persist_gens ~seed:!seed) in
  let counts (r : F.report) =
    (r.F.runs, r.F.violations, r.F.corpus_size, r.F.signals, r.F.distinct_terminals)
  in
  if counts r_mem <> counts r_full then
    failwith "in-memory and persisted campaigns disagree";
  (* fleet_resume, over a copy of that corpus *)
  copy_dir persist_dir resume_dir;
  let (r_res, whole_res), gc_res =
    with_gc (fun () ->
        timed
          (fleet ~corpus_dir:resume_dir ~gens:!resume_gens ~seed:(!seed + 2)))
  in
  let (loaded, replay_gc, fleet_shrink_replays), fleet_pass =
    twice (fleet_decomposed persist_dir)
  in
  let static_runs = count "replay.static" in
  let replay_static =
    float_of_int (dur_ns "replay.static" - dur_ns "linearize.static")
    /. float_of_int static_runs
  in
  put "replay.static.ns_per_run" replay_static;
  put "replay.static.words_per_run" (words replay_gc /. float_of_int static_runs);
  let checks = count "linearize.static" + count "linearize.churn" in
  put "linearize.ns_per_check"
    (float_of_int (dur_ns "linearize.static" + dur_ns "linearize.churn")
    /. float_of_int checks);
  put "linearize.checks" (float_of_int checks);
  put "mutate.ns_per_mutant" (per "mutate");
  put "faults.ns_per_compile" (per "faults.compile");
  put "coverage.ns_per_signature" (per "coverage");
  let corpus_bytes dir = file_size (Filename.concat dir "corpus.jsonl") in
  let write_s = whole_full -. whole_mem in
  let load_s = ns_s (dur_ns "persist.load") in
  put "persist.write_s" write_s;
  put "persist.load_s" load_s;
  put "persist.us_per_entry_loaded" (load_s *. 1e6 /. float_of_int loaded);
  put "persist.corpus_bytes" (float_of_int (corpus_bytes persist_dir));
  put "persist.entries_added" (float_of_int r_full.F.corpus_added);
  let fleet_fact r dir =
    Printf.sprintf "{\"report\":%s,\"corpus_bytes\":%d}"
      (Obs.Json.to_string (Obs.Json.Str (report_text r)))
      (corpus_bytes dir)
  in
  fact "fleet_persist" (fleet_fact r_full persist_dir);
  fact "fleet_resume" (fleet_fact r_res resume_dir);
  (* What the layers account for of a whole campaign: each per-unit cost
     times the campaign's own count of that unit. Every job is charged a
     mutation and a compile, which fresh-seed jobs do not pay. *)
  let per_job =
    1e-9
    *. (replay_static +. per "linearize.static" +. per "coverage"
      +. per "mutate" +. per "faults.compile")
  in
  let fleet_shrink_per_replay =
    ns_s (dur_ns "shrink" - grid_shrink_ns)
    /. float_of_int (max 1 fleet_shrink_replays)
  in
  let write_per_entry = write_s /. float_of_int (max 1 r_full.F.corpus_added) in
  let campaign_attributed (r : F.report) ~reexecuted =
    (float_of_int (r.F.runs + reexecuted) *. per_job)
    +. (float_of_int (witness_shrink_tests r) *. fleet_shrink_per_replay)
    +. (float_of_int r.F.corpus_added *. write_per_entry)
  in
  scope "fleet_persist" ~whole:whole_full ~gc:gc_full
    ~attributed:(campaign_attributed r_full ~reexecuted:0)
    ~overhead:fleet_pass;
  scope "fleet_resume" ~whole:whole_res ~gc:gc_res
    ~attributed:(load_s +. campaign_attributed r_res ~reexecuted:loaded)
    ~overhead:fleet_pass;
  (* Coverage/triage ratios of the named fleet workload's own campaign
     (fleet_persist's for the other workloads). *)
  let r = if !workload = "fleet_resume" then r_res else r_full in
  put "fleet.signal_ratio" (float_of_int r.F.signals /. float_of_int r.F.runs);
  put "fleet.cache_hit_ratio"
    (float_of_int r.F.cache_hits /. float_of_int (max 1 r.F.cache_lookups));
  (match Hashtbl.find_opt scoped !workload with
  | None -> failwith ("unknown workload " ^ !workload)
  | Some (whole, gc, attributed, (untraced, traced)) ->
      put "gc.minor_words" gc.minor;
      put "gc.promoted_words" gc.promoted;
      put "gc.major_words" gc.major;
      put "gc.major_collections" (float_of_int gc.majors);
      put "unattributed_share" (1. -. (attributed /. whole));
      put "trace_overhead" ((traced /. untraced) -. 1.));
  write_spans "spans.jsonl" t_start;
  Printf.printf "{\"metrics\":{%s},\"facts\":{%s},\"spans\":%d}\n"
    (String.concat ","
       (List.rev_map (fun (k, v) -> Printf.sprintf "%S:%.17g" k v) !metrics))
    (String.concat ","
       (List.rev_map (fun (k, v) -> Printf.sprintf "%S:%s" k v) !facts))
    (List.length !closed)

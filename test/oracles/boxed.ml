(* The boxed static chaos fleet. Every run allocates fresh [Abd]
   records, closure lists and message constructors — far too slow for
   the campaign hot path — but it is written against the protocol module
   itself, so the pooled packed fleet's hand-inlined ABD state machine
   in [Chaos] can be checked against it run for run. *)

module L = Check.Linearize
module C = Msgpass.Chaos
module Abd = Msgpass.Abd
module Faults = Msgpass.Faults
module Net = Msgpass.Net
module Pack = Msgpass.Pack

let to_msg m : int Abd.msg =
  let t = Pack.tag m and reg = Pack.reg m and op = Pack.op m in
  if t = Pack.t_write_req then
    Abd.Write_req { reg; ts = Pack.ts m; value = Pack.value m; op }
  else if t = Pack.t_write_ack then Abd.Write_ack { reg; op }
  else if t = Pack.t_read_req then Abd.Read_req { reg; op }
  else Abd.Read_reply { reg; ts = Pack.ts m; value = Pack.value m; op }

let of_msg : int Abd.msg -> int = function
  | Abd.Write_req { reg; ts; value; op } -> Pack.write_req ~reg ~ts ~value ~op
  | Abd.Write_ack { reg; op } -> Pack.write_ack ~reg ~op
  | Abd.Read_req { reg; op } -> Pack.read_req ~reg ~op
  | Abd.Read_reply { reg; ts; value; op } -> Pack.read_reply ~reg ~ts ~value ~op

(* ABD peers with operation scripts against register 0, recording
   invocation/response events on a shared logical clock. Every inv/res
   gets a fresh stamp, so the recorded real-time order is exactly the
   callback order of the simulation. *)
let build (config : C.config) =
  let n = config.C.n in
  let abds =
    Array.init n (fun me ->
        Abd.create ~n ~t:config.C.t ~me ?quorum:config.C.quorum ~registers:n
          ~init:(fun _ -> 0)
          ())
  in
  let stamp = ref 0 in
  let now () =
    incr stamp;
    !stamp
  in
  let history = ref [] in
  let pending : (int * [ `W of int | `R ]) option array = Array.make n None in
  let scripts =
    Array.init n (fun me ->
        if me = 0 then ref (List.init config.C.writes (fun i -> `W (i + 1)))
        else if me <= config.C.readers then
          ref (List.init config.C.reads (fun _ -> `R))
        else ref [])
  in
  let start_next me =
    match !(scripts.(me)) with
    | [] -> []
    | op :: rest ->
        scripts.(me) := rest;
        pending.(me) <- Some (now (), op);
        (match op with
        | `W v -> Abd.begin_write abds.(me) ~reg:0 v
        | `R -> Abd.begin_read abds.(me) ~reg:0)
  in
  let complete me c =
    match pending.(me) with
    | None -> ()
    | Some (inv, kind) ->
        pending.(me) <- None;
        let op =
          match (c, kind) with
          | Abd.Wrote, `W v -> L.Write v
          | Abd.Read_value v, `R -> L.Read v
          | Abd.Wrote, `R -> L.Read 0
          | Abd.Read_value v, `W _ -> L.Write v
        in
        history :=
          { L.proc = me; reg = 0; op; inv; res = Some (now ()) } :: !history
  in
  let node me =
    {
      Net.on_start = (fun () -> start_next me);
      on_message =
        (fun ~from m ->
          let outs = Abd.handle abds.(me) ~from m in
          match Abd.take_completion abds.(me) with
          | None -> outs
          | Some c ->
              complete me c;
              outs @ start_next me);
      on_leave = (fun () -> []);
    }
  in
  let net = Net.create ~n ~nodes:node () in
  (* Still-pending operations follow the completed ones in ascending pid
     order — the packed fleet's order, which every published terminal
     hash was computed over. *)
  let finalize () =
    let tail = ref [] in
    for me = n - 1 downto 0 do
      match pending.(me) with
      | Some (inv, kind) ->
          let op = match kind with `W v -> L.Write v | `R -> L.Read 0 in
          tail := { L.proc = me; reg = 0; op; inv; res = None } :: !tail
      | None -> ()
    done;
    List.rev_append !history !tail
  in
  (Faults.wrap net, finalize)

let outcome ?rng_point ft finalize =
  let history = finalize () in
  let plan = Faults.compiled_plan ft in
  {
    C.verdict =
      L.check ~pp:Format.pp_print_int ~init:(fun _ -> 0) ~equal:Int.equal
        history;
    history;
    plan;
    events = Faults.events ft;
    deliveries = Faults.compiled_deliveries plan;
    completed =
      List.length
        (List.filter (fun (e : int L.event) -> e.res <> None) history);
    hop_mask = Net.hop_mask (Faults.net ft);
    rng_point;
  }

let run_compiled config plan =
  let ft, finalize = build config in
  Faults.replay_compiled ft plan;
  outcome ft finalize

let run_at (point : C.rng_point) config =
  let ft, finalize = build config in
  let p = config.C.profile in
  let profile =
    {
      p with
      Faults.crash_at = p.Faults.crash_at @ point.C.crash_at;
      enter_at = p.Faults.enter_at @ point.C.churn.Msgpass.Membership.enter_at;
      leave_at = p.Faults.leave_at @ point.C.churn.Msgpass.Membership.leave_at;
    }
  in
  Faults.run_random
    ~rng:(Bits.Rng.of_state point.C.rng_state)
    ~profile ~max_events:config.C.max_events ft;
  outcome ~rng_point:point ft finalize

(* ----- the differential ----- *)

let same (a : C.outcome) (b : C.outcome) =
  Faults.compiled_equal a.C.plan b.C.plan
  && a.C.history = b.C.history
  && a.C.events = b.C.events
  && a.C.deliveries = b.C.deliveries
  && a.C.completed = b.C.completed
  && a.C.verdict = b.C.verdict
  && a.C.hop_mask = b.C.hop_mask

(* Presets at several sizes: sound quorums (with crashes, t as large as
   the quorum allows) and the t = n/2 frontier, where disjoint quorums
   make the verdicts — not just the histories — worth comparing. *)
let configs =
  List.concat_map
    (fun n ->
      [
        ("sound", C.sound ~n ~t:((n - 1) / 2) ());
        ("frontier", C.frontier ~n ());
      ])
    [ 3; 4; 5; 7 ]

let prop_packed_matches_boxed =
  let gen =
    QCheck.Gen.(
      triple (int_bound (List.length configs - 1)) (int_bound 100_000)
        (int_bound 100_000))
  in
  let print (i, seed, mseed) =
    let label, c = List.nth configs i in
    Printf.sprintf "%s n=%d seed=%d mutation seed=%d" label c.C.n seed mseed
  in
  QCheck.Test.make ~name:"packed chaos fleet matches the boxed Abd fleet"
    ~count:150 (QCheck.make ~print gen)
    (fun (i, seed, mseed) ->
      let _, config = List.nth configs i in
      let n = config.C.n in
      let o = C.run_random ~seed config in
      let base = Faults.decompile o.C.plan in
      let rng = Bits.Rng.make mseed in
      let mutants =
        List.init 3 (fun _ -> Msgpass.Fleet.mutate rng ~n base)
        @ [
            Msgpass.Fleet.crossover rng base
              (Faults.decompile (C.run_random ~seed:(seed + 1) config).C.plan);
          ]
      in
      same o (run_at (Option.get o.C.rng_point) config)
      && List.for_all
           (fun plan ->
             let c = Faults.compile ~n plan in
             same (C.run_compiled config c) (run_compiled config c))
           (base :: mutants))

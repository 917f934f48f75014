(* Tests for lib/msgpass: topology, codecs, alternating bit, ABD, routing,
   and the full Theorem 1.3 pipeline. *)

module Q = Bits.Rational
module T = Msgpass.Topology
module Codec = Msgpass.Codec
module Wire = Msgpass.Wire
module AB = Msgpass.Alt_bit
module H = Tasks.Harness

let test_topology_connectivity () =
  List.iter
    (fun (n, t) ->
      let ring = T.augmented_ring ~n ~t in
      Alcotest.(check bool)
        (Printf.sprintf "ring n=%d t=%d is (t+1)-connected" n t)
        true
        (T.survivor_connected ring ~faults:t);
      Alcotest.(check int) "out-degree t+1" (t + 1)
        (List.length (T.successors ring 0));
      Alcotest.(check int) "in-degree t+1" (t + 1)
        (List.length (T.predecessors ring 0)))
    [ (3, 1); (5, 1); (5, 2); (7, 2); (7, 3) ]

let test_topology_not_overconnected () =
  (* Removing t+1 consecutive nodes disconnects the ring: the construction
     is tight. *)
  let ring = T.augmented_ring ~n:7 ~t:2 in
  Alcotest.(check bool) "t+1 consecutive faults disconnect" false
    (T.strongly_connected ring ~without:[ 1; 2; 3 ])

let test_codec_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check string) "string->bits->string" s
        (Codec.string_of_bits (Codec.bits_of_string s)))
    [ ""; "a"; "hello world"; String.init 17 Char.chr ]

let test_codec_framing () =
  (* Several frames through one deframer, one bit at a time. *)
  let messages = [ "alpha"; ""; "x"; "12:34:56" ] in
  let stream = List.concat_map Codec.encode messages in
  let d = Codec.decoder () in
  let received =
    List.filter_map (fun bit -> Codec.decode d bit) stream
  in
  Alcotest.(check (list string)) "frames recovered in order" messages received

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"codec roundtrip (random strings)" ~count:200
    QCheck.(string_of_size (Gen.int_bound 40))
    (fun s -> Codec.string_of_bits (Codec.bits_of_string s) = s)

let prop_framing_stream =
  QCheck.Test.make ~name:"framing recovers random message streams" ~count:100
    QCheck.(list_of_size (Gen.int_bound 5) (string_of_size (Gen.int_bound 12)))
    (fun messages ->
      let d = Codec.decoder () in
      let received =
        List.filter_map (fun b -> Codec.decode d b)
          (List.concat_map Codec.encode messages)
      in
      received = messages)

let test_wire_roundtrip () =
  let chunks = [ "a"; ""; "12:3"; "::"; String.make 50 'z' ] in
  Alcotest.(check (list string)) "enc/dec" chunks (Wire.dec (Wire.enc chunks))

let prop_wire_roundtrip =
  QCheck.Test.make ~name:"wire enc/dec (random chunk lists)" ~count:200
    QCheck.(list_of_size (Gen.int_bound 6) (string_of_size (Gen.int_bound 20)))
    (fun chunks -> Wire.dec (Wire.enc chunks) = chunks)

(* ----- packed ABD messages (Codec.Pack) ----- *)

(* Every field of the bit-packed layout — tag:2 | reg:10 | op:16 | ts:16 |
   value:18 — must decode to exactly what was encoded, including at the
   field boundaries (0, 1, max-1, max) where a mask or shift off by one
   would silently alias neighbouring fields. The roundtrip through the
   boxed oracle's Abd.msg codec pins the packed and boxed forms to each
   other. *)
let prop_pack_roundtrip_boundary =
  let module P = Msgpass.Pack in
  let field max =
    QCheck.Gen.(
      oneof [ oneofl [ 0; 1; max - 1; max ]; int_bound max ])
  in
  let gen =
    QCheck.Gen.(
      int_bound 3 >>= fun tag ->
      field P.max_reg >>= fun reg ->
      field P.max_op >>= fun op ->
      field P.max_ts >>= fun ts ->
      field P.max_value >>= fun value -> return (tag, reg, op, ts, value))
  in
  QCheck.Test.make ~name:"Pack roundtrips every field at boundary widths"
    ~count:400 (QCheck.make gen)
    (fun (tag, reg, op, ts, value) ->
      let module P = Msgpass.Pack in
      let m =
        if tag = P.t_write_req then P.write_req ~reg ~ts ~value ~op
        else if tag = P.t_write_ack then P.write_ack ~reg ~op
        else if tag = P.t_read_req then P.read_req ~reg ~op
        else P.read_reply ~reg ~ts ~value ~op
      in
      let carries_ts = tag = P.t_write_req || tag = P.t_read_reply in
      P.tag m = tag && P.reg m = reg && P.op m = op
      && P.ts m = (if carries_ts then ts else 0)
      && P.value m = (if carries_ts then value else 0)
      && Oracles.Boxed.of_msg (Oracles.Boxed.to_msg m) = m
      && m >= 0)

let test_pack_fits_static_boundaries () =
  let module P = Msgpass.Pack in
  let fits = P.fits_static in
  Alcotest.(check bool) "exact bounds fit" true
    (fits ~registers:(P.max_reg + 1) ~writes:P.max_ts ~max_ops:P.max_op);
  Alcotest.(check bool) "one register too many" false
    (fits ~registers:(P.max_reg + 2) ~writes:1 ~max_ops:1);
  Alcotest.(check bool) "one write too many" false
    (fits ~registers:1 ~writes:(P.max_ts + 1) ~max_ops:1);
  Alcotest.(check bool) "one op too many" false
    (fits ~registers:1 ~writes:1 ~max_ops:(P.max_op + 1));
  (* The value field is wider than the timestamp field, so the write
     count binds through max_ts first — a config that fits never
     overflows either. *)
  Alcotest.(check bool) "ts is the binding field" true
    (P.max_value > P.max_ts)

let test_wire_envelope_codec () =
  let codec =
    Wire.envelope_codec
      (Wire.abd_msg_codec (Wire.cell_codec Wire.rational_codec Wire.int_codec))
  in
  let envelope =
    {
      Msgpass.Router.origin = 2;
      seq = 41;
      dest = 0;
      body =
        Msgpass.Abd.Write_req
          { reg = 1; ts = 7; value = Msgpass.Interp.Coord (Q.make 3 7); op = 9 };
    }
  in
  let back = codec.Wire.of_string (codec.Wire.to_string envelope) in
  Alcotest.(check bool) "envelope roundtrip" true (envelope = back)

(* Alternating bit: push messages through polled register fields under a
   random polling schedule. *)
let test_alt_bit_channel () =
  List.iter
    (fun chunk ->
      let rng = Bits.Rng.make (100 + chunk) in
      let messages = List.init 8 (fun i -> Printf.sprintf "msg-%d!" i) in
      let sender = AB.sender ~chunk in
      List.iter (AB.send_string sender) messages;
      let receiver = AB.receiver () in
      let data_field = ref (AB.initial_field ~chunk) in
      let ack_field = ref 0 in
      let received = ref [] in
      let steps = ref 0 in
      while
        (not (AB.sender_idle sender))
        && !steps < 100_000
      do
        incr steps;
        if Bits.Rng.bool rng then (
          match AB.sender_poll sender ~ack_seen:!ack_field with
          | Some field -> data_field := field
          | None -> ())
        else begin
          let msgs = AB.receiver_poll receiver ~data_seen:!data_field in
          received := !received @ msgs;
          ack_field := AB.receiver_ack receiver
        end
      done;
      (* Drain the last in-flight chunk. *)
      let msgs = AB.receiver_poll receiver ~data_seen:!data_field in
      received := !received @ msgs;
      Alcotest.(check (list string))
        (Printf.sprintf "FIFO delivery (chunk=%d)" chunk)
        messages !received)
    [ 1; 3; 8 ]

let prop_alt_bit_fifo =
  QCheck.Test.make ~name:"alt-bit: FIFO for random chunks and messages"
    ~count:60
    QCheck.(
      triple (int_range 1 10)
        (list_of_size (Gen.int_bound 5) (string_of_size (Gen.int_bound 10)))
        (int_range 0 10_000))
    (fun (chunk, messages, seed) ->
      let rng = Bits.Rng.make seed in
      let sender = AB.sender ~chunk in
      List.iter (AB.send_string sender) messages;
      let receiver = AB.receiver () in
      let data = ref (AB.initial_field ~chunk) in
      let received = ref [] in
      let steps = ref 0 in
      while (not (AB.sender_idle sender)) && !steps < 100_000 do
        incr steps;
        if Bits.Rng.bool rng then (
          match
            AB.sender_poll sender ~ack_seen:(AB.receiver_ack receiver)
          with
          | Some f -> data := f
          | None -> ())
        else received := !received @ AB.receiver_poll receiver ~data_seen:!data
      done;
      received := !received @ AB.receiver_poll receiver ~data_seen:!data;
      !received = messages)

(* Scripted delivery on the base substrate: per-channel FIFO is an
   invariant of Net itself, whatever delivery order the adversary picks. *)
let two_node_net received =
  Msgpass.Net.create ~n:2 ~nodes:(fun pid ->
      {
        Msgpass.Net.on_start =
          (fun () -> if pid = 0 then [ (1, "a"); (1, "b"); (1, "c") ] else []);
        on_message =
          (fun ~from:_ m ->
            received := !received @ [ m ];
            []);
        on_leave = (fun () -> []);
      })
    ()

let test_net_scripted_delivery () =
  let received = ref [] in
  let net = two_node_net received in
  Alcotest.(check int) "three messages queued" 3
    (Msgpass.Net.pending net ~src:0 ~dst:1);
  Alcotest.(check int) "reverse channel empty" 0
    (Msgpass.Net.pending net ~src:1 ~dst:0);
  Alcotest.(check bool) "deliver head" true
    (Msgpass.Net.deliver net ~src:0 ~dst:1);
  Alcotest.(check int) "two left" 2 (Msgpass.Net.pending net ~src:0 ~dst:1);
  Alcotest.(check bool) "second" true (Msgpass.Net.deliver net ~src:0 ~dst:1);
  Alcotest.(check bool) "third" true (Msgpass.Net.deliver net ~src:0 ~dst:1);
  Alcotest.(check bool) "empty channel refuses" false
    (Msgpass.Net.deliver net ~src:0 ~dst:1);
  Alcotest.(check (list string)) "FIFO order" [ "a"; "b"; "c" ] !received

let test_net_deliver_respects_crash () =
  let received = ref [] in
  let net = two_node_net received in
  Msgpass.Net.crash net 1;
  Alcotest.(check bool) "crashed destination refuses" false
    (Msgpass.Net.deliver net ~src:0 ~dst:1);
  Alcotest.(check int) "message stays queued" 3
    (Msgpass.Net.pending net ~src:0 ~dst:1);
  Alcotest.(check (list string)) "nothing handled" [] !received

(* The delivery path of a pooled network allocates nothing: eight
   tokens circle an 8-node ring (each message waits about eight hops, so
   the hop-latency bucketing walks several bounds), and once the rings
   have grown, 10,000 scripted deliveries — each running a handler that
   sends — leave the minor heap untouched. *)
let test_net_deliver_allocation_free () =
  let n = 8 in
  let net =
    Msgpass.Net.create_push ~n
      ~nodes:(fun ~send pid ->
        let next = (pid + 1) mod n in
        {
          Msgpass.Net.p_start = (fun () -> send ~dst:next pid);
          p_message = (fun ~from:_ m -> send ~dst:next m);
          p_leave = ignore;
        })
      ()
  in
  let deliver_round_robin k =
    let refused = ref 0 in
    for i = 0 to k - 1 do
      let src = i mod n in
      if not (Msgpass.Net.deliver net ~src ~dst:((src + 1) mod n)) then
        incr refused
    done;
    !refused
  in
  ignore (deliver_round_robin 1_000 : int);
  Msgpass.Net.reset net;
  ignore (deliver_round_robin 1_000 : int);
  let before = Gc.minor_words () in
  let refused = deliver_round_robin 10_000 in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "every delivery lands" 0 refused;
  Alcotest.(check (float 0.)) "minor words over 10,000 deliveries" 0. words

let prop_net_random_fifo =
  (* Whatever channel order deliver_random picks, each channel's messages
     arrive in send order. *)
  QCheck.Test.make ~name:"random delivery keeps per-channel FIFO" ~count:60
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let n = 3 in
      let received = Array.make n [] in
      let net =
        Msgpass.Net.create ~n ~nodes:(fun pid ->
            {
              Msgpass.Net.on_start =
                (fun () ->
                  List.concat_map
                    (fun dst ->
                      if dst = pid then []
                      else List.init 4 (fun i -> (dst, (pid, i))))
                    (List.init n Fun.id));
              on_message =
                (fun ~from:_ m ->
                  received.(pid) <- m :: received.(pid);
                  []);
              on_leave = (fun () -> []);
            })
          ()
      in
      Msgpass.Net.run_random ~rng:(Bits.Rng.make seed) net;
      (* Per (receiver, sender): sequence numbers strictly increase. *)
      Array.for_all
        (fun log ->
          let per_sender = Hashtbl.create 4 in
          List.for_all
            (fun (src, i) ->
              let prev =
                Option.value (Hashtbl.find_opt per_sender src) ~default:(-1)
              in
              Hashtbl.replace per_sender src i;
              i > prev)
            (List.rev log))
        received)

let test_faults_defer_breaks_fifo () =
  (* The only way to see non-FIFO per-channel delivery is through the
     Faults layer's defer action — the base substrate above stays FIFO. *)
  let received = ref [] in
  let net = two_node_net received in
  let ft = Msgpass.Faults.wrap net in
  let ch = { Msgpass.Faults.src = 0; dst = 1 } in
  Alcotest.(check bool) "defer head" true
    (Msgpass.Faults.apply ft (Msgpass.Faults.Defer ch));
  List.iter
    (fun _ ->
      ignore (Msgpass.Faults.apply ft (Msgpass.Faults.Deliver ch)))
    [ (); (); () ];
  Alcotest.(check (list string)) "reordered delivery" [ "b"; "c"; "a" ]
    !received;
  (* The perturbation is part of the replayable record. *)
  Alcotest.(check int) "plan records all four actions" 4
    (List.length (Msgpass.Faults.plan ft))

let test_faults_drop_and_duplicate () =
  let received = ref [] in
  let net = two_node_net received in
  let ft = Msgpass.Faults.wrap net in
  let ch = { Msgpass.Faults.src = 0; dst = 1 } in
  Alcotest.(check bool) "drop head" true
    (Msgpass.Faults.apply ft (Msgpass.Faults.Drop ch));
  Alcotest.(check bool) "duplicate new head" true
    (Msgpass.Faults.apply ft (Msgpass.Faults.Duplicate ch));
  while Msgpass.Faults.apply ft (Msgpass.Faults.Deliver ch) do
    ()
  done;
  Alcotest.(check (list string)) "lost a, duplicated b" [ "b"; "c"; "b" ]
    !received

(* Regression: chaos campaigns are a pure function of the seed. Every
   shrunk counterexample in EXPERIMENTS.md is quoted by seed, so a drift
   in the RNG stream or the fault layer would silently invalidate them.
   Between the two runs, other runs go through the pool — one of the
   same fleet shape (a different profile and event cap, so the same
   pooled fleet) and one of another shape — so state leaking through a
   pooled fleet's reset shows up as a differing second run. *)
let test_chaos_deterministic () =
  let module C = Msgpass.Chaos in
  List.iter
    (fun (label, config, seed) ->
      let a = C.run_random ~seed config in
      let same_shape =
        {
          config with
          C.profile = { config.C.profile with Msgpass.Faults.drop = 0.3 };
          max_events = 300;
        }
      in
      ignore (C.run_random ~seed:(seed + 1) same_shape);
      ignore
        (C.run_random ~seed
           (if config.C.membership = None then C.churn () else C.sound ()));
      let b = C.run_random ~seed config in
      Alcotest.(check bool)
        (label ^ ": identical fault plan")
        true
        (a.C.plan = b.C.plan);
      Alcotest.(check bool)
        (label ^ ": identical verdict")
        true
        (C.failed a = C.failed b);
      Alcotest.(check int) (label ^ ": identical event count") a.C.events
        b.C.events;
      Alcotest.(check bool)
        (label ^ ": identical history")
        true
        (a.C.history = b.C.history);
      Alcotest.(check int)
        (label ^ ": identical delivery count")
        a.C.deliveries b.C.deliveries;
      Alcotest.(check int) (label ^ ": identical hop mask") a.C.hop_mask
        b.C.hop_mask;
      (* And the plan really replays to the same verdict. *)
      let r = C.run_plan config (Msgpass.Faults.decompile a.C.plan) in
      Alcotest.(check bool)
        (label ^ ": replay agrees")
        true
        (C.failed r = C.failed a))
    [
      ("sound", C.sound (), 7);
      ("frontier violation", C.frontier (), 127);
      ("churn", C.churn (), 7);
      ("churn frontier violation", C.churn_frontier (), 29);
    ]

(* Parallel campaigns must be byte-identical to sequential ones: outcomes
   are computed on worker domains but tallied on the main domain in seed
   order, so the verdict, the totals, the first violation and its shrunk
   counterexample are all invariant in [jobs]. *)
let test_chaos_jobs_invariant () =
  let module C = Msgpass.Chaos in
  List.iter
    (fun (label, config, seed, runs) ->
      let campaign jobs =
        let c = C.campaign ~jobs ~seed ~runs config in
        let found = Option.map (C.shrink_violation config) c.C.first in
        ( c,
          Format.asprintf "%a%a" C.pp_campaign c
            (Format.pp_print_option C.pp_found)
            found,
          Option.map (fun f -> f.C.shrunk) found )
      in
      let seq, seq_pp, seq_shrunk = campaign 1 in
      List.iter
        (fun jobs ->
          let par, par_pp, par_shrunk = campaign jobs in
          Alcotest.(check string)
            (Printf.sprintf "%s: jobs=%d renders identically" label jobs)
            seq_pp par_pp;
          Alcotest.(check int)
            (Printf.sprintf "%s: jobs=%d same violations" label jobs)
            seq.C.violations par.C.violations;
          Alcotest.(check int)
            (Printf.sprintf "%s: jobs=%d same event total" label jobs)
            seq.C.total_events par.C.total_events;
          Alcotest.(check bool)
            (Printf.sprintf "%s: jobs=%d same shrunk plan" label jobs)
            true (seq_shrunk = par_shrunk))
        [ 2; 4 ])
    [
      ("sound", C.sound (), 1, 50);
      ("frontier violation", C.frontier (), 127, 10);
      ("churn", C.churn (), 1, 30);
      ("churn frontier violation", C.churn_frontier (), 29, 5);
    ]

(* A single mid-campaign run must be replayable from its recorded
   rng_point alone — the resolved RNG state plus the crash schedule it
   rolled — without re-running the seeds that preceded it. *)
let test_chaos_rng_point_replay () =
  let module C = Msgpass.Chaos in
  List.iter
    (fun (label, config, seed) ->
      let a = C.run_random ~seed config in
      let point =
        match a.C.rng_point with
        | Some p -> p
        | None -> Alcotest.failf "%s: randomized run recorded no rng_point" label
      in
      let b = C.run_at point config in
      Alcotest.(check bool) (label ^ ": same plan") true (a.C.plan = b.C.plan);
      Alcotest.(check bool)
        (label ^ ": same history")
        true (a.C.history = b.C.history);
      Alcotest.(check int) (label ^ ": same events") a.C.events b.C.events;
      Alcotest.(check bool)
        (label ^ ": same verdict")
        true
        (C.failed a = C.failed b))
    [
      ("sound", C.sound (), 3);
      ("frontier violation", C.frontier (), 127);
      ("churn", C.churn (), 3);
      ("churn frontier violation", C.churn_frontier (), 29);
    ]

(* ----- dynamic membership ----- *)

(* View algebra: activation (not mere entry) is what feeds the quorum,
   leaving wins over entering, and merge is the join of everything both
   sides know. *)
let test_membership_views () =
  let module M = Msgpass.Membership in
  let v = M.initial 3 in
  Alcotest.(check int) "initial cardinal" 3 (M.cardinal v);
  Alcotest.(check int) "initial quorum" 2 (M.quorum v);
  let v = M.enter v 5 in
  Alcotest.(check bool) "entered joiner is current" true (M.mem v 5);
  Alcotest.(check int) "joiner not active: quorum base unchanged" 2
    (M.quorum v);
  let v = M.activate v 5 in
  Alcotest.(check int) "activation widens the quorum base" 3 (M.quorum v);
  let v = M.leave v 0 in
  Alcotest.(check bool) "leaver is gone" false (M.mem v 0);
  Alcotest.(check int) "leaver out of the quorum base" 2 (M.quorum v);
  let w = M.leave (M.initial 3) 2 in
  let m = M.merge v w in
  Alcotest.(check bool) "merge commutes" true (m = M.merge w v);
  Alcotest.(check bool) "merge is idempotent" true (M.merge m m = m);
  Alcotest.(check bool) "merge includes both sides" true
    (M.includes m v && M.includes m w);
  Alcotest.(check bool) "leave wins over enter" false (M.mem m 2);
  Alcotest.(check int) "slack widens the quorum" 3 (M.quorum ~slack:1 v);
  Alcotest.(check int) "slack is capped at the active set" 2
    (M.quorum ~slack:9 (M.initial 2))

(* The schedule generator's contract: however the jitter rolls, no
   window-length stretch of the run ever sees more churn than the
   configured rate. *)
let prop_churn_schedule_rate_bounded =
  QCheck.Test.make ~name:"random churn schedules respect the window bound"
    ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let module M = Msgpass.Membership in
      let rng = Bits.Rng.make seed in
      let c =
        M.random rng ~joiners:[ 5; 6; 7 ] ~leavers:[ 1; 2; 3; 4 ] ~rate:4
          ~window:16 ~span:400
      in
      M.max_in_window ~window:16 c <= 4)

(* Dynreg under a faultless FIFO transport: the join protocol activates
   a late arrival, a seeded writer's value reaches a joiner's read, and
   the emulation keeps answering after a departure. *)
let test_dynreg_join_read_write () =
  let module D = Msgpass.Dynreg in
  let n = 4 in
  let initial = Msgpass.Membership.initial 3 in
  let peers =
    Array.init n (fun me ->
        D.create ~n ~me ~registers:1 ~init:(fun _ -> 0) ~initial ())
  in
  let q = Queue.create () in
  let send from msgs =
    List.iter (fun (dst, m) -> Queue.add (from, dst, m) q) msgs
  in
  let drain () =
    while not (Queue.is_empty q) do
      let from, dst, m = Queue.pop q in
      send dst (D.handle peers.(dst) ~from m)
    done
  in
  Alcotest.(check bool) "seeded member starts active" true
    (D.is_active peers.(0));
  Alcotest.(check bool) "joiner starts inactive" false (D.is_active peers.(3));
  send 3 (D.start peers.(3));
  drain ();
  Alcotest.(check bool) "joiner activated" true (D.is_active peers.(3));
  Alcotest.(check bool) "activation completion" true
    (D.take_completion peers.(3) = Some D.Activated);
  send 0 (D.begin_write peers.(0) ~reg:0 42);
  drain ();
  Alcotest.(check bool) "write completed" true
    (D.take_completion peers.(0) = Some D.Wrote);
  send 3 (D.begin_read peers.(3) ~reg:0);
  drain ();
  (match D.take_completion peers.(3) with
  | Some (D.Read_value v) -> Alcotest.(check int) "joiner reads the write" 42 v
  | _ -> Alcotest.fail "joiner's read did not complete");
  send 1 (D.farewell peers.(1));
  drain ();
  Alcotest.(check bool) "leaver deactivated" false (D.is_active peers.(1));
  send 2 (D.begin_read peers.(2) ~reg:0);
  drain ();
  match D.take_completion peers.(2) with
  | Some (D.Read_value v) ->
      Alcotest.(check int) "read survives the departure" 42 v
  | _ -> Alcotest.fail "post-departure read did not complete"

(* Construction-time validation: unsatisfiable settings are errors,
   crashes > t clamps with a warning. *)
let test_chaos_validate () =
  let module C = Msgpass.Chaos in
  (match C.validate (C.sound ()) with
  | Ok (_, []) -> ()
  | Ok (_, w) -> Alcotest.failf "sound preset warned: %s" (String.concat "; " w)
  | Error e -> Alcotest.failf "sound preset rejected: %s" e);
  (match C.validate { (C.sound ()) with C.crashes = 5 } with
  | Ok (c, [ _ ]) -> Alcotest.(check int) "crashes clamped to t" c.C.t c.C.crashes
  | Ok (_, w) -> Alcotest.failf "expected one warning, got %d" (List.length w)
  | Error e -> Alcotest.failf "clampable config rejected: %s" e);
  List.iter
    (fun (label, config) ->
      match C.validate config with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "validate accepted %s" label)
    [
      ("quorum 0", { (C.sound ()) with C.quorum = Some 0 });
      ("quorum > n", { (C.sound ()) with C.quorum = Some 9 });
      ("n = 0", { (C.sound ()) with C.n = 0 });
      ("seed_members > n", C.churn ~n:4 ~seed_members:5 ());
      ("negative rate", C.churn ~rate:(-1) ());
      ("window 0", C.churn ~window:0 ());
      ("width 31", C.churn ~width_bits:31 ());
      ("n above the network's slots", { (C.sound ()) with C.n = 80 });
      ("negative reads", { (C.sound ()) with C.reads = -1 });
      ("negative writes (churn)", { (C.churn ()) with C.writes = -1 });
      ("t >= n/2 without a quorum", C.sound ~n:4 ~t:2 ());
      ("writes above the packed layout",
        { (C.sound ()) with C.writes = 70_000 });
      ("reads above the packed layout",
        { (C.frontier ()) with C.reads = 70_000 });
    ];
  (* The packed layout binds static configs only: the boxed Dynreg
     fleet takes any script length. *)
  match C.validate { (C.churn ()) with C.writes = 70_000 } with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "dynamic config rejected: %s" e

(* The churn mutation grammar is opt-in (static fleets must keep their
   published rng streams) and deterministic under it. *)
let test_fleet_churn_mutants () =
  let module C = Msgpass.Chaos in
  let module F = Msgpass.Fleet in
  let config = C.churn_frontier () in
  let base = Msgpass.Faults.decompile (C.run_random ~seed:29 config).C.plan in
  let children churn seed =
    let rng = Bits.Rng.make seed in
    List.init 64 (fun _ -> F.mutate rng ~n:config.C.n ~churn base)
  in
  Alcotest.(check bool) "churn mutants are seed-deterministic" true
    (children true 5 = children true 5);
  let has_churn p =
    List.exists
      (function Msgpass.Faults.Enter _ | Msgpass.Faults.Leave _ -> true | _ -> false)
      p
  in
  Alcotest.(check bool) "churn grammar is reachable" true
    (List.exists has_churn (children true 5));
  List.iter (fun m -> ignore (C.run_plan config m)) (children true 7);
  List.iter (fun m -> ignore (C.run_plan config m)) (children false 7)

(* ----- chaos fleet ----- *)

(* One action of any of the seven kinds, operands drawn from [operand]. *)
let action_gen operand =
  let open QCheck.Gen in
  let chan k =
    map2 (fun src dst -> k { Msgpass.Faults.src; dst }) operand operand
  in
  oneof
    [
      chan (fun ch -> Msgpass.Faults.Deliver ch);
      chan (fun ch -> Msgpass.Faults.Drop ch);
      chan (fun ch -> Msgpass.Faults.Duplicate ch);
      chan (fun ch -> Msgpass.Faults.Defer ch);
      map (fun pid -> Msgpass.Faults.Crash pid) operand;
      map (fun pid -> Msgpass.Faults.Enter pid) operand;
      map (fun pid -> Msgpass.Faults.Leave pid) operand;
    ]

let fault_plan_gen =
  QCheck.Gen.(list_size (int_bound 40) (action_gen (int_bound 9)))

let fault_plan_arbitrary =
  QCheck.make ~print:(Format.asprintf "%a" Msgpass.Faults.pp_plan)
    fault_plan_gen

(* The corpus on disk is human-editable: the serialized form of a plan is
   exactly what pp_plan prints, and both codecs invert it. *)
let prop_plan_codec_roundtrip =
  QCheck.Test.make ~name:"fault-plan codecs round-trip random plans"
    ~count:200 fault_plan_arbitrary (fun plan ->
      let text = Format.asprintf "%a" Msgpass.Faults.pp_plan plan in
      Msgpass.Faults.plan_of_string text = Ok plan
      && Msgpass.Faults.plan_of_json (Msgpass.Faults.plan_to_json plan)
         = Ok plan)

(* ----- pooled Net vs the Netref oracle ----- *)

(* The arena-backed Net must stay observationally identical to the
   retained Queue-backed Netref under any scripted fault sequence, churn
   included. Both networks run the same bounded gossip protocol and log
   every handler invocation; after every plan action the two must agree
   on the action's effect, the delivery log, the deliverable set, the
   membership view and the counters — and a final lexicographic drain
   must leave both quiescent with identical logs. Slots 7..9 start
   absent so random Enter actions are effective. *)
let prop_net_matches_netref =
  let module N = Msgpass.Net in
  let module R = Oracles.Netref in
  let module F = Msgpass.Faults in
  let n = 10 in
  let fanout = 3 * n in
  QCheck.Test.make
    ~name:"pooled Net matches the Netref oracle on random fault plans"
    ~count:120 fault_plan_arbitrary
    (fun plan ->
      let log_n = ref [] and log_r = ref [] in
      let net_nodes pid : int N.node =
        {
          N.on_start = (fun () -> [ ((pid + 1) mod n, pid) ]);
          on_message =
            (fun ~from m ->
              log_n := (pid, from, m) :: !log_n;
              if m < fanout then [ ((pid + 1) mod n, m + n) ] else []);
          on_leave = (fun () -> [ ((pid + 2) mod n, 1000 + pid) ]);
        }
      in
      let ref_nodes pid : int R.node =
        {
          R.on_start = (fun () -> [ ((pid + 1) mod n, pid) ]);
          on_message =
            (fun ~from m ->
              log_r := (pid, from, m) :: !log_r;
              if m < fanout then [ ((pid + 1) mod n, m + n) ] else []);
          on_leave = (fun () -> [ ((pid + 2) mod n, 1000 + pid) ]);
        }
      in
      let present pid = pid < 7 in
      let net = N.create ~present ~n ~nodes:net_nodes () in
      let oracle = R.create ~present ~n ~nodes:ref_nodes () in
      let pids = List.init n Fun.id in
      let same_state () =
        !log_n = !log_r
        && N.deliverable net = R.deliverable oracle
        && N.deliveries net = R.deliveries oracle
        && N.hop_mask net = R.hop_mask oracle
        && N.crashed net = R.crashed oracle
        && N.departed net = R.departed oracle
        && N.quiescent net = R.quiescent oracle
        && List.for_all
             (fun pid ->
               N.alive net pid = R.alive oracle pid
               && N.is_present net pid = R.is_present oracle pid)
             pids
        && List.for_all
             (fun src ->
               List.for_all
                 (fun dst ->
                   N.pending net ~src ~dst = R.pending oracle ~src ~dst)
                 pids)
             pids
      in
      let apply = function
        | F.Deliver { F.src; dst } ->
            N.deliver net ~src ~dst = R.deliver oracle ~src ~dst
        | F.Drop { F.src; dst } ->
            N.drop net ~src ~dst = R.drop oracle ~src ~dst
        | F.Duplicate { F.src; dst } ->
            N.duplicate net ~src ~dst = R.duplicate oracle ~src ~dst
        | F.Defer { F.src; dst } ->
            N.defer net ~src ~dst = R.defer oracle ~src ~dst
        | F.Crash pid ->
            N.crash net pid;
            R.crash oracle pid;
            true
        | F.Enter pid -> N.enter net pid = R.enter oracle pid
        | F.Leave pid -> N.leave net pid = R.leave oracle pid
      in
      let scripted = List.for_all (fun a -> apply a && same_state ()) plan in
      let drained =
        let budget = ref 10_000 in
        let ok = ref true in
        let continue = ref true in
        while !continue && !ok && !budget > 0 do
          match R.deliverable oracle with
          | [] -> continue := false
          | (src, dst) :: _ ->
              decr budget;
              ok :=
                N.deliver net ~src ~dst = R.deliver oracle ~src ~dst
                && same_state ()
        done;
        !ok && !budget > 0 && N.quiescent net && R.quiescent oracle
      in
      scripted && drained)

let test_plan_codec_rejects_garbage () =
  List.iter
    (fun text ->
      match Msgpass.Faults.plan_of_string text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "parsed %S" text)
    [
      "deliver"; "deliver 0-1"; "crash x"; "teleport 0>1"; "deliver 0>1; zap";
      "enter"; "leave 1>2";
    ]

let contains hay needle =
  let h = String.length hay and n = String.length needle in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* A rejected plan names the offending action and where it sits, so a
   hand-edited corpus line fails with something greppable instead of a
   bare "parse error". *)
let test_plan_parse_errors_are_positional () =
  List.iter
    (fun (text, fragments) ->
      match Msgpass.Faults.plan_of_string text with
      | Ok _ -> Alcotest.failf "parsed %S" text
      | Error e ->
          List.iter
            (fun frag ->
              if not (contains e frag) then
                Alcotest.failf "error for %S lacks %S: %s" text frag e)
            fragments)
    [
      ("deliver 0>1; zap 3", [ "action 1"; "char 12"; "zap" ]);
      ("deliver 0>1; deliver 2>3; crash x", [ "action 2"; "char 25"; "x" ]);
      ("enter 0; leave y", [ "action 1"; "leave"; "y" ]);
      ("deliver 9", [ "action 0"; "char 0"; "src>dst" ]);
    ]

(* Mutation is a pure function of the rng stream: same corpus plan + same
   seed give byte-identical children. *)
let test_fleet_mutator_deterministic () =
  let module C = Msgpass.Chaos in
  let module F = Msgpass.Fleet in
  let config = C.frontier () in
  let base = Msgpass.Faults.decompile (C.run_random ~seed:11 config).C.plan in
  let children seed =
    let rng = Bits.Rng.make seed in
    List.init 32 (fun _ -> F.mutate rng ~n:config.C.n base)
  in
  Alcotest.(check bool) "same seed: byte-identical children" true
    (children 5 = children 5);
  Alcotest.(check bool) "different seed: different children" true
    (children 5 <> children 6);
  let other = Msgpass.Faults.decompile (C.run_random ~seed:12 config).C.plan in
  let cross seed =
    let rng = Bits.Rng.make seed in
    List.init 32 (fun _ -> F.crossover rng base other)
  in
  Alcotest.(check bool) "crossover deterministic too" true (cross 5 = cross 5);
  (* Golden stream: one rng drives mutants of a frontier, a sound (with
     crashes) and a churn plan, then crossovers, including the
     empty-parent cases. The digest was recorded from the action-array
     mutation engine the compiled-form one replaced, so any drift in
     which draws happen, or in what order, changes it — and with it
     every published fleet report and corpus. *)
  let plan_of config seed =
    Msgpass.Faults.decompile (C.run_random ~seed config).C.plan
  in
  let sound = C.sound () and churn = C.churn_frontier () in
  let sbase = plan_of sound 3 and cbase = plan_of churn 29 in
  let rng = Bits.Rng.make 5 in
  let mutants = List.init 32 (fun _ -> F.mutate rng ~n:config.C.n base) in
  let smutants = List.init 32 (fun _ -> F.mutate rng ~n:sound.C.n sbase) in
  let cmutants =
    List.init 32 (fun _ -> F.mutate rng ~n:churn.C.n ~churn:true cbase)
  in
  let xs = List.init 32 (fun _ -> F.crossover rng base other) in
  let xe = [ F.crossover rng [] base; F.crossover rng base [] ] in
  let text =
    String.concat "\n"
      (List.map
         (fun p ->
           String.concat ";" (List.map Msgpass.Faults.action_to_string p))
         (mutants @ smutants @ cmutants @ xs @ xe))
  in
  Alcotest.(check string) "golden mutation stream"
    "01f81a9da921984b6d15e8cbb7eb84f3"
    (Digest.to_hex (Digest.string text))

(* Every mutant stays well-formed: endpoints are drawn in [0, n), and
   ineffective actions are skipped, so replay never raises — however the
   splicing mangled the plan. *)
let prop_fleet_mutants_replay =
  let module C = Msgpass.Chaos in
  let module F = Msgpass.Fleet in
  let config = C.frontier () in
  QCheck.Test.make ~name:"mutants replay without Invalid_argument" ~count:60
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Bits.Rng.make seed in
      let base = Msgpass.Faults.decompile (C.run_random ~seed:(seed land 31) config).C.plan in
      let m = F.mutate rng ~n:config.C.n base in
      let x = F.crossover rng m base in
      ignore (C.run_plan config m);
      ignore (C.run_plan config x);
      true)

(* Fleet reports are a pure function of the seed at any pool width: job
   planning, coverage, corpus growth and shrinking all happen on the
   calling domain in batch order. *)
let test_fleet_jobs_invariant () =
  let module C = Msgpass.Chaos in
  let module F = Msgpass.Fleet in
  List.iter
    (fun (label, config) ->
      let report jobs =
        Format.asprintf "%a" F.pp_report
          (F.campaign ~generations:12 ~batch:8 ~jobs ~seed:9 config)
      in
      let seq = report 1 in
      List.iter
        (fun jobs ->
          Alcotest.(check string)
            (Printf.sprintf "%s: jobs=%d renders identically" label jobs)
            seq (report jobs))
        [ 2; 4 ])
    [ ("frontier", C.frontier ()); ("churn", C.churn ()) ]

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* End to end on the frontier configuration: the fleet rediscovers the
   known stale-read violation class exactly once (every later find
   deduplicates into it), the witness replays bit-for-bit from its file,
   the corpus round-trips through its JSONL, and a second fleet resumed
   over the same corpus does not republish the class. *)
let test_fleet_witness_dedup_and_replay () =
  let module C = Msgpass.Chaos in
  let module F = Msgpass.Fleet in
  let config = C.frontier () in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "boundedreg-fleet-test"
  in
  rm_rf dir;
  let r = F.campaign ~generations:60 ~batch:16 ~seed:9 ~corpus_dir:dir config in
  Alcotest.(check bool) "found violating runs" true (r.F.violations > 0);
  Alcotest.(check int) "exactly one witness class" 1
    (List.length r.F.witnesses);
  let w = List.hd r.F.witnesses in
  Alcotest.(check int) "every later find deduplicated" (r.F.violations - 1)
    w.F.duplicates;
  Alcotest.(check bool) "witness plan still fails" true
    (C.failed (C.run_plan config w.F.plan));
  (match F.replay_file (Option.get w.F.file) with
  | Error e -> Alcotest.fail e
  | Ok rep ->
      Alcotest.(check bool) "witness file replays bit-for-bit" true
        rep.F.bit_for_bit);
  (match F.load_corpus dir with
  | Error e -> Alcotest.fail e
  | Ok entries ->
      Alcotest.(check int) "corpus JSONL round-trips every entry"
        r.F.corpus_size (List.length entries));
  let r2 =
    F.campaign ~generations:10 ~batch:8 ~seed:77 ~corpus_dir:dir config
  in
  Alcotest.(check int) "resumed fleet continues corpus ids"
    (r.F.corpus_size + r2.F.corpus_added)
    r2.F.corpus_size;
  Alcotest.(check int) "resumed fleet does not republish the class" 0
    (List.length r2.F.witnesses);
  rm_rf dir

(* The CLI built next to this test executable (the test stanza depends
   on it): run it with [args], returning its exit code and stderr. *)
let run_cli args =
  let exe =
    List.fold_left Filename.concat
      (Filename.dirname Sys.executable_name)
      [ Filename.parent_dir_name; "bin"; "boundedreg.exe" ]
  in
  let err = Filename.temp_file "boundedreg-cli" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s > %s 2> %s" (Filename.quote exe) args
         Filename.null (Filename.quote err))
  in
  let msg = In_channel.with_open_text err In_channel.input_all in
  Sys.remove err;
  (code, msg)

let check_error label ~fragments = function
  | Ok _ -> Alcotest.failf "%s: accepted" label
  | Error e ->
      List.iter
        (fun frag ->
          if not (contains e frag) then
            Alcotest.failf "%s: error lacks %S: %s" label frag e)
        fragments

(* A hand-edited corpus line with an operand outside the campaign's
   [0, n) is rejected when the corpus loads — naming the file and the
   line, blank lines counted — rather than escaping the campaign as an
   uncaught Invalid_argument; the CLI turns it into a clean non-zero
   exit with the same message. Parse failures name the line too. *)
let test_fleet_corpus_rejects_bad_lines () =
  let module C = Msgpass.Chaos in
  let module F = Msgpass.Fleet in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "boundedreg-corpus-lines"
  in
  rm_rf dir;
  Sys.mkdir dir 0o755;
  let file = Filename.concat dir "corpus.jsonl" in
  let write lines =
    Out_channel.with_open_text file (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) lines)
  in
  let good = {|{"id":0,"origin":"seed:1","plan":["deliver 0>1","crash 2"]}|} in
  write
    [
      good;
      "";
      {|{"id":1,"origin":"mut:0@g0","plan":["deliver 1>0","deliver 0>9"]}|};
    ];
  (match F.load_corpus dir with
  | Ok entries -> Alcotest.(check int) "operands parse" 2 (List.length entries)
  | Error e -> Alcotest.failf "corpus parse failed: %s" e);
  (match F.campaign ~generations:1 ~corpus_dir:dir ~seed:1 (C.frontier ()) with
  | _ -> Alcotest.fail "campaign accepted an out-of-range operand"
  | exception F.Corpus_error e ->
      check_error "campaign" ~fragments:[ file ^ ":3:"; "0>9"; "action 1" ]
        (Error e));
  let code, msg =
    run_cli (Printf.sprintf "fleet --frontier --generations 1 --corpus %s" dir)
  in
  Alcotest.(check int) "CLI exits 1" 1 code;
  check_error "CLI" ~fragments:[ file ^ ":3:"; "0>9" ] (Error msg);
  write [ good; {|{"id":1,"origin":"x","plan":["deliver 0>1"]|} ];
  check_error "truncated JSON" ~fragments:[ file ^ ":2:" ] (F.load_corpus dir);
  rm_rf dir

(* ----- corpus writer ----- *)

(* The renderer the table-driven one replaced, kept here as its oracle. *)
let old_pp_action ppf = function
  | Msgpass.Faults.Deliver { src; dst } ->
      Format.fprintf ppf "deliver %d>%d" src dst
  | Drop { src; dst } -> Format.fprintf ppf "drop %d>%d" src dst
  | Duplicate { src; dst } -> Format.fprintf ppf "dup %d>%d" src dst
  | Defer { src; dst } -> Format.fprintf ppf "defer %d>%d" src dst
  | Crash pid -> Format.fprintf ppf "crash %d" pid
  | Enter pid -> Format.fprintf ppf "enter %d" pid
  | Leave pid -> Format.fprintf ppf "leave %d" pid

(* Every textual form of an action agrees with the old Format rendering,
   for table operands (1-, 2- and 3-digit) and for the out-of-table
   operands a hand-edited plan may carry. *)
let prop_renderer_matches_format =
  let module Fa = Msgpass.Faults in
  let operand =
    QCheck.Gen.(
      oneof [ int_bound 255; int_range (-1000) (-1); int_range 256 100_000 ])
  in
  QCheck.Test.make ~name:"action renderer matches the Format rendering"
    ~count:500
    (QCheck.make ~print:Fa.action_to_string (action_gen operand))
    (fun a ->
      let old = Format.asprintf "%a" old_pp_action a in
      Fa.action_to_string a = old && Format.asprintf "%a" Fa.pp_action a = old)

(* A corpus line encoded straight from a compiled plan is byte-for-byte
   the line the JSON tree gives: random plans of all seven kinds with
   operands across 0..255, origins full of quotes, backslashes and
   control characters. *)
let prop_corpus_line_matches_json_tree =
  let module Fa = Msgpass.Faults in
  let module J = Obs.Json in
  let origin_gen =
    QCheck.Gen.(
      string_size (int_bound 24)
        ~gen:
          (oneof
             [
               printable;
               oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\000'; '\031'; '\127' ];
               map Char.chr (int_range 128 255);
             ]))
  in
  let gen =
    QCheck.Gen.(
      triple (int_bound 1_000_000) origin_gen
        (list_size (int_bound 60) (action_gen (int_bound 255))))
  in
  QCheck.Test.make ~name:"corpus line encoder matches the JSON tree"
    ~count:300
    (QCheck.make
       ~print:(fun (id, origin, plan) ->
         Format.asprintf "%d %S %a" id origin Fa.pp_plan plan)
       gen)
    (fun (id, origin, plan) ->
      let b = Buffer.create 64 in
      Msgpass.Fleet.add_corpus_line b ~id ~origin (Fa.compile ~n:256 plan);
      let tree =
        J.Obj
          [
            ("id", J.Int id);
            ("origin", J.Str origin);
            ("plan", Fa.plan_to_json plan);
          ]
      in
      Buffer.contents b = J.to_string tree ^ "\n")

(* ----- corpus reader ----- *)

(* The action parser the scanner replaced, kept here as its oracle. *)
let old_action_of_string s =
  let open Msgpass.Faults in
  let s = String.trim s in
  let fail fmt = Printf.ksprintf (fun e -> Error e) fmt in
  match String.index_opt s ' ' with
  | None -> fail "cannot parse action %S: expected \"keyword arg\"" s
  | Some i -> (
      let kw = String.sub s 0 i in
      let rest = String.trim (String.sub s (i + 1) (String.length s - i - 1)) in
      let channel k =
        match String.index_opt rest '>' with
        | None -> fail "bad channel %S after %S: expected src>dst" rest kw
        | Some j -> (
            let src = String.trim (String.sub rest 0 j) in
            let dst =
              String.trim (String.sub rest (j + 1) (String.length rest - j - 1))
            in
            match (int_of_string_opt src, int_of_string_opt dst) with
            | Some src, Some dst -> Ok (k { src; dst })
            | None, _ -> fail "bad channel source %S after %S" src kw
            | _, None -> fail "bad channel destination %S after %S" dst kw)
      in
      let pid k =
        match int_of_string_opt rest with
        | Some p -> Ok (k p)
        | None -> fail "bad pid %S after %S" rest kw
      in
      match kw with
      | "deliver" -> channel (fun ch -> Deliver ch)
      | "drop" -> channel (fun ch -> Drop ch)
      | "dup" -> channel (fun ch -> Duplicate ch)
      | "defer" -> channel (fun ch -> Defer ch)
      | "crash" -> pid (fun p -> Crash p)
      | "enter" -> pid (fun p -> Enter p)
      | "leave" -> pid (fun p -> Leave p)
      | _ -> fail "unknown action keyword %S in %S" kw s)

(* Action text as a hand edit may leave it: any whitespace around the
   keyword, the operands and ">"; operands with signs, radix prefixes,
   underscores, above 255 or overflowing; unknown or misspelt keywords;
   a channel where a pid belongs and the reverse; a missing or doubled
   ">". *)
let action_text_gen =
  let open QCheck.Gen in
  let ws = oneofl [ ""; ""; ""; " "; "  "; "\t"; "\n"; "\r"; "\012"; " \t " ] in
  let gap = oneofl [ " "; " "; " "; "  "; " \t"; "\t"; "\t "; "" ] in
  let keyword =
    oneofl
      [
        "deliver"; "drop"; "dup"; "defer"; "crash"; "enter"; "leave";
        "teleport"; "Deliver"; "del"; "dupe"; "crashx"; "deliver>"; "";
      ]
  in
  let operand =
    frequency
      [
        (6, map string_of_int (int_bound 12));
        (2, map string_of_int (int_range 256 100_000));
        ( 3,
          oneofl
            [
              "0x1"; "0X1f"; "+1"; "-1"; "1_0"; "1__0"; "1_"; "_1"; "0b11";
              "0o7"; "0u3"; "007"; ""; "x"; "1 2"; "1e3";
              "99999999999999999999"; "4611686018427387903";
              "-4611686018427387904"; "123456789012345678";
            ] );
      ]
  in
  let sep = frequency [ (8, return ">"); (1, oneofl [ ""; ">>"; "<"; ";" ]) ] in
  let* pre = ws and* kw = keyword and* gap = gap and* post = ws in
  let* body =
    frequency
      [
        ( 3,
          let* w1 = ws and* src = operand and* w2 = ws and* sep = sep
          and* w3 = ws and* dst = operand in
          return (w1 ^ src ^ w2 ^ sep ^ w3 ^ dst) );
        (2, operand);
      ]
  in
  return (pre ^ kw ^ gap ^ body ^ post)

let prop_scanner_matches_oracle =
  QCheck.Test.make ~name:"action scanner matches the old action_of_string"
    ~count:3000
    (QCheck.make ~print:(Printf.sprintf "%S") action_text_gen)
    (fun text ->
      Msgpass.Faults.action_of_string text = old_action_of_string text)

(* [compiled_of_json ~n] is [compile ~n] after [plan_of_json]: the same
   plan, or the same error text — a syntax error in any element before a
   range error in an earlier one, a non-string element, a non-array. *)
let prop_compiled_of_json_matches_compile =
  let module Fa = Msgpass.Faults in
  let module J = Obs.Json in
  let open QCheck.Gen in
  let small = int_bound 7 in
  let canonical =
    let* a = action_gen small in
    return (Fa.action_to_string a)
  in
  let item =
    frequency
      [
        (12, map (fun t -> J.Str t) canonical);
        (3, map (fun t -> J.Str t) action_text_gen);
        (1, oneofl [ J.Int 3; J.Null; J.List [] ]);
      ]
  in
  let plan =
    frequency
      [
        (12, map (fun l -> J.List l) (list_size (int_bound 8) item));
        (1, oneofl [ J.Obj []; J.Str "deliver 0>1"; J.Null ]);
      ]
  in
  let via_list ~n j =
    match Fa.plan_of_json j with
    | Error e -> Error e
    | Ok p -> (
        match Fa.compile ~n p with
        | c -> Ok c
        | exception Invalid_argument e -> Error e)
  in
  QCheck.Test.make ~name:"compiled_of_json matches compile after plan_of_json"
    ~count:1000
    (QCheck.make
       ~print:(fun (n, j) -> Printf.sprintf "n=%d %s" n (J.to_string j))
       (pair (int_range 1 6) plan))
    (fun (n, j) ->
      match (Fa.compiled_of_json ~n j, via_list ~n j) with
      | Ok a, Ok b -> Fa.compiled_equal a b
      | Error a, Error b -> a = b
      | _ -> false)

let corpus_text dir =
  In_channel.with_open_bin (Filename.concat dir "corpus.jsonl")
    In_channel.input_all

let write_corpus dir text =
  Out_channel.with_open_bin (Filename.concat dir "corpus.jsonl") (fun oc ->
      output_string oc text)

(* Resume over a corpus cut mid-line, as a kill mid-append leaves it:
   the CLI drops the torn last line, says so on stderr with the file,
   line and bytes dropped, and exits 0. A last line that parses but
   lacks its newline is kept, and the next append starts a new line
   rather than gluing onto it. A bad line elsewhere still fails. *)
let test_fleet_resumes_over_torn_tail () =
  let module C = Msgpass.Chaos in
  let module F = Msgpass.Fleet in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "boundedreg-torn-tail"
  in
  rm_rf dir;
  Sys.mkdir dir 0o755;
  let file = Filename.concat dir "corpus.jsonl" in
  let good = {|{"id":0,"origin":"seed:1","plan":["deliver 0>1","crash 2"]}|} in
  let torn = {|{"id":1,"origin":"mut:0@g0","plan":["deliver 1>0","deli|} in
  write_corpus dir (good ^ "\n" ^ torn);
  let code, msg =
    run_cli (Printf.sprintf "fleet --frontier --generations 2 --corpus %s" dir)
  in
  Alcotest.(check int) "CLI exits 0" 0 code;
  check_error "stderr"
    ~fragments:
      [
        Printf.sprintf "%s:2: dropped a torn last line (%d bytes)" file
          (String.length torn);
      ]
    (Error msg);
  let text = corpus_text dir in
  Alcotest.(check bool) "valid prefix kept" true
    (String.starts_with ~prefix:(good ^ "\n{\"id\":1,") text);
  Alcotest.(check bool) "ends on a newline" true
    (text.[String.length text - 1] = '\n');
  Alcotest.(check bool) "no temp file left" false
    (Sys.file_exists (file ^ ".tmp"));
  (match F.load_corpus dir with
  | Ok (e :: _) -> Alcotest.(check int) "first entry kept" 0 e.F.id
  | Ok [] -> Alcotest.fail "corpus emptied"
  | Error e -> Alcotest.failf "repaired corpus does not load: %s" e);
  write_corpus dir good;
  let r = F.campaign ~generations:2 ~seed:1 ~corpus_dir:dir (C.frontier ()) in
  Alcotest.(check bool) "entries appended" true (r.F.corpus_added > 0);
  Alcotest.(check bool) "unterminated line kept, next line starts fresh" true
    (String.starts_with ~prefix:(good ^ "\n{\"id\":1,") (corpus_text dir));
  (match F.load_corpus dir with
  | Ok entries ->
      Alcotest.(check int) "every entry loads" (1 + r.F.corpus_added)
        (List.length entries)
  | Error e -> Alcotest.failf "glued corpus: %s" e);
  write_corpus dir (torn ^ "\n" ^ good);
  (match F.campaign ~generations:1 ~corpus_dir:dir ~seed:1 (C.frontier ()) with
  | _ -> Alcotest.fail "campaign accepted a torn middle line"
  | exception F.Corpus_error e ->
      check_error "middle line" ~fragments:[ file ^ ":1:" ] (Error e));
  rm_rf dir

(* FoundationDB-style crash test: cut a small corpus at every byte
   offset and resume one generation over each cut. Every resume
   succeeds, keeps exactly the entries whose JSON survived the cut (the
   longest prefix of complete entries), and leaves a file that loads
   cleanly. *)
let test_fleet_resumes_at_every_byte_offset () =
  let module C = Msgpass.Chaos in
  let module F = Msgpass.Fleet in
  let config = C.sound ~n:3 () in
  let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name in
  let base = tmp "boundedreg-crash-base" and dir = tmp "boundedreg-crash" in
  rm_rf base;
  ignore (F.campaign ~generations:3 ~batch:2 ~seed:5 ~corpus_dir:base config);
  let full = corpus_text base in
  let original =
    match F.load_corpus base with Ok es -> es | Error e -> Alcotest.fail e
  in
  (* Where each entry's JSON ends, its newline excluded. *)
  let ends =
    List.rev
      (snd
         (String.fold_left
            (fun (i, acc) c -> (i + 1, if c = '\n' then i :: acc else acc))
            (0, []) full))
  in
  Alcotest.(check bool) "several entries to cut between" true
    (List.length original >= 3);
  Alcotest.(check int) "one line per entry" (List.length original)
    (List.length ends);
  for cut = 0 to String.length full do
    rm_rf dir;
    Sys.mkdir dir 0o755;
    write_corpus dir (String.sub full 0 cut);
    let r = F.campaign ~generations:1 ~batch:2 ~seed:7 ~corpus_dir:dir config in
    let kept = List.length (List.filter (fun e -> e <= cut) ends) in
    match F.load_corpus dir with
    | Error e -> Alcotest.failf "cut at %d: resumed corpus: %s" cut e
    | Ok entries ->
        if List.length entries <> kept + r.F.corpus_added then
          Alcotest.failf "cut at %d: %d entries, expected %d kept + %d added"
            cut (List.length entries) kept r.F.corpus_added;
        if List.filteri (fun i _ -> i < kept) entries
           <> List.filteri (fun i _ -> i < kept) original
        then Alcotest.failf "cut at %d: kept prefix differs" cut
  done;
  rm_rf base;
  rm_rf dir

(* A small valid corpus (the same one the byte-offset crash test cuts),
   built once, as the seed for the corpus properties below. *)
let small_corpus =
  lazy
    (let module F = Msgpass.Fleet in
     let dir =
       Filename.concat (Filename.get_temp_dir_name ()) "boundedreg-small-base"
     in
     rm_rf dir;
     ignore
       (F.campaign ~generations:3 ~batch:2 ~seed:5 ~corpus_dir:dir
          (Msgpass.Chaos.sound ~n:3 ()));
     let text = corpus_text dir in
     rm_rf dir;
     text)

type corpus_edit =
  | Flip of int * char
  | Delete of int * int
  | Insert of int * string
  | Truncate of int

let apply_edit text = function
  | _ when text = "" -> text
  | Flip (i, c) ->
      let b = Bytes.of_string text in
      Bytes.set b (i mod String.length text) c;
      Bytes.to_string b
  | Delete (i, len) ->
      let i = i mod String.length text in
      let len = min len (String.length text - i) in
      String.sub text 0 i
      ^ String.sub text (i + len) (String.length text - i - len)
  | Insert (i, s) ->
      let i = i mod (String.length text + 1) in
      String.sub text 0 i ^ s ^ String.sub text i (String.length text - i)
  | Truncate keep -> String.sub text 0 (keep mod (String.length text + 1))

(* Hostile corpora: every file the CLI reads loads or is rejected with
   a clear diagnostic. Flip, delete and insert bytes —
   JSON punctuation and [\u] sequences among them — and truncate a small
   valid corpus: a resume either loads it or raises [Corpus_error]
   naming [corpus.jsonl:LINE:], and raises nothing else. *)
let prop_hostile_corpus_loads_or_names_line =
  let module F = Msgpass.Fleet in
  let open QCheck.Gen in
  let byte =
    frequency
      [
        (3, oneofl [ '"'; '\\'; '['; ']'; '{'; '}'; ','; ':'; '\n'; ' ' ]);
        (2, char_range '0' '9');
        (2, printable);
        (1, map Char.chr (int_bound 255));
      ]
  in
  let chunk =
    oneof
      [
        map (String.make 1) byte;
        oneofl
          [
            "\\u"; "\\u00"; "\\u0020"; "\\ud800"; "\\udc00"; "\\ud83d\\ude00";
            "\\u4e2d"; "\\u0_41"; "\"x\""; "0x1"; "-"; "1e999"; "null";
            "\"deliver 0>9\","; "\"crash 7\","; "\n\n";
          ];
      ]
  in
  let edit =
    frequency
      [
        (3, map2 (fun i c -> Flip (i, c)) nat byte);
        (2, map2 (fun i l -> Delete (i, l)) nat (int_range 1 8));
        (3, map2 (fun i s -> Insert (i, s)) nat chunk);
        (1, map (fun k -> Truncate k) nat);
      ]
  in
  let print edits =
    String.concat "; "
      (List.map
         (function
           | Flip (i, c) -> Printf.sprintf "flip %d %C" i c
           | Delete (i, l) -> Printf.sprintf "delete %d %d" i l
           | Insert (i, s) -> Printf.sprintf "insert %d %S" i s
           | Truncate k -> Printf.sprintf "truncate %d" k)
         edits)
  in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "boundedreg-hostile-corpus"
  in
  let file = Filename.concat dir "corpus.jsonl" in
  let names_a_line e =
    String.starts_with ~prefix:(file ^ ":") e
    &&
    let rest =
      String.sub e (String.length file + 1)
        (String.length e - String.length file - 1)
    in
    match String.index_opt rest ':' with
    | Some j -> (
        match int_of_string_opt (String.sub rest 0 j) with
        | Some line -> line >= 1
        | None -> false)
    | None -> false
  in
  QCheck.Test.make ~name:"a hostile corpus loads or names its bad line"
    ~count:200
    (QCheck.make ~print (list_size (int_range 1 4) edit))
    (fun edits ->
      let text = List.fold_left apply_edit (Lazy.force small_corpus) edits in
      rm_rf dir;
      Sys.mkdir dir 0o755;
      write_corpus dir text;
      let ok =
        match
          F.campaign ~generations:0 ~seed:1 ~corpus_dir:dir
            (Msgpass.Chaos.sound ~n:3 ())
        with
        | _ -> true
        | exception F.Corpus_error e ->
            names_a_line e || QCheck.Test.fail_reportf "diagnostic: %s" e
      in
      rm_rf dir;
      ok)

(* The reader is a JSON reader, not a byte matcher: a corpus rewritten
   with extra whitespace, its keys reordered, an unknown key added and a
   [\u0020] standing for an action's space resumes to the same report
   and appends the same bytes as the canonical corpus it came from. *)
let test_fleet_resumes_reformatted_corpus () =
  let module F = Msgpass.Fleet in
  let module J = Obs.Json in
  let canonical = Lazy.force small_corpus in
  let reformat line =
    match J.of_string line with
    | Error e -> Alcotest.failf "canonical line does not parse: %s" e
    | Ok j ->
        let id = Option.get (J.member_int "id" j)
        and origin = Option.get (J.member_str "origin" j)
        and plan = Option.get (J.member_list "plan" j) in
        let action i a =
          let text = Option.get (J.to_str a) in
          let sp = String.index text ' ' in
          (* The escape stands for the keyword's space, or trails the
             action as whitespace. *)
          if i mod 2 = 0 then
            Printf.sprintf "\"%s\\u0020%s\"" (String.sub text 0 sp)
              (String.sub text (sp + 1) (String.length text - sp - 1))
          else Printf.sprintf "\" %s\\u0020\"" text
        in
        Printf.sprintf
          "  { \"plan\" : [ %s ] ,\t\"note\": {\"x\": [1, null, \"\\u4e2d\"]}, \
           \"origin\" : %s, \"id\" : %d }  "
          (String.concat " , " (List.mapi action plan))
          (J.to_string (J.Str origin)) id
  in
  let reformatted =
    String.split_on_char '\n' canonical
    |> List.map (fun l -> if l = "" then l else reformat l)
    |> String.concat "\n"
  in
  let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name in
  let run dir text =
    rm_rf dir;
    Sys.mkdir dir 0o755;
    write_corpus dir text;
    let loaded = F.load_corpus dir in
    let r =
      F.campaign ~generations:4 ~batch:4 ~seed:21 ~corpus_dir:dir
        (Msgpass.Chaos.sound ~n:3 ())
    in
    let all = corpus_text dir in
    let appended =
      String.sub all (String.length text)
        (String.length all - String.length text)
    in
    let report = Format.asprintf "%a" F.pp_report r in
    rm_rf dir;
    (loaded, report, appended)
  in
  let a = tmp "boundedreg-canonical" and b = tmp "boundedreg-reformatted" in
  let loaded_a, report_a, appended_a = run a canonical in
  let loaded_b, report_b, appended_b = run b reformatted in
  Alcotest.(check bool) "reformatted corpus differs on disk" true
    (canonical <> reformatted);
  Alcotest.(check bool) "same entries loaded" true
    (Result.is_ok loaded_a && loaded_a = loaded_b);
  Alcotest.(check string) "same report" report_a report_b;
  Alcotest.(check bool) "entries appended" true (appended_a <> "");
  Alcotest.(check string) "same appended bytes" appended_a appended_b

(* Witness files are as hand-editable as the corpus: a config the
   campaign would refuse (too many slots for the network, more writes
   than the packed message fields hold) or a plan that does not compile
   against its config is an [Error] from replay_file, and a clean exit 1
   from [fleet --replay]. *)
let test_fleet_replay_rejects_hostile_witnesses () =
  let module F = Msgpass.Fleet in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "boundedreg-hostile"
  in
  rm_rf dir;
  Sys.mkdir dir 0o755;
  List.iteri
    (fun i (label, n, writes, plan, fragment) ->
      let file = Filename.concat dir (Printf.sprintf "witness-%d.json" i) in
      Out_channel.with_open_text file (fun oc ->
          Printf.fprintf oc
            {|{"config":{"n":%d,"t":0,"quorum":2,"writes":%d,"readers":2,"reads":4,"max_events":4000},"plan":[%s],"terminal_hash":0,"events":0,"deliveries":0,"reason":""}|}
            n writes plan);
      check_error label ~fragments:[ file; fragment ] (F.replay_file file);
      let code, msg = run_cli ("fleet --replay " ^ Filename.quote file) in
      Alcotest.(check int) (label ^ ": CLI exits 1") 1 code;
      check_error (label ^ " (CLI)") ~fragments:[ fragment ] (Error msg))
    [
      ("n = 80", 80, 2, {|"deliver 0>1"|}, "61 slots");
      ("channel 0>9", 4, 2, {|"deliver 0>1","deliver 0>9"|}, "0>9");
      ("writes = 70000", 4, 70_000, {|"deliver 0>1"|}, "packed message layout");
    ];
  rm_rf dir

(* ABD + Interp over the complete network: baseline eps-agreement survives
   minority crashes. *)
let test_abd_message_passing () =
  let n = 3 and t = 1 and rounds = 3 in
  let eps = Q.make 1 (Core.Baseline_unbounded.denominator ~rounds) in
  for seed = 0 to 39 do
    let rng = Bits.Rng.make seed in
    let inputs = Array.init n (fun _ -> Bits.Rng.int rng 2) in
    let interps =
      Array.init n (fun me ->
          Msgpass.Interp.create ~n ~t ~me ~init:[]
            ~program:
              (Core.Baseline_unbounded.protocol ~n ~rounds ~me
                 ~input:inputs.(me)))
    in
    let net =
      Msgpass.Net.create ~n
        ~nodes:(fun pid -> Msgpass.Interp.node interps.(pid))
        ()
    in
    let crash_pid = if Bits.Rng.bool rng then Some (Bits.Rng.int rng n) else None in
    let crash_at = Bits.Rng.int rng 300 in
    let events = ref 0 in
    Msgpass.Net.run_random ~rng ~max_events:100_000
      ~until:(fun () ->
        incr events;
        (match crash_pid with
        | Some p when !events = crash_at && Msgpass.Net.crashed net = [] ->
            Msgpass.Net.crash net p
        | _ -> ());
        false)
      net;
    let crashed = Msgpass.Net.crashed net in
    let decided =
      Array.to_list interps
      |> List.mapi (fun pid (i, _) -> (pid, Msgpass.Interp.decision i))
      |> List.filter (fun (pid, _) -> not (List.mem pid crashed))
    in
    List.iter
      (fun (pid, d) ->
        if d = None then
          Alcotest.failf "seed %d: live process %d undecided" seed pid)
      decided;
    let values = List.filter_map snd decided in
    Alcotest.(check bool) "agreement" true Q.(Q.spread values <= eps)
  done

(* ABD atomicity: a single writer bumps a counter through ABD writes while
   two readers read concurrently. Atomic SWMR registers forbid per-reader
   regression and new/old inversions across readers (a read that starts
   after another read completes cannot return an older value). *)
let test_abd_atomicity () =
  let n = 5 and t = 2 in
  let open Sched.Program.Infix in
  let writer_program =
    let rec bump i =
      if i > 10 then Sched.Program.return []
      else
        let* () = Sched.Program.write i in
        bump (i + 1)
    in
    bump 1
  in
  let reader_program =
    let rec scan k acc =
      if k = 0 then Sched.Program.return (List.rev acc)
      else
        let* v = Sched.Program.read 0 in
        scan (k - 1) (v :: acc)
    in
    scan 12 []
  in
  for seed = 0 to 29 do
    let interps =
      Array.init n (fun me ->
          Msgpass.Interp.create ~n ~t ~me ~init:0
            ~program:
              (if me = 0 then writer_program
               else if me <= 2 then reader_program
               else Sched.Program.return []))
    in
    let net =
      Msgpass.Net.create ~n
        ~nodes:(fun pid -> Msgpass.Interp.node interps.(pid))
        ()
    in
    Msgpass.Net.run_random ~rng:(Bits.Rng.make (400 + seed)) net;
    (* Per-reader monotonicity: the sequence of values each reader returns
       never decreases (reads are sequential per process, so regression
       would be a new/old inversion against its own earlier read). *)
    for r = 1 to 2 do
      match Msgpass.Interp.decision (fst interps.(r)) with
      | Some values ->
          let rec monotone = function
            | a :: b :: rest -> a <= b && monotone (b :: rest)
            | _ -> true
          in
          if not (monotone values) then
            Alcotest.failf "seed %d: reader %d regressed: %s" seed r
              (String.concat "," (List.map string_of_int values))
      | None -> Alcotest.failf "seed %d: reader %d blocked" seed r
    done
  done

(* Routing over the ring in the Net model: flooding delivers despite t
   crashed forwarders. *)
let test_router_flooding () =
  let n = 7 and t = 2 in
  let topology = T.augmented_ring ~n ~t in
  let routers = Array.init n (fun me -> Msgpass.Router.create ~topology ~me) in
  let delivered = ref [] in
  let nodes pid =
    {
      Msgpass.Net.on_start =
        (fun () ->
          if pid = 0 then
            (* 0 sends to its antipode through the ring. *)
            let local, outs = Msgpass.Router.send routers.(0) ~dest:4 "ping" in
            assert (local = []);
            outs
          else []);
      on_message =
        (fun ~from:_ envelope ->
          let deliveries, forwards =
            Msgpass.Router.receive routers.(pid) envelope
          in
          List.iter
            (fun (e : _ Msgpass.Router.envelope) ->
              delivered := (pid, e.body) :: !delivered)
            deliveries;
          forwards);
      on_leave = (fun () -> []);
    }
  in
  let net = Msgpass.Net.create ~n ~nodes () in
  (* Crash two consecutive intermediate nodes. *)
  Msgpass.Net.crash net 1;
  Msgpass.Net.crash net 2;
  Msgpass.Net.run_random ~rng:(Bits.Rng.make 7) net;
  Alcotest.(check (list (pair int string)))
    "delivered exactly once despite crashes"
    [ (4, "ping") ]
    !delivered

(* Theorem 1.3 end-to-end: the compiled protocol solves eps-agreement with
   3(t+1)-bit registers under t-resilient crash injection. *)
let pipeline_algorithm ~n ~t ~rounds ~chunk =
  let value = Wire.list_codec (Wire.pair_codec Wire.int_codec Wire.rational_codec) in
  Msgpass.Pipeline.algorithm ~n ~t ~chunk ~value ~input:Wire.int_codec
    ~init:[]
    ~source:(fun ~pid ~input ->
      Core.Baseline_unbounded.protocol ~n ~rounds ~me:pid ~input)
    ~name:(Printf.sprintf "pipeline(n=%d,t=%d,chunk=%d)" n t chunk)
    ()

let test_pipeline_register_bits () =
  List.iter
    (fun t ->
      Alcotest.(check int)
        (Printf.sprintf "3(t+1) bits for t=%d" t)
        (3 * (t + 1))
        (Msgpass.Pipeline.register_bits ~t ~chunk:1))
    [ 1; 2; 3; 5 ]

let test_pipeline_end_to_end () =
  let n = 3 and t = 1 and rounds = 2 in
  let task =
    Tasks.Eps_agreement.task ~n ~k:(Core.Baseline_unbounded.denominator ~rounds)
  in
  let algorithm = pipeline_algorithm ~n ~t ~rounds ~chunk:1 in
  match
    H.check_random ~task ~algorithm ~resilience:t ~max_steps:30_000_000
      ~runs:3 ~seed:11 ()
  with
  | H.Fail v ->
      Alcotest.failf "pipeline: %a" (H.pp_violation Format.pp_print_int) v
  | H.Pass stats ->
      Alcotest.(check int) "6-bit registers" 6 stats.H.max_bits

let test_pipeline_chunk_ablation () =
  let n = 3 and t = 1 and rounds = 2 in
  let task =
    Tasks.Eps_agreement.task ~n ~k:(Core.Baseline_unbounded.denominator ~rounds)
  in
  let steps_for chunk =
    let algorithm = pipeline_algorithm ~n ~t ~rounds ~chunk in
    match
      H.check_random ~task ~algorithm ~resilience:0 ~max_steps:30_000_000
        ~runs:1 ~seed:5 ()
    with
    | H.Fail v ->
        Alcotest.failf "pipeline chunk=%d: %a" chunk
          (H.pp_violation Format.pp_print_int)
          v
    | H.Pass stats -> (stats.H.max_bits, stats.H.max_process_steps)
  in
  let bits1, steps1 = steps_for 1 in
  let bits8, steps8 = steps_for 8 in
  Alcotest.(check int) "chunk=1 register width" 6 bits1;
  Alcotest.(check bool) "chunk=8 wider registers" true (bits8 > bits1);
  Alcotest.(check bool) "chunk=8 fewer steps" true (steps8 < steps1)

let () =
  Alcotest.run "msgpass"
    [
      ( "substrate",
        [
          Alcotest.test_case "augmented ring connectivity" `Quick
            test_topology_connectivity;
          Alcotest.test_case "connectivity is tight" `Quick
            test_topology_not_overconnected;
          Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "codec framing" `Quick test_codec_framing;
          QCheck_alcotest.to_alcotest prop_codec_roundtrip;
          QCheck_alcotest.to_alcotest prop_framing_stream;
          Alcotest.test_case "wire roundtrip" `Quick test_wire_roundtrip;
          QCheck_alcotest.to_alcotest prop_wire_roundtrip;
          QCheck_alcotest.to_alcotest prop_pack_roundtrip_boundary;
          Alcotest.test_case "pack fits_static boundaries" `Quick
            test_pack_fits_static_boundaries;
          Alcotest.test_case "envelope codec" `Quick test_wire_envelope_codec;
          Alcotest.test_case "alternating-bit channel" `Quick
            test_alt_bit_channel;
          QCheck_alcotest.to_alcotest prop_alt_bit_fifo;
        ] );
      ( "faults",
        [
          Alcotest.test_case "scripted delivery is FIFO" `Quick
            test_net_scripted_delivery;
          Alcotest.test_case "delivery respects crashes" `Quick
            test_net_deliver_respects_crash;
          Alcotest.test_case "pooled delivery allocates nothing" `Quick
            test_net_deliver_allocation_free;
          QCheck_alcotest.to_alcotest prop_net_random_fifo;
          Alcotest.test_case "defer breaks FIFO (Faults only)" `Quick
            test_faults_defer_breaks_fifo;
          Alcotest.test_case "drop and duplicate" `Quick
            test_faults_drop_and_duplicate;
          Alcotest.test_case "chaos campaigns are seed-deterministic" `Quick
            test_chaos_deterministic;
          Alcotest.test_case "rng_point replays a mid-campaign run" `Quick
            test_chaos_rng_point_replay;
          QCheck_alcotest.to_alcotest prop_plan_codec_roundtrip;
          QCheck_alcotest.to_alcotest prop_net_matches_netref;
          Alcotest.test_case "plan parser rejects garbage" `Quick
            test_plan_codec_rejects_garbage;
          Alcotest.test_case "plan parse errors are positional" `Quick
            test_plan_parse_errors_are_positional;
          Alcotest.test_case "fleet mutator is seed-deterministic" `Quick
            test_fleet_mutator_deterministic;
          QCheck_alcotest.to_alcotest prop_fleet_mutants_replay;
          Alcotest.test_case "fleet reports are jobs-invariant" `Quick
            test_fleet_jobs_invariant;
          Alcotest.test_case "fleet dedups, replays and resumes witnesses"
            `Quick test_fleet_witness_dedup_and_replay;
          Alcotest.test_case "corpus errors name the file and line" `Quick
            test_fleet_corpus_rejects_bad_lines;
          Alcotest.test_case "fleet --replay rejects hostile witnesses" `Quick
            test_fleet_replay_rejects_hostile_witnesses;
          QCheck_alcotest.to_alcotest prop_renderer_matches_format;
          QCheck_alcotest.to_alcotest prop_corpus_line_matches_json_tree;
          Alcotest.test_case "fleet resumes over a torn corpus tail" `Quick
            test_fleet_resumes_over_torn_tail;
          Alcotest.test_case "fleet resumes at every byte offset" `Quick
            test_fleet_resumes_at_every_byte_offset;
          QCheck_alcotest.to_alcotest prop_scanner_matches_oracle;
          QCheck_alcotest.to_alcotest prop_compiled_of_json_matches_compile;
          QCheck_alcotest.to_alcotest prop_hostile_corpus_loads_or_names_line;
          Alcotest.test_case "fleet resumes a reformatted corpus" `Quick
            test_fleet_resumes_reformatted_corpus;
          QCheck_alcotest.to_alcotest Oracles.Boxed.prop_packed_matches_boxed;
          Alcotest.test_case "parallel campaigns match sequential" `Quick
            test_chaos_jobs_invariant;
        ] );
      ( "membership",
        [
          Alcotest.test_case "view algebra and quorum rule" `Quick
            test_membership_views;
          QCheck_alcotest.to_alcotest prop_churn_schedule_rate_bounded;
          Alcotest.test_case "dynreg join, read, write, departure" `Quick
            test_dynreg_join_read_write;
          Alcotest.test_case "config validation" `Quick test_chaos_validate;
          Alcotest.test_case "churn mutation grammar is opt-in and \
                              deterministic" `Quick test_fleet_churn_mutants;
        ] );
      ( "message-passing",
        [
          Alcotest.test_case "ABD eps-agreement with crashes" `Quick
            test_abd_message_passing;
          Alcotest.test_case "ABD atomicity (reader monotonicity)" `Quick
            test_abd_atomicity;
          Alcotest.test_case "ring flooding survives crashes" `Quick
            test_router_flooding;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "register bits = 3(t+1)" `Quick
            test_pipeline_register_bits;
          Alcotest.test_case "theorem 1.3 end-to-end" `Slow
            test_pipeline_end_to_end;
          Alcotest.test_case "chunk ablation" `Slow
            test_pipeline_chunk_ablation;
        ] );
    ]

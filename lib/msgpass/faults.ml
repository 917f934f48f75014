type channel = { src : int; dst : int }

type action =
  | Deliver of channel
  | Drop of channel
  | Duplicate of channel
  | Defer of channel
  | Crash of int
  | Enter of int
  | Leave of int

type plan = action list

(* {2 Opcode coding}

   Internally an action is one immediate int — [kind:3 | a:8 | b:8] —
   so the run record is a growable [int array] rather than a consed
   list, a compiled plan is a dense walkable array, and the random
   driver never constructs a variant on its hot path. Eight bits per
   operand is comfortably above [Net]'s 61-slot cap. *)

let k_deliver = 0
let k_drop = 1
let k_duplicate = 2
let k_defer = 3
let k_crash = 4
let k_enter = 5
let k_leave = 6
let encode k a b = k lor (a lsl 3) lor (b lsl 11)
let code_kind c = c land 7
let code_a c = (c lsr 3) land 0xff
let code_b c = (c lsr 11) land 0xff

let code_of_action = function
  | Deliver { src; dst } -> encode k_deliver src dst
  | Drop { src; dst } -> encode k_drop src dst
  | Duplicate { src; dst } -> encode k_duplicate src dst
  | Defer { src; dst } -> encode k_defer src dst
  | Crash pid -> encode k_crash pid 0
  | Enter pid -> encode k_enter pid 0
  | Leave pid -> encode k_leave pid 0

let action_of_fields k a b =
  if k = k_deliver then Deliver { src = a; dst = b }
  else if k = k_drop then Drop { src = a; dst = b }
  else if k = k_duplicate then Duplicate { src = a; dst = b }
  else if k = k_defer then Defer { src = a; dst = b }
  else if k = k_crash then Crash a
  else if k = k_enter then Enter a
  else Leave a

let action_of_code c = action_of_fields (code_kind c) (code_a c) (code_b c)

(* {2 Rendering}

   One renderer serves every textual form of an action — [pp_action],
   [action_to_string], plan JSON and corpus lines — so they cannot
   drift apart. The corpus files of the chaos fleet must be
   human-editable, so this text is the grammar quoted in EXPERIMENTS.md,
   and a plan is either the ";"-separated rendering of [pp_plan] or a
   JSON array of action strings (one corpus line). Keywords and the
   operands a compiled plan can hold come from tables, so rendering a
   compiled plan formats no integer. *)

let keyword =
  [| "deliver "; "drop "; "dup "; "defer "; "crash "; "enter "; "leave " |]

let operand_text = Array.init 256 string_of_int

let add_operand b v =
  Buffer.add_string b
    (if v >= 0 && v < 256 then operand_text.(v) else string_of_int v)

let add_op b k x y =
  Buffer.add_string b keyword.(k);
  add_operand b x;
  if k <= k_defer then begin
    Buffer.add_char b '>';
    add_operand b y
  end

let add_code b c = add_op b (code_kind c) (code_a c) (code_b c)

let add_action b = function
  | Deliver { src; dst } -> add_op b k_deliver src dst
  | Drop { src; dst } -> add_op b k_drop src dst
  | Duplicate { src; dst } -> add_op b k_duplicate src dst
  | Defer { src; dst } -> add_op b k_defer src dst
  | Crash pid -> add_op b k_crash pid 0
  | Enter pid -> add_op b k_enter pid 0
  | Leave pid -> add_op b k_leave pid 0

let action_to_string a =
  let b = Buffer.create 16 in
  add_action b a;
  Buffer.contents b

let pp_action ppf a = Format.pp_print_string ppf (action_to_string a)

let pp_plan ppf plan =
  Format.fprintf ppf "@[<hov>%a@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       pp_action)
    plan

let deliveries plan =
  List.fold_left
    (fun k -> function Deliver _ -> k + 1 | _ -> k)
    0 plan

(* {2 Plan codecs}

   One scanner reads action text for every parser below. It works on
   positions in the caller's string and fills a reused [scan] record,
   so a well-formed action costs no allocation: no trimmed copy, no
   substring, no variant. A diagnostic is built only on failure, from
   the positions the scanner left behind. The grammar, which the test
   suite holds to a reference parser built from [String.trim] and
   [int_of_string_opt]: [String.trim]'s whitespace may surround the
   text; the keyword runs to the first space; the rest is trimmed and,
   for a channel, split at its first ">"; each operand is trimmed and
   read as [int_of_string_opt] reads it. *)

type scan = {
  mutable a : int;
  mutable b : int;
  (* Failure positions: the trimmed text is [lo, hi), the keyword ends
     at the first space [sp], and the offending token is [tlo, thi). *)
  mutable lo : int;
  mutable hi : int;
  mutable sp : int;
  mutable tlo : int;
  mutable thi : int;
}

let scanner () = { a = 0; b = 0; lo = 0; hi = 0; sp = 0; tlo = 0; thi = 0 }

(* [scan] results other than a kind (0..6). *)
let e_syntax = -1
let e_keyword = -2
let e_channel = -3
let e_src = -4
let e_dst = -5
let e_pid = -6

(* [String.trim]'s whitespace. *)
let[@inline] is_space = function
  | ' ' | '\012' | '\n' | '\r' | '\t' -> true
  | _ -> false

exception Bad_operand

(* The first [c] in [s.[i .. hi - 1]], or [-1]. *)
let rec index_in s c i hi =
  if i >= hi then -1 else if s.[i] = c then i else index_in s c (i + 1) hi

(* [s.[i .. hi - 1]] read as decimal digits onto [v], or [-1]. *)
let rec decimal s i hi v =
  if i = hi then v
  else
    match s.[i] with
    | '0' .. '9' as c -> decimal s (i + 1) hi ((10 * v) + Char.code c - 48)
    | _ -> -1

(* [int_of_string_opt] of [s.[lo .. hi - 1]]: plain decimal of up to 18
   digits (which cannot overflow) is read in place; anything else —
   signs, [0x], underscores, long or empty text — goes to
   [int_of_string_opt] itself. *)
let operand s lo hi =
  let len = hi - lo in
  let v = if len >= 1 && len <= 18 then decimal s lo hi 0 else -1 in
  if v >= 0 then v
  else
    match int_of_string_opt (String.sub s lo len) with
    | Some v -> v
    | None -> raise Bad_operand

(* [kw.[i .. len - 1]] is [s.[lo + i .. lo + len - 1]]; the caller
   checks [len = String.length kw <= String.length s - lo]. *)
let rec same_text s lo kw i len =
  i = len
  || String.unsafe_get s (lo + i) = String.unsafe_get kw i
     && same_text s lo kw (i + 1) len

(* The kind, from [k] on, whose [keyword] (trailing space included)
   starts [s.[lo .. hi - 1]], or [-1]. No keyword holds a space before
   its last character, so this is the kind whose keyword is the text up
   to the first space. *)
let rec keyword_at s lo hi k =
  if k = Array.length keyword then -1
  else
    let kw = keyword.(k) in
    let len = String.length kw in
    if len <= hi - lo && same_text s lo kw 0 len then k
    else keyword_at s lo hi (k + 1)

let scan sc s =
  let n = String.length s in
  let lo = ref 0 and hi = ref n in
  while !lo < n && is_space s.[!lo] do incr lo done;
  while !hi > !lo && is_space s.[!hi - 1] do decr hi done;
  let lo = !lo and hi = !hi in
  sc.lo <- lo;
  sc.hi <- hi;
  let k = keyword_at s lo hi 0 in
  let sp =
    if k >= 0 then lo + String.length keyword.(k) - 1
    else index_in s ' ' lo hi
  in
  if sp < 0 then e_syntax
  else if k < 0 then begin
    sc.sp <- sp;
    e_keyword
  end
  else begin
    sc.sp <- sp;
    (* [s.[hi - 1]] is not a space, so the rest [rlo, hi) is non-empty
       and already trimmed on the right. *)
    let rlo = ref (sp + 1) in
    while is_space s.[!rlo] do incr rlo done;
    let rlo = !rlo in
    sc.tlo <- rlo;
    sc.thi <- hi;
    if k <= k_defer then begin
      let gt = index_in s '>' rlo hi in
      if gt < 0 then e_channel
      else begin
        let shi = ref gt and dlo = ref (gt + 1) in
        while !shi > rlo && is_space s.[!shi - 1] do decr shi done;
        while !dlo < hi && is_space s.[!dlo] do incr dlo done;
        sc.thi <- !shi;
        match operand s rlo !shi with
        | exception Bad_operand -> e_src
        | a -> (
            sc.tlo <- !dlo;
            sc.thi <- hi;
            match operand s !dlo hi with
            | exception Bad_operand -> e_dst
            | b ->
                sc.a <- a;
                sc.b <- b;
                k)
      end
    end
    else
      match operand s rlo hi with
      | exception Bad_operand -> e_pid
      | a ->
          sc.a <- a;
          sc.b <- 0;
          k
  end

(* The diagnostic for a failed [scan] of [s]. *)
let scan_error sc s e =
  let sub lo hi = String.sub s lo (hi - lo) in
  if e = e_syntax then
    Printf.sprintf "cannot parse action %S: expected \"keyword arg\""
      (sub sc.lo sc.hi)
  else
    let kw = sub sc.lo sc.sp in
    if e = e_keyword then
      Printf.sprintf "unknown action keyword %S in %S" kw (sub sc.lo sc.hi)
    else
      let tok = sub sc.tlo sc.thi in
      if e = e_channel then
        Printf.sprintf "bad channel %S after %S: expected src>dst" tok kw
      else if e = e_src then
        Printf.sprintf "bad channel source %S after %S" tok kw
      else if e = e_dst then
        Printf.sprintf "bad channel destination %S after %S" tok kw
      else Printf.sprintf "bad pid %S after %S" tok kw

let scan_action sc s =
  let k = scan sc s in
  if k < 0 then Error (scan_error sc s k)
  else Ok (action_of_fields k sc.a sc.b)

let action_of_string s = scan_action (scanner ()) s

let plan_of_string text =
  (* Walk the ";"-splits keeping the absolute character offset, so a
     parse failure names the offending action's index (among non-empty
     segments) and where in the input it starts — corpus lines are
     hand-edited, and "action 37" beats re-counting semicolons. *)
  let rec go idx offset acc = function
    | [] -> Ok (List.rev acc)
    | seg :: rest -> (
        let next = offset + String.length seg + 1 in
        if String.trim seg = "" then go idx next acc rest
        else
          match action_of_string seg with
          | Ok a -> go (idx + 1) next (a :: acc) rest
          | Error e ->
              Error (Printf.sprintf "action %d (at char %d): %s" idx offset e))
  in
  go 0 0 [] (String.split_on_char ';' text)

let plan_to_json plan =
  Obs.Json.List (List.map (fun a -> Obs.Json.Str (action_to_string a)) plan)

let plan_of_json j =
  match Obs.Json.to_list j with
  | None -> Error "plan is not a JSON array"
  | Some items ->
      let sc = scanner () in
      let rec go i acc = function
        | [] -> Ok (List.rev acc)
        | Obs.Json.Str s :: rest -> (
            match scan_action sc s with
            | Ok a -> go (i + 1) (a :: acc) rest
            | Error e -> Error (Printf.sprintf "plan element %d: %s" i e))
        | _ :: _ -> Error (Printf.sprintf "plan element %d is not a string" i)
      in
      go 0 [] items

type compiled = int array

(* Action text is keywords, digits, one space and ">": nothing JSON
   escapes, so quoting it directly yields exactly the bytes
   [Obs.Json.to_buffer b (plan_to_json (decompile c))] would. *)
let add_compiled_json b (c : compiled) =
  Buffer.add_char b '[';
  for i = 0 to Array.length c - 1 do
    if i > 0 then Buffer.add_char b ',';
    Buffer.add_char b '"';
    add_code b c.(i);
    Buffer.add_char b '"'
  done;
  Buffer.add_char b ']'

(* Operands are checked against [n] before they are packed, so an
   out-of-range operand can never alias an in-range one. *)
let in_range ~n k a b = a >= 0 && a < n && (k > k_defer || (b >= 0 && b < n))

let range_error ~n i k a b =
  if k <= k_defer then
    Printf.sprintf
      "Faults.compile: action %d: channel %d>%d out of range (n = %d)" i a b n
  else
    Printf.sprintf "Faults.compile: action %d: pid %d out of range (n = %d)" i
      a n

let compile ~n plan =
  let check i = function
    | Deliver { src; dst } | Drop { src; dst } | Duplicate { src; dst }
    | Defer { src; dst } ->
        if src < 0 || src >= n || dst < 0 || dst >= n then
          invalid_arg (range_error ~n i k_deliver src dst)
    | Crash pid | Enter pid | Leave pid ->
        if pid < 0 || pid >= n then invalid_arg (range_error ~n i k_crash pid 0)
  in
  let c = Array.make (List.length plan) 0 in
  List.iteri
    (fun i a ->
      check i a;
      c.(i) <- code_of_action a)
    plan;
  c

(* [compile ~n] after [plan_of_json], with no action list: each element
   is scanned straight into its opcode. A syntax error anywhere beats a
   range error, as it does when the two run in sequence, so the first
   range error is held until the whole array has scanned. *)
let compiled_of_json ~n j =
  match Obs.Json.to_list j with
  | None -> Error "plan is not a JSON array"
  | Some items ->
      let c = Array.make (List.length items) 0 in
      let sc = scanner () in
      let rec go i range = function
        | [] -> ( match range with None -> Ok c | Some e -> Error e)
        | Obs.Json.Str s :: rest ->
            let k = scan sc s in
            if k < 0 then
              Error (Printf.sprintf "plan element %d: %s" i (scan_error sc s k))
            else (
              match range with
              | Some _ -> go (i + 1) range rest
              | None when in_range ~n k sc.a sc.b ->
                  c.(i) <- encode k sc.a sc.b;
                  go (i + 1) None rest
              | None -> go (i + 1) (Some (range_error ~n i k sc.a sc.b)) rest)
        | _ :: _ -> Error (Printf.sprintf "plan element %d is not a string" i)
      in
      go 0 None items

let decompile compiled = Array.to_list (Array.map action_of_code compiled)
let compiled_length = Array.length
let compiled_get compiled i = action_of_code compiled.(i)
let compiled_sub = Array.sub
let compiled_concat = Array.concat

let compiled_deliveries compiled =
  let k = ref 0 in
  Array.iter (fun c -> if code_kind c = k_deliver then incr k) compiled;
  !k

let compiled_hash (c : compiled) =
  Array.fold_left
    (fun h code -> Sched.Zobrist.combine h (code + 1))
    (Array.length c) c

let compiled_equal (a : compiled) (b : compiled) =
  a == b
  || Array.length a = Array.length b
     && begin
          let n = Array.length a in
          let i = ref 0 in
          while !i < n && a.(!i) = b.(!i) do incr i done;
          !i = n
        end

type profile = {
  drop : float;
  duplicate : float;
  defer : float;
  delay : float;
  delay_span : int;
  max_channel_drops : int;
  crash_at : (int * int) list;
  enter_at : (int * int) list;
  leave_at : (int * int) list;
}

let reliable =
  {
    drop = 0.;
    duplicate = 0.;
    defer = 0.;
    delay = 0.;
    delay_span = 0;
    max_channel_drops = max_int;
    crash_at = [];
    enter_at = [];
    leave_at = [];
  }

(* The wrapper's own state is flat: the recording is a growable int
   array of opcodes (decoded to an action list only when {!plan} is
   asked for), and the per-channel freeze/drop-budget matrices are
   single [n * n] arrays. [chans]/[chans2] are the scratch buffers the
   random driver fills via {!Net.deliverable_into} — the only heap the
   driver touches after [wrap], which makes a pooled wrapper's steady
   state allocation-free. *)
type 'm t = {
  net : 'm Net.t;
  size : int;
  mutable rec_buf : int array;  (** opcodes, oldest first; [events] used *)
  mutable events : int;
  frozen : int array;  (** flat [n*n]: channel thaws at this event index *)
  mutable max_thaw : int;
      (** latest thaw index issued: when [events >= max_thaw] no channel
          is frozen and the per-step unfrozen filter is skipped *)
  drops : int array;  (** flat [n*n]: drops spent per channel *)
  chans : int array;  (** scratch: deliverable channel codes *)
  chans2 : int array;  (** scratch: unfrozen subset *)
}

let wrap net =
  let n = Net.n net in
  {
    net;
    size = n;
    rec_buf = Array.make 256 0;
    events = 0;
    frozen = Array.make (n * n) 0;
    max_thaw = 0;
    drops = Array.make (n * n) 0;
    chans = Array.make (n * n) 0;
    chans2 = Array.make (n * n) 0;
  }

let reset t =
  t.events <- 0;
  t.max_thaw <- 0;
  Array.fill t.frozen 0 (t.size * t.size) 0;
  Array.fill t.drops 0 (t.size * t.size) 0

let net t = t.net
let events t = t.events

let plan t =
  List.init t.events (fun i -> action_of_code t.rec_buf.(i))

let compiled_plan t = Array.sub t.rec_buf 0 t.events

let record t code =
  if t.events = Array.length t.rec_buf then begin
    let nb = Array.make (2 * Array.length t.rec_buf) 0 in
    Array.blit t.rec_buf 0 nb 0 t.events;
    t.rec_buf <- nb
  end;
  t.rec_buf.(t.events) <- code;
  t.events <- t.events + 1

let apply_code t k a b =
  let effective =
    if k = k_deliver then Net.deliver t.net ~src:a ~dst:b
    else if k = k_drop then
      if Net.drop t.net ~src:a ~dst:b then begin
        let ch = (a * t.size) + b in
        t.drops.(ch) <- t.drops.(ch) + 1;
        true
      end
      else false
    else if k = k_duplicate then Net.duplicate t.net ~src:a ~dst:b
    else if k = k_defer then Net.defer t.net ~src:a ~dst:b
    else if k = k_crash then
      if Net.alive t.net a then begin
        Net.crash t.net a;
        true
      end
      else false
    else if k = k_enter then Net.enter t.net a
    else Net.leave t.net a
  in
  if effective then record t (encode k a b);
  effective

let apply t action =
  match action with
  | Deliver { src; dst } -> apply_code t k_deliver src dst
  | Drop { src; dst } -> apply_code t k_drop src dst
  | Duplicate { src; dst } -> apply_code t k_duplicate src dst
  | Defer { src; dst } -> apply_code t k_defer src dst
  | Crash pid -> apply_code t k_crash pid 0
  | Enter pid -> apply_code t k_enter pid 0
  | Leave pid -> apply_code t k_leave pid 0

(* Schedule firing, as top-level recursions rather than closures: the
   random driver re-checks every entry each step, and a per-step closure
   allocation is exactly the kind of litter the flat rewrite removes. *)
let rec fire_enters t = function
  | [] -> ()
  | (pid, at) :: rest ->
      if t.events >= at && not (Net.is_present t.net pid) then
        ignore (apply_code t k_enter pid 0);
      fire_enters t rest

let rec fire_leaves t = function
  | [] -> ()
  | (pid, at) :: rest ->
      if t.events >= at && Net.is_present t.net pid then
        ignore (apply_code t k_leave pid 0);
      fire_leaves t rest

let rec fire_crashes t = function
  | [] -> ()
  | (pid, at) :: rest ->
      if t.events >= at && Net.alive t.net pid then
        ignore (apply_code t k_crash pid 0);
      fire_crashes t rest

let step_random rng profile t =
  (* Due schedule entries fire before the event roll: enters first (a
     joiner must exist before the same step can crash or depart it),
     then leaves, then crashes. [apply_code] refuses and records nothing
     when an entry already fired, so re-checking every step is
     idempotent. *)
  fire_enters t profile.enter_at;
  fire_leaves t profile.leave_at;
  fire_crashes t profile.crash_at;
  let all = Net.deliverable_into t.net t.chans in
  if all = 0 then false
  else begin
    let cand, cnt =
      if t.events >= t.max_thaw then (t.chans, all)
      else begin
        let unfrozen = ref 0 in
        for i = 0 to all - 1 do
          if t.frozen.(t.chans.(i)) <= t.events then begin
            t.chans2.(!unfrozen) <- t.chans.(i);
            incr unfrozen
          end
        done;
        (* All channels frozen: thaw by decree rather than livelock. *)
        if !unfrozen = 0 then (t.chans, all) else (t.chans2, !unfrozen)
      end
    in
    let ci = Bits.Rng.int rng cnt in
    let ch = cand.(ci) in
    let src = ch / t.size and dst = ch mod t.size in
    (* The dice are compared in fixed-point: [Rng.float t < p] is exactly
       [float_of_int (Rng.bits53 t) < p *. 2^53] (see {!Bits.Rng.bits53}),
       and the unboxed comparison keeps the hot loop allocation-free
       while drawing the identical stream the recorded seeds expect. *)
    let scale = 9007199254740992. (* 2^53 *) in
    let u = float_of_int (Bits.Rng.bits53 rng) in
    let p_drop =
      if t.drops.(ch) < profile.max_channel_drops then profile.drop else 0.
    in
    if u < p_drop *. scale then ignore (apply_code t k_drop src dst)
    else if u < (p_drop +. profile.duplicate) *. scale then
      ignore (apply_code t k_duplicate src dst)
    else if
      u < (p_drop +. profile.duplicate +. profile.defer) *. scale
      && Net.pending t.net ~src ~dst >= 2
    then ignore (apply_code t k_defer src dst)
    else if float_of_int (Bits.Rng.bits53 rng) < profile.delay *. scale
    then begin
      (* Delay burst: freeze this channel and serve another if any.
         Channels are unique in the candidate buffer, so "the candidates
         minus the chosen one" is index [ci] skipped — the same set, in
         the same order, as the historical list filter. *)
      let thaw = t.events + max 1 profile.delay_span in
      t.frozen.(ch) <- thaw;
      if thaw > t.max_thaw then t.max_thaw <- thaw;
      if cnt = 1 then ignore (apply_code t k_deliver src dst)
      else begin
        let j = Bits.Rng.int rng (cnt - 1) in
        let ch' = cand.(if j >= ci then j + 1 else j) in
        ignore (apply_code t k_deliver (ch' / t.size) (ch' mod t.size))
      end
    end
    else ignore (apply_code t k_deliver src dst);
    true
  end

let run_random ~rng ~profile ?(max_events = 100_000) ?(until = fun () -> false)
    t =
  let rec loop budget =
    if budget > 0 && (not (until ())) && step_random rng profile t then
      loop (budget - 1)
  in
  loop max_events

let replay_compiled t compiled =
  for i = 0 to Array.length compiled - 1 do
    let c = compiled.(i) in
    ignore (apply_code t (code_kind c) (code_a c) (code_b c))
  done

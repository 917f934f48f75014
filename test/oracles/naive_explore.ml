module Scheduler = Sched.Scheduler

let interleavings ?(max_steps = 10_000) ?(on_truncated = fun _ -> ()) ~init
    visit =
  let rec go state depth =
    match Scheduler.running state with
    | [] -> visit state
    | procs ->
        if depth >= max_steps then on_truncated state
        else
          List.iter
            (fun pid ->
              let fork = Scheduler.copy state in
              Scheduler.step fork pid;
              go fork (depth + 1))
            procs
  in
  go (init ()) 0

let interleavings_with_crashes ?(max_steps = 10_000)
    ?(on_truncated = fun _ -> ()) ~max_crashes ~init visit =
  let rec go state depth crashes crash_floor =
    match Scheduler.running state with
    | [] -> visit state
    | procs ->
        if depth >= max_steps then on_truncated state
        else begin
          List.iter
            (fun pid ->
              let fork = Scheduler.copy state in
              Scheduler.step fork pid;
              go fork (depth + 1) crashes 0)
            procs;
          (* Crashes between two steps commute; enumerating only the
             increasing-pid order visits each crash set once. *)
          if crashes < max_crashes then
            List.iter
              (fun pid ->
                if pid >= crash_floor then begin
                  let fork = Scheduler.copy state in
                  Scheduler.crash fork pid;
                  go fork depth (crashes + 1) (pid + 1)
                end)
              procs
        end
  in
  go (init ()) 0 0 0

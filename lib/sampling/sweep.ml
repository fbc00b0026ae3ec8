module Jsonx = Darco_obs.Jsonx
module Bus = Darco_obs.Bus
module Span = Darco_obs.Span

type outcome = Ok of Jsonx.t | Failed of string
type result = { label : string; outcome : outcome }

(* Exit codes used by workers: 0 = the temp file holds the JSON result,
   3 = the temp file holds an error description. *)
let run_child f item path =
  match
    try Buf.write_file path (Jsonx.to_string (f item)); 0
    with e -> (try Buf.write_file path (Printexc.to_string e) with _ -> ()); 3
  with
  | code -> Unix._exit code
  | exception _ -> Unix._exit 3

let collect path status =
  match status with
  | Unix.WEXITED 0 -> (
    match Jsonx.parse (Buf.read_file path) with
    | json -> Ok json
    | exception Jsonx.Parse_error msg -> Failed ("worker result unreadable: " ^ msg)
    | exception Sys_error msg -> Failed ("worker result unreadable: " ^ msg))
  | Unix.WEXITED 3 ->
    let reason = try Buf.read_file path with Sys_error _ -> "" in
    Failed (if reason = "" then "worker failed" else "worker failed: " ^ reason)
  | Unix.WEXITED n -> Failed (Printf.sprintf "worker exited with code %d" n)
  | Unix.WSIGNALED s -> Failed (Printf.sprintf "worker killed by signal %d" s)
  | Unix.WSTOPPED s -> Failed (Printf.sprintf "worker stopped by signal %d" s)

(* The fork-per-item pool behind the [Local] backend (and the deprecated
   generic [map]). *)
let pool_map ?bus ?(jobs = 4) ~label f items =
  let jobs = max 1 jobs in
  let items = Array.of_list items in
  let n = Array.length items in
  let outcomes = Array.make n (Failed "not run") in
  let pending = Hashtbl.create jobs in (* pid -> (index, temp path) *)
  (* one "running" span per item on the [local] track, correlated by item
     index — the same shape a worker daemon ships back over the wire, so
     local and remote sweeps produce the same timeline *)
  let span sp =
    match bus with
    | Some b when Bus.active b -> Span.emit b sp
    | _ -> ()
  in
  (* wait(2) is interruptible: a SIGCHLD-adjacent signal landing between
     forks surfaced as EINTR and tore the whole sweep down. Retry; only
     an actual reap (or a real error) may end the call. *)
  let rec wait_nointr () =
    try Unix.wait ()
    with Unix.Unix_error (EINTR, _, _) -> wait_nointr ()
  in
  let reap_one () =
    let pid, status = wait_nointr () in
    match Hashtbl.find_opt pending pid with
    | None -> () (* not ours; nothing to record *)
    | Some (idx, path) ->
      Hashtbl.remove pending pid;
      outcomes.(idx) <- collect path status;
      (let ok = match outcomes.(idx) with Ok _ -> true | Failed _ -> false in
       span (Span.end_ ~ok ~span:"running" ~corr:idx ~host:"local" ()));
      (try Sys.remove path with Sys_error _ -> ())
  in
  Array.iteri
    (fun idx item ->
      while Hashtbl.length pending >= jobs do
        reap_one ()
      done;
      let path = Filename.temp_file "darco_sweep" ".json" in
      span
        (Span.begin_ ~detail:(label item) ~span:"running" ~corr:idx
           ~host:"local" ());
      (* flush before forking so buffered output is not emitted twice *)
      flush stdout;
      flush stderr;
      match Unix.fork () with
      | 0 -> run_child f item path
      | pid -> Hashtbl.replace pending pid (idx, path))
    items;
  while Hashtbl.length pending > 0 do
    reap_one ()
  done;
  List.mapi
    (fun idx item -> { label = label item; outcome = outcomes.(idx) })
    (Array.to_list items)

(* The domain-pool twin of [pool_map]: same span timeline (begin on
   submit, end on completion, host "local", corr = unit index), same
   at-most-[jobs]-in-flight pacing, same failure rendering — so a sweep
   produces byte-identical JSON whichever pool ran it.  All bus emission
   happens on the calling domain; worker domains only run [f].  The pool
   is a parameter so a round-based session reuses one set of domains
   across rounds instead of respawning them per round. *)
let domains_map_on pool ?bus ~jobs ~label f items =
  let items = Array.of_list items in
  let n = Array.length items in
  let outcomes = Array.make n (Failed "not run") in
  let span sp =
    match bus with
    | Some b when Bus.active b -> Span.emit b sp
    | _ -> ()
  in
  let next = ref 0 in
  let submit_one () =
    let idx = !next in
    incr next;
    let item = items.(idx) in
    span
      (Span.begin_ ~detail:(label item) ~span:"running" ~corr:idx
         ~host:"local" ());
    Dpool.submit pool ~tag:idx (fun () -> f item)
  in
  while !next < n && Dpool.pending pool < jobs do
    submit_one ()
  done;
  while Dpool.pending pool > 0 do
    let idx, res = Dpool.await pool in
    outcomes.(idx) <-
      (match res with
      | Stdlib.Ok json -> Ok json
      | Stdlib.Error e -> Failed ("worker failed: " ^ Printexc.to_string e));
    (let ok = match outcomes.(idx) with Ok _ -> true | Failed _ -> false in
     span (Span.end_ ~ok ~span:"running" ~corr:idx ~host:"local" ()));
    if !next < n then submit_one ()
  done;
  List.mapi
    (fun idx item -> { label = label item; outcome = outcomes.(idx) })
    (Array.to_list items)

let domains_map ?bus ?(jobs = 4) ~label f items =
  let jobs = max 1 jobs in
  let pool = Dpool.create ~jobs () in
  Fun.protect
    ~finally:(fun () -> Dpool.shutdown pool)
    (fun () -> domains_map_on pool ?bus ~jobs ~label f items)

module Backend = struct
  type nonrec session = {
    s_dispatch : Work.t list -> result list;
    s_close : unit -> unit;
  }

  type nonrec t = {
    name : string;
    dispatch : Work.t list -> result list;
    session : unit -> session;
  }

  (* backends without cross-round state: a session is just the one-shot
     dispatch, round after round *)
  let oneshot dispatch () = { s_dispatch = dispatch; s_close = (fun () -> ()) }

  let of_exec ?bus ?(jobs = 4) ~name exec =
    let dispatch works =
      pool_map ?bus ~jobs ~label:(fun (w : Work.t) -> w.Work.label) exec works
    in
    { name; dispatch; session = oneshot dispatch }

  let local ?bus ?store ?(jobs = 4) () =
    of_exec ?bus ~jobs
      ~name:(Printf.sprintf "local:%d" (max 1 jobs))
      (Work.exec ?store)

  let serial ?bus ?store () =
    let exec = Work.exec ?store in
    let span sp =
      match bus with
      | Some b when Bus.active b -> Span.emit b sp
      | _ -> ()
    in
    let dispatch works =
      List.mapi
        (fun idx (w : Work.t) ->
          span
            (Span.begin_ ~detail:w.Work.label ~span:"running" ~corr:idx
               ~host:"local" ());
          let outcome =
            match exec w with
            | json -> Ok json
            | exception e -> Failed ("worker failed: " ^ Printexc.to_string e)
          in
          (let ok = match outcome with Ok _ -> true | Failed _ -> false in
           span (Span.end_ ~ok ~span:"running" ~corr:idx ~host:"local" ()));
          { label = w.Work.label; outcome })
        works
    in
    { name = "serial"; dispatch; session = oneshot dispatch }

  let domains ?bus ?store ?(jobs = 4) () =
    let jobs = max 1 jobs in
    let label (w : Work.t) = w.Work.label in
    let exec = Work.exec ?store in
    {
      name = Printf.sprintf "domains:%d" jobs;
      dispatch = (fun works -> domains_map ?bus ~jobs ~label exec works);
      session =
        (fun () ->
          let pool = Dpool.create ~jobs () in
          {
            s_dispatch =
              (fun works -> domains_map_on pool ?bus ~jobs ~label exec works);
            s_close = (fun () -> Dpool.shutdown pool);
          });
    }
end

let run (b : Backend.t) works = b.dispatch works

let run_stream (b : Backend.t) ~next =
  let s = b.Backend.session () in
  Fun.protect
    ~finally:(fun () -> s.Backend.s_close ())
    (fun () ->
      (* completed (work, result) pairs, newest batch first *)
      let completed = ref [] in
      let round = ref 0 in
      let continue = ref true in
      while !continue do
        match next !round (List.rev !completed) with
        | [] -> continue := false
        | works ->
          let results = s.Backend.s_dispatch works in
          completed := List.rev_append (List.combine works results) !completed;
          incr round
      done;
      List.rev !completed)

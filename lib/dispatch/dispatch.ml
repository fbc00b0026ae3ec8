module B = Darco_sampling.Buf
module Sweep = Darco_sampling.Sweep
module Work = Darco_sampling.Work
module Store = Darco_sampling.Store
module Jsonx = Darco_obs.Jsonx
module Bus = Darco_obs.Bus
module Event = Darco_obs.Event
module Clock = Darco_obs.Clock
module Span = Darco_obs.Span

type addr = { host : string; port : int }

let addr_to_string a = Printf.sprintf "%s:%d" a.host a.port

let addr_of_string s =
  match String.rindex_opt s ':' with
  | None -> Error (Printf.sprintf "worker address %S is not HOST:PORT" s)
  | Some i -> (
    let host = String.sub s 0 i in
    let port = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt port with
    | Some p when p > 0 && p < 65536 && host <> "" -> Ok { host; port = p }
    | _ -> Error (Printf.sprintf "worker address %S is not HOST:PORT" s))

type spec =
  | Serial
  | Local of { jobs : int }
  | Domains of { jobs : int }
  | Remote of { workers : addr list; timeout : float; retries : int }

let spec_of_string ?(jobs = 4) ?(timeout = 60.0) ?(retries = 2) s =
  let prefix p =
    String.length s > String.length p
    && String.sub s 0 (String.length p) = p
  in
  if s = "serial" then Ok Serial
  else if s = "local" then Ok (Local { jobs })
  else if prefix "local:" then begin
    match int_of_string_opt (String.sub s 6 (String.length s - 6)) with
    | Some j when j >= 1 -> Ok (Local { jobs = j })
    | _ -> Error (Printf.sprintf "bad backend %S: expected local:JOBS" s)
  end
  else if s = "domains" then Ok (Domains { jobs })
  else if prefix "domains:" then begin
    match int_of_string_opt (String.sub s 8 (String.length s - 8)) with
    | Some j when j >= 1 -> Ok (Domains { jobs = j })
    | _ -> Error (Printf.sprintf "bad backend %S: expected domains:JOBS" s)
  end
  else if prefix "remote:" then begin
    let rest = String.sub s 7 (String.length s - 7) in
    let parts = String.split_on_char ',' rest in
    let rec collect acc = function
      | [] -> Ok (Remote { workers = List.rev acc; timeout; retries })
      | p :: tl -> (
        match addr_of_string (String.trim p) with
        | Ok a -> collect (a :: acc) tl
        | Error e -> Error e)
    in
    collect [] parts
  end
  else
    Error
      (Printf.sprintf
         "bad backend %S: expected serial, local:JOBS, domains:JOBS or \
          remote:HOST:PORT[,HOST:PORT...]"
         s)

(* --- the dispatcher ----------------------------------------------------- *)

(* Base delay before a unit bounced off a dead worker is eligible again;
   doubles per attempt (0.2s, 0.4s, 0.8s, ...). *)
let backoff_base = 0.2

(* A unit is only stolen (speculatively duplicated onto an idle worker)
   once it has been in flight for this fraction of the per-unit timeout —
   young units are almost certainly just still computing. *)
let steal_fraction = 0.25

type inflight = { if_attempt : int; if_deadline : float; if_sent_at : float }

(* One queued outbound frame: its exact wire bytes, how much has reached
   the kernel, and what to do once the last byte is written (or the
   connection dies first — [ob_done false]).  Frames flush opportunistically
   at enqueue and then whenever select reports the socket writable, so a
   multi-megabyte checkpoint push drains in the background while results
   keep being handled. *)
type obent = {
  ob_bytes : string;
  mutable ob_off : int;
  ob_done : bool -> unit;
}

type worker_state = {
  w_addr : string;
  (* position in the caller's worker list; used to derive a stable
     correlation id for per-worker spans (checkpoint pushes) that cannot
     collide with unit indices *)
  w_ix : int;
  mutable w_fd : Unix.file_descr option;
  w_slots : int;
  (* unit index -> its in-flight record; up to [w_slots] entries *)
  w_inflight : (int, inflight) Hashtbl.t;
  (* checkpoint digests this worker has been assigned or pushed — any
     later unit sharing one rides the worker's cached copy *)
  w_seen : (string, unit) Hashtbl.t;
  (* outbound frames not yet fully written; every post-handshake frame
     goes through here so two frames can never interleave *)
  w_outbox : obent Queue.t;
  (* keepalive probing: wall time of the last frame received, when the
     next PING may go out, and how many PINGs are outstanding without any
     intervening traffic (any received frame counts as life, not just
     PONG — a worker busy streaming results never gets probed) *)
  mutable w_last_recv : float;
  mutable w_next_ping : float;
  mutable w_pings : int;
}

(* Dispatch-lifecycle events are stamped with the strictly monotonic
   wall-clock microsecond tick — there is no retired-instruction clock
   across machines, and a wall stamp keeps a merged JSONL trace in
   real-time order. *)
let emit bus ev = Option.iter (fun b -> Bus.emit b ~at:(Clock.ticks ()) ev) bus

(* Span halves ride the same bus; skip the allocation when nobody listens
   (the bus-active contract of the core applies here too). *)
let span bus sp =
  Option.iter (fun b -> if Bus.active b then Span.emit b sp) bus

let dispatcher_host = "dispatcher"

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Non-blocking connect bounded by [timeout] seconds, then the Hello
   handshake bounded by the same budget.  The socket stays non-blocking:
   the wire layer parks in select on EAGAIN, so multiplexed traffic never
   stalls the whole dispatcher on one slow peer. *)
let connect_worker ~bus ~timeout ~ix (a : addr) =
  let name = addr_to_string a in
  let fail fd reason =
    Option.iter close_quietly fd;
    emit bus (Event.Worker_lost { worker = name; reason });
    None
  in
  match Worker.resolve a.host with
  | exception Invalid_argument m -> fail None m
  | inet -> (
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    Unix.set_nonblock fd;
    let sockaddr = Unix.ADDR_INET (inet, a.port) in
    let deadline = Unix.gettimeofday () +. timeout in
    let connected =
      match Unix.connect fd sockaddr with
      | () -> true
      | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _)
        -> (
        match Unix.select [] [ fd ] [] timeout with
        | _, [ _ ], _ -> Unix.getsockopt_error fd = None
        | _ -> false)
      | exception Unix.Unix_error _ -> false
    in
    if not connected then fail (Some fd) "connection refused or timed out"
    else begin
      match
        Wire.send ~deadline fd
          (Wire.Hello { version = Wire.protocol_version; slots = 0 });
        Wire.recv ~deadline fd
      with
      | Wire.Hello { version = v; slots }
        when v >= Wire.min_version && v <= Wire.protocol_version ->
        (* the worker already negotiated down to [min ours theirs]; any
           version in the accepted range speaks the same worker protocol *)
        emit bus (Event.Worker_up { worker = name });
        let now = Unix.gettimeofday () in
        Some
          {
            w_addr = name;
            w_ix = ix;
            w_fd = Some fd;
            w_slots = max 1 slots;
            w_inflight = Hashtbl.create 8;
            w_seen = Hashtbl.create 4;
            w_outbox = Queue.create ();
            w_last_recv = now;
            w_next_ping = now;
            w_pings = 0;
          }
      | Wire.Hello { version = v; _ } ->
        fail (Some fd)
          (Printf.sprintf "protocol version mismatch (worker speaks %d)" v)
      | Wire.Fail { reason; _ } -> fail (Some fd) reason
      | _ -> fail (Some fd) "unexpected handshake reply"
      | exception Wire.Timeout -> fail (Some fd) "handshake timed out"
      | exception Wire.Closed -> fail (Some fd) "connection closed during handshake"
      | exception B.Corrupt m -> fail (Some fd) ("malformed handshake: " ^ m)
    end)

(* A persistent dispatch session: worker connections made once, then any
   number of rounds of units run through them.  What persists between
   rounds is exactly what is expensive to rebuild — the TCP connections,
   each worker's [w_seen] checkpoint cache (a later round whose units
   share a digest with an earlier one rides the copies already pushed),
   and half-drained outbound frames.  Wire unit ids are offset by
   [se_base] so every round's ids are globally unique within the session:
   a stale frame from an earlier round (e.g. the loser of a steal race
   finishing late) can never alias a current unit. *)
type session = {
  se_bus : Bus.t option;
  se_store : Store.t option;
  se_fallback_jobs : int;
  se_keepalive_idle : float;
  se_keepalive_misses : int;
  se_timeout : float;
  se_retries : int;
  se_addrs : addr list;
  se_ws : worker_state list;
  mutable se_base : int;
}

let open_session ?bus ?(fallback_jobs = 4) ?store ?(keepalive_idle = 5.0)
    ?(keepalive_misses = 3) ?(timeout = 60.0) ?(retries = 2) workers =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let ws =
    List.filter_map
      (fun (ix, a) -> connect_worker ~bus ~timeout ~ix a)
      (List.mapi (fun ix a -> (ix, a)) workers)
  in
  {
    se_bus = bus;
    se_store = store;
    se_fallback_jobs = fallback_jobs;
    se_keepalive_idle = keepalive_idle;
    se_keepalive_misses = keepalive_misses;
    se_timeout = timeout;
    se_retries = retries;
    se_addrs = workers;
    se_ws = ws;
    se_base = 0;
  }

let close_session se =
  List.iter
    (fun w ->
      (* frames still queued (e.g. a push for a unit that was stolen and
         finished elsewhere) will never drain: fail their completions so
         their spans close *)
      Queue.iter (fun e -> e.ob_done false) w.w_outbox;
      Queue.clear w.w_outbox;
      Option.iter close_quietly w.w_fd;
      w.w_fd <- None)
    se.se_ws

let session_run se works =
  let bus = se.se_bus and store = se.se_store in
  let timeout = se.se_timeout and retries = se.se_retries in
  let fallback_jobs = se.se_fallback_jobs in
  let keepalive_idle = se.se_keepalive_idle in
  let keepalive_misses = se.se_keepalive_misses in
  let units = Array.of_list works in
  let n = Array.length units in
  let base = se.se_base in
  se.se_base <- base + n;
  let outcomes = Array.make n (Sweep.Failed "not dispatched") in
  let finished = Array.make n false in
  let done_count = ref 0 in
  let ws = se.se_ws in
  let live () = List.filter (fun w -> w.w_fd <> None) ws in
  (* Per-unit span state: which dispatcher-side span is currently open for
     unit [i].  "queued" covers arrival-to-dispatch (and backoff waits),
     "inflight" covers dispatch-to-settle on the primary holder; stolen
     duplicates do not reopen spans (the [Steal] instant marks them). *)
  let open_span = Array.make n `None in
  let close_span i ~ok =
    (match open_span.(i) with
    | `None -> ()
    | `Queued ->
      span bus (Span.end_ ~ok ~span:"queued" ~corr:i ~host:dispatcher_host ())
    | `Inflight ->
      span bus (Span.end_ ~ok ~span:"inflight" ~corr:i ~host:dispatcher_host ()));
    open_span.(i) <- `None
  in
  let open_queued i ~detail =
    span bus (Span.begin_ ~detail ~span:"queued" ~corr:i ~host:dispatcher_host ());
    open_span.(i) <- `Queued
  in
  Array.iteri (fun i (u : Work.t) -> open_queued i ~detail:u.Work.label) units;
  (* how many live workers currently hold unit [i] (can exceed 1 after a
     steal speculatively duplicated it) *)
  let copies i =
    List.length
      (List.filter (fun w -> w.w_fd <> None && Hashtbl.mem w.w_inflight i) ws)
  in
  let gauge w =
    emit bus
      (Event.Dispatch_inflight
         { worker = w.w_addr; in_flight = Hashtbl.length w.w_inflight })
  in
  (* Write as much queued output as the socket will take without blocking.
     Returns false when the connection proved dead (the caller loses the
     worker; never called on a healthy empty queue in that state). *)
  let flush_outbox w =
    match w.w_fd with
    | None -> true
    | Some fd ->
      let ok = ref true and progress = ref true in
      while !ok && !progress && not (Queue.is_empty w.w_outbox) do
        let e = Queue.peek w.w_outbox in
        let len = String.length e.ob_bytes in
        match Unix.write_substring fd e.ob_bytes e.ob_off (len - e.ob_off) with
        | k ->
          e.ob_off <- e.ob_off + k;
          if e.ob_off = len then begin
            ignore (Queue.pop w.w_outbox);
            e.ob_done true
          end
          else progress := false
        | exception
            Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          ->
          progress := false
        | exception Unix.Unix_error _ -> ok := false
      done;
      !ok
  in
  let enqueue_frame w msg ~done_ =
    Queue.push
      { ob_bytes = Wire.encode msg; ob_off = 0; ob_done = done_ }
      w.w_outbox
  in
  let settle i outcome =
    if not finished.(i) then begin
      close_span i ~ok:(match outcome with Sweep.Ok _ -> true | _ -> false);
      outcomes.(i) <- outcome;
      finished.(i) <- true;
      incr done_count;
      (* withdraw every other copy so a late duplicate result is ignored *)
      List.iter
        (fun w ->
          if Hashtbl.mem w.w_inflight i then begin
            Hashtbl.remove w.w_inflight i;
            gauge w
          end)
        ws
    end
  in
  (* (unit index, attempt, earliest re-dispatch time), input order *)
  let pending = ref (List.init n (fun i -> (i, 0, 0.0))) in
  let requeue (i, attempt) reason =
    let label = units.(i).Work.label in
    if attempt >= retries then
      settle i
        (Sweep.Failed
           (Printf.sprintf "gave up after %d attempts (last: %s)" (attempt + 1)
              reason))
    else begin
      let delay = backoff_base *. (2.0 ** float_of_int attempt) in
      emit bus
        (Event.Dispatch_retry { unit_label = label; attempt = attempt + 1; delay });
      close_span i ~ok:false;
      open_queued i ~detail:label;
      pending := !pending @ [ (i, attempt + 1, Unix.gettimeofday () +. delay) ]
    end
  in
  let lose_worker w reason =
    emit bus (Event.Worker_lost { worker = w.w_addr; reason });
    Option.iter close_quietly w.w_fd;
    w.w_fd <- None;
    (* frames still queued will never arrive; let their completions fail *)
    Queue.iter (fun e -> e.ob_done false) w.w_outbox;
    Queue.clear w.w_outbox;
    let inflight = Hashtbl.fold (fun i inf acc -> (i, inf) :: acc) w.w_inflight [] in
    Hashtbl.reset w.w_inflight;
    (* a unit duplicated onto another live worker is still in flight there;
       only units with no surviving copy go back on the queue *)
    List.iter
      (fun (i, (inf : inflight)) ->
        if (not finished.(i)) && copies i = 0 then requeue (i, inf.if_attempt) reason)
      inflight
  in
  (* opportunistic flush; a hard write error costs the whole worker *)
  let kick w = if not (flush_outbox w) then lose_worker w "send failed" in
  (* Assign unit [i] to [w].  The frame goes through the outbox; the unit
     is in flight from the moment it is queued (its deadline covers a
     wedged socket), and a write failure loses the worker, whose table —
     stolen copies and all — requeues correctly. *)
  let send_unit w ~stolen i attempt =
    let u = units.(i) in
    let now = Unix.gettimeofday () in
    let enc = Work.to_string u in
    emit bus
      (Event.Dispatch_sent
         {
           unit_label = u.Work.label;
           worker = w.w_addr;
           attempt;
           bytes = String.length enc;
         });
    if not stolen then begin
      close_span i ~ok:true;
      span bus
        (Span.begin_
           ~detail:(Printf.sprintf "%s attempt %d" w.w_addr attempt)
           ~span:"inflight" ~corr:i ~host:dispatcher_host ());
      open_span.(i) <- `Inflight
    end;
    (match Work.digest u with
    | None -> ()
    | Some d ->
      if Hashtbl.mem w.w_seen d then
        emit bus (Event.Ckpt_hit { worker = w.w_addr; digest = d })
      else Hashtbl.replace w.w_seen d ());
    enqueue_frame w (Wire.Work { id = base + i; unit_ = enc }) ~done_:(fun _ -> ());
    Hashtbl.replace w.w_inflight i
      { if_attempt = attempt; if_deadline = now +. timeout; if_sent_at = now };
    gauge w;
    kick w
  in
  (* Worker span logs ride back inside [Result] frames; replay them on the
     bus with their original stamps so the merged trace carries both
     machines' timelines.  A malformed log is a telemetry defect, never a
     reason to reject the (CRC-verified, parseable) result itself. *)
  let replay_spans encoded =
    match bus with
    | Some b when Bus.active b -> (
      match Span.decode_list encoded with
      | sps -> List.iter (fun sp -> Span.emit b sp) sps
      | exception Jsonx.Parse_error _ -> ())
    | _ -> ()
  in
  let handle_msg w = function
    | Wire.Result { id; text; spans = spanlog } ->
      (* a result for a unit no longer in flight here is a late duplicate
         of something already settled (or withdrawn), or a stray from an
         earlier round of this session (negative after the base shift);
         drop it *)
      let id = id - base in
      if id >= 0 && id < n && Hashtbl.mem w.w_inflight id then begin
        match Jsonx.parse text with
        | json ->
          replay_spans spanlog;
          emit bus
            (Event.Dispatch_done
               { unit_label = units.(id).Work.label; worker = w.w_addr; ok = true });
          settle id (Sweep.Ok json)
        | exception Jsonx.Parse_error m ->
          (* the frame passed its CRC, so this is the worker misbehaving,
             not the network: drop it (the unit requeues from its table) *)
          lose_worker w ("unparseable result: " ^ m)
      end
    | Wire.Fail { id; reason } when id >= 0 ->
      let id = id - base in
      if id >= 0 && id < n && Hashtbl.mem w.w_inflight id then begin
        emit bus
          (Event.Dispatch_done
             { unit_label = units.(id).Work.label; worker = w.w_addr; ok = false });
        (* the unit itself failed over a healthy connection — execution is
           deterministic, so retrying (or waiting out a duplicate) would
           not help *)
        settle id (Sweep.Failed reason)
      end
    | Wire.Fail { reason; _ } -> lose_worker w ("worker reported: " ^ reason)
    | Wire.Need { digest } -> (
      match store with
      | None ->
        lose_worker w "worker requested a checkpoint but the dispatcher has no store"
      | Some s -> (
        match Store.find s digest with
        | Some bytes ->
          (* one span per push, on a per-worker correlation track well away
             from unit indices; the span closes when the last byte drains,
             so its width is the real transfer time overlapped with
             everything else the loop did meanwhile *)
          let corr = 1_000_000 + w.w_ix in
          span bus
            (Span.begin_ ~detail:digest ~span:"ckpt_push" ~corr
               ~host:dispatcher_host ());
          Hashtbl.replace w.w_seen digest ();
          enqueue_frame w
            (Wire.Ckpt { digest; bytes })
            ~done_:(fun ok ->
              span bus
                (Span.end_ ~ok ~span:"ckpt_push" ~corr ~host:dispatcher_host ());
              if ok then
                emit bus
                  (Event.Ckpt_push
                     { worker = w.w_addr; digest; bytes = String.length bytes }));
          kick w
        | None ->
          lose_worker w (Printf.sprintf "worker requested unknown checkpoint %s" digest)
        | exception B.Corrupt m -> lose_worker w ("checkpoint store: " ^ m)))
    | Wire.Pong -> () (* keepalive reply; receipt already reset the probe state *)
    | Wire.Hello _ | Wire.Ping | Wire.Work _ | Wire.Ckpt _ | Wire.Submit _
    | Wire.Status _ | Wire.Artifact _ | Wire.Done _ | Wire.Metrics _
    | Wire.Health _ ->
      lose_worker w "protocol violation"
  in
  let drain w fd =
    let deadline =
      Hashtbl.fold
        (fun _ (inf : inflight) acc -> min acc inf.if_deadline)
        w.w_inflight
        (Unix.gettimeofday () +. timeout)
    in
    match Wire.recv ~deadline fd with
    | msg ->
      (* any complete frame proves the worker alive *)
      w.w_last_recv <- Unix.gettimeofday ();
      w.w_pings <- 0;
      handle_msg w msg
    | exception Wire.Closed -> lose_worker w "connection closed"
    | exception Wire.Timeout -> lose_worker w "work unit timed out"
    | exception B.Corrupt m -> lose_worker w ("malformed frame: " ^ m)
  in
  (* Probe idle connections: a PING goes out once nothing has arrived for
     [keepalive_idle] seconds, repeating at that interval; after
     [keepalive_misses] unanswered probes the worker is declared dead and
     its units reassigned — much sooner than the per-unit deadline when a
     worker is SIGSTOPped or its host vanished. *)
  let keepalive_check now =
    List.iter
      (fun w ->
        if w.w_fd <> None && now -. w.w_last_recv >= keepalive_idle
           && now >= w.w_next_ping
        then begin
          if w.w_pings >= keepalive_misses then
            lose_worker w
              (Printf.sprintf "missed %d keepalive pongs" w.w_pings)
          else begin
            w.w_pings <- w.w_pings + 1;
            w.w_next_ping <- now +. keepalive_idle;
            enqueue_frame w Wire.Ping ~done_:(fun _ -> ());
            kick w
          end
        end)
      ws
  in
  (* Straggler gauge: age of the oldest in-flight unit over the median
     in-flight age, in percent, attributed to the worker holding it.
     Needs two units in flight to mean anything; emitted only when the
     rounded percentage moves so an idle fleet adds nothing to the
     trace. *)
  let last_straggler_pct = ref 0 in
  let straggler_check now =
    if (match bus with Some b -> Bus.active b | None -> false) then begin
      let ages = ref [] in
      List.iter
        (fun w ->
          if w.w_fd <> None then
            Hashtbl.iter
              (fun _ inf -> ages := (now -. inf.if_sent_at, w.w_addr) :: !ages)
              w.w_inflight)
        ws;
      let ages = List.sort (fun (a, _) (b, _) -> compare b a) !ages in
      match ages with
      | (slowest, worker) :: _ :: _ ->
        let n = List.length ages in
        let median, _ = List.nth ages (n / 2) in
        let pct =
          if median <= 1e-6 then 100
          else int_of_float (Float.round (100.0 *. slowest /. median))
        in
        if pct <> !last_straggler_pct then begin
          last_straggler_pct := pct;
          emit bus (Event.Straggler { worker; ratio_pct = pct })
        end
      | _ -> ()
    end
  in
  let fallback reason =
    emit bus (Event.Dispatch_fallback { reason });
    let todo =
      List.filter_map
        (fun (i, _, _) -> if finished.(i) then None else Some i)
        !pending
    in
    (* close the dispatcher-side spans before handing over: the local
       backend opens its own "running" spans for these units *)
    List.iter (fun i -> close_span i ~ok:true) todo;
    pending := [];
    let results =
      Sweep.run
        (Sweep.Backend.local ?bus ?store ~jobs:fallback_jobs ())
        (List.map (fun i -> units.(i)) todo)
    in
    List.iter2 (fun i (r : Sweep.result) -> settle i r.outcome) todo results
  in
  if live () = [] then
    fallback
      (Printf.sprintf "no reachable workers among [%s]"
         (String.concat ", " (List.map addr_to_string se.se_addrs)))
  else begin
    while !done_count < n do
      let now = Unix.gettimeofday () in
      (* hand eligible units to free slots, input order first *)
      List.iter
        (fun w ->
          let continue = ref true in
          while
            !continue && w.w_fd <> None
            && Hashtbl.length w.w_inflight < w.w_slots
          do
            let rec pick acc = function
              | [] -> None
              | (i, attempt, at) :: tl when at <= now && not finished.(i) ->
                pending := List.rev_append acc tl;
                Some (i, attempt)
              | u :: tl -> pick (u :: acc) tl
            in
            match pick [] !pending with
            | None -> continue := false
            | Some (i, attempt) -> send_unit w ~stolen:false i attempt
          done)
        ws;
      (* the queue is drained: idle slots steal (duplicate) the oldest
         singly-held in-flight unit from another worker — a fast worker
         finishes it while a slow or wedged one is still grinding, and
         whichever result lands first settles the unit *)
      let now = Unix.gettimeofday () in
      if not (List.exists (fun (i, _, _) -> not finished.(i)) !pending) then
        List.iter
          (fun thief ->
            if
              thief.w_fd <> None
              && Hashtbl.length thief.w_inflight < thief.w_slots
            then begin
              let best = ref None in
              List.iter
                (fun victim ->
                  if victim != thief && victim.w_fd <> None then
                    Hashtbl.iter
                      (fun i (inf : inflight) ->
                        if
                          (not finished.(i))
                          && copies i = 1
                          && now -. inf.if_sent_at >= steal_fraction *. timeout
                        then
                          match !best with
                          | Some (_, _, (b : inflight))
                            when b.if_sent_at <= inf.if_sent_at ->
                            ()
                          | _ -> best := Some (victim, i, inf))
                      victim.w_inflight)
                ws;
              match !best with
              | None -> ()
              | Some (victim, i, { if_attempt = attempt; _ }) ->
                emit bus
                  (Event.Steal
                     {
                       unit_label = units.(i).Work.label;
                       from_worker = victim.w_addr;
                       to_worker = thief.w_addr;
                     });
                send_unit thief ~stolen:true i attempt
            end)
          ws;
      if !done_count >= n then ()
      else if live () = [] then fallback "all workers lost"
      else begin
        let lv = live () in
        let now = Unix.gettimeofday () in
        (* earliest moment anything can change: an in-flight deadline
           expiring or a backed-off unit becoming eligible *)
        let next_wake =
          List.fold_left
            (fun acc w ->
              Hashtbl.fold
                (fun _ (inf : inflight) acc -> min acc inf.if_deadline)
                w.w_inflight acc)
            (now +. 0.25) lv
        in
        let next_wake =
          List.fold_left
            (fun acc (i, _, at) -> if finished.(i) then acc else min acc at)
            next_wake !pending
        in
        let fds = List.filter_map (fun w -> w.w_fd) lv in
        (* watch for writability only where output is actually queued *)
        let wfds =
          List.filter_map
            (fun w -> if Queue.is_empty w.w_outbox then None else w.w_fd)
            lv
        in
        let ready, writable =
          match Unix.select fds wfds [] (max 0.01 (next_wake -. now)) with
          | r, wr, _ -> (r, wr)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
        in
        List.iter
          (fun w ->
            match w.w_fd with
            | Some fd when List.memq fd writable -> kick w
            | _ -> ())
          lv;
        List.iter
          (fun w ->
            match w.w_fd with
            | Some fd when List.memq fd ready -> drain w fd
            | _ -> ())
          lv;
        let now = Unix.gettimeofday () in
        List.iter
          (fun w ->
            if w.w_fd <> None then begin
              let expired =
                Hashtbl.fold
                  (fun i (inf : inflight) acc ->
                    if inf.if_deadline <= now then Some i else acc)
                  w.w_inflight None
              in
              match expired with
              | Some i ->
                lose_worker w
                  (Printf.sprintf "unit %s timed out" units.(i).Work.label)
              | None -> ()
            end)
          ws;
        (* the select above wakes at least every 0.25s, which paces these
           probes (and the straggler gauge) without a dedicated timer *)
        let now = Unix.gettimeofday () in
        keepalive_check now;
        straggler_check now
      end
    done
  end;
  List.mapi
    (fun i (u : Work.t) -> { Sweep.label = u.Work.label; outcome = outcomes.(i) })
    (Array.to_list units)

(* The one-shot dispatch is a session of exactly one round ([se_base]
   stays 0, so the wire ids — and with them every span and trace record —
   are unchanged from the pre-session dispatcher). *)
let run_remote ?bus ?fallback_jobs ?store ?keepalive_idle ?keepalive_misses
    ~workers ~timeout ~retries works =
  let se =
    open_session ?bus ?fallback_jobs ?store ?keepalive_idle ?keepalive_misses
      ~timeout ~retries workers
  in
  Fun.protect
    ~finally:(fun () -> close_session se)
    (fun () -> session_run se works)

let remote ?bus ?fallback_jobs ?store ?keepalive_idle ?keepalive_misses
    ?(timeout = 60.0) ?(retries = 2) workers : Sweep.Backend.t =
  {
    Sweep.Backend.name =
      Printf.sprintf "remote:%s"
        (String.concat "," (List.map addr_to_string workers));
    dispatch =
      run_remote ?bus ?fallback_jobs ?store ?keepalive_idle ?keepalive_misses
        ~workers ~timeout ~retries;
    session =
      (fun () ->
        let se =
          open_session ?bus ?fallback_jobs ?store ?keepalive_idle
            ?keepalive_misses ~timeout ~retries workers
        in
        {
          Sweep.Backend.s_dispatch = (fun works -> session_run se works);
          s_close = (fun () -> close_session se);
        });
  }

let backend ?bus ?fallback_jobs ?store spec : Sweep.Backend.t =
  match spec with
  | Serial -> Sweep.Backend.serial ?bus ?store ()
  | Local { jobs } -> Sweep.Backend.local ?bus ?store ~jobs ()
  | Domains { jobs } -> Sweep.Backend.domains ?bus ?store ~jobs ()
  | Remote { workers; timeout; retries } ->
    remote ?bus ?fallback_jobs ?store ~timeout ~retries workers

module Bus = Darco_obs.Bus
module Event = Darco_obs.Event
module Clock = Darco_obs.Clock
module Span = Darco_obs.Span
module Jsonx = Darco_obs.Jsonx
module B = Darco_sampling.Buf
module Store = Darco_sampling.Store
module Sweep = Darco_sampling.Sweep
module Work = Darco_sampling.Work
module Driver = Darco_sampling.Driver
module Snapshot = Darco_sampling.Snapshot
module Report = Darco_sampling.Report
module Plan = Darco_sampling.Plan
module Wire = Darco_dispatch.Wire
module Registry = Darco_workloads.Registry
module Reg = Darco_obs.Registry
module Version = Darco_util.Version

let emit bus ev = Option.iter (fun b -> Bus.emit b ~at:(Clock.ticks ()) ev) bus

let span bus sp =
  match bus with Some b when Bus.active b -> Span.emit b sp | _ -> ()

(* Correlation ids for per-submission spans sit above both unit indices
   (sweep "running" spans) and the dispatcher's per-worker range. *)
let span_corr_base = 2_000_000

type client = {
  c_fd : Unix.file_descr;
  c_peer : string;
  c_ver : int;
  mutable c_alive : bool;
}

(* Per-worker liveness for the HLTH document, folded from bus events
   (the dispatcher emits Worker_up/Worker_lost/Dispatch_inflight). *)
type whealth = {
  mutable wh_state : string;
  mutable wh_inflight : int;
  mutable wh_reason : string;
}

type slot =
  | Waiting
  | Settled of Sweep.outcome
  | Skipped  (** adaptive early exit: never measured, excluded from the doc *)

type submission = {
  sb_seq : int;  (** server-side sequence number (events, spans, logs) *)
  sb_id : int;  (** the client's submission handle, echoed in every frame *)
  sb_client : client;
  sb_spec : Campaign.t;  (** normalized, benchmark name resolved *)
  sb_offsets : int array;
  sb_works : Work.t array;
  sb_keys : Library.key array;
  sb_slots : slot array;
  sb_todo : int Queue.t;  (** slot indices awaiting a dispatch round *)
  mutable sb_done : int;
  mutable sb_hits : int;
  mutable sb_dispatched : int;
  mutable sb_plan : Darco_sampling.Plan.t option;
      (** present when the campaign carries a [ci_target]: the planner
          admits windows round by round and stops the sweep early *)
  mutable sb_inflight : int;  (** windows registered on a pend, unsettled *)
  mutable sb_skipped : int;
}

(* One work unit not yet settled, shared by every submission wanting its
   window: the submission that created it dispatches; later arrivals
   attach as waiters and dispatch nothing. *)
type pend = {
  p_key : Library.key;
  p_work : Work.t;
  mutable p_waiters : (submission * int) list;
}

let checkpoint_set_key bench ckd = Printf.sprintf "ckpts:%s/%s" bench ckd

let serve ?bus ?(quiet = false) ?(workers = []) ?(jobs = 4) ?(credit = 4)
    ?(dispatch_timeout = 60.0) ?(dispatch_retries = 2) ?keepalive_idle
    ?keepalive_misses ?max_bytes ?max_submissions ?metrics_file
    ?(metrics_interval = 5.0) ?ready ~library ~host ~port () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let credit = max 1 credit in
  let started = Unix.gettimeofday () in
  let uptime_s () = int_of_float (Unix.gettimeofday () -. started) in
  (* The registry needs an event stream even when the caller brought no
     bus; the daemon's own events are low-rate, so feeding a private bus
     costs nothing measurable and sweep JSON never depends on it. *)
  let ibus = match bus with Some b -> b | None -> Bus.create () in
  let bus = Some ibus in
  let reg = Reg.attach ibus in
  let worker_health : (string, whealth) Hashtbl.t = Hashtbl.create 8 in
  Bus.attach ibus ~name:"serve-health" (fun ~at:_ ev ->
      let wh worker =
        match Hashtbl.find_opt worker_health worker with
        | Some w -> w
        | None ->
          let w = { wh_state = "up"; wh_inflight = 0; wh_reason = "" } in
          Hashtbl.replace worker_health worker w;
          w
      in
      match ev with
      | Event.Worker_up { worker } ->
        let w = wh worker in
        w.wh_state <- "up";
        w.wh_reason <- ""
      | Event.Worker_lost { worker; reason } ->
        let w = wh worker in
        w.wh_state <- "lost";
        w.wh_reason <- reason;
        w.wh_inflight <- 0
      | Event.Dispatch_inflight { worker; in_flight } ->
        (wh worker).wh_inflight <- in_flight
      | _ -> ());
  let log fmt =
    Printf.ksprintf
      (fun s ->
        if not quiet then begin
          print_string s;
          print_newline ();
          flush stdout
        end)
      fmt
  in
  let lib = Library.create ?bus ?max_bytes ~dir:library () in
  (* The library is a cache: an artifact that cannot be written (a
     directory in its place, a full disk) is logged and recomputed next
     time, never fatal to the daemon. *)
  let persist what write =
    try write () with Sys_error msg -> log "could not store %s: %s" what msg
  in
  let store = Library.store lib in
  let backend =
    match workers with
    | [] -> Sweep.Backend.local ?bus ~store ~jobs ()
    | ws ->
      Darco_dispatch.remote ?bus ~fallback_jobs:jobs ~store ?keepalive_idle
        ?keepalive_misses ~timeout:dispatch_timeout ~retries:dispatch_retries
        ws
  in
  (* --- service state --------------------------------------------------- *)
  let clients = ref [] in
  let subs = ref [] in (* active submissions, oldest first (fair share) *)
  let pending : (string, pend) Hashtbl.t = Hashtbl.create 64 in
  let next_seq = ref 0 in
  let submitted = ref 0 in
  let completed = ref 0 in
  let hits_total = ref 0 in
  let dispatched_total = ref 0 in
  (* Scheduling-state gauges, recomputed at each quiescent instant (a
     scrape, a dump).  These are direct service gauges — unlike the
     event-fed counters they describe queue state that only the
     scheduler knows (DESIGN.md §7). *)
  let g_unsettled = Reg.gauge reg "serve_windows_unsettled"
  and g_active = Reg.gauge reg "serve_campaigns_active"
  and g_queue = Reg.gauge reg "serve_queue_depth"
  and g_pending = Reg.gauge reg "serve_windows_pending"
  and g_clients = Reg.gauge reg "serve_clients_connected"
  and g_uptime = Reg.gauge reg "serve_uptime_seconds" in
  let update_service_gauges () =
    let unsettled =
      List.fold_left
        (fun acc s -> acc + (Array.length s.sb_slots - s.sb_done - s.sb_skipped))
        0 !subs
    and queue =
      List.fold_left (fun acc s -> acc + Queue.length s.sb_todo) 0 !subs
    in
    Reg.set g_unsettled unsettled;
    Reg.set g_active (List.length !subs);
    Reg.set g_queue queue;
    Reg.set g_pending (Hashtbl.length pending);
    Reg.set g_clients (List.length !clients);
    Reg.set g_uptime (uptime_s ())
  in
  let metrics_text () =
    update_service_gauges ();
    Reg.exposition (Reg.snapshot reg)
  in
  (* write-then-rename: a scraper never reads a torn exposition *)
  let dump_metrics path = B.write_file path (metrics_text ()) in
  let next_dump = ref 0.0 in
  let send_to c msg =
    if c.c_alive then
      try Wire.send ~deadline:(Unix.gettimeofday () +. 30.0) c.c_fd msg
      with Wire.Closed | Wire.Timeout | Unix.Unix_error _ -> c.c_alive <- false
  in
  (* v5 clients learn the daemon's uptime and build from every STAT; to
     older clients the fields stay default so the frame bytes are
     exactly the v4 encoding *)
  let status_extra c =
    if c.c_ver >= 5 then (uptime_s (), Version.string) else (0, "")
  in
  let outcome_of_text text =
    match Jsonx.parse text with
    | json -> Sweep.Ok json
    | exception Jsonx.Parse_error msg ->
      Sweep.Failed ("library artifact unreadable: " ^ msg)
  in
  let ipc_of_outcome = function
    | Sweep.Failed _ -> None
    | Sweep.Ok json -> (
      match Jsonx.member "ipc" json with
      | Some (Jsonx.Float f) -> Some f
      | Some (Jsonx.Int i) -> Some (float_of_int i)
      | _ -> None)
  in
  let finalize sub =
    let spec = sub.sb_spec in
    let rows = ref [] in
    Array.iteri
      (fun i s ->
        let row outcome =
          rows :=
            ( sub.sb_offsets.(i),
              { Sweep.label = sub.sb_works.(i).Work.label; outcome } )
            :: !rows
        in
        match s with
        | Settled o -> row o
        | Skipped -> ()
        | Waiting ->
          (* unreachable for a planned submission (every slot is settled
             or skipped before finalize); for an exhaustive one it keeps
             the historical "not run" rendering *)
          if Option.is_none sub.sb_plan then row (Sweep.Failed "not run"))
      sub.sb_slots;
    let rows = List.rev !rows in
    let plan_summary =
      Option.map
        (fun pl ->
          {
            Report.plan_name = "adaptive";
            windows_used = sub.sb_done;
            ci_target = Option.value ~default:0.0 spec.Campaign.ci_target;
            ci_target_met = Plan.ci_target_met pl;
            rounds = Plan.rounds pl;
          })
        sub.sb_plan
    in
    let rep =
      Report.sweep_json ~benchmark:spec.Campaign.bench
        ~seed:spec.Campaign.seed ~interval:spec.Campaign.interval
        ~window:spec.Campaign.window ~warmup:spec.Campaign.warmup
        ?plan:plan_summary rows
    in
    let uptime_s, version = status_extra sub.sb_client in
    send_to sub.sb_client
      (Wire.Status
         {
           id = sub.sb_id;
           state = "done";
           done_ = sub.sb_done;
           total = Array.length sub.sb_slots;
           hits = sub.sb_hits;
           dispatched = sub.sb_dispatched;
           uptime_s;
           version;
         });
    send_to sub.sb_client
      (Wire.Done { id = sub.sb_id; json = Jsonx.to_string rep.Report.doc });
    span bus
      (Span.end_ ~ok:(not rep.Report.failed) ~span:"submission"
         ~corr:(span_corr_base + sub.sb_seq) ~host:"serve" ());
    incr completed;
    subs := List.filter (fun s -> s != sub) !subs;
    log "submission #%d (%s): %d windows, %d hits, %d dispatched" sub.sb_seq
      (Campaign.describe spec) (Array.length sub.sb_slots) sub.sb_hits
      sub.sb_dispatched
  in
  let maybe_finalize sub =
    if sub.sb_done + sub.sb_skipped = Array.length sub.sb_slots then
      finalize sub
  in
  let settle_slot ?(inflight = false) sub i outcome =
    match sub.sb_slots.(i) with
    | Settled _ | Skipped -> ()
    | Waiting ->
      sub.sb_slots.(i) <- Settled outcome;
      sub.sb_done <- sub.sb_done + 1;
      if inflight then sub.sb_inflight <- sub.sb_inflight - 1;
      (* a planned submission folds every measurement — admission hit or
         dispatched window — into its planner's running CI *)
      Option.iter
        (fun pl ->
          match ipc_of_outcome outcome with
          | Some ipc -> Plan.record pl [ (sub.sb_offsets.(i), ipc) ]
          | None -> ())
        sub.sb_plan;
      maybe_finalize sub
  in
  (* Early exit for a planned submission: every unmeasured window is
     skipped and its pend registrations dropped.  A queued pend that
     other submissions still wait on is re-homed onto one of them (the
     dispatch responsibility travels with the queue entry), so nobody
     waits on a round this submission will never run. *)
  let cancel sub =
    Queue.iter
      (fun i ->
        match Hashtbl.find_opt pending (Library.key_id sub.sb_keys.(i)) with
        | Some p -> (
          match List.filter (fun (s, _) -> s != sub) p.p_waiters with
          | (osub, oi) :: _ -> Queue.push oi osub.sb_todo
          | [] -> ())
        | None -> ())
      sub.sb_todo;
    Queue.clear sub.sb_todo;
    Array.iteri
      (fun i s ->
        match s with
        | Settled _ | Skipped -> ()
        | Waiting ->
          let kid = Library.key_id sub.sb_keys.(i) in
          (match Hashtbl.find_opt pending kid with
          | Some p -> (
            p.p_waiters <- List.filter (fun (s, _) -> s != sub) p.p_waiters;
            match p.p_waiters with
            | [] -> Hashtbl.remove pending kid
            | _ -> ())
          | None -> ());
          sub.sb_slots.(i) <- Skipped;
          sub.sb_skipped <- sub.sb_skipped + 1)
      sub.sb_slots;
    maybe_finalize sub
  in
  (* The sweep's checkpoint set as [(at, digest)] pairs: restored from
     the library when a prior campaign stored it (skipping the functional
     fast-forward entirely), regenerated — and stored for the next
     campaign — otherwise.  Either way every snapshot is encoded once, by
     the fast-forward that made it, and decoded only where a window runs
     or the planner asks for its phase (DESIGN.md §12). *)
  let obtain_checkpoints (spec : Campaign.t) (entry : Registry.entry) ckd =
    let bench = spec.Campaign.bench in
    let fast_forward () =
      let program = entry.Registry.build ~scale:spec.Campaign.scale () in
      let cps =
        Driver.functional_checkpoints ?input:spec.Campaign.input
          ~seed:spec.Campaign.seed ~interval:spec.Campaign.interval
          ~horizon:spec.Campaign.horizon program
      in
      let total = ref 0 in
      (* pinned while the set is being added, so a tight byte budget cannot
         evict its first snapshots to make room for its last *)
      let entries =
        List.map
          (fun (c : Driver.checkpoint) ->
            let bytes = Snapshot.to_string c.Driver.snapshot in
            total := !total + String.length bytes;
            let d = Store.add store bytes in
            Store.pin store d;
            (c.Driver.at, d))
          cps
      in
      List.iter (fun (_, d) -> Store.unpin store d) entries;
      let key = checkpoint_set_key bench ckd in
      persist key (fun () ->
          Library.put_checkpoints lib ~bench ~ckpt:ckd entries;
          emit bus (Event.Artifact_store { key; bytes = !total }));
      entries
    in
    match Library.find_checkpoints lib ~bench ~ckpt:ckd with
    | Some pairs ->
      emit bus (Event.Artifact_hit { key = checkpoint_set_key bench ckd });
      log "restored %d checkpoints for %s from the library" (List.length pairs)
        bench;
      pairs
    | None -> fast_forward ()
    | exception B.Corrupt msg ->
      log "checkpoint index for %s unreadable (%s); regenerating" bench msg;
      fast_forward ()
  in
  (* A window's library key: its snapshot is the nearest checkpoint of
     the set (sorted [(at, digest)] pairs) to where its warm-up starts. *)
  let window_key (spec : Campaign.t) ix offset =
    let warmup = spec.Campaign.warmup in
    {
      Library.bench = spec.Campaign.bench;
      cfg = Campaign.config_digest spec;
      snap = snd (Driver.nearest_at ix (Driver.window_start ~offset ~warmup));
      offset;
      window = spec.Campaign.window;
      warmup;
    }
  in
  let admit c id sweep_str =
    match
      let spec0 = Campaign.of_string sweep_str in
      (spec0, Registry.find spec0.Campaign.bench)
    with
    | exception B.Corrupt msg ->
      send_to c (Wire.Fail { id; reason = "bad campaign: " ^ msg })
    | exception Not_found ->
      send_to c (Wire.Fail { id; reason = "unknown benchmark" })
    | spec0, entry ->
      let spec =
        Campaign.normalize { spec0 with Campaign.bench = entry.Registry.name }
      in
      if spec.Campaign.offsets = [] then
        send_to c (Wire.Fail { id; reason = "campaign has no sample offsets" })
      else begin
        let seq = !next_seq in
        incr next_seq;
        incr submitted;
        let offsets = Array.of_list spec.Campaign.offsets in
        let n = Array.length offsets in
        emit bus
          (Event.Submit
             {
               client = c.c_peer;
               submission = seq;
               benchmark = spec.Campaign.bench;
               units = n;
             });
        span bus
          (Span.begin_ ~detail:(Campaign.describe spec) ~span:"submission"
             ~corr:(span_corr_base + seq) ~host:"serve" ());
        log "submission #%d from %s: %s" seq c.c_peer (Campaign.describe spec);
        let ckd = Campaign.ckpt_digest spec in
        let ix = Driver.sort_by_at fst (obtain_checkpoints spec entry ckd) in
        let keys = Array.map (window_key spec ix) offsets in
        let works =
          Array.map
            (fun (k : Library.key) ->
              Work.of_digest ~digest:k.snap
                ~label:(Printf.sprintf "%s@%d" k.bench k.offset)
                ~offset:k.offset ~window:k.window ~warmup:k.warmup)
            keys
        in
        let planned = Option.is_some spec.Campaign.ci_target in
        let sub =
          {
            sb_seq = seq;
            sb_id = id;
            sb_client = c;
            sb_spec = spec;
            sb_offsets = offsets;
            sb_works = works;
            sb_keys = keys;
            sb_slots = Array.make n Waiting;
            sb_todo = Queue.create ();
            sb_done = 0;
            sb_hits = 0;
            sb_dispatched = 0;
            sb_plan = None;
            sb_inflight = 0;
            sb_skipped = 0;
          }
        in
        subs := !subs @ [ sub ];
        (* classify every window first — the admission Status must carry
           the full hit/dispatch split before any settlement can finish
           the submission.  A planned submission leaves its misses as
           [`Cand]idates: the planner — not admission — decides which of
           them to dispatch, round by round. *)
        let actions =
          Array.init n (fun i ->
              let k = keys.(i) in
              match
                try Library.find_window lib k with B.Corrupt _ -> None
              with
              | Some text -> `Hit text
              | None -> (
                let kid = Library.key_id k in
                match Hashtbl.find_opt pending kid with
                | Some p ->
                  p.p_waiters <- (sub, i) :: p.p_waiters;
                  if planned then sub.sb_inflight <- sub.sb_inflight + 1;
                  `Join
                | None ->
                  if planned then `Cand
                  else begin
                    Hashtbl.replace pending kid
                      { p_key = k; p_work = works.(i); p_waiters = [ (sub, i) ] };
                    Queue.push i sub.sb_todo;
                    `New
                  end))
        in
        Array.iter
          (function
            | `Hit _ | `Join ->
              sub.sb_hits <- sub.sb_hits + 1;
              incr hits_total
            | `New ->
              sub.sb_dispatched <- sub.sb_dispatched + 1;
              incr dispatched_total
            | `Cand -> ())
          actions;
        (match spec.Campaign.ci_target with
        | None -> ()
        | Some ci ->
          let candidates = ref [] in
          Array.iteri
            (fun i a -> if a = `Cand then candidates := offsets.(i) :: !candidates)
            actions;
          (* the stratum of a window is the program phase — the guest PC —
             at its nearest checkpoint, exactly the CLI planner's marker;
             each checkpoint asked about is decoded once *)
          let phases = Hashtbl.create 16 in
          let phase_of off =
            let d = snd (Driver.nearest_at ix off) in
            match Hashtbl.find_opt phases d with
            | Some eip -> eip
            | None ->
              (* resolved by [obtain_checkpoints] just now, and nothing
                 has been added to the store since *)
              let bytes = Option.get (Store.find store d) in
              let eip = Snapshot.guest_eip (Snapshot.of_string bytes) in
              Hashtbl.replace phases d eip;
              eip
          in
          sub.sb_plan <-
            Some
              (Plan.create ?bus
                 {
                   Plan.default with
                   Plan.kind = Plan.Adaptive;
                   ci_target = ci;
                   round_size = credit;
                 }
                 ~candidates:(List.rev !candidates) ~phase_of));
        let uptime_s, version = status_extra c in
        send_to c
          (Wire.Status
             {
               id;
               state = "running";
               done_ = 0;
               total = n;
               hits = sub.sb_hits;
               dispatched = sub.sb_dispatched;
               uptime_s;
               version;
             });
        Array.iteri
          (fun i action ->
            match action with
            | `Hit text ->
              emit bus (Event.Artifact_hit { key = Library.render keys.(i) });
              send_to c
                (Wire.Artifact
                   { id; key = Library.render keys.(i); json = text });
              settle_slot sub i (outcome_of_text text)
            | `Join | `New | `Cand -> ())
          actions
      end
  in
  let handle_status c id =
    let uptime_s, version = status_extra c in
    if id = -1 then
      send_to c
        (Wire.Status
           {
             id = -1;
             state = "serving";
             done_ = !completed;
             total = !submitted;
             hits = !hits_total;
             dispatched = !dispatched_total;
             uptime_s;
             version;
           })
    else
      match
        List.find_opt (fun s -> s.sb_id = id && s.sb_client == c) !subs
      with
      | Some s ->
        send_to c
          (Wire.Status
             {
               id;
               state = "running";
               done_ = s.sb_done;
               total = Array.length s.sb_slots;
               hits = s.sb_hits;
               dispatched = s.sb_dispatched;
               uptime_s;
               version;
             })
      | None ->
        send_to c
          (Wire.Status
             { id; state = "unknown"; done_ = 0; total = 0; hits = 0;
               dispatched = 0; uptime_s; version })
  in
  (* A fetch resolves one window from the library without submitting: it
     needs the campaign's checkpoint set (to know which snapshot the
     window starts from) but never runs anything. *)
  let handle_fetch c offset spec_str =
    match
      let spec0 = Campaign.of_string spec_str in
      let entry = Registry.find spec0.Campaign.bench in
      Campaign.normalize { spec0 with Campaign.bench = entry.Registry.name }
    with
    | exception B.Corrupt msg ->
      send_to c (Wire.Fail { id = offset; reason = "bad campaign: " ^ msg })
    | exception Not_found ->
      send_to c (Wire.Fail { id = offset; reason = "unknown benchmark" })
    | spec -> (
      let miss key =
        send_to c (Wire.Artifact { id = offset; key; json = "" })
      in
      let ckd = Campaign.ckpt_digest spec in
      match
        try Library.find_checkpoints lib ~bench:spec.Campaign.bench ~ckpt:ckd
        with B.Corrupt _ -> None
      with
      | None -> miss ""
      | Some pairs -> (
        let k = window_key spec (Driver.sort_by_at fst pairs) offset in
        match try Library.find_window lib k with B.Corrupt _ -> None with
        | Some text ->
          emit bus (Event.Artifact_hit { key = Library.render k });
          send_to c
            (Wire.Artifact { id = offset; key = Library.render k; json = text })
        | None -> miss (Library.render k)))
  in
  (* The HLTH document: everything `darco top` renders.  Worker rows and
     campaign rows are sorted so the document is a deterministic
     function of service state. *)
  let health_json () =
    let workers_json =
      Hashtbl.fold
        (fun addr wh acc ->
          ( addr,
            Jsonx.Obj
              [
                ("addr", Jsonx.String addr);
                ("state", Jsonx.String wh.wh_state);
                ("in_flight", Jsonx.Int wh.wh_inflight);
                ("reason", Jsonx.String wh.wh_reason);
              ] )
          :: acc)
        worker_health []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> List.map snd
    in
    let campaigns =
      List.map
        (fun sub ->
          Jsonx.Obj
            ([
               ("seq", Jsonx.Int sub.sb_seq);
               ("id", Jsonx.Int sub.sb_id);
               ("client", Jsonx.String sub.sb_client.c_peer);
               ("benchmark", Jsonx.String sub.sb_spec.Campaign.bench);
               ("done", Jsonx.Int sub.sb_done);
               ("total", Jsonx.Int (Array.length sub.sb_slots));
               ("hits", Jsonx.Int sub.sb_hits);
               ("dispatched", Jsonx.Int sub.sb_dispatched);
               ("skipped", Jsonx.Int sub.sb_skipped);
               ("in_flight", Jsonx.Int sub.sb_inflight);
               ("queued", Jsonx.Int (Queue.length sub.sb_todo));
             ]
            @
            match sub.sb_plan with
            | None -> []
            | Some pl ->
              [
                ( "plan",
                  Jsonx.Obj
                    [
                      ("rounds", Jsonx.Int (Plan.rounds pl));
                      ("completed", Jsonx.Int (Plan.completed pl));
                      ("mean", Jsonx.Float (Plan.mean pl));
                      ("ci95", Jsonx.Float (Plan.ci95 pl));
                      ( "ci_target",
                        Jsonx.Float
                          (Option.value ~default:0.0
                             sub.sb_spec.Campaign.ci_target) );
                      ("ci_target_met", Jsonx.Bool (Plan.ci_target_met pl));
                    ] );
              ]))
        !subs
    in
    let hits = !hits_total and disp = !dispatched_total in
    let hit_rate =
      if hits + disp = 0 then 0.0
      else float_of_int hits /. float_of_int (hits + disp)
    in
    Jsonx.Obj
      [
        ("state", Jsonx.String "serving");
        ("version", Jsonx.String Version.string);
        ("protocol", Jsonx.Int Wire.protocol_version);
        ("uptime_s", Jsonx.Int (uptime_s ()));
        ("submitted", Jsonx.Int !submitted);
        ("completed", Jsonx.Int !completed);
        ("clients", Jsonx.Int (List.length !clients));
        ("windows_pending", Jsonx.Int (Hashtbl.length pending));
        ( "library",
          Jsonx.Obj
            [
              ("hits_total", Jsonx.Int hits);
              ("dispatched_total", Jsonx.Int disp);
              ("hit_rate", Jsonx.Float hit_rate);
              ("checkpoints", Jsonx.Int (Store.count store));
              ("spilled_bytes", Jsonx.Int (Store.spilled_bytes store));
            ] );
        ("workers", Jsonx.List workers_json);
        ("campaigns", Jsonx.List campaigns);
      ]
  in
  let needs_v5 c what id =
    send_to c
      (Wire.Fail
         {
           id;
           reason =
             Printf.sprintf "%s needs protocol v5; negotiated v%d" what c.c_ver;
         })
  in
  let handle_client c =
    match Wire.recv ~deadline:(Unix.gettimeofday () +. 10.0) c.c_fd with
    | exception (Wire.Closed | Wire.Timeout) -> c.c_alive <- false
    | exception B.Corrupt _ -> c.c_alive <- false
    | exception Unix.Unix_error _ -> c.c_alive <- false
    | Wire.Submit { id; sweep } ->
      if c.c_ver >= 4 then admit c id sweep
      else
        send_to c
          (Wire.Fail
             {
               id;
               reason =
                 Printf.sprintf "submissions need protocol v4; negotiated v%d"
                   c.c_ver;
             })
    | Wire.Status { id; _ } -> handle_status c id
    | Wire.Artifact { id; key; json = _ } -> handle_fetch c id key
    | Wire.Metrics _ ->
      if c.c_ver >= 5 then
        send_to c
          (Wire.Metrics
             {
               json =
                 (update_service_gauges ();
                  Jsonx.to_string (Reg.to_json (Reg.snapshot reg)));
             })
      else needs_v5 c "METR scrapes" (-1)
    | Wire.Health _ ->
      if c.c_ver >= 5 then
        send_to c (Wire.Health { json = Jsonx.to_string (health_json ()) })
      else needs_v5 c "HLTH probes" (-1)
    | Wire.Ping -> send_to c Wire.Pong
    | Wire.Pong -> ()
    | Wire.Hello _ | Wire.Work _ | Wire.Result _ | Wire.Fail _ | Wire.Need _
    | Wire.Ckpt _ | Wire.Done _ ->
      send_to c (Wire.Fail { id = -1; reason = "protocol violation" });
      c.c_alive <- false
  in
  (* --- fair-share scheduling ------------------------------------------- *)
  (* One round: up to [credit] units from every active submission, oldest
     first, run through the backend as a single sweep.  Work lands in the
     library before waiters are notified, so a crash between the two
     loses nothing a resubmission could not recover. *)
  let gather () =
    let batch = ref [] in
    List.iter
      (fun sub ->
        let took = ref 0 in
        while !took < credit && not (Queue.is_empty sub.sb_todo) do
          let i = Queue.pop sub.sb_todo in
          match Hashtbl.find_opt pending (Library.key_id sub.sb_keys.(i)) with
          | Some p ->
            batch := (Library.key_id sub.sb_keys.(i), p) :: !batch;
            incr took
          | None -> ()
        done;
        if !took > 0 then
          emit bus (Event.Admit { submission = sub.sb_seq; units = !took; credit }))
      !subs;
    List.rev !batch
  in
  let round () =
    match gather () with
    | [] -> ()
    | batch ->
      (* the round's checkpoints may not be evicted while units referencing
         them are in flight *)
      let digests =
        List.sort_uniq compare
          (List.filter_map (fun (_, p) -> Work.digest p.p_work) batch)
      in
      List.iter (Store.pin store) digests;
      let results =
        Fun.protect
          ~finally:(fun () -> List.iter (Store.unpin store) digests)
          (fun () -> Sweep.run backend (List.map (fun (_, p) -> p.p_work) batch))
      in
      List.iter2
        (fun (kid, p) (r : Sweep.result) ->
          Hashtbl.remove pending kid;
          let text =
            match r.Sweep.outcome with
            | Sweep.Ok json ->
              let s = Jsonx.to_string json in
              let key = Library.render p.p_key in
              persist key (fun () ->
                  Library.put_window lib p.p_key s;
                  emit bus
                    (Event.Artifact_store { key; bytes = String.length s }));
              s
            | Sweep.Failed _ -> ""
          in
          List.iter
            (fun (sub, i) ->
              send_to sub.sb_client
                (Wire.Artifact
                   { id = sub.sb_id; key = Library.render p.p_key; json = text });
              settle_slot ~inflight:true sub i r.Sweep.outcome)
            (List.rev p.p_waiters))
        batch results
  in
  (* Planned submissions advance between dispatch rounds: once a
     submission has nothing in flight, its planner either picks the next
     round's windows (queuing the ones nobody else is already running)
     or stops, skipping everything unmeasured. *)
  let plan_step () =
    List.iter
      (fun sub ->
        match sub.sb_plan with
        | None -> ()
        | Some pl ->
          if sub.sb_inflight = 0 && Queue.is_empty sub.sb_todo then begin
            match Plan.next pl with
            | [] -> cancel sub
            | chosen ->
              List.iter
                (fun off ->
                  let slot = ref (-1) in
                  Array.iteri
                    (fun i o -> if o = off then slot := i)
                    sub.sb_offsets;
                  let i = !slot in
                  match sub.sb_slots.(i) with
                  | Settled _ | Skipped -> ()
                  | Waiting ->
                    let k = sub.sb_keys.(i) in
                    let kid = Library.key_id k in
                    (match Hashtbl.find_opt pending kid with
                    | Some p -> p.p_waiters <- (sub, i) :: p.p_waiters
                    | None ->
                      Hashtbl.replace pending kid
                        {
                          p_key = k;
                          p_work = sub.sb_works.(i);
                          p_waiters = [ (sub, i) ];
                        };
                      Queue.push i sub.sb_todo;
                      sub.sb_dispatched <- sub.sb_dispatched + 1;
                      incr dispatched_total);
                    sub.sb_inflight <- sub.sb_inflight + 1)
                chosen
          end)
      !subs
  in
  (* --- accept loop ----------------------------------------------------- *)
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lsock Unix.SO_REUSEADDR true;
  Unix.bind lsock
    (Unix.ADDR_INET (Darco_dispatch.Worker.resolve host, port));
  Unix.listen lsock 16;
  Option.iter (fun f -> f (Unix.getsockname lsock)) ready;
  log "serving on %s:%d (library %s, backend %s)" host port library
    backend.Sweep.Backend.name;
  let accept_client () =
    match Unix.accept lsock with
    | exception Unix.Unix_error _ -> ()
    | fd, peer_addr -> (
      let peer =
        match peer_addr with
        | Unix.ADDR_INET (a, p) ->
          Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
        | Unix.ADDR_UNIX p -> p
      in
      match
        Unix.setsockopt fd Unix.TCP_NODELAY true;
        Unix.set_nonblock fd;
        let deadline = Unix.gettimeofday () +. 10.0 in
        match Wire.recv ~deadline fd with
        | Wire.Hello { version; slots = _ } when version >= Wire.min_version
          ->
          let v = min version Wire.protocol_version in
          Wire.send ~deadline fd (Wire.Hello { version = v; slots = 0 });
          v
        | Wire.Hello { version; _ } ->
          Wire.send ~deadline fd
            (Wire.Fail
               {
                 id = -1;
                 reason =
                   Printf.sprintf "protocol version %d too old (need >= %d)"
                     version Wire.min_version;
               });
          raise Exit
        | _ -> raise Exit
      with
      | exception _ -> ( try Unix.close fd with Unix.Unix_error _ -> ())
      | v ->
        clients := { c_fd = fd; c_peer = peer; c_ver = v; c_alive = true }
                   :: !clients;
        log "client %s connected (protocol v%d)" peer v)
  in
  let continue () =
    match max_submissions with Some m -> !completed < m | None -> true
  in
  let have_work () =
    List.exists (fun s -> not (Queue.is_empty s.sb_todo)) !subs
  in
  (* a planned submission with nothing queued or in flight picks its next
     round at the next [plan_step] *)
  let plan_ready () =
    List.exists
      (fun s ->
        Option.is_some s.sb_plan && s.sb_inflight = 0 && Queue.is_empty s.sb_todo)
      !subs
  in
  Fun.protect
    ~finally:(fun () ->
      (* a final dump so short-lived (--max-submissions) daemons leave a
         complete document behind *)
      (match metrics_file with
      | Some path -> ( try dump_metrics path with Sys_error _ -> ())
      | None -> ());
      (try Unix.close lsock with Unix.Unix_error _ -> ());
      List.iter
        (fun c -> try Unix.close c.c_fd with Unix.Unix_error _ -> ())
        !clients)
  @@ fun () ->
  while continue () do
    let cfds =
      List.filter_map (fun c -> if c.c_alive then Some c.c_fd else None)
        !clients
    in
    (* Idle, the select tick paces the loop; with work that can run now,
       only poll, so back-to-back rounds do not wait out a tick. *)
    let tick = if have_work () || plan_ready () then 0.0 else 0.25 in
    let rd, _, _ =
      try Unix.select (lsock :: cfds) [] [] tick
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if List.mem lsock rd then accept_client ();
    List.iter
      (fun c -> if c.c_alive && List.mem c.c_fd rd then handle_client c)
      !clients;
    clients :=
      List.filter
        (fun c ->
          if not c.c_alive then
            (try Unix.close c.c_fd with Unix.Unix_error _ -> ());
          c.c_alive)
        !clients;
    (match metrics_file with
    | Some path when Unix.gettimeofday () >= !next_dump ->
      (* the select tick paces this; write-then-rename keeps it atomic *)
      next_dump := Unix.gettimeofday () +. metrics_interval;
      (try dump_metrics path with Sys_error _ -> ())
    | _ -> ());
    plan_step ();
    if have_work () then round ()
  done

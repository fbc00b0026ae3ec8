module B = Darco_sampling.Buf
module Work = Darco_sampling.Work
module Store = Darco_sampling.Store
module Dpool = Darco_sampling.Dpool
module Jsonx = Darco_obs.Jsonx
module Span = Darco_obs.Span

(* How units execute: on a shared pool of OCaml domains (the default —
   one store image serves every slot, completions arrive via the pool's
   wake fd), or each in a forked child ([--isolate] — a segfaulting or
   OOM-killed unit loses only itself).  The pool outlives connections;
   fork state is per-connection. *)
type engine = Fork | Pool of Jsonx.t Dpool.t

let log quiet fmt =
  Printf.ksprintf
    (fun s -> if not quiet then Printf.printf "[worker] %s\n%!" s)
    fmt

let resolve host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } ->
      invalid_arg (Printf.sprintf "cannot resolve host %S" host)
    | { Unix.h_addr_list; _ } -> h_addr_list.(0)
    | exception Not_found ->
      invalid_arg (Printf.sprintf "cannot resolve host %S" host))

type child = { c_id : int; c_path : string }

(* One connection: a select/waitpid loop multiplexing incoming frames with
   up to [jobs] forked unit executions.  Units whose checkpoint is missing
   from the store park until the dispatcher ships it ([Need] is sent once
   per digest, no matter how many units wait on it).  A malformed frame
   means the byte stream can no longer be trusted, so after a [Fail]
   courtesy reply the connection is dropped — the daemon itself lives on.
   A crashing unit (uncaught exception, fatal signal) fails only itself:
   it runs in its own child process, exactly like the local backend. *)
let serve_connection ~quiet ~ident ~engine ~exec ~jobs ~store fd =
  let runq = Queue.create () in
  let parked : (string, (int * Work.t) Queue.t) Hashtbl.t = Hashtbl.create 4 in
  let running : (int, child) Hashtbl.t = Hashtbl.create jobs in
  let closed = ref false in
  let send msg = try Wire.send fd msg with Wire.Closed -> closed := true in
  (* Per-unit span log (newest first): "queued" covers enqueue-to-fork —
     including any park waiting for a checkpoint push — and "running"
     covers the forked child's lifetime.  The log ships back inside the
     unit's [Result] frame so the dispatcher can merge this machine's
     timeline into its own trace. *)
  let spanlog : (int, Span.t list) Hashtbl.t = Hashtbl.create jobs in
  let log_span id sp =
    Hashtbl.replace spanlog id
      (sp :: Option.value ~default:[] (Hashtbl.find_opt spanlog id))
  in
  let take_spans id =
    let sps = Option.value ~default:[] (Hashtbl.find_opt spanlog id) in
    Hashtbl.remove spanlog id;
    Span.encode_list (List.rev sps)
  in
  let spawn (id, work) =
    log_span id (Span.end_ ~span:"queued" ~corr:id ~host:ident ());
    log_span id (Span.begin_ ~span:"running" ~corr:id ~host:ident ());
    match engine with
    | Pool pool -> Dpool.submit pool ~tag:id (fun () -> exec work)
    | Fork -> (
      let path = Filename.temp_file "darco_worker" ".json" in
      (* flush before forking so buffered output is not emitted twice *)
      flush stdout;
      flush stderr;
      match Unix.fork () with
      | 0 ->
        let code =
          try
            B.write_file path (Jsonx.to_string (exec work));
            0
          with e ->
            (try B.write_file path (Printexc.to_string e) with _ -> ());
            3
        in
        Unix._exit code
      | pid -> Hashtbl.replace running pid { c_id = id; c_path = path })
  in
  let busy () =
    match engine with
    | Pool pool -> Dpool.pending pool
    | Fork -> Hashtbl.length running
  in
  let finish id msg =
    let ok = match msg with Wire.Result _ -> true | _ -> false in
    log_span id (Span.end_ ~ok ~span:"running" ~corr:id ~host:ident ());
    let msg =
      match msg with
      | Wire.Result { id; text; _ } ->
        Wire.Result { id; text; spans = take_spans id }
      | m ->
        (* [Fail] frames carry no span log; drop the unit's record *)
        Hashtbl.remove spanlog id;
        m
    in
    send msg
  in
  let reap_pool pool =
    let rec drain () =
      match Dpool.try_next pool with
      | None -> ()
      | Some (id, res) ->
        (match res with
        | Stdlib.Ok json ->
          finish id (Wire.Result { id; text = Jsonx.to_string json; spans = "" })
        | Stdlib.Error e ->
          finish id (Wire.Fail { id; reason = Printexc.to_string e }));
        drain ()
    in
    drain ()
  in
  let reap_forks () =
    let continue = ref true in
    while !continue && Hashtbl.length running > 0 do
      match Unix.waitpid [ Unix.WNOHANG ] (-1) with
      | 0, _ -> continue := false
      | pid, status -> (
        match Hashtbl.find_opt running pid with
        | None -> () (* not ours; nothing to report *)
        | Some c ->
          Hashtbl.remove running pid;
          let msg =
            match status with
            | Unix.WEXITED 0 -> (
              match B.read_file c.c_path with
              | text -> Wire.Result { id = c.c_id; text; spans = "" }
              | exception Sys_error m ->
                Wire.Fail { id = c.c_id; reason = "result unreadable: " ^ m })
            | Unix.WEXITED 3 ->
              let reason =
                try B.read_file c.c_path with Sys_error _ -> "unit failed"
              in
              Wire.Fail { id = c.c_id; reason }
            | Unix.WEXITED n ->
              Wire.Fail
                { id = c.c_id; reason = Printf.sprintf "unit exited with code %d" n }
            | Unix.WSIGNALED s ->
              Wire.Fail
                { id = c.c_id; reason = Printf.sprintf "unit killed by signal %d" s }
            | Unix.WSTOPPED s ->
              Wire.Fail
                { id = c.c_id; reason = Printf.sprintf "unit stopped by signal %d" s }
          in
          (try Sys.remove c.c_path with Sys_error _ -> ());
          finish c.c_id msg)
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> continue := false
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done
  in
  let reap_ready () =
    match engine with Pool pool -> reap_pool pool | Fork -> reap_forks ()
  in
  let enqueue id (work : Work.t) =
    log_span id
      (Span.begin_ ~detail:work.Work.label ~span:"queued" ~corr:id ~host:ident ());
    match Work.digest work with
    | Some d when not (Store.mem store d) ->
      let q =
        match Hashtbl.find_opt parked d with
        | Some q -> q
        | None ->
          let q = Queue.create () in
          Hashtbl.replace parked d q;
          log quiet "missing checkpoint %s; requesting it" d;
          send (Wire.Need { digest = d });
          q
      in
      Queue.push (id, work) q
    | _ -> Queue.push (id, work) runq
  in
  let handle = function
    | Wire.Hello { version = v; slots = _ } when v >= Wire.min_version ->
      (* negotiate downward: speak the older of the two versions (the
         worker conversation is identical across the accepted range) *)
      send
        (Wire.Hello { version = min v Wire.protocol_version; slots = jobs })
    | Wire.Hello { version = v; _ } ->
      log quiet "rejecting protocol version %d (speaking %d)" v
        Wire.protocol_version;
      send
        (Wire.Fail
           {
             id = -1;
             reason =
               Printf.sprintf
                 "protocol version mismatch: worker speaks %d, got %d"
                 Wire.protocol_version v;
           });
      closed := true
    | Wire.Ping -> send Wire.Pong
    | Wire.Work { id; unit_ } -> (
      match Work.of_string unit_ with
      | work ->
        log quiet "unit %d: %s (offset %d, window %d, warmup %d)" id work.label
          work.offset work.window work.warmup;
        enqueue id work
      | exception B.Corrupt m ->
        log quiet "rejecting malformed work unit: %s" m;
        send (Wire.Fail { id; reason = "malformed work unit: " ^ m }))
    | Wire.Ckpt { digest; bytes } -> (
      ignore (Store.add store bytes);
      log quiet "checkpoint %s cached (%d bytes)" digest (String.length bytes);
      match Hashtbl.find_opt parked digest with
      | None -> ()
      | Some q ->
        Hashtbl.remove parked digest;
        Queue.transfer q runq)
    | Wire.Pong | Wire.Result _ | Wire.Fail _ | Wire.Need _ | Wire.Submit _
    | Wire.Status _ | Wire.Artifact _ | Wire.Done _ | Wire.Metrics _
    | Wire.Health _ ->
      send (Wire.Fail { id = -1; reason = "unexpected message; closing connection" });
      closed := true
  in
  while not !closed do
    while (not (Queue.is_empty runq)) && busy () < jobs do
      spawn (Queue.pop runq)
    done;
    (* the domain pool wakes us through its pipe, so its select blocks
       indefinitely; forked children have no fd, so poll while any run *)
    let extra_fds, timeout =
      match engine with
      | Pool pool -> ([ Dpool.wake_fd pool ], -1.0)
      | Fork -> ([], if Hashtbl.length running > 0 then 0.05 else -1.0)
    in
    let readable =
      match Unix.select (fd :: extra_fds) [] [] timeout with
      | r, _, _ -> List.mem fd r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
    in
    if readable then begin
      match Wire.recv fd with
      | msg -> handle msg
      | exception Wire.Closed -> closed := true
      | exception B.Corrupt m ->
        log quiet "malformed frame (%s); dropping connection" m;
        (try Wire.send fd (Wire.Fail { id = -1; reason = "malformed frame: " ^ m })
         with Wire.Closed -> ());
        closed := true
    end;
    reap_ready ()
  done;
  (* the dispatcher is gone: in-flight units are orphans, reclaim them *)
  (match engine with
  | Fork ->
    Hashtbl.iter
      (fun pid _ -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
      running;
    Hashtbl.iter
      (fun pid c ->
        (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
        try Sys.remove c.c_path with Sys_error _ -> ())
      running
  | Pool pool ->
    (* domains cannot be killed: let in-flight units run out and discard
       their results, so the pool is clean for the next connection *)
    while Dpool.pending pool > 0 do
      ignore (Dpool.await pool)
    done);
  try Unix.close fd with Unix.Unix_error _ -> ()

let serve ?(quiet = false) ?(isolate = false) ?exec ?ready ?(jobs = 1)
    ?store_dir ~host ~port () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let jobs = max 1 jobs in
  (* forked children never touch the image after exec starts, so give the
     isolating engine the off-heap tier: one physical copy feeds them all *)
  let tier = if isolate then Store.Shared else Store.Heap in
  let store = Store.create ?dir:store_dir ~tier () in
  let exec =
    match exec with Some f -> f | None -> fun w -> Work.exec ~store w
  in
  let engine = if isolate then Fork else Pool (Dpool.create ~jobs ()) in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (resolve host, port));
  Unix.listen sock 16;
  Option.iter (fun f -> f (Unix.getsockname sock)) ready;
  (* span host identity: the bound address with the kernel-assigned port
     (the caller may have passed port 0) *)
  let ident =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> Printf.sprintf "worker:%s:%d" host p
    | _ -> Printf.sprintf "worker:%s:%d" host port
  in
  log quiet "listening on %s:%d (protocol v%d, %d %s slot%s%s)" host port
    Wire.protocol_version jobs
    (if isolate then "forked" else "domain")
    (if jobs = 1 then "" else "s")
    (match engine with
    | Pool p when Dpool.size p < jobs ->
      Printf.sprintf ", %d domain%s" (Dpool.size p)
        (if Dpool.size p = 1 then "" else "s")
    | Pool _ | Fork -> "");
  let rec accept_loop () =
    match Unix.accept sock with
    | fd, peer ->
      (* small request/reply frames: never wait out the peer's delayed ACK *)
      (try Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ -> ());
      log quiet "connection from %s"
        (match peer with
        | Unix.ADDR_INET (a, p) ->
          Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
        | Unix.ADDR_UNIX p -> p);
      serve_connection ~quiet ~ident ~engine ~exec ~jobs ~store fd;
      accept_loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
  in
  accept_loop ()

(* The benchmark's load generator.  One process runs one workload (hot,
   cold or sweep) for a fixed measuring time, checks every output, and
   prints one JSON result line last.  run.py builds it, starts it in a
   fresh process per workload and adds the process tree's peak memory.

     gen.exe WORKLOAD --seed N --seconds S --trace 0|1 --out DIR

   --trace 0 measures the end-to-end metrics with span recording off;
   --trace 1 records spans around every layer call (see spans.ml) and
   prints the per-layer metrics instead.  Kernel seeds, sweep offsets and
   the seeds of the distinct cold campaigns all derive from --seed. *)

module Registry = Darco_workloads.Registry
module Controller = Darco.Controller
module Config = Darco.Config
module Stats = Darco.Stats
module Pipeline = Darco_timing.Pipeline
module Model = Darco_power.Model
module Interp_ref = Darco_guest.Interp_ref
module Bus = Darco_obs.Bus
module Jsonx = Darco_obs.Jsonx
module Snapshot = Darco_sampling.Snapshot
module Store = Darco_sampling.Store
module Driver = Darco_sampling.Driver
module Work = Darco_sampling.Work
module Sweep = Darco_sampling.Sweep
module Report = Darco_sampling.Report
module Campaign = Darco_serve.Campaign
module Library = Darco_serve.Library
module Client = Darco_serve.Client
module Wire = Darco_dispatch.Wire
module Rng = Darco_util.Rng
module Rss = Darco_util.Rss

let span = Spans.span
let now_ns = Spans.now_ns

(* --- workloads ---------------------------------------------------------- *)

type workload = {
  wname : string;
  kernels : (string * int) list;  (* registry name, hot-phase scale *)
  sweep_kernel : string * int;
  windows : int;  (* measurement windows per campaign *)
}

(* Every workload drives all three paths - functional runs, timed runs,
   and sampled sweeps through the fork pool and the campaign service - on
   its own kernels, so every end-to-end metric exists on every workload;
   the kernels decide which layers dominate.  BENCHMARK.json and
   README.md give the reason for each choice. *)
let workloads =
  [
    {
      wname = "hot";
      kernels = [ ("429.mcf", 2); ("462.libquantum", 2); ("410.bwaves", 2) ];
      sweep_kernel = ("429.mcf", 2);
      windows = 4;
    };
    {
      wname = "cold";
      kernels =
        List.map
          (fun k -> (k, 1))
          [
            "breakable"; "continuous"; "deformable"; "explosions"; "highspeed";
            "periodic"; "ragdoll"; "403.gcc"; "471.omnetpp";
          ];
      sweep_kernel = ("deformable", 1);
      windows = 4;
    };
    {
      wname = "sweep";
      kernels = [ ("482.sphinx3", 1) ];
      sweep_kernel = ("482.sphinx3", 1);
      windows = 6;
    };
  ]

(* sampling geometry: [darco sample]'s defaults *)
let window = 25_000
let warmup = 30_000
let interval = 50_000

(* cold campaigns per run: the sample one plus distinct-seed ones *)
let campaigns = 12
let setup_reps = 21

(* >= 100 so that at least 10 samples lie beyond the p90 *)
let resubmits = 100

(* --- accounting --------------------------------------------------------- *)

let attempted = ref 0
let failed = ref 0

let op ok what =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.printf "FAILED: %s\n%!" what
  end

let digest s = Digest.to_hex (Digest.string s)

(* Simulated-result fingerprints, in first-seen order.  A later run of the
   same item producing different bytes is a failed operation. *)
let fingerprints : (string * string) list ref = ref []

let fingerprint key text =
  let d = digest text in
  match List.assoc_opt key !fingerprints with
  | None ->
    fingerprints := (key, d) :: !fingerprints;
    true
  | Some d0 -> String.equal d d0

let summary_json (s : Pipeline.summary) =
  Jsonx.to_string
    (Jsonx.Obj
       [
         ("instructions", Jsonx.Int s.instructions);
         ("cycles", Jsonx.Int s.cycles);
         ("ipc", Jsonx.Float s.ipc);
         ("branch_accuracy", Jsonx.Float s.branch_accuracy);
         ("il1_miss_rate", Jsonx.Float s.il1_miss_rate);
         ("dl1_miss_rate", Jsonx.Float s.dl1_miss_rate);
         ("l2_miss_rate", Jsonx.Float s.l2_miss_rate);
         ("itlb_miss_rate", Jsonx.Float s.itlb_miss_rate);
         ("dtlb_miss_rate", Jsonx.Float s.dtlb_miss_rate);
         ("mispredicts", Jsonx.Int s.mispredicts);
         ("prefetches", Jsonx.Int s.prefetches);
       ])

(* --- statistics --------------------------------------------------------- *)

let sorted xs = List.sort compare xs

(* nearest-rank percentile *)
let pct p xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let n = List.length s in
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    List.nth s (max 0 (min (n - 1) (rank - 1)))

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let n = List.length s in
    if n mod 2 = 1 then List.nth s (n / 2)
    else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let fl = List.map float_of_int

(* --- host-speed calibration ---------------------------------------------- *)

(* Shared hosts swing in speed by up to 2x over seconds, and CPU time
   swings with wall time, so the slowdown is in execution, not in waiting.
   A fixed integer loop timed right before and right after a sample slows
   by the same factor: each CPU-bound sample is reported scaled to a
   reference host that runs the loop in [cal_ref_ns].  The loop is the
   benchmark's own code, identical on every commit compared. *)
let cal_iters = 5_000_000
let cal_ref_ns = 5e6

let cal_loop () =
  span "calibrate" @@ fun () ->
  let t0 = now_ns () in
  let x = ref 0 in
  for i = 1 to cal_iters do
    x := !x lxor (i * 7)
  done;
  ignore (Sys.opaque_identity !x);
  now_ns () - t0

(* The loop in [jobs] forked children at once, timed until the last one
   exits: the yardstick for samples that keep every core busy (fork-pool
   sweeps, the daemon's workers), which the generator's own core alone
   does not reflect. *)
let cal_par jobs () =
  span "calibrate" @@ fun () ->
  flush_all ();
  let t0 = now_ns () in
  let pids =
    List.init jobs (fun _ ->
        match Unix.fork () with
        | 0 ->
          ignore (cal_loop ());
          Unix._exit 0
        | pid -> pid)
  in
  let rec reap pid =
    try ignore (Unix.waitpid [] pid) with Unix.Unix_error (Unix.EINTR, _, _) -> reap pid
  in
  List.iter reap pids;
  now_ns () - t0

(* [raw]: measured ns; [norm]: the same scaled to the reference host by
   the yardstick times just before and just after (nan uncalibrated) *)
type timing = { raw : int; norm : float }

let scaled raw c0 c1 =
  if c0 = 0 || c1 = 0 then nan
  else float_of_int raw *. cal_ref_ns *. 2. /. float_of_int (c0 + c1)

let measure ?(cal = Some cal_loop) f =
  let loop () = match cal with Some c -> c () | None -> 0 in
  let c0 = loop () in
  let t0 = now_ns () in
  let v = f () in
  let raw = now_ns () - t0 in
  (v, { raw; norm = scaled raw c0 (loop ()) })

let norm t = t.norm

(* --- kernels ------------------------------------------------------------ *)

type kernel = {
  entry : Registry.entry;
  scale : int;
  kseed : int;
  mutable program : Darco_guest.Program.t option;
}

let program k = Option.get k.program
let key k = Printf.sprintf "%s x%d" k.entry.name k.scale

let build k =
  k.program <- Some (span "Registry.build" (fun () -> k.entry.build ~scale:k.scale ()))

type run = { insns : int; t : timing; stats : Stats.t }

(* Guest instructions per timed slice: about 0.1 s of host time either
   way.  Resuming [Controller.run] at a slice limit continues the same
   run; the final statistics are identical to an uninterrupted run's. *)
let functional_slice = 500_000
let timed_slice = 100_000

(* Run the co-designed component to the end on a fresh controller (empty
   code cache), timing [Controller.run] alone, slice by slice, with the
   yardstick between slices: a run of a second or more would otherwise
   span several host-speed changes. *)
let run_ctl ?(cfg = Config.default) ?bus ?(slice = functional_slice) k =
  let ctl =
    span "Controller.create" (fun () ->
        Controller.create ~cfg ?bus ~seed:k.kseed (program k))
  in
  let rec go n c0 raw norm =
    let t0 = now_ns () in
    let r = span "Controller.run" (fun () -> Controller.run ~max_insns:(n * slice) ctl) in
    let dt = now_ns () - t0 in
    let c1 = cal_loop () in
    let raw = raw + dt and norm = norm +. scaled dt c0 c1 in
    match r with `Limit -> go (n + 1) c1 raw norm | r -> (r, { raw; norm })
  in
  let r, t = go 1 (cal_loop ()) 0 0. in
  op (r = `Done) (key k ^ " run diverged or stopped early");
  let stats = Controller.stats ctl in
  { insns = Stats.guest_total stats; t; stats }

let functional k =
  span "functional" @@ fun () ->
  let r = run_ctl k in
  op
    (fingerprint (key k ^ " functional") (Darco_obs.Metrics.to_string r.stats))
    (key k ^ " functional stats changed between runs");
  r

(* Pipeline (modelled caches empty) on the retire stream, Model over its
   events.  [steps], when given, counts Pipeline.step calls from a
   bench-side wrapper instead of Pipeline.attach. *)
let timed ?steps k =
  span "timed" @@ fun () ->
  let pipe =
    span "Pipeline.create" (fun () -> Pipeline.create Darco_timing.Tconfig.default)
  in
  let bus = Bus.create () in
  (match steps with
  | None -> Pipeline.attach pipe bus
  | Some n ->
    Bus.on_retire bus (fun ri ->
        incr n;
        Pipeline.step pipe ri));
  let r = run_ctl ~bus ~slice:timed_slice k in
  let s = span "Pipeline.summary" (fun () -> Pipeline.summary pipe) in
  ignore (span "Model.evaluate" (fun () -> Model.evaluate (Pipeline.events pipe)));
  op
    (fingerprint (key k ^ " timed")
       (Darco_obs.Metrics.to_string r.stats ^ summary_json s))
    (key k ^ " timed stats or pipeline summary changed between runs");
  (r, s)

(* --- campaigns and the sample-equivalent sweep --------------------------- *)

type campaign = {
  cseed : int;
  offsets : int list;
  spec : Campaign.t;  (* what the service is sent *)
  mutable local_doc : string option;  (* the sample-equivalent document *)
  mutable cold_doc : string option;  (* what its cold submit returned *)
}

let horizon c = c.spec.Campaign.horizon

(* [n] windows at fixed positions over [warmup + interval, guest_len -
   window], each shifted by up to [jitter] instructions by the run's
   generator; every campaign fast-forwards to the halt.  The seed changes the
   windows, not the amount of work.  Every window ends before the guest
   halts; [check_rows] still verifies that for every window it ran. *)
let jitter = 10_000

let make_campaign rng ~bench ~scale ~guest_len ~n cseed =
  let lo = warmup + interval and hi = guest_len - window - jitter in
  let step = (hi - lo) / n in
  if step < jitter then failwith (bench ^ " is too short for the sweep geometry");
  let offsets = List.init n (fun i -> lo + (i * step) + Rng.int rng jitter) in
  let spec =
    Campaign.normalize
      {
        Campaign.bench;
        scale;
        seed = cseed;
        input = None;
        interval;
        horizon = guest_len;
        offsets;
        window;
        warmup;
        ci_target = None;
      }
  in
  { cseed; offsets; spec; local_doc = None; cold_doc = None }

let num j =
  match j with
  | Some (Jsonx.Float f) -> f
  | Some (Jsonx.Int i) -> float_of_int i
  | _ -> 0.0

(* A Failed window, or one that retired nothing or ran past the guest's
   halt (it would come back ok with IPC 0 and be averaged in), is a
   failed operation. *)
let check_rows ~what ~guest_len rows =
  List.iter
    (fun (off, (r : Sweep.result)) ->
      let ok =
        match r.Sweep.outcome with
        | Sweep.Failed _ -> false
        | Sweep.Ok j ->
          num (Jsonx.member "ipc" j) > 0.0
          && num (Jsonx.member "instructions" j) > 0.0
          && off + window <= guest_len
      in
      op ok (Printf.sprintf "%s %s failed or ran past the halt" what r.Sweep.label))
    rows

let units ~store ~checkpoints ~name c =
  List.map
    (fun off ->
      Work.of_window_stored ~store ~checkpoints
        ~label:(Printf.sprintf "%s@%d" name off)
        ~offset:off ~window ~warmup)
    c.offsets

let document ~name c rows =
  Report.sweep_json ~benchmark:name ~seed:c.cseed ~interval ~window ~warmup rows

type sweep = {
  doc : string;
  report : Report.t;
  checkpoints : Driver.checkpoint list;
  store : Store.t;
  works : Work.t list;
  results : Sweep.result list;
}

(* What [darco sample --backend local:JOBS] does: functional fast-forward,
   digest-addressed units, the fork pool, the result document. *)
let sample_sweep ~jobs ~guest_len k c =
  span "sweep[local]" @@ fun () ->
  let store = Store.create () in
  let checkpoints =
    span "Driver.functional_checkpoints" (fun () ->
        Driver.functional_checkpoints ~seed:c.cseed ~interval ~horizon:(horizon c)
          (program k))
  in
  let works = units ~store ~checkpoints ~name:k.entry.name c in
  let results =
    span "Sweep.run[local]" (fun () ->
        Sweep.run (Sweep.Backend.local ~store ~jobs ()) works)
  in
  let rows = List.combine c.offsets results in
  check_rows ~what:"local sweep" ~guest_len rows;
  let report = document ~name:k.entry.name c rows in
  { doc = Jsonx.to_string report.Report.doc; report; checkpoints; store; works; results }

(* --- scratch directories and the campaign daemon -------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let scratch_dirs : string list ref = ref []

(* under TMPDIR, which run.py points inside the checkout *)
let scratch_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  scratch_dirs := d :: !scratch_dirs;
  d

type daemon = { pid : int; addr : Darco_dispatch.addr; dir : string }

let daemons : daemon list ref = ref []

let stop_daemon d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
  daemons := List.filter (fun x -> x.pid <> d.pid) !daemons;
  rm_rf d.dir

let cleanup () =
  List.iter stop_daemon !daemons;
  List.iter rm_rf !scratch_dirs;
  scratch_dirs := []

(* [darco serve -j JOBS] in a forked child, on a kernel-chosen port, with
   a fresh library; returns once the daemon is listening. *)
let start_daemon ~jobs =
  span "daemon.start" @@ fun () ->
  let dir = scratch_dir "perfbench-lib" in
  let r, w = Unix.pipe ~cloexec:true () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    (try
       Darco_serve.Serve.serve ~quiet:true ~jobs
         ~ready:(fun sa ->
           let port = match sa with Unix.ADDR_INET (_, p) -> p | _ -> 0 in
           let line = string_of_int port ^ "\n" in
           ignore (Unix.write_substring w line 0 (String.length line));
           Unix.close w)
         ~library:dir ~host:"127.0.0.1" ~port:0 ()
     with _ -> ());
    Unix._exit 0
  | pid -> (
    Unix.close w;
    let d = { pid; addr = { Darco_dispatch.host = "127.0.0.1"; port = 0 }; dir } in
    daemons := d :: !daemons;
    let ic = Unix.in_channel_of_descr r in
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    match int_of_string_opt (String.trim line) with
    | Some port when port > 0 -> { d with addr = { d.addr with port } }
    | _ -> failwith "campaign daemon did not start")

type submit = { s_t : timing; first_artifact_ns : int; frames : int; sdoc : string }

(* One closed-loop submission: returns once the daemon sent DONE. *)
let submit ?cal d c ~resubmit =
  let frames = ref 0 and first = ref (-1) in
  let t0 = ref 0 in
  let r, s_t =
    measure ?cal (fun () ->
        t0 := now_ns ();
        span "Client.submit" (fun () ->
            Client.submit ~timeout:120.0
              ~on_status:(fun _ -> incr frames)
              ~on_artifact:(fun ~key:_ ~json:_ ->
                if !first < 0 then first := now_ns () - !t0)
              d.addr c.spec))
  in
  match r with
  | Error e ->
    op false (Printf.sprintf "campaign seed %d: submit failed: %s" c.cseed e);
    None
  | Ok (st, sdoc) ->
    let n = List.length c.offsets in
    let hits, dispatched = if resubmit then (n, 0) else (0, n) in
    op
      (st.Client.total = n && st.Client.hits = hits && st.Client.dispatched = dispatched)
      (Printf.sprintf "campaign seed %d: %d hits and %d dispatched of %d" c.cseed
         st.Client.hits st.Client.dispatched n);
    Some { s_t; first_artifact_ns = !first; frames = !frames; sdoc }

(* Time one sweep in a forked child while this process samples the
   child's process tree (PSS where readable).  The child may spawn
   domains: it forks nothing afterwards, and this process never does. *)
let pool_probe name ~expect run_sweep =
  span ("pool-probe[" ^ name ^ "]") @@ fun () ->
  Gc.compact ();
  let r, w = Unix.pipe ~cloexec:true () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    (try
       let t0 = now_ns () in
       let doc = run_sweep () in
       let line = Printf.sprintf "%d %s\n" (now_ns () - t0) (digest doc) in
       ignore (Unix.write_substring w line 0 (String.length line))
     with _ -> ());
    Unix._exit 0
  | pid -> (
    Unix.close w;
    let peak = ref 0 in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
        (match Rss.tree_rss_kb pid with Some kb -> peak := max !peak kb | None -> ());
        Unix.sleepf 0.005;
        wait ()
      | _, st -> st
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    in
    let st = wait () in
    let ic = Unix.in_channel_of_descr r in
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    match (st, String.split_on_char ' ' line) with
    | Unix.WEXITED 0, [ ns; d ] ->
      op (String.equal d (digest expect))
        (name ^ " pool sweep document differs from the serial one");
      (float_of_int (int_of_string ns) /. 1e9, float_of_int !peak /. 1024.)
    | _ ->
      op false (name ^ " pool probe died");
      (nan, nan))

(* --- the measuring loop ---------------------------------------------------- *)

(* The three paths share the measuring time in fixed proportions, each
   unit going to the path furthest behind its share, so every workload
   samples each path over the whole run. *)
type path = {
  share : float;
  min_units : int;
  mutable spent : int;
  mutable units : int;
  step : int -> int;  (* run unit number [units]; returns its wall time *)
}

let schedule ~seconds paths =
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let lag p = float_of_int p.spent /. p.share in
  let behind ps =
    List.fold_left (fun b p -> if lag p < lag b then p else b) (List.hd ps) ps
  in
  let rec loop () =
    let short = List.filter (fun p -> p.units < p.min_units) paths in
    if short <> [] || now_ns () < deadline then begin
      let p = behind (if short <> [] then short else paths) in
      p.spent <- p.spent + p.step p.units;
      p.units <- p.units + 1;
      loop ()
    end
  in
  loop ()

(* Per-kernel run times; a path's MIPS is the sum of its kernels' guest
   instructions over the sum of their median (calibrated) run times. *)
type samples = (string, int * timing list) Hashtbl.t

let record (tbl : samples) k r =
  let _, ts = Option.value ~default:(0, []) (Hashtbl.find_opt tbl (key k)) in
  Hashtbl.replace tbl (key k) (r.insns, r.t :: ts)

let path_total value (tbl : samples) =
  Hashtbl.fold
    (fun _ (i, ts) (si, sn) -> (si + i, sn +. median (List.map value ts)))
    tbl (0, 0.)

let path_mips value tbl =
  let insns, ns = path_total value tbl in
  float_of_int insns /. (ns /. 1e3)

(* one pass over the kernels, calibrated seconds *)
let path_s tbl = snd (path_total norm tbl) /. 1e9

type acc = {
  f : samples;
  t : samples;
  mutable setups : timing list;
  mutable sweeps : timing list;
  mutable cold : submit list;
  mutable resub : submit list;
  mutable f_rounds : int;
  mutable t_rounds : int;
  (* traced run only: the same kernels with the reference component
     alone, the Eval engine, a no-op retire subscriber, and the F/T
     rounds again with recording off *)
  reference : samples;
  eval : samples;
  noop : samples;
  f_plain : samples;
  t_plain : samples;
  mutable steps : int;
  mutable snapshot_bytes : int list;
  mutable counts : (string * int) list;  (* per functional round, exact *)
  mutable cycles : int;  (* modelled cycles per timed round, exact *)
  mutable ipc_err_pct : float;
  mutable fork_probe : float * float;  (* seconds, peak tree MB *)
  mutable domains_probe : float * float;
}

let run_workload wl ~seed ~seconds ~traced =
  let jobs = max 1 (Domain.recommended_domain_count ()) in
  let rng = Rng.create seed in
  let kernel (name, scale) =
    { entry = Registry.find name; scale; kseed = 1 + Rng.int rng 1_000_000; program = None }
  in
  let kernels = List.map kernel wl.kernels in
  let sk =
    match List.find_opt (fun k -> (k.entry.name, k.scale) = wl.sweep_kernel) kernels with
    | Some k -> k
    | None -> kernel wl.sweep_kernel
  in
  let all_kernels = if List.memq sk kernels then kernels else kernels @ [ sk ] in
  let par = Some (cal_par jobs) in
  let a =
    {
      f = Hashtbl.create 16; t = Hashtbl.create 16; setups = []; sweeps = [];
      cold = []; resub = []; f_rounds = 0; t_rounds = 0; reference = Hashtbl.create 16;
      eval = Hashtbl.create 16; noop = Hashtbl.create 16; f_plain = Hashtbl.create 16;
      t_plain = Hashtbl.create 16; steps = 0; snapshot_bytes = []; counts = []; cycles = 0; ipc_err_pct = nan;
      fork_probe = (nan, nan); domains_probe = (nan, nan);
    }
  in
  (* set-up, several times: build and boot every kernel, start the
     daemon; the last daemon serves the run *)
  let daemon = ref None in
  for _ = 1 to setup_reps do
    span "setup" @@ fun () ->
    Option.iter stop_daemon !daemon;
    let (), t =
      measure (fun () ->
          List.iter build all_kernels;
          List.iter
            (fun k ->
              ignore
                (span "Controller.create" (fun () ->
                     Controller.create ~seed:k.kseed (program k))))
            all_kernels;
          daemon := Some (start_daemon ~jobs))
    in
    a.setups <- t :: a.setups
  done;
  let daemon = Option.get !daemon in
  (* sizing: the sweep kernel's full guest length bounds every window *)
  let guest_len =
    span "sizing" @@ fun () ->
    let ir = span "Interp_ref.boot" (fun () -> Interp_ref.boot ~seed:sk.kseed (program sk)) in
    ignore (span "Interp_ref.run_to_halt" (fun () -> Interp_ref.run_to_halt ir));
    ir.Interp_ref.retired
  in
  let camps =
    let rec fresh seen =
      let s = 1 + Rng.int rng 1_000_000 in
      if List.mem s seen then fresh seen else s
    in
    let seeds =
      List.fold_left (fun seen _ -> fresh seen :: seen) [] (List.init campaigns Fun.id)
    in
    Array.of_list
      (List.rev_map
         (make_campaign rng ~bench:sk.entry.name ~scale:sk.scale ~guest_len
            ~n:wl.windows)
         seeds)
  in
  let c0 = camps.(0) in
  let last_c0 = ref None in
  (* with recording off first, then on: the gap is the tracing overhead *)
  let plain tbl f =
    Spans.enabled := false;
    List.iter (fun k -> record tbl k (f k)) kernels;
    Spans.enabled := true
  in
  let functional_unit _ =
    span "functional-round" @@ fun () ->
    if traced then plain a.f_plain functional;
    let f = List.map functional kernels in
    List.iter2 (record a.f) kernels f;
    a.f_rounds <- a.f_rounds + 1;
    if traced then begin
      List.iter
        (fun k ->
          span "reference" @@ fun () ->
          let ir, t =
            measure (fun () ->
                let ir =
                  span "Interp_ref.boot" (fun () -> Interp_ref.boot ~seed:k.kseed (program k))
                in
                ignore (span "Interp_ref.run_to_halt" (fun () -> Interp_ref.run_to_halt ir));
                ir)
          in
          record a.reference k { insns = ir.Interp_ref.retired; t; stats = Stats.create () })
        kernels;
      List.iter
        (fun k ->
          span "eval" @@ fun () ->
          record a.eval k (run_ctl ~cfg:{ Config.default with engine = Config.Eval } k))
        kernels;
      List.iter
        (fun k ->
          span "retire-noop" @@ fun () ->
          let bus = Bus.create () in
          Bus.on_retire bus (fun _ -> ());
          record a.noop k (run_ctl ~bus ~slice:timed_slice k))
        kernels;
      let sum g = List.fold_left (fun s r -> s + g r.stats) 0 f in
      a.counts <-
        [
          ("core.guest_insns", sum Stats.guest_total);
          ("core.host_app_insns", sum Stats.host_app_total);
          ("core.tol_overhead_insns", sum Stats.total_overhead);
          ("core.translations", sum (fun s -> s.Stats.bb_translations + s.Stats.sb_translations));
          ("core.rollbacks", sum (fun s -> s.Stats.assert_rollbacks + s.Stats.alias_rollbacks));
        ]
    end
  in
  let timed_unit _ =
    span "timed-round" @@ fun () ->
    if traced then plain a.t_plain (fun k -> fst (timed k));
    let steps = ref 0 in
    let t = List.map (timed ?steps:(if traced then Some steps else None)) kernels in
    List.iter2 (fun k (r, _) -> record a.t k r) kernels t;
    a.t_rounds <- a.t_rounds + 1;
    if traced then begin
      a.steps <- a.steps + !steps;
      a.cycles <- List.fold_left (fun n (_, s) -> n + s.Pipeline.cycles) 0 t
    end
  in
  (* one sample-equivalent sweep, the campaigns in turn *)
  let sweep_unit i =
    let c = camps.(i mod Array.length camps) in
    let sw, t = measure ~cal:par (fun () -> sample_sweep ~jobs ~guest_len sk c) in
    a.sweeps <- t :: a.sweeps;
    op
      (fingerprint (Printf.sprintf "sweep seed %d" c.cseed) sw.doc)
      (Printf.sprintf "sweep seed %d document changed between runs" c.cseed);
    c.local_doc <- Some sw.doc;
    if c == c0 then last_c0 := Some sw;
    (* the fork pool must agree byte for byte with in-process serial
       execution: checked once per campaign, every sweep when traced *)
    if traced || i < Array.length camps then begin
      span "sweep-serial" @@ fun () ->
      if traced then begin
        List.iter
          (fun (cp : Driver.checkpoint) ->
            let bytes =
              span "Snapshot.to_string" (fun () -> Snapshot.to_string cp.Driver.snapshot)
            in
            a.snapshot_bytes <- String.length bytes :: a.snapshot_bytes;
            let snap = span "Snapshot.of_string" (fun () -> Snapshot.of_string bytes) in
            ignore
              (span "Snapshot.restore_reference" (fun () ->
                   Snapshot.restore_reference snap));
            let d = span "Store.add" (fun () -> Store.add sw.store bytes) in
            ignore (span "Store.find" (fun () -> Store.find sw.store d)))
          sw.checkpoints;
        List.iter
          (fun w -> ignore (span "Work.exec" (fun () -> Work.exec ~store:sw.store w)))
          sw.works
      end;
      let results =
        span "Sweep.run[serial]" (fun () ->
            Sweep.run (Sweep.Backend.serial ~store:sw.store ()) sw.works)
      in
      let rows = List.combine c.offsets results in
      let sdoc = Jsonx.to_string (document ~name:sk.entry.name c rows).Report.doc in
      op (String.equal sdoc sw.doc)
        (Printf.sprintf "fork-pool sweep seed %d differs from the serial backend" c.cseed)
    end
  in
  let wall f i =
    let t0 = now_ns () in
    f i;
    now_ns () - t0
  in
  let path share min_units step = { share; min_units; spent = 0; units = 0; step } in
  span "measure" (fun () ->
      schedule ~seconds
        [
          path 0.2 3 (wall functional_unit);
          path 0.4 3 (wall timed_unit);
          path 0.4 (Array.length camps) (wall sweep_unit);
        ]);
  let sw0 = Option.get !last_c0 in
  let doc0 = sw0.doc in
  let c0_doc results =
    Jsonx.to_string
      (document ~name:sk.entry.name c0 (List.combine c0.offsets results)).Report.doc
  in
  if traced then begin
    a.fork_probe <-
      pool_probe "fork" ~expect:doc0 (fun () ->
          c0_doc (Sweep.run (Sweep.Backend.local ~store:sw0.store ~jobs ()) sw0.works));
    a.domains_probe <-
      pool_probe "domains" ~expect:doc0 (fun () ->
          c0_doc (Sweep.run (Sweep.Backend.domains ~store:sw0.store ~jobs ()) sw0.works));
    (* accuracy against one uninterrupted detailed run over the horizon;
       the model itself is unvalidated against hardware *)
    span "full-detail" (fun () ->
        let pipe = Pipeline.create Darco_timing.Tconfig.default in
        let bus = Bus.create () in
        Pipeline.attach pipe bus;
        let cfg = { Config.default with slice_fuel = 2_000 } in
        let ctl =
          span "Controller.create" (fun () ->
              Controller.create ~cfg ~bus ~seed:c0.cseed (program sk))
        in
        ignore (span "Controller.run" (fun () -> Controller.run ~max_insns:(horizon c0) ctl));
        let full = (Pipeline.summary pipe).Pipeline.ipc in
        a.ipc_err_pct <- 100. *. Float.abs (sw0.report.Report.ipc_mean -. full) /. full)
  end;
  (* the service, one client in a closed loop: each campaign cold (library
     writes), then resubmits in turn (library reads, zero dispatch) *)
  span "serve" (fun () ->
      Array.iter
        (fun c ->
          span "cold-submit" @@ fun () ->
          match submit ~cal:par daemon c ~resubmit:false with
          | None -> ()
          | Some s ->
            a.cold <- s :: a.cold;
            c.cold_doc <- Some s.sdoc;
            op (Some s.sdoc = c.local_doc)
              (Printf.sprintf "cold submit seed %d differs from the sample document" c.cseed))
        camps;
      for i = 0 to resubmits - 1 do
        let c = camps.(i mod Array.length camps) in
        span "resubmit" @@ fun () ->
        match submit ~cal:None daemon c ~resubmit:true with
        | None -> ()
        | Some s ->
          a.resub <- s :: a.resub;
          op (Some s.sdoc = c.cold_doc)
            (Printf.sprintf "resubmit seed %d differs from its cold submit" c.cseed)
      done);
  stop_daemon daemon;
  if traced then begin
    (* library and wire costs on real window artifacts, in-process, on a
       scratch library *)
    let lib = Library.create ~dir:(scratch_dir "perfbench-scratchlib") () in
    let cfg = Campaign.config_digest c0.spec in
    let arts =
      List.map2
        (fun (w : Work.t) (r : Sweep.result) ->
          let json =
            match r.Sweep.outcome with Sweep.Ok j -> Jsonx.to_string j | Sweep.Failed m -> m
          in
          ( {
              Library.bench = sk.entry.name;
              cfg;
              snap = Option.value ~default:"" (Work.digest w);
              offset = w.Work.offset;
              window;
              warmup;
            },
            json ))
        sw0.works sw0.results
    in
    span "library" (fun () ->
        List.iter
          (fun (k, j) -> span "Library.put_window" (fun () -> Library.put_window lib k j))
          arts;
        for _ = 1 to 50 do
          List.iter
            (fun (k, j) ->
              let got = span "Library.find_window" (fun () -> Library.find_window lib k) in
              op (got = Some j) "scratch library returned a different window")
            arts
        done);
    span "wire" (fun () ->
        for _ = 1 to 50 do
          List.iter
            (fun (k, j) ->
              ignore
                (span "Wire.encode" (fun () ->
                     Wire.encode (Wire.Artifact { id = 1; key = Library.render k; json = j }))))
            arts
        done)
  end;
  a

(* --- reporting ----------------------------------------------------------- *)

let metric name unit value = (name, unit, value)

(* sample count and quartiles of one timing, for the log *)
let log_quartiles name unit xs =
  match sorted xs with
  | [] -> ()
  | s ->
    let q p = pct p s in
    Printf.printf "  %-18s n=%-4d min %.4g  q1 %.4g  median %.4g  q3 %.4g  max %.4g %s\n"
      name (List.length s) (List.hd s) (q 25.) (median s) (q 75.)
      (List.nth s (List.length s - 1))
      unit

(* every sample of the run, in run order, as [raw ns, calibrated ns]
   pairs, for offline analysis *)
let write_samples path a =
  let ts l = Jsonx.List (List.rev_map (fun t -> Jsonx.List [ Jsonx.Int t.raw; (if Float.is_nan t.norm then Jsonx.Null else Jsonx.Float t.norm) ]) l) in
  let kernels (tbl : samples) =
    Jsonx.Obj
      (Hashtbl.fold
         (fun k (insns, l) acc ->
           (k, Jsonx.Obj [ ("insns", Jsonx.Int insns); ("ns", ts l) ]) :: acc)
         tbl [])
  in
  let subs l = ts (List.map (fun s -> s.s_t) l) in
  let oc = open_out path in
  output_string oc
    (Jsonx.to_string
       (Jsonx.Obj
          [
            ("setup", ts a.setups);
            ("functional", kernels a.f);
            ("timed", kernels a.t);
            ("sweep", ts a.sweeps);
            ("cold", subs a.cold);
            ("resubmit", subs a.resub);
          ]));
  close_out oc

let raw t = float_of_int t.raw

let end_to_end a =
  let secs f l = List.map (fun t -> f t /. 1e9) l in
  let resub = List.map (fun s -> raw s.s_t /. 1e6) a.resub in
  let cold = List.map (fun s -> s.s_t) a.cold in
  print_endline "samples (raw, as measured):";
  log_quartiles "setup" "s" (secs raw a.setups);
  let per_kernel path tbl =
    Hashtbl.iter (fun k (_, l) -> log_quartiles (path ^ " " ^ k) "s" (secs raw l)) tbl
  in
  per_kernel "functional" a.f;
  per_kernel "timed" a.t;
  log_quartiles "sweep" "s" (secs raw a.sweeps);
  log_quartiles "cold submit" "s" (secs raw cold);
  log_quartiles "resubmit" "ms" resub;
  Printf.printf "resubmit p90 from %d samples, %d beyond it\n" (List.length resub)
    (List.length (List.filter (fun x -> x > pct 90. resub) resub));
  Printf.printf
    "raw medians: setup %.4g s, functional %.4g MIPS, timed %.4g MIPS, sweep %.4g s, cold submit %.4g s\n"
    (median (secs raw a.setups)) (path_mips raw a.f) (path_mips raw a.t)
    (median (secs raw a.sweeps)) (median (secs raw cold));
  [
    metric "setup_s" "s" (median (secs norm a.setups));
    metric "functional_mips" "MIPS" (path_mips norm a.f);
    metric "timed_mips" "MIPS" (path_mips norm a.t);
    metric "sweep_s" "s" (median (secs norm a.sweeps));
    metric "submit_cold_s" "s" (median (secs norm cold));
    metric "resubmit_p50_ms" "ms" (median resub);
    metric "resubmit_p90_ms" "ms" (pct 90. resub);
  ]

let per_layer a spans =
  let tot ?under name = float_of_int (Spans.total ?under spans name) in
  let tr = float_of_int a.t_rounds in
  let mean_us name = mean (fl (Spans.durations spans name)) /. 1e3 in
  let setup_ms name = tot ~under:"setup" name /. float_of_int setup_reps /. 1e6 in
  let ref_s = path_s a.reference in
  let run_s = path_s a.f in
  let eval_s = path_s a.eval in
  let noop_s = path_s a.noop in
  let pipeline_s = path_s a.t -. noop_s in
  let guest = float_of_int (List.assoc "core.guest_insns" a.counts) in
  let windows = fl (Spans.durations spans "Work.exec") in
  let serial_s = mean_us "Sweep.run[serial]" /. 1e6 in
  let fork_s = mean_us "Sweep.run[local]" /. 1e6 in
  let cold_s = median (List.map (fun s -> norm s.s_t /. 1e9) a.cold) in
  let overhead =
    100. *. (((path_s a.f +. path_s a.t) /. (path_s a.f_plain +. path_s a.t_plain)) -. 1.)
  in
  [
    metric "workloads.build_ms" "ms" (setup_ms "Registry.build");
    metric "core.boot_ms" "ms" (setup_ms "Controller.create");
    metric "serve.daemon_start_ms" "ms" (setup_ms "daemon.start");
    metric "guest.ref_s" "s" ref_s;
    metric "core.run_s" "s" run_s;
    metric "core.tol_s" "s" (run_s -. ref_s);
    metric "core.eval_s" "s" eval_s;
    metric "core.threaded_speedup" "x" (eval_s /. run_s);
    metric "obs.retire_s" "s" (noop_s -. run_s);
    metric "timing.pipeline_s" "s" pipeline_s;
    metric "timing.step_ns" "ns" (pipeline_s *. 1e9 /. (float_of_int a.steps /. tr));
    metric "power.evaluate_us" "us" (mean_us "Model.evaluate");
    metric "core.ns_per_guest_insn" "ns" (run_s *. 1e9 /. guest);
  ]
  @ List.map (fun (n, v) -> metric n "count" (float_of_int v)) a.counts
  @ [ metric "timing.cycles" "count" (float_of_int a.cycles) ]
  @ [
      metric "sampling.fastforward_s" "s" (mean_us "Driver.functional_checkpoints" /. 1e6);
      metric "sampling.snapshot_encode_us" "us" (mean_us "Snapshot.to_string");
      metric "sampling.snapshot_decode_us" "us" (mean_us "Snapshot.of_string");
      metric "sampling.snapshot_bytes" "B" (mean (fl a.snapshot_bytes));
      metric "sampling.restore_reference_us" "us" (mean_us "Snapshot.restore_reference");
      metric "sampling.store_add_us" "us" (mean_us "Store.add");
      metric "sampling.store_find_us" "us" (mean_us "Store.find");
      metric "sampling.window_ms_p50" "ms" (pct 50. windows /. 1e6);
      metric "sampling.window_ms_p90" "ms" (pct 90. windows /. 1e6);
      metric "sampling.serial_s" "s" serial_s;
      metric "sampling.fork_s" "s" fork_s;
      metric "sampling.parallel_speedup" "x" (serial_s /. fork_s);
      metric "sampling.fork_rss_mb" "MB" (snd a.fork_probe);
      metric "sampling.domains_s" "s" (fst a.domains_probe);
      metric "sampling.domains_rss_mb" "MB" (snd a.domains_probe);
      metric "sampling.ipc_err_pct" "%" a.ipc_err_pct;
      metric "serve.overhead_s" "s" (cold_s -. (median (List.map norm a.sweeps) /. 1e9));
      metric "serve.first_artifact_ms" "ms"
        (median (List.map (fun s -> float_of_int s.first_artifact_ns /. 1e6) a.cold));
      metric "serve.status_frames" "count"
        (mean (List.map (fun s -> float_of_int s.frames) a.cold));
      metric "serve.library_put_us" "us" (mean_us "Library.put_window");
      metric "serve.library_find_us" "us" (mean_us "Library.find_window");
      metric "dispatch.wire_encode_us" "us" (mean_us "Wire.encode");
      metric "trace.overhead_pct" "%" overhead;
    ]

(* Self time per span name, largest first, and the root check: the self
   times of all spans sum to the root span's duration. *)
let self_table spans =
  let self = Spans.self_times spans in
  let by = Hashtbl.create 64 in
  Array.iteri
    (fun i (s : Spans.span) ->
      let t, n = Option.value ~default:(0, 0) (Hashtbl.find_opt by s.Spans.name) in
      Hashtbl.replace by s.Spans.name (t + self.(i), n + 1))
    spans;
  let root = Spans.dur spans.(0) in
  let sum = Array.fold_left ( + ) 0 self in
  Printf.printf "self time by span (root %s: %.3f s, %d spans)\n" spans.(0).Spans.name
    (float_of_int root /. 1e9) (Array.length spans);
  List.iter
    (fun (name, (t, n)) ->
      Printf.printf "  %-30s %9.3f s %6.2f%% %6d calls\n" name (float_of_int t /. 1e9)
        (100. *. float_of_int t /. float_of_int root)
        n)
    (List.sort (fun (_, (x, _)) (_, (y, _)) -> compare y x) (List.of_seq (Hashtbl.to_seq by)));
  Printf.printf "self times sum to %d ns; root span %d ns (%s)\n" sum root
    (if sum = root then "equal" else "MISMATCH");
  sum = root

let result_line ms =
  let m =
    String.concat ","
      (List.map
         (fun (n, u, v) -> Printf.sprintf "%S:{\"value\":%.17g,\"unit\":%S}" n v u)
         ms)
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (!failed = 0) !attempted !failed m

let usage () =
  prerr_endline
    "usage: gen.exe (hot|cold|sweep) --seed N --seconds S --trace 0|1 --out DIR";
  exit 2

let () =
  let args = Array.to_list Sys.argv in
  let opt name =
    let rec go = function
      | k :: v :: _ when k = name -> v
      | _ :: tl -> go tl
      | [] -> usage ()
    in
    go args
  in
  let wl =
    match args with
    | _ :: name :: _ -> (
      match List.find_opt (fun w -> w.wname = name) workloads with
      | Some w -> w
      | None -> usage ())
    | _ -> usage ()
  in
  let seed = int_of_string (opt "--seed") in
  let seconds = float_of_string (opt "--seconds") in
  let traced = opt "--trace" = "1" in
  let out = opt "--out" in
  if traced then Spans.enable ();
  let a =
    Fun.protect ~finally:cleanup (fun () ->
        span ("workload:" ^ wl.wname) (fun () -> run_workload wl ~seed ~seconds ~traced))
  in
  Printf.printf
    "%s: %d functional rounds, %d timed rounds, %d sweeps, %d setups, %d cold \
     submits, %d resubmits\n"
    wl.wname a.f_rounds a.t_rounds (List.length a.sweeps) (List.length a.setups)
    (List.length a.cold) (List.length a.resub);
  let fps = List.rev !fingerprints in
  List.iter (fun (k, d) -> Printf.printf "fingerprint %-28s %s\n" k d) fps;
  let all = digest (String.concat "\n" (List.map (fun (k, d) -> k ^ " " ^ d) fps)) in
  Printf.printf "fingerprint %s seed %d: %s\n" wl.wname seed all;
  let oc = open_out (Filename.concat out (Printf.sprintf "fingerprint-%s-%d.txt" wl.wname seed)) in
  List.iter (fun (k, d) -> Printf.fprintf oc "%s %s\n" k d) fps;
  Printf.fprintf oc "all %s\n" all;
  close_out oc;
  let metrics =
    if not traced then begin
      write_samples
        (Filename.concat out (Printf.sprintf "samples-%s-%d.json" wl.wname seed))
        a;
      end_to_end a
    end
    else begin
      let spans = Spans.all () in
      op (self_table spans) "span self times do not sum to the root span";
      Spans.write (Filename.concat out (Printf.sprintf "spans-%s-%d.jsonl" wl.wname seed)) spans;
      per_layer a spans
    end
  in
  List.iter (fun (n, u, v) -> Printf.printf "  %-30s %14.6f %s\n" n v u) metrics;
  result_line metrics

(* The DARCO command-line interface: run workloads through the co-designed
   pipeline, optionally with the timing and power simulators, inspect the
   software-layer statistics, and drive sampled simulation — locally or
   across a cluster of worker daemons. *)

open Cmdliner

let list_cmd =
  let run () =
    List.iter
      (fun (e : Darco_workloads.Registry.entry) ->
        Printf.printf "%-16s %s\n" (Darco_workloads.Registry.suite_name e.suite) e.name)
      Darco_workloads.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the available workloads")
    Term.(const run $ const ())

(* --- the shared flag-spec table ---------------------------------------- *)

(* One declaration per flag; every command assembles its interface from
   these rows instead of re-implementing --seed/--input/--trace/... with
   subtly different docs and defaults. *)
module Flag = struct
  let bench =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BENCH" ~doc:"Workload name (or unique substring)")

  let scale =
    Arg.(value & opt int 1 & info [ "scale" ] ~doc:"Hot-phase iteration multiplier")

  let timing =
    Arg.(value & flag & info [ "timing" ] ~doc:"Enable the timing and power simulators")

  let max_insns =
    Arg.(
      value
      & opt int max_int
      & info [ "max-insns" ] ~doc:"Stop after this many retired guest instructions")

  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Deterministic input seed")

  let input =
    Arg.(
      value
      & opt (some string) None
      & info [ "input" ] ~docv:"STRING"
          ~doc:"Feed $(docv) to the guest's standard input (read syscalls)")

  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE.jsonl"
          ~doc:"Write the typed simulation event stream as JSON lines to $(docv)")

  let stats_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-json" ] ~docv:"FILE"
          ~doc:"Write the final statistics as a JSON metrics snapshot to $(docv)")

  (* The bundle almost every simulating command wants. *)
  type sim = {
    seed : int;
    input : string option;
    trace : string option;
    stats_json : string option;
  }

  let sim =
    Term.(
      const (fun seed input trace stats_json -> { seed; input; trace; stats_json })
      $ seed $ input $ trace $ stats_json)
end

let no_flag name doc = Arg.(value & flag & info [ name ] ~doc)

let engine_conv =
  let parse s =
    match Darco.Exec.engine_of_string s with
    | Some e -> Ok e
    | None ->
      Error (`Msg (Printf.sprintf "unknown engine %S (expected eval or threaded)" s))
  in
  Arg.conv (parse, fun fmt e -> Format.pp_print_string fmt (Darco.Exec.engine_name e))

let engine_arg =
  Arg.(
    value
    & opt engine_conv Darco.Config.default.engine
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Region execution engine: $(b,threaded) (direct-threaded closure \
           chains, the default) or $(b,eval) (the reference walker).  Both \
           are bit-identical; $(b,eval) is the deopt/diagnosis fallback.")

let config_term =
  let combine no_asserts no_memspec no_sched no_opt no_chain no_ibtc no_unroll bb_thr
      sb_thr engine =
    let c = Darco.Config.default in
    {
      c with
      engine;
      use_asserts = not no_asserts;
      use_mem_speculation = not no_memspec;
      opt_schedule = not no_sched;
      opt_const_fold = not no_opt;
      opt_copy_prop = not no_opt;
      opt_cse = not no_opt;
      opt_dce = not no_opt;
      opt_rle = not no_opt;
      use_chaining = not no_chain;
      use_ibtc = not no_ibtc;
      unroll_factor = (if no_unroll then 1 else c.unroll_factor);
      bb_threshold = bb_thr;
      sb_threshold = sb_thr;
    }
  in
  Term.(
    const combine
    $ no_flag "no-asserts" "Disable assert conversion (side-exit superblocks)"
    $ no_flag "no-memspec" "Disable speculative memory reordering"
    $ no_flag "no-schedule" "Disable instruction scheduling"
    $ no_flag "no-opt" "Disable the classic optimization passes"
    $ no_flag "no-chaining" "Disable translation chaining"
    $ no_flag "no-ibtc" "Disable the indirect-branch translation cache"
    $ no_flag "no-unroll" "Disable loop unrolling"
    $ Arg.(value & opt int Darco.Config.default.bb_threshold & info [ "bb-threshold" ] ~doc:"IM->BBM promotion threshold")
    $ Arg.(value & opt int Darco.Config.default.sb_threshold & info [ "sb-threshold" ] ~doc:"BBM->SBM promotion threshold")
    $ engine_arg)

(* --- shared run/report plumbing ---------------------------------------- *)

(* Run the controller with the trace sink closed (and the stats snapshot
   written) even when the run diverges or raises — otherwise buffered trail
   events are lost exactly when they matter most. *)
let timed_run ?max_insns ?(hists = []) ~trace_oc ~stats_json ctl =
  let t0 = Unix.gettimeofday () in
  let result =
    Fun.protect
      ~finally:(fun () ->
        Option.iter close_out_noerr trace_oc;
        Option.iter
          (fun path ->
            Darco_obs.Metrics.write_file ~hists path (Darco.Controller.stats ctl))
          stats_json)
      (fun () -> Darco.Controller.run ?max_insns ctl)
  in
  (result, Unix.gettimeofday () -. t0)

(* Attach (and always close) the optional trace sink around [f]: anything
   between attachment and the run proper — snapshot restore, controller
   creation, checkpoint generation — can raise, and the channel must not
   leak when it does. *)
let with_trace bus trace f =
  let trace_oc = Option.map (Darco_obs.Trace.attach_file bus) trace in
  Fun.protect
    ~finally:(fun () -> Option.iter close_out_noerr trace_oc)
    (fun () -> f trace_oc)

let write_json path json =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Darco_obs.Jsonx.to_string json);
      output_char oc '\n');
  Printf.printf "wrote %s\n" path

let report_outcome ~dt ctl result =
  (match result with
  | `Done -> Printf.printf "completed"
  | `Limit -> Printf.printf "instruction limit reached"
  | `Diverged (d : Darco.Controller.divergence) ->
    Printf.printf "DIVERGED at %d retired insns:\n  %s" d.at_retired
      (String.concat "\n  " d.details));
  Printf.printf " in %.2fs (exit code %s)\n" dt
    (match Darco.Controller.exit_code ctl with
    | Some c -> string_of_int c
    | None -> "-");
  Format.printf "%a@." Darco.Stats.pp_summary (Darco.Controller.stats ctl)

let attach_timing bus =
  let p = Darco_timing.Pipeline.create Darco_timing.Tconfig.default in
  Darco_timing.Pipeline.attach p bus;
  p

let run_cmd =
  let run bench scale timing validate max_insns (sim : Flag.sim) profile
      profile_json flight flight_out cfg =
    let entry = Darco_workloads.Registry.find bench in
    let program = entry.build ~scale () in
    Printf.printf "== %s (%s), %d static bytes ==\n%!" entry.name
      (Darco_workloads.Registry.suite_name entry.suite)
      (Darco_guest.Program.code_bytes program);
    (* Sinks attach before the controller exists so initialization events
       land in the trace too. *)
    let bus = Darco_obs.Bus.create () in
    with_trace bus sim.trace @@ fun trace_oc ->
    let prof =
      if profile > 0 || profile_json <> None then Some (Darco_obs.Prof.attach bus)
      else None
    in
    let recorder =
      if flight > 0 then
        Some (Darco_obs.Recorder.attach bus ~capacity:flight ~path:flight_out)
      else None
    in
    let ctl =
      Darco.Controller.create ~cfg ~bus ?input:sim.input ~seed:sim.seed program
    in
    ctl.validate_at_checkpoints <- validate;
    let pipe = if timing then Some (attach_timing bus) else None in
    let lat_hist = Option.map Darco_timing.Pipeline.observe_latencies pipe in
    let hists =
      match lat_hist with
      | None -> []
      | Some h -> [ ("load_latency_cycles", h) ]
    in
    let result, dt =
      match timed_run ~max_insns ~hists ~trace_oc ~stats_json:sim.stats_json ctl with
      | r -> r
      | exception e ->
        (* the ring holds exactly the trail that led here *)
        Option.iter Darco_obs.Recorder.dump recorder;
        raise e
    in
    report_outcome ~dt ctl result;
    let st = Darco.Controller.stats ctl in
    Printf.printf "guest speed: %.2f MIPS (functional%s)\n"
      (float_of_int (Darco.Stats.guest_total st) /. dt /. 1e6)
      (if timing then " + timing" else "");
    (match pipe with
    | None -> ()
    | Some p ->
      Format.printf "--- timing ---@.%a@." Darco_timing.Pipeline.pp_summary
        (Darco_timing.Pipeline.summary p);
      Option.iter
        (fun h -> Format.printf "load latency: %a@." Darco_obs.Hist.pp h)
        lat_hist;
      let ev = Darco_timing.Pipeline.events p in
      let rep = Darco_power.Model.evaluate ev in
      Format.printf "--- power ---@.%a@.perf/W: %.1f MIPS/W@."
        Darco_power.Model.pp_report rep
        (Darco_power.Model.perf_per_watt ev rep));
    (match prof with
    | None -> ()
    | Some p ->
      (match Darco_obs.Prof.reconciles p st with
      | Ok () -> ()
      | Error e -> Printf.eprintf "WARNING: profiler does not reconcile: %s\n" e);
      if profile > 0 then
        Format.printf "--- hot regions ---@.%a@."
          (Darco_obs.Prof.pp_table ~n:profile)
          p;
      Option.iter (fun path -> write_json path (Darco_obs.Prof.to_json p)) profile_json);
    match recorder with
    | Some r when Darco_obs.Recorder.dumped r ->
      Printf.printf "flight recorder dumped to %s\n" flight_out
    | _ -> ()
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one workload through the co-designed pipeline")
    Term.(
      const run $ Flag.bench $ Flag.scale $ Flag.timing
      $ Arg.(
          value & flag
          & info [ "validate-checkpoints" ]
              ~doc:"Validate architectural state at every execution slice")
      $ Flag.max_insns $ Flag.sim
      $ Arg.(
          value & opt int 0
          & info [ "profile" ] ~docv:"N"
              ~doc:"Print the N hottest guest regions (host cost attribution)")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "profile-json" ] ~docv:"FILE"
              ~doc:"Write the full hot-region profile as JSON to $(docv)")
      $ Arg.(
          value & opt int 0
          & info [ "flight-recorder" ] ~docv:"N"
              ~doc:
                "Keep the last N events in memory; dump them as JSONL on a \
                 divergence or crash")
      $ Arg.(
          value
          & opt string "darco-flight.jsonl"
          & info [ "flight-recorder-out" ] ~docv:"FILE"
              ~doc:"Where --flight-recorder dumps its ring")
      $ config_term)

let suite_cmd =
  let run scale seed =
    let header =
      [ "benchmark"; "guest-insns"; "IM%"; "BBM%"; "SBM%"; "emul-cost"; "TOL%"; "status" ]
    in
    let rows =
      List.map
        (fun (e : Darco_workloads.Registry.entry) ->
          let ctl = Darco.Controller.create ~seed (e.build ~scale ()) in
          let status =
            match Darco.Controller.run ctl with
            | `Done -> "ok"
            | `Limit -> "limit"
            | `Diverged _ -> "DIVERGED"
          in
          let st = Darco.Controller.stats ctl in
          let im, bbm, sbm = Darco.Stats.mode_fractions st in
          [
            e.name;
            string_of_int (Darco.Stats.guest_total st);
            Printf.sprintf "%.1f" (100. *. im);
            Printf.sprintf "%.1f" (100. *. bbm);
            Printf.sprintf "%.1f" (100. *. sbm);
            Printf.sprintf "%.2f" (Darco.Stats.emulation_cost_sbm st);
            Printf.sprintf "%.1f" (100. *. Darco.Stats.overhead_fraction st);
            status;
          ])
        Darco_workloads.Registry.all
    in
    print_endline (Darco_util.Table.render ~header rows)
  in
  Cmd.v (Cmd.info "suite" ~doc:"Run every workload; print the summary table")
    Term.(const run $ Flag.scale $ Flag.seed)

(* --- monitoring / debugging tools ------------------------------------- *)

let disasm_cmd =
  let run bench scale limit =
    let entry = Darco_workloads.Registry.find bench in
    let program = entry.build ~scale () in
    Format.printf "%a@." Darco.Disasm.pp_listing
      (Darco.Disasm.disassemble program ~limit ())
  in
  Cmd.v (Cmd.info "disasm" ~doc:"Disassemble a workload's guest code")
    Term.(
      const run $ Flag.bench $ Flag.scale
      $ Arg.(value & opt int 200 & info [ "limit" ] ~doc:"Max instructions"))

let trace_cmd =
  let run bench scale limit seed =
    let entry = Darco_workloads.Registry.find bench in
    let program = entry.build ~scale () in
    Darco.Disasm.trace ~limit ~seed program (fun pc insn cpu ->
        Printf.printf "0x%06x: %-30s eax=%08x ecx=%08x flags=%s\n" pc
          (Darco_guest.Isa.to_string insn)
          (Darco_guest.Cpu.get cpu EAX)
          (Darco_guest.Cpu.get cpu ECX)
          (Darco_guest.Flags.to_string cpu.flags))
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Trace guest execution on the authoritative emulator")
    Term.(
      const run $ Flag.bench $ Flag.scale
      $ Arg.(value & opt int 64 & info [ "limit" ] ~doc:"Instructions to trace")
      $ Flag.seed)

let regions_cmd =
  let run bench scale max_insns seed cfg =
    let entry = Darco_workloads.Registry.find bench in
    let ctl = Darco.Controller.create ~cfg ~seed (entry.build ~scale ()) in
    ignore (Darco.Controller.run ~max_insns ctl);
    (* dump the hottest region the code cache currently holds *)
    Printf.printf "code cache: %d regions, %d host insns\n"
      (Darco.Codecache.region_count ctl.co.codecache)
      (Darco.Codecache.total_host_insns ctl.co.codecache);
    let shown = ref 0 in
    List.iter
      (fun (pc, _) ->
        if !shown < 3 then
          match Darco.Codecache.find ctl.co.codecache pc with
          | Some r when r.mode = `Super ->
            incr shown;
            Format.printf "%a@." Darco_host.Code.pp_region r
          | _ -> ())
      (Darco.Profile.histogram ctl.co.profile);
    if !shown = 0 then print_endline "(no superblocks formed in this window)"
  in
  Cmd.v
    (Cmd.info "regions" ~doc:"Run a bounded window and dump translated superblocks")
    Term.(
      const run $ Flag.bench $ Flag.scale
      $ Arg.(value & opt int 50_000 & info [ "max-insns" ] ~doc:"Window size")
      $ Flag.seed $ config_term)

let debug_cmd =
  let run bench scale seed fault =
    let entry = Darco_workloads.Registry.find bench in
    let inject : Darco.Config.fault =
      match fault with
      | Some "cse" -> Opt_drop_store
      | Some "sched" -> Sched_break_dep
      | Some other -> invalid_arg ("unknown fault: " ^ other)
      | None -> No_fault
    in
    let cfg = { Darco.Config.default with inject_fault = inject } in
    let report = Darco.Debug.investigate ~cfg ~seed (entry.build ~scale ()) in
    Format.printf "%a@." Darco.Debug.pp_report report
  in
  Cmd.v
    (Cmd.info "debug"
       ~doc:"Investigate a divergence (optionally with an injected bug)")
    Term.(
      const run $ Flag.bench $ Flag.scale $ Flag.seed
      $ Arg.(
          value
          & opt (some string) None
          & info [ "inject" ] ~doc:"Inject a bug: 'cse' or 'sched'"))

(* --- sampled simulation ------------------------------------------------ *)

module Snapshot = Darco_sampling.Snapshot
module Driver = Darco_sampling.Driver
module Sweep = Darco_sampling.Sweep
module Work = Darco_sampling.Work
module Report = Darco_sampling.Report
module Plan = Darco_sampling.Plan

let json_num j =
  match j with
  | Some (Darco_obs.Jsonx.Float f) -> Some f
  | Some (Darco_obs.Jsonx.Int i) -> Some (float_of_int i)
  | _ -> None

let checkpoint_cmd =
  let run bench scale (sim : Flag.sim) at out timing functional cfg =
    let entry = Darco_workloads.Registry.find bench in
    let program = entry.build ~scale () in
    let snap =
      if functional then begin
        let ir = Darco_guest.Interp_ref.boot ?input:sim.input ~seed:sim.seed program in
        Darco_guest.Interp_ref.run_until ir at;
        Snapshot.capture_reference ir
      end
      else begin
        let bus = Darco_obs.Bus.create () in
        with_trace bus sim.trace @@ fun trace_oc ->
        let pipe = if timing then Some (attach_timing bus) else None in
        let ctl =
          Darco.Controller.create ~cfg ~bus ?input:sim.input ~seed:sim.seed program
        in
        let result, _dt =
          timed_run ~max_insns:at ~trace_oc ~stats_json:sim.stats_json ctl
        in
        (match result with
        | `Limit | `Done -> ()
        | `Diverged d ->
          Printf.eprintf "DIVERGED at %d before the checkpoint was reached\n"
            d.at_retired;
          exit 1);
        Snapshot.capture ?pipeline:pipe ctl
      end
    in
    Snapshot.write_file out snap;
    Printf.printf "%s\n" (Darco_obs.Jsonx.to_string (Snapshot.manifest snap))
  in
  Cmd.v
    (Cmd.info "checkpoint"
       ~doc:
         "Run a workload to a given instruction count and snapshot the \
          complete co-designed state to a file")
    Term.(
      const run $ Flag.bench $ Flag.scale $ Flag.sim
      $ Arg.(value & opt int 100_000 & info [ "at" ] ~doc:"Snapshot at (or just past) this many retired guest instructions")
      $ Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Snapshot file to write")
      $ Flag.timing
      $ Arg.(value & flag & info [ "functional" ] ~doc:"Capture only the x86 component (cheap fast-forward checkpoint)")
      $ config_term)

let resume_cmd =
  let run file max_insns (sim : Flag.sim) timing =
    match Snapshot.read_file file with
    | exception Darco_sampling.Buf.Corrupt msg ->
      Printf.eprintf "corrupt snapshot %s: %s\n" file msg;
      exit 1
    | snap ->
      Printf.printf "== resuming %s (%s, %d insns retired) ==\n%!" file
        (match Snapshot.kind snap with
        | Snapshot.Functional -> "functional"
        | Snapshot.Full -> "full")
        (Snapshot.retired snap);
      let bus = Darco_obs.Bus.create () in
      with_trace bus sim.trace @@ fun trace_oc ->
      let pipe =
        match Snapshot.restore_pipeline snap with
        | Some p ->
          Darco_timing.Pipeline.attach p bus;
          Some p
        | None -> if timing then Some (attach_timing bus) else None
      in
      let ctl = Snapshot.restore ~bus snap in
      let result, dt =
        timed_run ~max_insns ~trace_oc ~stats_json:sim.stats_json ctl
      in
      report_outcome ~dt ctl result;
      Option.iter
        (fun p ->
          Format.printf "--- timing ---@.%a@." Darco_timing.Pipeline.pp_summary
            (Darco_timing.Pipeline.summary p))
        pipe
  in
  Cmd.v
    (Cmd.info "resume"
       ~doc:"Restore a snapshot and continue the run (bit-identically for full snapshots)")
    Term.(
      const run
      $ Arg.(required & pos 0 (some string) None & info [] ~docv:"SNAPSHOT" ~doc:"Snapshot file (from darco checkpoint)")
      $ Flag.max_insns $ Flag.sim
      $ Arg.(value & flag & info [ "timing" ] ~doc:"Attach a cold timing pipeline if the snapshot carries none"))

let sample_cmd =
  let run bench scale (sim : Flag.sim) interval offsets nsamples horizon window
      warmup jobs backend_str dispatch_timeout dispatch_retries store_dir
      json_out chrome_out verify max_error engine plan_kind ci_target
      max_windows round_size =
    let entry = Darco_workloads.Registry.find bench in
    let program = entry.build ~scale () in
    let offsets =
      match offsets with
      | Some s ->
        List.map
          (fun tok ->
            match int_of_string_opt (String.trim tok) with
            | Some v -> v
            | None -> invalid_arg ("bad offset: " ^ tok))
          (String.split_on_char ',' s)
      | None -> List.init nsamples (fun i -> (i + 1) * horizon / (nsamples + 1))
    in
    let offsets = List.sort_uniq compare offsets in
    let horizon =
      List.fold_left (fun acc o -> max acc (o + window)) horizon offsets
    in
    let spec =
      match
        Darco_dispatch.spec_of_string ~jobs ~timeout:dispatch_timeout
          ~retries:dispatch_retries backend_str
      with
      | Ok s -> s
      | Error e ->
        Printf.eprintf "%s\n" e;
        exit 2
    in
    (* the dispatch lifecycle is observable through the ordinary trace sink,
       and the span timeline through the Chrome collector *)
    let bus = Darco_obs.Bus.create () in
    with_trace bus sim.trace @@ fun _trace_oc ->
    let chrome =
      Option.map (fun _ -> Darco_obs.Chrome.attach bus) chrome_out
    in
    (* sweep-shape distributions, fed straight off the bus *)
    let h_frame = Darco_obs.Hist.create () in
    let h_ckpt = Darco_obs.Hist.create () in
    let h_retry = Darco_obs.Hist.create () in
    let h_detail = Darco_obs.Hist.create () in
    (* detail time is the duration of each "running" span — measured where
       the window actually ran (worker-side stamps replay on this bus), so
       it works identically for the local and remote backends *)
    let running = Hashtbl.create 16 in
    Darco_obs.Bus.attach bus ~name:"sweep-hists" (fun ~at:_ ev ->
        match ev with
        | Darco_obs.Event.Dispatch_sent { bytes; _ } ->
          Darco_obs.Hist.add h_frame bytes
        | Darco_obs.Event.Ckpt_push { bytes; _ } -> Darco_obs.Hist.add h_ckpt bytes
        | Darco_obs.Event.Dispatch_retry { delay; _ } ->
          Darco_obs.Hist.add h_retry (int_of_float (delay *. 1000.))
        | Darco_obs.Event.Span_begin { span = "running"; corr; host; wall_us; _ }
          ->
          Hashtbl.replace running (host, corr) wall_us
        | Darco_obs.Event.Span_end { span = "running"; corr; host; wall_us; _ }
          -> (
          match Hashtbl.find_opt running (host, corr) with
          | Some t0 ->
            Hashtbl.remove running (host, corr);
            Darco_obs.Hist.add h_detail (wall_us - t0)
          | None -> ())
        | _ -> ());
    let store = Darco_sampling.Store.create ?dir:store_dir () in
    let backend = Darco_dispatch.backend ~bus ~fallback_jobs:jobs ~store spec in
    Printf.printf
      "== %s: functional fast-forward to %d, checkpoint every %d ==\n%!"
      entry.name horizon interval;
    let t0 = Unix.gettimeofday () in
    let checkpoints =
      Driver.functional_checkpoints ?input:sim.input ~seed:sim.seed ~interval
        ~horizon program
    in
    Printf.printf "%d checkpoints in %.2fs; %d detailed windows via %s\n%!"
      (List.length checkpoints)
      (Unix.gettimeofday () -. t0)
      (List.length offsets) backend.Sweep.Backend.name;
    let mk_work off =
      Work.of_window_stored ~store ~checkpoints
        ~label:(Printf.sprintf "%s@%d" entry.name off)
        ~offset:off ~window ~warmup
    in
    let plan_cfg =
      {
        Plan.kind = plan_kind;
        ci_target;
        max_windows;
        round_size;
        seed = Plan.default.Plan.seed;
      }
    in
    (* a fixed plan with no confidence target and no budget cannot deviate
       from the exhaustive one-shot sweep, so take the one-shot path (and
       its exact document bytes) rather than spinning the planner *)
    let degenerate =
      plan_kind = Plan.Fixed && ci_target <= 0.0 && max_windows <= 0
    in
    (* write the trace even when the sweep dies — a partial timeline of a
       failed sweep is the most useful trace of all *)
    Fun.protect
      ~finally:(fun () ->
        match (chrome, chrome_out) with
        | Some c, Some path ->
          Darco_obs.Chrome.write_file c path;
          Printf.printf "wrote %s\n" path
        | _ -> ())
    @@ fun () ->
    let rows, plan_summary =
      if degenerate then begin
        let works = List.map mk_work offsets in
        Printf.printf "%d distinct checkpoints referenced by %d windows\n%!"
          (Darco_sampling.Store.count store)
          (List.length works);
        (List.combine offsets (Sweep.run backend works), None)
      end
      else begin
        (* round-based planning: each round's completed IPCs feed the
           planner, which picks the next windows where the variance is *)
        let ix = Driver.index_of checkpoints in
        let phase_of off =
          Snapshot.guest_eip (Driver.nearest_at ix off).Driver.snapshot
        in
        let planner = Plan.create ~bus plan_cfg ~candidates:offsets ~phase_of in
        let recorded = ref 0 in
        let next _round completed =
          let fresh = List.filteri (fun i _ -> i >= !recorded) completed in
          recorded := List.length completed;
          Plan.record planner
            (List.filter_map
               (fun ((w : Work.t), (r : Sweep.result)) ->
                 match r.Sweep.outcome with
                 | Sweep.Ok json ->
                   Option.map
                     (fun ipc -> (w.Work.offset, ipc))
                     (json_num (Darco_obs.Jsonx.member "ipc" json))
                 | Sweep.Failed _ -> None)
               fresh);
          List.map mk_work (Plan.next planner)
        in
        let pairs = Sweep.run_stream backend ~next in
        (match Plan.stopped planner with
        | Some reason ->
          Printf.printf "plan: stopped on %s after %d windows in %d rounds\n%!"
            (Plan.stop_reason reason) (List.length pairs)
            (Plan.rounds planner)
        | None -> ());
        let summary =
          {
            Report.plan_name =
              (match plan_kind with
              | Plan.Fixed -> "fixed"
              | Plan.Adaptive -> "adaptive");
            windows_used = List.length pairs;
            ci_target;
            ci_target_met = Plan.ci_target_met planner;
            rounds = Plan.rounds planner;
          }
        in
        ( List.map (fun ((w : Work.t), r) -> (w.Work.offset, r)) pairs,
          Some summary )
      end
    in
    (* offsets that actually ran, ascending — the verify loop below
       replays them on one sequential controller *)
    let offsets = List.sort compare (List.map fst rows) in
    (* optional verification: the same windows under uninterrupted detailed
       simulation (the authoritative answer sampling approximates) *)
    let full_ipcs =
      if not verify then []
      else begin
        Printf.printf "verifying against full detailed simulation...\n%!";
        let vbus = Darco_obs.Bus.create () in
        let pipe = attach_timing vbus in
        (* fine slices, so window edges match the sampled measurement *)
        let cfg = { Darco.Config.default with slice_fuel = 2_000; engine } in
        let ctl =
          Darco.Controller.create ~cfg ~bus:vbus ?input:sim.input ~seed:sim.seed
            program
        in
        List.map
          (fun off ->
            ignore (Darco.Controller.run ~max_insns:off ctl);
            let bi = Darco_timing.Pipeline.instructions pipe in
            let bc = Darco_timing.Pipeline.cycles pipe in
            ignore (Darco.Controller.run ~max_insns:(off + window) ctl);
            let di = Darco_timing.Pipeline.instructions pipe - bi in
            let dc = Darco_timing.Pipeline.cycles pipe - bc in
            (off, if dc = 0 then 0.0 else float_of_int di /. float_of_int dc))
          offsets
      end
    in
    (* per-row progress printing; the JSON document itself is assembled by
       Report.sweep_json, shared verbatim with the campaign service so a
       served sweep's DONE payload is byte-identical to this command's *)
    List.iter
      (fun (off, (r : Sweep.result)) ->
        match r.outcome with
        | Sweep.Failed reason -> Printf.printf "%-28s FAILED: %s\n" r.label reason
        | Sweep.Ok json -> (
          let ipc =
            Option.value ~default:0.0 (json_num (Darco_obs.Jsonx.member "ipc" json))
          in
          match List.assoc_opt off full_ipcs with
          | None -> Printf.printf "%-28s IPC %.3f\n" r.label ipc
          | Some full ->
            let err = Darco_util.Stats_math.relative_error ipc full in
            Printf.printf "%-28s IPC %.3f vs %.3f full (error %.2f%%)\n" r.label
              ipc full (100. *. err)))
      rows;
    let rep =
      Report.sweep_json ~benchmark:entry.name ~seed:sim.seed ~interval ~window
        ~warmup ~full_ipcs ?plan:plan_summary rows
    in
    (* the sweep's point estimate, with its SMARTS-style sampling error *)
    if rep.Report.n_ipc > 0 then
      Printf.printf "sweep IPC %.3f ± %.3f (95%% CI, stddev %.3f, n=%d)\n"
        rep.Report.ipc_mean rep.Report.ipc_ci95 rep.Report.ipc_stddev
        rep.Report.n_ipc;
    (* the same error-bar treatment for the power model's outputs *)
    if rep.Report.n_power > 0 then
      Printf.printf
        "sweep power %.4g ± %.2g W, EPI %.4g ± %.2g nJ, window energy %.4g ± \
         %.2g J (95%% CI, n=%d)\n"
        rep.Report.watts_mean rep.Report.watts_ci95 rep.Report.epi_nj_mean
        rep.Report.epi_nj_ci95 rep.Report.energy_j_mean rep.Report.energy_j_ci95
        rep.Report.n_power;
    Option.iter
      (fun e -> Printf.printf "average sampling error: %.2f%%\n" (100. *. e))
      rep.Report.avg_error;
    let hists =
      List.filter
        (fun (_, h) -> Darco_obs.Hist.count h > 0)
        [
          ("detail_us", h_detail);
          ("frame_bytes", h_frame);
          ("ckpt_push_bytes", h_ckpt);
          ("retry_delay_ms", h_retry);
        ]
    in
    List.iter
      (fun (name, h) ->
        Format.printf "%-16s %a@." name Darco_obs.Hist.pp h)
      hists;
    Option.iter (fun path -> write_json path rep.Report.doc) json_out;
    if rep.Report.failed then exit 1;
    match (rep.Report.avg_error, max_error) with
    | Some e, Some bound when e > bound ->
      Printf.eprintf "average sampling error %.2f%% exceeds bound %.2f%%\n"
        (100. *. e) (100. *. bound);
      exit 1
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "sample"
       ~doc:
         "Sampled simulation: functional fast-forward with periodic \
          checkpoints, then detailed measurement windows swept across an \
          execution backend — forked local workers, a shared-memory domain \
          pool, or remote worker daemons")
    Term.(
      const run $ Flag.bench $ Flag.scale $ Flag.sim
      $ Arg.(value & opt int 50_000 & info [ "interval" ] ~doc:"Guest instructions between functional checkpoints")
      $ Arg.(value & opt (some string) None & info [ "offsets" ] ~docv:"A,B,C" ~doc:"Explicit sample offsets (comma-separated)")
      $ Arg.(value & opt int 4 & info [ "samples" ] ~doc:"Number of evenly spaced samples (when --offsets is absent)")
      $ Arg.(value & opt int 400_000 & info [ "horizon" ] ~doc:"Span of guest execution to sample (when --offsets is absent)")
      $ Arg.(value & opt int 25_000 & info [ "window" ] ~doc:"Detailed measurement window length")
      $ Arg.(value & opt int 30_000 & info [ "warmup" ] ~doc:"Detailed warm-up before each window")
      $ Arg.(value & opt int 4 & info [ "jobs" ] ~doc:"Worker processes or domains (local/domains backends, remote fallback)")
      $ Arg.(value & opt string "local" & info [ "backend" ] ~docv:"SPEC" ~doc:"Execution backend: serial (in-process, sequential), local, local:JOBS (fork per unit), domains, domains:JOBS (shared-memory domain pool), or remote:HOST:PORT[,HOST:PORT...]")
      $ Arg.(value & opt float 60.0 & info [ "dispatch-timeout" ] ~docv:"SECONDS" ~doc:"Remote backend: per-work-unit deadline")
      $ Arg.(value & opt int 2 & info [ "dispatch-retries" ] ~docv:"N" ~doc:"Remote backend: re-dispatches per unit after a worker is lost")
      $ Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc:"Spill the sweep's content-addressed checkpoint store to $(docv)")
      $ Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc:"Write the sweep results as JSON to $(docv)")
      $ Arg.(value & opt (some string) None & info [ "chrome-trace" ] ~docv:"FILE" ~doc:"Write the sweep's cross-machine span timeline as a Chrome trace-event JSON file (loadable in Perfetto)")
      $ Arg.(value & flag & info [ "verify" ] ~doc:"Also run full detailed simulation and report per-sample IPC error")
      $ Arg.(value & opt (some float) None & info [ "max-error" ] ~doc:"With --verify: exit non-zero if average error exceeds this fraction")
      $ engine_arg
      $ Arg.(value & opt (enum [ ("fixed", Plan.Fixed); ("adaptive", Plan.Adaptive) ]) Plan.Fixed & info [ "plan" ] ~docv:"KIND" ~doc:"Window planner: $(b,fixed) sweeps the offsets in order; $(b,adaptive) runs rounds, steering windows at the high-variance program phases and stopping once --ci-target is met")
      $ Arg.(value & opt float 0.0 & info [ "ci-target" ] ~docv:"FRACTION" ~doc:"Stop once the IPC CI95 half-width is within this fraction of the mean (e.g. 0.02 = ±2%); 0 disables early exit")
      $ Arg.(value & opt int 0 & info [ "max-windows" ] ~docv:"N" ~doc:"Total window budget for the planner; 0 = unlimited")
      $ Arg.(value & opt int 4 & info [ "round" ] ~docv:"N" ~doc:"Windows dispatched per planner round"))

let worker_cmd =
  let run listen quiet isolate jobs store_dir =
    if jobs < 1 then begin
      Printf.eprintf "--jobs must be at least 1\n";
      exit 2
    end;
    match Darco_dispatch.addr_of_string listen with
    | Error e ->
      Printf.eprintf "%s\n" e;
      exit 2
    | Ok { Darco_dispatch.host; port } ->
      Darco_dispatch.Worker.serve ~quiet ~isolate ~jobs ?store_dir ~host ~port
        ()
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:
         "Run a sample-sweep worker daemon: accept work units (snapshot + \
          window parameters) over the dispatch TCP protocol, execute them \
          concurrently on a shared-memory domain pool (or in forked \
          children with $(b,--isolate)), and stream back per-sample JSON \
          results.  Digest-addressed units resolve through the daemon's \
          checkpoint store; each missing checkpoint is fetched from the \
          dispatcher once")
    Term.(
      const run
      $ Arg.(required & opt (some string) None & info [ "listen" ] ~docv:"HOST:PORT" ~doc:"Bind and serve on $(docv)")
      $ Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress per-connection log lines")
      $ Arg.(value & flag & info [ "isolate" ] ~doc:"Run each unit in a forked child instead of on the domain pool: a segfaulting or OOM-killed unit then loses only itself, at the price of per-unit fork overhead and copy-on-write page duplication")
      $ Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Work units to keep executing concurrently (advertised to the dispatcher)")
      $ Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc:"Spill received checkpoints to $(docv) so they survive daemon restarts"))

(* --- the campaign service ---------------------------------------------- *)

let parse_addr s =
  match Darco_dispatch.addr_of_string s with
  | Ok a -> a
  | Error e ->
    Printf.eprintf "%s\n" e;
    exit 2

let connect_flag =
  Arg.(
    value
    & opt string "127.0.0.1:9300"
    & info [ "connect" ] ~docv:"HOST:PORT" ~doc:"Campaign server address")

(* The sweep-shape flags shared by submit and fetch: same names, defaults
   and offset derivation as [sample], so a command line moves between the
   local and served worlds by swapping the verb. *)
let campaign_term =
  let mk bench scale seed input interval offsets nsamples horizon window
      warmup ci_target =
    let offsets =
      match offsets with
      | Some s ->
        List.map
          (fun tok ->
            match int_of_string_opt (String.trim tok) with
            | Some v -> v
            | None -> invalid_arg ("bad offset: " ^ tok))
          (String.split_on_char ',' s)
      | None -> List.init nsamples (fun i -> (i + 1) * horizon / (nsamples + 1))
    in
    Darco_serve.Campaign.normalize
      {
        Darco_serve.Campaign.bench;
        scale;
        seed;
        input;
        interval;
        horizon;
        offsets;
        window;
        warmup;
        ci_target =
          (match ci_target with Some c when c > 0.0 -> Some c | _ -> None);
      }
  in
  Term.(
    const mk $ Flag.bench $ Flag.scale $ Flag.seed $ Flag.input
    $ Arg.(value & opt int 50_000 & info [ "interval" ] ~doc:"Guest instructions between functional checkpoints")
    $ Arg.(value & opt (some string) None & info [ "offsets" ] ~docv:"A,B,C" ~doc:"Explicit sample offsets (comma-separated)")
    $ Arg.(value & opt int 4 & info [ "samples" ] ~doc:"Number of evenly spaced samples (when --offsets is absent)")
    $ Arg.(value & opt int 400_000 & info [ "horizon" ] ~doc:"Span of guest execution to sample (when --offsets is absent)")
    $ Arg.(value & opt int 25_000 & info [ "window" ] ~doc:"Detailed measurement window length")
    $ Arg.(value & opt int 30_000 & info [ "warmup" ] ~doc:"Detailed warm-up before each window")
    $ Arg.(value & opt (some float) None & info [ "ci-target" ] ~docv:"FRACTION" ~doc:"Adaptive early exit: let the server stop the sweep once the IPC CI95 half-width is within this fraction of the mean"))

let serve_cmd =
  let run listen library workers jobs credit dispatch_timeout dispatch_retries
      budget max_submissions metrics_file metrics_interval flight flight_out
      quiet trace =
    let addr = parse_addr listen in
    let workers =
      match workers with
      | None -> []
      | Some s ->
        List.map (fun p -> parse_addr (String.trim p)) (String.split_on_char ',' s)
    in
    let bus = Darco_obs.Bus.create () in
    with_trace bus trace @@ fun _trace_oc ->
    (* same crash discipline as `run`: the ring dumps itself on a failed
       campaign window (Dispatch_done ok=false) or divergence, and we
       dump it on the way out of a daemon crash *)
    let recorder =
      if flight > 0 then
        Some (Darco_obs.Recorder.attach bus ~capacity:flight ~path:flight_out)
      else None
    in
    (try
       Darco_serve.Serve.serve ~bus ~quiet ~workers ~jobs ~credit
         ~dispatch_timeout ~dispatch_retries ?max_bytes:budget ?max_submissions
         ?metrics_file ~metrics_interval ~library
         ~host:addr.Darco_dispatch.host ~port:addr.Darco_dispatch.port ()
     with e ->
       Option.iter Darco_obs.Recorder.dump recorder;
       raise e);
    match recorder with
    | Some r when Darco_obs.Recorder.dumped r ->
      Printf.printf "flight recorder dumped to %s\n" flight_out
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent campaign service: accept sweep submissions \
          from many clients over the dispatch TCP protocol, schedule them \
          fairly onto the worker fleet (or local forks), and keep every \
          checkpoint and window result in a crash-safe content-addressed \
          artifact library — a resubmitted sweep dispatches nothing and \
          returns byte-identical JSON")
    Term.(
      const run
      $ Arg.(value & opt string "127.0.0.1:9300" & info [ "listen" ] ~docv:"HOST:PORT" ~doc:"Bind and serve on $(docv)")
      $ Arg.(required & opt (some string) None & info [ "library" ] ~docv:"DIR" ~doc:"Artifact library directory (created if missing)")
      $ Arg.(value & opt (some string) None & info [ "workers" ] ~docv:"HOST:PORT,..." ~doc:"Dispatch work units to these worker daemons (default: fork locally)")
      $ Arg.(value & opt int 4 & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Concurrent local fork workers (without --workers)")
      $ Arg.(value & opt int 4 & info [ "credit" ] ~docv:"N" ~doc:"Fair-share allowance: work units each submission may occupy per scheduling round")
      $ Arg.(value & opt float 60.0 & info [ "dispatch-timeout" ] ~docv:"SECONDS" ~doc:"Remote backend: per-work-unit deadline")
      $ Arg.(value & opt int 2 & info [ "dispatch-retries" ] ~docv:"N" ~doc:"Remote backend: re-dispatches per unit after a worker is lost")
      $ Arg.(value & opt (some int) None & info [ "library-budget" ] ~docv:"BYTES" ~doc:"LRU byte budget for the library's checkpoint store")
      $ Arg.(value & opt (some int) None & info [ "max-submissions" ] ~docv:"N" ~doc:"Exit after completing $(docv) submissions (default: serve forever)")
      $ Arg.(value & opt (some string) None & info [ "metrics-file" ] ~docv:"PATH" ~doc:"Periodically dump the live metrics registry as Prometheus-style exposition text to $(docv) (atomic write-then-rename)")
      $ Arg.(value & opt float 5.0 & info [ "metrics-interval" ] ~docv:"SECONDS" ~doc:"Seconds between --metrics-file dumps")
      $ Arg.(value & opt int 0 & info [ "flight-recorder" ] ~docv:"N" ~doc:"Keep the last N events in memory; dump them as JSONL on a failed campaign window, a divergence or a daemon crash")
      $ Arg.(value & opt string "darco-serve-flight.jsonl" & info [ "flight-recorder-out" ] ~docv:"FILE" ~doc:"Where --flight-recorder dumps its ring")
      $ Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress per-submission log lines")
      $ Flag.trace)

let submit_cmd =
  let run connect spec timeout json_out quiet =
    let addr = parse_addr connect in
    let on_artifact ~key ~json =
      if not quiet then
        if json = "" then Printf.printf "%-36s FAILED\n%!" key
        else Printf.printf "%-36s done (%d bytes)\n%!" key (String.length json)
    in
    match Darco_serve.Client.submit ~timeout ~on_artifact addr spec with
    | Error e ->
      Printf.eprintf "submit failed: %s\n" e;
      exit 1
    | Ok (stats, doc) ->
      let { Darco_serve.Client.done_ = _; total; hits; dispatched } = stats in
      Printf.printf "%d windows: %d hits, %d dispatched\n" total hits
        dispatched;
      (match json_out with
      | None ->
        print_string doc;
        print_newline ()
      | Some path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            output_string oc doc;
            output_char oc '\n');
        Printf.printf "wrote %s\n" path)
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit a sweep to a campaign server and wait for the result. \
          The returned JSON document is byte-identical to what $(b,sample \
          --json) writes for the same parameters — windows already in the \
          server's artifact library are served without dispatching any \
          work")
    Term.(
      const run $ connect_flag $ campaign_term
      $ Arg.(value & opt float 3600.0 & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Give up after $(docv)")
      $ Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc:"Write the sweep document to $(docv) (default: stdout)")
      $ Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress per-window progress lines"))

let status_cmd =
  let run connect =
    match Darco_serve.Client.status (parse_addr connect) with
    | Error e ->
      Printf.eprintf "status failed: %s\n" e;
      exit 1
    | Ok
        ( state,
          { Darco_serve.Client.done_; total; hits; dispatched },
          { Darco_serve.Client.uptime_s; version } ) ->
      Printf.printf
        "%s: %d/%d submissions done, %d window hits, %d units dispatched\n"
        state done_ total hits dispatched;
      if version = "" then
        (* a v4 daemon never fills the tail — that absence is the
           diagnosis *)
        Printf.printf "server: pre-0.10 build (no version in STAT)\n"
      else
        Printf.printf "server: darco %s, up %ds\n" version uptime_s
  in
  Cmd.v
    (Cmd.info "status" ~doc:"Query a campaign server's service-wide counters")
    Term.(const run $ connect_flag)

let scrape_cmd =
  let run connect =
    match Darco_serve.Client.scrape (parse_addr connect) with
    | Error e ->
      Printf.eprintf "scrape failed: %s\n" e;
      exit 1
    | Ok json -> (
      match
        Darco_obs.Registry.of_json (Darco_obs.Jsonx.parse json)
      with
      | exception Darco_obs.Jsonx.Parse_error e ->
        Printf.eprintf "scrape returned unparseable JSON: %s\n" e;
        exit 1
      | Error e ->
        Printf.eprintf "scrape returned a malformed snapshot: %s\n" e;
        exit 1
      | Ok snap -> print_string (Darco_obs.Registry.exposition snap))
  in
  Cmd.v
    (Cmd.info "scrape"
       ~doc:
         "Scrape a campaign server's live metrics registry (wire v5 METR) \
          and print it as Prometheus-style exposition text — byte-identical \
          to the server's $(b,--metrics-file) dump")
    Term.(const run $ connect_flag)

let top_cmd =
  let run connect once interval =
    let addr = parse_addr connect in
    let show () =
      match Darco_serve.Top.fetch addr with
      | Error e ->
        Printf.eprintf "top failed: %s\n" e;
        exit 1
      | Ok view -> print_string (Darco_serve.Top.render view)
    in
    if once then show ()
    else
      while true do
        (* clear screen + home, as top(1) does *)
        print_string "\027[2J\027[H";
        show ();
        flush stdout;
        Unix.sleepf interval
      done
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live view of a campaign server: per-campaign window progress \
          (with planner CI state), per-worker health and the library \
          hit-rate, refreshed every --interval seconds.  With --once, \
          print one snapshot and exit (for scripts and CI)")
    Term.(
      const run $ connect_flag
      $ Arg.(value & flag & info [ "once" ] ~doc:"Print one snapshot and exit")
      $ Arg.(value & opt float 2.0 & info [ "interval" ] ~docv:"SECONDS" ~doc:"Refresh period"))

let fetch_cmd =
  let run connect spec offset json_out =
    match Darco_serve.Client.fetch (parse_addr connect) spec ~offset with
    | Error e ->
      Printf.eprintf "fetch failed: %s\n" e;
      exit 1
    | Ok None ->
      Printf.eprintf "no artifact for offset %d in the server's library\n"
        offset;
      exit 1
    | Ok (Some json) -> (
      match json_out with
      | None ->
        print_string json;
        print_newline ()
      | Some path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            output_string oc json;
            output_char oc '\n');
        Printf.printf "wrote %s\n" path)
  in
  Cmd.v
    (Cmd.info "fetch"
       ~doc:
         "Fetch one finished window of a campaign from a server's artifact \
          library without submitting any work")
    Term.(
      const run $ connect_flag $ campaign_term
      $ Arg.(required & opt (some int) None & info [ "offset" ] ~docv:"N" ~doc:"The window's start offset")
      $ Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc:"Write the window JSON to $(docv) (default: stdout)"))

let validate_trace_cmd =
  let run file =
    match Darco_obs.Chrome.validate_file file with
    | Ok () -> Printf.printf "%s: valid trace-event JSON\n" file
    | Error e ->
      Printf.eprintf "%s: INVALID: %s\n" file e;
      exit 1
  in
  Cmd.v
    (Cmd.info "validate-trace"
       ~doc:
         "Validate a Chrome trace-event JSON file (as written by sample \
          --chrome-trace): well-formed, required fields present, every span \
          begin matched by its end in nesting order")
    Term.(
      const run
      $ Arg.(
          required
          & pos 0 (some string) None
          & info [] ~docv:"TRACE.json" ~doc:"Trace file to check"))

let speed_cmd =
  let run bench scale insns seed engine =
    let entry = Darco_workloads.Registry.find bench in
    let cfg = { Darco.Config.default with engine } in
    let s = Darco_studies.Speed.measure ~cfg ~insns (entry.build ~scale ()) ~seed in
    Format.printf "%a@." Darco_studies.Speed.pp s
  in
  Cmd.v (Cmd.info "speed" ~doc:"Measure emulation/simulation throughput")
    Term.(
      const run $ Flag.bench $ Flag.scale
      $ Arg.(value & opt int 300_000 & info [ "insns" ] ~doc:"Guest instructions")
      $ Flag.seed $ engine_arg)

let () =
  let info = Cmd.info "darco" ~doc:"DARCO co-designed processor simulation infrastructure" in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; run_cmd; suite_cmd; checkpoint_cmd; resume_cmd; sample_cmd;
            worker_cmd; serve_cmd; submit_cmd; status_cmd; fetch_cmd;
            scrape_cmd; top_cmd; validate_trace_cmd; disasm_cmd; trace_cmd;
            regions_cmd; debug_cmd; speed_cmd ]))

open Darco_guest
module Pipeline = Darco_timing.Pipeline
module Jsonx = Darco_obs.Jsonx

type checkpoint = { at : int; snapshot : Snapshot.t }

let functional_checkpoints ?input ~seed ~interval ~horizon program =
  if interval <= 0 then invalid_arg "Driver.functional_checkpoints: interval <= 0";
  let ir = Interp_ref.boot ?input ~seed program in
  let acc = ref [ { at = 0; snapshot = Snapshot.capture_reference ir } ] in
  let continue = ref true in
  while !continue do
    let next = ir.retired + interval in
    if next > horizon || ir.cpu.halted then continue := false
    else begin
      Interp_ref.run_until ir next;
      acc := { at = ir.retired; snapshot = Snapshot.capture_reference ir } :: !acc;
      (* the guest may halt before reaching [next]; the checkpoint at the
         halt point is still useful, but there is nothing beyond it *)
      if ir.retired < next then continue := false
    end
  done;
  List.rev !acc

type 'a sorted = { at_of : 'a -> int; items : 'a array }

let sort_by_at at_of xs =
  if xs = [] then invalid_arg "Driver.sort_by_at: no checkpoints";
  (* stable on [at], so among equal-offset checkpoints the earliest in
     list order wins — the same tie-break the fold this replaced had *)
  let keyed = Array.of_list (List.mapi (fun i x -> (at_of x, i, x)) xs) in
  Array.sort (fun (x, i, _) (y, j, _) ->
      match compare x y with 0 -> compare i j | c -> c)
    keyed;
  { at_of; items = Array.map (fun (_, _, x) -> x) keyed }

let nearest_at { at_of; items = ix } target =
  let n = Array.length ix in
  if at_of ix.(0) > target then
    (* no checkpoint at or before the target: settle for the earliest *)
    ix.(0)
  else begin
    (* rightmost entry with [at <= target] ... *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = !lo + ((!hi - !lo + 1) / 2) in
      if at_of ix.(mid) <= target then lo := mid else hi := mid - 1
    done;
    (* ... backed up to the first of an equal-[at] run *)
    let i = ref !lo in
    while !i > 0 && at_of ix.(!i - 1) = at_of ix.(!i) do
      decr i
    done;
    ix.(!i)
  end

let index_of checkpoints = sort_by_at (fun ck -> ck.at) checkpoints
let nearest checkpoints target = nearest_at (index_of checkpoints) target

let window_start ~offset ~warmup = max 0 (offset - warmup)

let reference_at checkpoints target =
  let ck = nearest checkpoints target in
  let ir = Snapshot.restore_reference ck.snapshot in
  if target > ir.retired then Interp_ref.run_until ir target;
  ir

let controller_at ?cfg ?bus checkpoints ~start =
  Darco.Controller.of_reference ?cfg ?bus (reference_at checkpoints start)

type window_result = {
  w_offset : int;
  w_window : int;
  w_warmup : int;
  w_from_checkpoint : int;
  w_instructions : int;
  w_cycles : int;
  w_ipc : float;
  w_power : Darco_power.Model.report;
  w_detail_us : int;
}

let detailed_window ?(cfg = Darco.Config.default)
    ?(tcfg = Darco_timing.Tconfig.default) ?(warmup = 30_000) ~checkpoints ~offset
    ~window () =
  (* The controller stops at slice boundaries; coarse slices would swallow
     the whole measurement window in one step.  Clamp the slice fuel so the
     warm-up/window edges land (nearly) where requested. *)
  let cfg = { cfg with Darco.Config.slice_fuel = min cfg.Darco.Config.slice_fuel 2_000 } in
  let start = window_start ~offset ~warmup in
  let from = (nearest checkpoints start).at in
  let t0 = Darco_obs.Clock.ticks () in
  let bus = Darco_obs.Bus.create () in
  let pipe = Pipeline.create tcfg in
  Pipeline.attach pipe bus;
  let ctl = controller_at ~cfg ~bus checkpoints ~start in
  ignore (Darco.Controller.run ~max_insns:offset ctl);
  let before = Pipeline.events_copy (Pipeline.events pipe) in
  ignore (Darco.Controller.run ~max_insns:(offset + window) ctl);
  let delta = Pipeline.events_diff (Pipeline.events pipe) before in
  let di = delta.Pipeline.e_insns and dc = delta.Pipeline.e_cycles in
  let detail_us = Darco_obs.Clock.ticks () - t0 in
  {
    w_offset = offset;
    w_window = window;
    w_warmup = offset - start;
    w_from_checkpoint = from;
    w_instructions = di;
    w_cycles = dc;
    w_ipc = (if dc = 0 then 0.0 else float_of_int di /. float_of_int dc);
    w_power = Darco_power.Model.evaluate delta;
    w_detail_us = detail_us;
  }

let window_json r =
  Jsonx.Obj
    [
      ("offset", Jsonx.Int r.w_offset);
      ("window", Jsonx.Int r.w_window);
      ("warmup", Jsonx.Int r.w_warmup);
      ("from_checkpoint", Jsonx.Int r.w_from_checkpoint);
      ("instructions", Jsonx.Int r.w_instructions);
      ("cycles", Jsonx.Int r.w_cycles);
      ("ipc", Jsonx.Float r.w_ipc);
      ("energy_j", Jsonx.Float r.w_power.Darco_power.Model.total_joules);
      ("avg_watts", Jsonx.Float r.w_power.Darco_power.Model.avg_watts);
      ("epi_nj", Jsonx.Float r.w_power.Darco_power.Model.epi_nj);
      (* w_detail_us is deliberately absent: the result document must be a
         pure function of the window, identical wherever it was computed —
         that determinism is what lets the sweep tests compare local and
         remote backends byte for byte.  Wall-clock cost travels on the
         observability side instead, as "running" span durations. *)
    ]

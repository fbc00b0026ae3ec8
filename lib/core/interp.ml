open Darco_guest
module Bus = Darco_obs.Bus
module Event = Darco_obs.Event

let step_bb (bus : Bus.t) (cfg : Config.t) (stats : Stats.t) profile icache cpu mem =
  let entry = cpu.Cpu.eip in
  let costs = cfg.costs in
  (* Per-instruction work is batched per block so the hot loop touches the
     counters (and the bus) once, not per instruction. *)
  let insns = ref 0 in
  let profiled = ref false in
  let finish_bb () =
    ignore (Profile.note_interp profile entry);
    profiled := true
  in
  let apply () =
    let cost =
      (costs.interp_per_insn * !insns)
      + if !profiled then costs.interp_profile_bb else 0
    in
    stats.guest_im <- stats.guest_im + !insns;
    Stats.charge stats Ov_interp cost;
    if (!insns > 0 || !profiled) && Bus.active bus then
      Bus.emit bus
        ~at:(Stats.guest_total stats)
        (Event.Interp_block { pc = entry; insns = !insns; cost })
  in
  let rec loop () =
    match Step.step icache cpu mem with
    | Trap_syscall -> `Syscall
    | Trap_halt ->
      incr insns;
      finish_bb ();
      `Halt
    | Next ->
      incr insns;
      loop ()
    | Branch ->
      incr insns;
      finish_bb ();
      `Next
  in
  (* A page fault mid-block must still account the instructions that
     completed before it (the state stays consistent for the retry). *)
  let res = try loop () with e -> apply (); raise e in
  apply ();
  res

let step_one (bus : Bus.t) (cfg : Config.t) (stats : Stats.t) icache cpu mem =
  let pc = cpu.Cpu.eip in
  (match Step.step icache cpu mem with
  | Trap_syscall | Trap_halt -> invalid_arg "Interp.step_one: trapping instruction"
  | Next | Branch -> ());
  stats.guest_im <- stats.guest_im + 1;
  Stats.charge stats Ov_interp cfg.costs.interp_per_insn;
  if Bus.active bus then
    Bus.emit bus
      ~at:(Stats.guest_total stats)
      (Event.Interp_exec { pc; cost = cfg.costs.interp_per_insn })

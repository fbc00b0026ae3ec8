type t = {
  cpu : Cpu.t;
  mem : Memory.t;
  sys : Syscall.t;
  icache : Step.icache;
  mutable retired : int;
  mutable exit_code : int option;
  mutable last_effects : Syscall.effect list;
}

let boot ?input ~seed program =
  let cpu, mem = Loader.boot program in
  let sys = Syscall.create ?input ~seed ~brk:(Loader.initial_brk program) () in
  {
    cpu;
    mem;
    sys;
    icache = Step.icache_create ();
    retired = 0;
    exit_code = None;
    last_effects = [];
  }

let service_syscall t =
  let insn, len = Step.fetch t.icache t.mem t.cpu.Cpu.eip in
  assert (insn = Isa.Syscall);
  let effects = Syscall.execute t.sys t.cpu t.mem in
  t.last_effects <- effects;
  List.iter (function Syscall.Exit c -> t.exit_code <- Some c | _ -> ()) effects;
  t.cpu.eip <- Semantics.mask32 (t.cpu.eip + len);
  t.retired <- t.retired + 1;
  effects

let run_until t n =
  while t.retired < n && not t.cpu.Cpu.halted do
    match Step.step t.icache t.cpu t.mem with
    | Trap_syscall -> ignore (service_syscall t)
    | Next | Branch | Trap_halt -> t.retired <- t.retired + 1
  done

let run_to_halt ?(fuel = max_int) t =
  while not t.cpu.Cpu.halted && t.retired < fuel do
    run_until t (min fuel (t.retired + 65536))
  done;
  if t.cpu.Cpu.halted then `Halted else `Fuel

let output t = Syscall.output t.sys

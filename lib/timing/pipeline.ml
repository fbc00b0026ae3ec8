open Darco_host

type summary = {
  instructions : int;
  cycles : int;
  ipc : float;
  branch_accuracy : float;
  il1_miss_rate : float;
  dl1_miss_rate : float;
  l2_miss_rate : float;
  itlb_miss_rate : float;
  dtlb_miss_rate : float;
  mispredicts : int;
  prefetches : int;
}

type events = {
  e_cycles : int;
  e_insns : int;
  e_int_ops : int;
  e_mul_ops : int;
  e_fp_ops : int;
  e_mem_reads : int;
  e_mem_writes : int;
  e_branches : int;
  e_il1 : Cache.stats;
  e_dl1 : Cache.stats;
  e_l2 : Cache.stats;
  e_btb : int;
  e_regfile_reads : int;
  e_regfile_writes : int;
}

(* Ring buffer of recent cycles, for the IQ-occupancy and physical-register
   in-flight caps.  [pos] is [n mod capacity], kept as a wrapping index so
   the per-instruction path never divides; only [buf] and [n] persist. *)
type ring = { buf : int array; mutable n : int; mutable pos : int }

let ring_make size = { buf = Array.make (max 1 size) 0; n = 0; pos = 0 }

let ring_push r v =
  r.buf.(r.pos) <- v;
  r.n <- r.n + 1;
  r.pos <- (if r.pos + 1 = Array.length r.buf then 0 else r.pos + 1)

(* Cycle at which the element [cap] positions back completes (0 when the
   window is not yet full). *)
let ring_cap r = if r.n < Array.length r.buf then 0 else r.buf.(r.pos)

(* [Stdlib.max] is polymorphic and, without flambda, compares through the
   runtime; the per-instruction path uses this int-only form. *)
let imax (a : int) b = if a >= b then a else b

type t = {
  cfg : Tconfig.t;
  (* memory hierarchy *)
  l2 : Cache.t;
  il1 : Cache.t;
  dl1 : Cache.t;
  l2tlb : Tlb.t;
  itlb : Tlb.t;
  dtlb : Tlb.t;
  pf : Prefetch.t;
  bp : Predictor.t;
  (* scoreboard *)
  int_ready : int array;
  fp_ready : int array;
  simple_free : int array;
  complex_free : int array;
  vector_free : int array;
  rport_free : int array;
  wport_free : int array;
  iq_ring : ring;
  inflight_ring : ring;
  (* front-end state *)
  mutable fetch_cycle : int;
  mutable fetch_count : int;
  mutable last_fetch_line : int;
  mutable redirect_at : int;
  (* back-end state *)
  mutable last_issue : int;
  mutable issued_in_cycle : int;
  mutable horizon : int;   (* latest completion cycle *)
  (* counters *)
  mutable insns : int;
  mutable int_ops : int;
  mutable mul_ops : int;
  mutable fp_ops : int;
  mutable mem_reads : int;
  mutable mem_writes : int;
  mutable branches : int;
  mutable rf_reads : int;
  mutable rf_writes : int;
  (* optional load-latency distribution (total dTLB + dL1 chain per load);
     [None] costs one pointer test per load and is never persisted — a
     restored pipeline starts with observation off *)
  mutable lat_hist : Darco_obs.Hist.t option;
  (* per-step scratch, overwritten by every {!step} and never persisted:
     the retiring instruction's register operands and its class's result
     latency, unit occupancy and stream weight *)
  ops : Code.operands;
  mutable c_latency : int;
  mutable c_occupancy : int;
  mutable c_weight : int;
}

let create (cfg : Tconfig.t) =
  let memory _addr ~is_write:_ = cfg.mem_latency in
  let l2 = Cache.create ~name:"L2" cfg.l2 ~parent:memory in
  let l2_parent addr ~is_write = Cache.access l2 addr ~is_write in
  let il1 = Cache.create ~name:"IL1" cfg.il1 ~parent:l2_parent in
  let dl1 = Cache.create ~name:"DL1" cfg.dl1 ~parent:l2_parent in
  let l2tlb = Tlb.second_level cfg in
  {
    cfg;
    l2;
    il1;
    dl1;
    l2tlb;
    itlb = Tlb.create cfg.itlb ~parent:(fun vpn -> Tlb.access l2tlb (vpn lsl 12));
    dtlb = Tlb.create cfg.dtlb ~parent:(fun vpn -> Tlb.access l2tlb (vpn lsl 12));
    pf = Prefetch.create cfg ~into:dl1;
    bp = Predictor.create cfg;
    int_ready = Array.make 64 0;
    fp_ready = Array.make 32 0;
    simple_free = Array.make (max 1 cfg.n_simple) 0;
    complex_free = Array.make (max 1 cfg.n_complex) 0;
    vector_free = Array.make (max 1 cfg.n_vector) 0;
    rport_free = Array.make (max 1 cfg.mem_read_ports) 0;
    wport_free = Array.make (max 1 cfg.mem_write_ports) 0;
    iq_ring = ring_make cfg.iq_size;
    inflight_ring = ring_make cfg.phys_regs;
    fetch_cycle = 0;
    fetch_count = 0;
    last_fetch_line = -1;
    redirect_at = 0;
    last_issue = 0;
    issued_in_cycle = 0;
    horizon = 0;
    insns = 0;
    int_ops = 0;
    mul_ops = 0;
    fp_ops = 0;
    mem_reads = 0;
    mem_writes = 0;
    branches = 0;
    rf_reads = 0;
    rf_writes = 0;
    lat_hist = None;
    ops = Code.operands ();
    c_latency = 0;
    c_occupancy = 0;
    c_weight = 0;
  }

(* The vector class exists for the SIMD-extension configuration; the
   current host ISA routes nothing to it. *)
type cls = Simple | Complex | Vector | Mem_read | Mem_write [@@warning "-37"]

let set_class t cls latency occupancy weight =
  t.c_latency <- latency;
  t.c_occupancy <- occupancy;
  t.c_weight <- weight;
  cls

(* The unit class; result latency, unit occupancy and stream weight land
   in [t]'s scratch fields. *)
let classify t (insn : Code.insn) =
  let cfg = t.cfg in
  match insn with
  | Code.Bin ((Mul | Mulhu | Mulhs), _, _, _) ->
    set_class t Complex cfg.complex_mul_latency 1 1
  | Code.Fbin (Fdiv, _, _, _) ->
    set_class t Complex cfg.fp_div_latency cfg.fp_div_latency 1
  | Code.Fbin (_, _, _, _) -> set_class t Complex cfg.fp_latency 1 1
  | Code.Fun (Fsqrt, _, _) ->
    set_class t Complex (cfg.fp_div_latency + 3) cfg.fp_div_latency 1
  | Code.Fun (_, _, _) | Code.Fmov _ | Code.Fli _ -> set_class t Complex 1 1 1
  | Code.Fcmp _ | Code.Cvtif _ | Code.Cvtfi _ -> set_class t Complex 2 1 1
  | Code.Callrt_f (fn, _, _) ->
    let c = Code.rt_cost fn in
    set_class t Complex c c c
  | Code.Callrt_div { signed; _ } ->
    let c = Code.rt_cost (if signed then Rt_divs else Rt_divu) in
    set_class t Complex c c c
  | Code.Load _ | Code.Sload _ | Code.Fload _ -> set_class t Mem_read 0 1 1
  | Code.Store _ | Code.Fstore _ -> set_class t Mem_write 1 1 1
  | Code.Nop | Code.Li _ | Code.Bin _ | Code.Bini _ | Code.Mkfl _ | Code.Isel _
  | Code.B _ | Code.J _ | Code.Jr _ | Code.Assert _ | Code.Chk | Code.Commit _
  | Code.Exit _ ->
    set_class t Simple 1 1 1

(* Take the earliest-free unit (the first on a tie) no earlier than [at]. *)
let acquire_unit free_cycles at occupancy =
  let best = ref 0 in
  for i = 1 to Array.length free_cycles - 1 do
    if free_cycles.(i) < free_cycles.(!best) then best := i
  done;
  let start = imax at free_cycles.(!best) in
  free_cycles.(!best) <- start + occupancy;
  start

let line_of (cfg : Tconfig.t) pc = pc / cfg.il1.line

(* Per retired host instruction: no allocation and no scan beyond the
   caches' ways and a TLB miss.  The state it leaves is exactly what the
   list-based formulation it replaced left (pinned by test_timing). *)
let step t (ri : Emulator.retire_info) =
  let cfg = t.cfg in
  (* ---- front end ---- *)
  if t.redirect_at > t.fetch_cycle then begin
    t.fetch_cycle <- t.redirect_at;
    t.fetch_count <- 0;
    t.last_fetch_line <- -1
  end;
  if t.fetch_count >= cfg.fetch_width then begin
    t.fetch_cycle <- t.fetch_cycle + 1;
    t.fetch_count <- 0
  end;
  let line = line_of cfg ri.host_pc in
  if line <> t.last_fetch_line then begin
    t.last_fetch_line <- line;
    let tlb_extra = Tlb.access t.itlb ri.host_pc in
    let ic = Cache.access t.il1 ri.host_pc ~is_write:false in
    (* only the portion beyond a first-cycle hit stalls fetch *)
    t.fetch_cycle <- t.fetch_cycle + tlb_extra + (ic - cfg.il1.latency)
  end;
  (* instruction-queue backpressure *)
  t.fetch_cycle <- imax t.fetch_cycle (ring_cap t.iq_ring);
  t.fetch_count <- t.fetch_count + 1;
  let at_decode = t.fetch_cycle + cfg.decode_depth in
  (* ---- issue ---- *)
  let cls = classify t ri.insn in
  let ops = t.ops in
  Code.decode ops ri.insn;
  let src_ready = ref 0 in
  for i = 0 to ops.n_int_uses - 1 do
    src_ready := imax !src_ready t.int_ready.(ops.int_uses.(i))
  done;
  for i = 0 to ops.n_fp_uses - 1 do
    src_ready := imax !src_ready t.fp_ready.(ops.fp_uses.(i))
  done;
  let in_order_at =
    if t.issued_in_cycle >= cfg.issue_width then t.last_issue + 1 else t.last_issue
  in
  let earliest =
    imax (imax at_decode !src_ready) (imax in_order_at (ring_cap t.inflight_ring))
  in
  let units =
    match cls with
    | Simple -> t.simple_free
    | Complex -> t.complex_free
    | Vector -> t.vector_free
    | Mem_read -> t.rport_free
    | Mem_write -> t.wport_free
  in
  let issue = acquire_unit units earliest t.c_occupancy in
  if issue > t.last_issue then begin
    t.last_issue <- issue;
    t.issued_in_cycle <- 1
  end
  else t.issued_in_cycle <- t.issued_in_cycle + 1;
  (* ---- execute ---- *)
  let result_latency =
    match ri.mem_access with
    | Some (addr, `Load) ->
      t.mem_reads <- t.mem_reads + 1;
      let tlb_extra = Tlb.access t.dtlb addr in
      let lat = Cache.access t.dl1 addr ~is_write:false in
      Prefetch.observe t.pf ~pc:ri.host_pc ~addr;
      (match t.lat_hist with
      | None -> ()
      | Some h -> Darco_obs.Hist.add h (tlb_extra + lat));
      tlb_extra + lat
    | Some (addr, `Store) ->
      t.mem_writes <- t.mem_writes + 1;
      let tlb_extra = Tlb.access t.dtlb addr in
      ignore (Cache.access t.dl1 addr ~is_write:true);
      tlb_extra + 1
    | None -> t.c_latency
  in
  let done_at = issue + imax 1 result_latency in
  for i = 0 to ops.n_int_defs - 1 do
    t.int_ready.(ops.int_defs.(i)) <- done_at
  done;
  for i = 0 to ops.n_fp_defs - 1 do
    t.fp_ready.(ops.fp_defs.(i)) <- done_at
  done;
  t.rf_reads <- t.rf_reads + ops.n_int_uses + ops.n_fp_uses;
  t.rf_writes <- t.rf_writes + ops.n_int_defs + ops.n_fp_defs;
  (* ---- control ---- *)
  (match ri.branch with
  | Some (taken, target) ->
    t.branches <- t.branches + 1;
    let resolve = issue + 1 in
    (match Predictor.observe t.bp ~pc:ri.host_pc ~taken ~target with
    | `Correct -> ()
    | `Mispredict ->
      t.redirect_at <- imax t.redirect_at (resolve + cfg.mispredict_penalty))
  | None -> ());
  (* ---- bookkeeping ---- *)
  ring_push t.iq_ring issue;
  ring_push t.inflight_ring done_at;
  t.horizon <- imax t.horizon done_at;
  t.insns <- t.insns + t.c_weight;
  match cls with
  | Simple -> t.int_ops <- t.int_ops + 1
  | Complex -> (
    match ri.insn with
    | Code.Bin _ -> t.mul_ops <- t.mul_ops + 1
    | _ -> t.fp_ops <- t.fp_ops + 1)
  | Vector | Mem_read | Mem_write -> ()

let cycles t = max t.horizon t.last_issue
let instructions t = t.insns

let summary t =
  let c = cycles t in
  {
    instructions = t.insns;
    cycles = c;
    ipc = (if c = 0 then 0.0 else float_of_int t.insns /. float_of_int c);
    branch_accuracy = Predictor.accuracy t.bp;
    il1_miss_rate = Cache.miss_rate t.il1;
    dl1_miss_rate = Cache.miss_rate t.dl1;
    l2_miss_rate = Cache.miss_rate t.l2;
    itlb_miss_rate = Tlb.miss_rate t.itlb;
    dtlb_miss_rate = Tlb.miss_rate t.dtlb;
    mispredicts = (Predictor.stats t.bp).mispredicts;
    prefetches = (Prefetch.stats t.pf).issued;
  }

let events t =
  {
    e_cycles = cycles t;
    e_insns = t.insns;
    e_int_ops = t.int_ops;
    e_mul_ops = t.mul_ops;
    e_fp_ops = t.fp_ops;
    e_mem_reads = t.mem_reads;
    e_mem_writes = t.mem_writes;
    e_branches = t.branches;
    e_il1 = Cache.stats t.il1;
    e_dl1 = Cache.stats t.dl1;
    e_l2 = Cache.stats t.l2;
    e_btb = t.branches;
    e_regfile_reads = t.rf_reads;
    e_regfile_writes = t.rf_writes;
  }

let copy_cache_stats (s : Cache.stats) = { s with Cache.accesses = s.accesses }

let events_copy e =
  {
    e with
    e_il1 = copy_cache_stats e.e_il1;
    e_dl1 = copy_cache_stats e.e_dl1;
    e_l2 = copy_cache_stats e.e_l2;
  }

let diff_cache_stats (a : Cache.stats) (b : Cache.stats) =
  {
    Cache.accesses = a.accesses - b.accesses;
    misses = a.misses - b.misses;
    writebacks = a.writebacks - b.writebacks;
    prefetch_fills = a.prefetch_fills - b.prefetch_fills;
  }

let events_diff after before =
  {
    e_cycles = after.e_cycles - before.e_cycles;
    e_insns = after.e_insns - before.e_insns;
    e_int_ops = after.e_int_ops - before.e_int_ops;
    e_mul_ops = after.e_mul_ops - before.e_mul_ops;
    e_fp_ops = after.e_fp_ops - before.e_fp_ops;
    e_mem_reads = after.e_mem_reads - before.e_mem_reads;
    e_mem_writes = after.e_mem_writes - before.e_mem_writes;
    e_branches = after.e_branches - before.e_branches;
    e_il1 = diff_cache_stats after.e_il1 before.e_il1;
    e_dl1 = diff_cache_stats after.e_dl1 before.e_dl1;
    e_l2 = diff_cache_stats after.e_l2 before.e_l2;
    e_btb = after.e_btb - before.e_btb;
    e_regfile_reads = after.e_regfile_reads - before.e_regfile_reads;
    e_regfile_writes = after.e_regfile_writes - before.e_regfile_writes;
  }

let pp_summary ppf s =
  Format.fprintf ppf
    "@[<v>insns %d, cycles %d, IPC %.3f@ branch accuracy %.2f%% (%d mispredicts)@ \
     IL1 miss %.2f%%, DL1 miss %.2f%%, L2 miss %.2f%%@ \
     ITLB miss %.3f%%, DTLB miss %.3f%%, prefetches %d@]"
    s.instructions s.cycles s.ipc
    (100. *. s.branch_accuracy)
    s.mispredicts (100. *. s.il1_miss_rate) (100. *. s.dl1_miss_rate)
    (100. *. s.l2_miss_rate)
    (100. *. s.itlb_miss_rate)
    (100. *. s.dtlb_miss_rate)
    s.prefetches

let attach t bus = Darco_obs.Bus.on_retire bus (step t)

let observe_latencies t =
  match t.lat_hist with
  | Some h -> h
  | None ->
    let h = Darco_obs.Hist.create () in
    t.lat_hist <- Some h;
    h

(* --- snapshot support ---------------------------------------------------- *)

type persisted = {
  p_cfg : Tconfig.t;
  p_l2 : Cache.persisted;
  p_il1 : Cache.persisted;
  p_dl1 : Cache.persisted;
  p_l2tlb : Tlb.persisted;
  p_itlb : Tlb.persisted;
  p_dtlb : Tlb.persisted;
  p_pf : Prefetch.persisted;
  p_bp : Predictor.persisted;
  p_int_ready : int array;
  p_fp_ready : int array;
  p_simple_free : int array;
  p_complex_free : int array;
  p_vector_free : int array;
  p_rport_free : int array;
  p_wport_free : int array;
  p_iq_ring : int array * int;
  p_inflight_ring : int array * int;
  p_fetch_cycle : int;
  p_fetch_count : int;
  p_last_fetch_line : int;
  p_redirect_at : int;
  p_last_issue : int;
  p_issued_in_cycle : int;
  p_horizon : int;
  p_insns : int;
  p_int_ops : int;
  p_mul_ops : int;
  p_fp_ops : int;
  p_mem_reads : int;
  p_mem_writes : int;
  p_branches : int;
  p_rf_reads : int;
  p_rf_writes : int;
}

let persist t =
  {
    p_cfg = t.cfg;
    p_l2 = Cache.persist t.l2;
    p_il1 = Cache.persist t.il1;
    p_dl1 = Cache.persist t.dl1;
    p_l2tlb = Tlb.persist t.l2tlb;
    p_itlb = Tlb.persist t.itlb;
    p_dtlb = Tlb.persist t.dtlb;
    p_pf = Prefetch.persist t.pf;
    p_bp = Predictor.persist t.bp;
    p_int_ready = Array.copy t.int_ready;
    p_fp_ready = Array.copy t.fp_ready;
    p_simple_free = Array.copy t.simple_free;
    p_complex_free = Array.copy t.complex_free;
    p_vector_free = Array.copy t.vector_free;
    p_rport_free = Array.copy t.rport_free;
    p_wport_free = Array.copy t.wport_free;
    p_iq_ring = (Array.copy t.iq_ring.buf, t.iq_ring.n);
    p_inflight_ring = (Array.copy t.inflight_ring.buf, t.inflight_ring.n);
    p_fetch_cycle = t.fetch_cycle;
    p_fetch_count = t.fetch_count;
    p_last_fetch_line = t.last_fetch_line;
    p_redirect_at = t.redirect_at;
    p_last_issue = t.last_issue;
    p_issued_in_cycle = t.issued_in_cycle;
    p_horizon = t.horizon;
    p_insns = t.insns;
    p_int_ops = t.int_ops;
    p_mul_ops = t.mul_ops;
    p_fp_ops = t.fp_ops;
    p_mem_reads = t.mem_reads;
    p_mem_writes = t.mem_writes;
    p_branches = t.branches;
    p_rf_reads = t.rf_reads;
    p_rf_writes = t.rf_writes;
  }

let blit_same name src dst =
  if Array.length src <> Array.length dst then
    invalid_arg ("Pipeline.restore: " ^ name ^ " size mismatch");
  Array.blit src 0 dst 0 (Array.length dst)

let restore p =
  let t = create p.p_cfg in
  Cache.apply t.l2 p.p_l2;
  Cache.apply t.il1 p.p_il1;
  Cache.apply t.dl1 p.p_dl1;
  Tlb.apply t.l2tlb p.p_l2tlb;
  Tlb.apply t.itlb p.p_itlb;
  Tlb.apply t.dtlb p.p_dtlb;
  Prefetch.apply t.pf p.p_pf;
  Predictor.apply t.bp p.p_bp;
  blit_same "int_ready" p.p_int_ready t.int_ready;
  blit_same "fp_ready" p.p_fp_ready t.fp_ready;
  blit_same "simple_free" p.p_simple_free t.simple_free;
  blit_same "complex_free" p.p_complex_free t.complex_free;
  blit_same "vector_free" p.p_vector_free t.vector_free;
  blit_same "rport_free" p.p_rport_free t.rport_free;
  blit_same "wport_free" p.p_wport_free t.wport_free;
  let ring_apply name r (buf, n) =
    blit_same name buf r.buf;
    r.n <- n;
    r.pos <- n mod Array.length r.buf
  in
  ring_apply "iq_ring" t.iq_ring p.p_iq_ring;
  ring_apply "inflight_ring" t.inflight_ring p.p_inflight_ring;
  t.fetch_cycle <- p.p_fetch_cycle;
  t.fetch_count <- p.p_fetch_count;
  t.last_fetch_line <- p.p_last_fetch_line;
  t.redirect_at <- p.p_redirect_at;
  t.last_issue <- p.p_last_issue;
  t.issued_in_cycle <- p.p_issued_in_cycle;
  t.horizon <- p.p_horizon;
  t.insns <- p.p_insns;
  t.int_ops <- p.p_int_ops;
  t.mul_ops <- p.p_mul_ops;
  t.fp_ops <- p.p_fp_ops;
  t.mem_reads <- p.p_mem_reads;
  t.mem_writes <- p.p_mem_writes;
  t.branches <- p.p_branches;
  t.rf_reads <- p.p_rf_reads;
  t.rf_writes <- p.p_rf_writes;
  t

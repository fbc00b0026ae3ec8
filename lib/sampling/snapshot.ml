open Darco_guest
open Darco_host
module B = Buf
module Stats = Darco_obs.Stats
module Jsonx = Darco_obs.Jsonx

type kind = Functional | Full

(* A snapshot holds already-encoded section payloads, so capturing is a deep
   copy: the live simulation can keep running without disturbing it. *)
type t = { snap_kind : kind; sections : (string * string) list }

let version = 1
let magic = "DSNP"
let guest_tag = "GUST"
let code_tag = "CODE"
let timing_tag = "TIMG"

let kind t = t.snap_kind

let section t tag =
  match List.assoc_opt tag t.sections with
  | Some payload -> payload
  | None -> B.corrupt (Printf.sprintf "snapshot has no %S section" tag)

(* --- small codecs -------------------------------------------------------- *)

let enum_w w to_int v = B.u8 w (to_int v)

let enum_r r of_int name =
  let n = B.read_u8 r in
  match of_int n with
  | Some v -> v
  | None -> B.corrupt (Printf.sprintf "invalid %s tag %d" name n)

let w_width w (x : Isa.width) =
  enum_w w (function Isa.W8 -> 0 | W16 -> 1 | W32 -> 2) x

let r_width r =
  enum_r r
    (function 0 -> Some Isa.W8 | 1 -> Some Isa.W16 | 2 -> Some Isa.W32 | _ -> None)
    "width"

let w_cpu w (c : Cpu.t) =
  B.int_array w c.regs;
  B.float_array w c.fregs;
  B.int w c.flags;
  B.int w c.eip;
  B.bool w c.halted

let r_cpu r : Cpu.t =
  let regs = B.read_int_array r in
  let fregs = B.read_float_array r in
  let flags = B.read_int r in
  let eip = B.read_int r in
  let halted = B.read_bool r in
  if Array.length regs <> 8 || Array.length fregs <> 8 then
    B.corrupt "guest register file has wrong size";
  { regs; fregs; flags; eip; halted }

let w_memory w mem =
  B.list w
    (fun w idx ->
      B.int w idx;
      B.bytes w (Memory.get_page mem idx))
    (Memory.touched_pages mem)

let r_memory r policy =
  let mem = Memory.create policy in
  let pages =
    B.read_list r (fun r ->
        let idx = B.read_int r in
        let data = B.read_bytes r in
        (idx, data))
  in
  List.iter
    (fun (idx, data) ->
      if Bytes.length data <> Memory.page_size then
        B.corrupt "memory page has wrong size";
      Memory.install_page mem idx data)
    pages;
  mem

let w_sys w (s : Syscall.persisted) =
  B.int w s.p_brk;
  B.int w s.p_time;
  B.int w s.p_input_pos;
  B.str w s.p_input;
  B.i64 w s.p_rng_state;
  B.str w s.p_output

let r_sys r : Syscall.persisted =
  let p_brk = B.read_int r in
  let p_time = B.read_int r in
  let p_input_pos = B.read_int r in
  let p_input = B.read_str r in
  let p_rng_state = B.read_i64 r in
  let p_output = B.read_str r in
  { p_brk; p_time; p_input_pos; p_input; p_rng_state; p_output }

(* --- configuration ------------------------------------------------------- *)

let w_costs w (c : Darco.Config.costs) =
  B.int w c.interp_per_insn;
  B.int w c.interp_profile_bb;
  B.int w c.bb_translate_base;
  B.int w c.bb_translate_per_insn;
  B.int w c.sb_translate_base;
  B.int w c.sb_translate_per_insn;
  B.int w c.prologue;
  B.int w c.cc_lookup;
  B.int w c.chain_attempt;
  B.int w c.ibtc_fill;
  B.int w c.dispatch_other;
  B.int w c.init_once

let r_costs r : Darco.Config.costs =
  let interp_per_insn = B.read_int r in
  let interp_profile_bb = B.read_int r in
  let bb_translate_base = B.read_int r in
  let bb_translate_per_insn = B.read_int r in
  let sb_translate_base = B.read_int r in
  let sb_translate_per_insn = B.read_int r in
  let prologue = B.read_int r in
  let cc_lookup = B.read_int r in
  let chain_attempt = B.read_int r in
  let ibtc_fill = B.read_int r in
  let dispatch_other = B.read_int r in
  let init_once = B.read_int r in
  {
    interp_per_insn;
    interp_profile_bb;
    bb_translate_base;
    bb_translate_per_insn;
    sb_translate_base;
    sb_translate_per_insn;
    prologue;
    cc_lookup;
    chain_attempt;
    ibtc_fill;
    dispatch_other;
    init_once;
  }

let w_config w (c : Darco.Config.t) =
  B.int w c.bb_threshold;
  B.int w c.sb_threshold;
  B.int w c.sb_max_insns;
  B.int w c.sb_max_bbs;
  B.f64 w c.branch_bias;
  B.f64 w c.min_reach_prob;
  B.int w c.unroll_factor;
  B.int w c.assert_fail_limit;
  B.bool w c.use_asserts;
  B.bool w c.use_mem_speculation;
  B.bool w c.opt_const_fold;
  B.bool w c.opt_copy_prop;
  B.bool w c.opt_cse;
  B.bool w c.opt_dce;
  B.bool w c.opt_rle;
  B.bool w c.opt_schedule;
  B.bool w c.use_chaining;
  B.bool w c.use_ibtc;
  B.int w c.ibtc_bits;
  enum_w w
    (function Darco.Config.No_fault -> 0 | Opt_drop_store -> 1 | Sched_break_dep -> 2)
    c.inject_fault;
  B.int w c.slice_fuel;
  B.int w c.code_cache_capacity;
  w_costs w c.costs

let r_config r : Darco.Config.t =
  let bb_threshold = B.read_int r in
  let sb_threshold = B.read_int r in
  let sb_max_insns = B.read_int r in
  let sb_max_bbs = B.read_int r in
  let branch_bias = B.read_f64 r in
  let min_reach_prob = B.read_f64 r in
  let unroll_factor = B.read_int r in
  let assert_fail_limit = B.read_int r in
  let use_asserts = B.read_bool r in
  let use_mem_speculation = B.read_bool r in
  let opt_const_fold = B.read_bool r in
  let opt_copy_prop = B.read_bool r in
  let opt_cse = B.read_bool r in
  let opt_dce = B.read_bool r in
  let opt_rle = B.read_bool r in
  let opt_schedule = B.read_bool r in
  let use_chaining = B.read_bool r in
  let use_ibtc = B.read_bool r in
  let ibtc_bits = B.read_int r in
  let inject_fault =
    enum_r r
      (function
        | 0 -> Some Darco.Config.No_fault
        | 1 -> Some Opt_drop_store
        | 2 -> Some Sched_break_dep
        | _ -> None)
      "fault"
  in
  let slice_fuel = B.read_int r in
  let code_cache_capacity = B.read_int r in
  let costs = r_costs r in
  {
    bb_threshold;
    sb_threshold;
    sb_max_insns;
    sb_max_bbs;
    branch_bias;
    min_reach_prob;
    unroll_factor;
    assert_fail_limit;
    use_asserts;
    use_mem_speculation;
    opt_const_fold;
    opt_copy_prop;
    opt_cse;
    opt_dce;
    opt_rle;
    opt_schedule;
    use_chaining;
    use_ibtc;
    ibtc_bits;
    inject_fault;
    slice_fuel;
    code_cache_capacity;
    (* Deliberately not on the wire (format stays v1): the engine is an
       execution-strategy choice of the restoring process, not simulated
       state — a snapshot taken under one engine resumes under another. *)
    engine = Darco.Config.default.engine;
    costs;
  }

(* --- statistics ---------------------------------------------------------- *)

let w_stats w (s : Stats.t) =
  B.int w s.guest_im;
  B.int w s.guest_bbm;
  B.int w s.guest_sbm;
  B.int w s.host_app_bbm;
  B.int w s.host_app_sbm;
  B.int_array w s.overhead;
  B.int w s.bb_translations;
  B.int w s.sb_translations;
  B.int w s.sb_rebuilds_noassert;
  B.int w s.sb_rebuilds_nomem;
  B.int w s.assert_rollbacks;
  B.int w s.alias_rollbacks;
  B.int w s.page_requests;
  B.int w s.syscalls;
  B.int w s.chains_made;
  B.int w s.chains_followed;
  B.int w s.ibtc_fills;
  B.int w s.ibtc_misses;
  B.int w s.code_cache_flushes;
  B.int w s.wasted_host;
  B.int w s.validations;
  B.option w B.int s.startup_insns;
  B.int w s.unrolled_superblocks

let r_stats r : Stats.t =
  let guest_im = B.read_int r in
  let guest_bbm = B.read_int r in
  let guest_sbm = B.read_int r in
  let host_app_bbm = B.read_int r in
  let host_app_sbm = B.read_int r in
  let overhead = B.read_int_array r in
  if Array.length overhead <> 7 then B.corrupt "overhead array has wrong size";
  let bb_translations = B.read_int r in
  let sb_translations = B.read_int r in
  let sb_rebuilds_noassert = B.read_int r in
  let sb_rebuilds_nomem = B.read_int r in
  let assert_rollbacks = B.read_int r in
  let alias_rollbacks = B.read_int r in
  let page_requests = B.read_int r in
  let syscalls = B.read_int r in
  let chains_made = B.read_int r in
  let chains_followed = B.read_int r in
  let ibtc_fills = B.read_int r in
  let ibtc_misses = B.read_int r in
  let code_cache_flushes = B.read_int r in
  let wasted_host = B.read_int r in
  let validations = B.read_int r in
  let startup_insns = B.read_option r B.read_int in
  let unrolled_superblocks = B.read_int r in
  {
    guest_im;
    guest_bbm;
    guest_sbm;
    host_app_bbm;
    host_app_sbm;
    overhead;
    bb_translations;
    sb_translations;
    sb_rebuilds_noassert;
    sb_rebuilds_nomem;
    assert_rollbacks;
    alias_rollbacks;
    page_requests;
    syscalls;
    chains_made;
    chains_followed;
    ibtc_fills;
    ibtc_misses;
    code_cache_flushes;
    wasted_host;
    validations;
    startup_insns;
    unrolled_superblocks;
  }

(* --- host code ----------------------------------------------------------- *)

let w_binop w (x : Code.binop) =
  enum_w w
    (function
      | Code.Add -> 0 | Sub -> 1 | Mul -> 2 | Mulhu -> 3 | Mulhs -> 4
      | And -> 5 | Or -> 6 | Xor -> 7 | Shl -> 8 | Shr -> 9 | Sar -> 10
      | Slt -> 11 | Sltu -> 12 | Seq -> 13 | Sne -> 14)
    x

let r_binop r =
  enum_r r
    (function
      | 0 -> Some Code.Add | 1 -> Some Code.Sub | 2 -> Some Code.Mul
      | 3 -> Some Code.Mulhu | 4 -> Some Code.Mulhs | 5 -> Some Code.And
      | 6 -> Some Code.Or | 7 -> Some Code.Xor | 8 -> Some Code.Shl
      | 9 -> Some Code.Shr | 10 -> Some Code.Sar | 11 -> Some Code.Slt
      | 12 -> Some Code.Sltu | 13 -> Some Code.Seq | 14 -> Some Code.Sne
      | _ -> None)
    "binop"

let w_cmp w (x : Code.cmp) =
  enum_w w
    (function
      | Code.Beq -> 0 | Bne -> 1 | Blt -> 2 | Bge -> 3 | Bltu -> 4 | Bgeu -> 5)
    x

let r_cmp r =
  enum_r r
    (function
      | 0 -> Some Code.Beq | 1 -> Some Code.Bne | 2 -> Some Code.Blt
      | 3 -> Some Code.Bge | 4 -> Some Code.Bltu | 5 -> Some Code.Bgeu
      | _ -> None)
    "cmp"

let w_fbinop w (x : Code.fbinop) =
  enum_w w (function Code.Fadd -> 0 | Fsub -> 1 | Fmul -> 2 | Fdiv -> 3) x

let r_fbinop r =
  enum_r r
    (function
      | 0 -> Some Code.Fadd | 1 -> Some Code.Fsub | 2 -> Some Code.Fmul
      | 3 -> Some Code.Fdiv | _ -> None)
    "fbinop"

let w_funop w (x : Code.funop) =
  enum_w w (function Code.Fsqrt -> 0 | Fabs -> 1 | Fneg -> 2) x

let r_funop r =
  enum_r r
    (function
      | 0 -> Some Code.Fsqrt | 1 -> Some Code.Fabs | 2 -> Some Code.Fneg
      | _ -> None)
    "funop"

let w_rt_fn w (x : Code.rt_fn) =
  enum_w w (function Code.Rt_sin -> 0 | Rt_cos -> 1 | Rt_divu -> 2 | Rt_divs -> 3) x

let r_rt_fn r =
  enum_r r
    (function
      | 0 -> Some Code.Rt_sin | 1 -> Some Code.Rt_cos | 2 -> Some Code.Rt_divu
      | 3 -> Some Code.Rt_divs | _ -> None)
    "rt_fn"

let w_flkind w (x : Code.flkind) =
  enum_w w
    (function
      | Code.Fl_add -> 0 | Fl_adc -> 1 | Fl_sub -> 2 | Fl_sbb -> 3
      | Fl_logic -> 4 | Fl_shl -> 5 | Fl_shr -> 6 | Fl_sar -> 7 | Fl_rol -> 8
      | Fl_ror -> 9 | Fl_inc -> 10 | Fl_dec -> 11 | Fl_neg -> 12
      | Fl_mulu -> 13 | Fl_muls -> 14)
    x

let r_flkind r =
  enum_r r
    (function
      | 0 -> Some Code.Fl_add | 1 -> Some Code.Fl_adc | 2 -> Some Code.Fl_sub
      | 3 -> Some Code.Fl_sbb | 4 -> Some Code.Fl_logic | 5 -> Some Code.Fl_shl
      | 6 -> Some Code.Fl_shr | 7 -> Some Code.Fl_sar | 8 -> Some Code.Fl_rol
      | 9 -> Some Code.Fl_ror | 10 -> Some Code.Fl_inc | 11 -> Some Code.Fl_dec
      | 12 -> Some Code.Fl_neg | 13 -> Some Code.Fl_mulu
      | 14 -> Some Code.Fl_muls | _ -> None)
    "flkind"

let w_exit_kind w (x : Code.exit_kind) =
  match x with
  | Code.Exit_direct pc -> B.u8 w 0; B.int w pc
  | Exit_indirect reg -> B.u8 w 1; B.int w reg
  | Exit_syscall pc -> B.u8 w 2; B.int w pc
  | Exit_interp pc -> B.u8 w 3; B.int w pc
  | Exit_promote pc -> B.u8 w 4; B.int w pc
  | Exit_halt -> B.u8 w 5

let r_exit_kind r : Code.exit_kind =
  match B.read_u8 r with
  | 0 -> Exit_direct (B.read_int r)
  | 1 -> Exit_indirect (B.read_int r)
  | 2 -> Exit_syscall (B.read_int r)
  | 3 -> Exit_interp (B.read_int r)
  | 4 -> Exit_promote (B.read_int r)
  | 5 -> Exit_halt
  | n -> B.corrupt (Printf.sprintf "invalid exit_kind tag %d" n)

(* Chain links are serialized as target-region ids; a second pass after all
   regions are decoded patches the [region option] pointers and rebuilds the
   [incoming] lists from the live exits. *)
let w_exit w (e : Code.exit_info) =
  B.int w e.exit_id;
  w_exit_kind w e.kind;
  B.int w e.guest_retired;
  B.option w B.int (Option.map (fun (tgt : Code.region) -> tgt.id) e.chain);
  B.bool w e.prefer_bb

type pending_exit = { exit_ : Code.exit_info; chain_id : int option }

let r_exit r pending : Code.exit_info =
  let exit_id = B.read_int r in
  let kind = r_exit_kind r in
  let guest_retired = B.read_int r in
  let chain_id = B.read_option r B.read_int in
  let prefer_bb = B.read_bool r in
  let e : Code.exit_info = { exit_id; kind; guest_retired; chain = None; prefer_bb } in
  pending := { exit_ = e; chain_id } :: !pending;
  e

let w_insn w (i : Code.insn) =
  match i with
  | Code.Nop -> B.u8 w 0
  | Li (rd, v) -> B.u8 w 1; B.int w rd; B.int w v
  | Bin (op, rd, ra, rb) -> B.u8 w 2; w_binop w op; B.int w rd; B.int w ra; B.int w rb
  | Bini (op, rd, ra, v) -> B.u8 w 3; w_binop w op; B.int w rd; B.int w ra; B.int w v
  | Load (wd, s, rd, ra, d) ->
    B.u8 w 4; w_width w wd; B.bool w s; B.int w rd; B.int w ra; B.int w d
  | Sload (wd, s, rd, ra, d) ->
    B.u8 w 5; w_width w wd; B.bool w s; B.int w rd; B.int w ra; B.int w d
  | Store (wd, rv, ra, d) -> B.u8 w 6; w_width w wd; B.int w rv; B.int w ra; B.int w d
  | Fli (fd, v) -> B.u8 w 7; B.int w fd; B.f64 w v
  | Fmov (fd, fs) -> B.u8 w 8; B.int w fd; B.int w fs
  | Fbin (op, fd, fa, fb) -> B.u8 w 9; w_fbinop w op; B.int w fd; B.int w fa; B.int w fb
  | Fun (op, fd, fa) -> B.u8 w 10; w_funop w op; B.int w fd; B.int w fa
  | Fload (fd, ra, d) -> B.u8 w 11; B.int w fd; B.int w ra; B.int w d
  | Fstore (fv, ra, d) -> B.u8 w 12; B.int w fv; B.int w ra; B.int w d
  | Fcmp (rd, fa, fb) -> B.u8 w 13; B.int w rd; B.int w fa; B.int w fb
  | Cvtif (fd, ra) -> B.u8 w 14; B.int w fd; B.int w ra
  | Cvtfi (rd, fa) -> B.u8 w 15; B.int w rd; B.int w fa
  | Mkfl (k, rd, a, b, c) ->
    B.u8 w 16; w_flkind w k; B.int w rd; B.int w a; B.int w b; B.int w c
  | Isel (rd, rc, ra, rb) -> B.u8 w 17; B.int w rd; B.int w rc; B.int w ra; B.int w rb
  | Callrt_f (fn, fd, fs) -> B.u8 w 18; w_rt_fn w fn; B.int w fd; B.int w fs
  | Callrt_div { signed; q; r; hi; lo; d } ->
    B.u8 w 19; B.bool w signed; B.int w q; B.int w r;
    B.int w hi; B.int w lo; B.int w d
  | B (c, ra, rb, t) -> B.u8 w 20; w_cmp w c; B.int w ra; B.int w rb; B.int w t
  | J t -> B.u8 w 21; B.int w t
  | Jr (ra, rg) -> B.u8 w 22; B.int w ra; B.int w rg
  | Assert (c, ra, rb) -> B.u8 w 23; w_cmp w c; B.int w ra; B.int w rb
  | Chk -> B.u8 w 24
  | Commit n -> B.u8 w 25; B.int w n
  | Exit e -> B.u8 w 26; w_exit w e

let r_insn r pending : Code.insn =
  match B.read_u8 r with
  | 0 -> Nop
  | 1 ->
    let rd = B.read_int r in
    Li (rd, B.read_int r)
  | 2 ->
    let op = r_binop r in
    let rd = B.read_int r in
    let ra = B.read_int r in
    Bin (op, rd, ra, B.read_int r)
  | 3 ->
    let op = r_binop r in
    let rd = B.read_int r in
    let ra = B.read_int r in
    Bini (op, rd, ra, B.read_int r)
  | 4 ->
    let wd = r_width r in
    let s = B.read_bool r in
    let rd = B.read_int r in
    let ra = B.read_int r in
    Load (wd, s, rd, ra, B.read_int r)
  | 5 ->
    let wd = r_width r in
    let s = B.read_bool r in
    let rd = B.read_int r in
    let ra = B.read_int r in
    Sload (wd, s, rd, ra, B.read_int r)
  | 6 ->
    let wd = r_width r in
    let rv = B.read_int r in
    let ra = B.read_int r in
    Store (wd, rv, ra, B.read_int r)
  | 7 ->
    let fd = B.read_int r in
    Fli (fd, B.read_f64 r)
  | 8 ->
    let fd = B.read_int r in
    Fmov (fd, B.read_int r)
  | 9 ->
    let op = r_fbinop r in
    let fd = B.read_int r in
    let fa = B.read_int r in
    Fbin (op, fd, fa, B.read_int r)
  | 10 ->
    let op = r_funop r in
    let fd = B.read_int r in
    Fun (op, fd, B.read_int r)
  | 11 ->
    let fd = B.read_int r in
    let ra = B.read_int r in
    Fload (fd, ra, B.read_int r)
  | 12 ->
    let fv = B.read_int r in
    let ra = B.read_int r in
    Fstore (fv, ra, B.read_int r)
  | 13 ->
    let rd = B.read_int r in
    let fa = B.read_int r in
    Fcmp (rd, fa, B.read_int r)
  | 14 ->
    let fd = B.read_int r in
    Cvtif (fd, B.read_int r)
  | 15 ->
    let rd = B.read_int r in
    Cvtfi (rd, B.read_int r)
  | 16 ->
    let k = r_flkind r in
    let rd = B.read_int r in
    let a = B.read_int r in
    let b = B.read_int r in
    Mkfl (k, rd, a, b, B.read_int r)
  | 17 ->
    let rd = B.read_int r in
    let rc = B.read_int r in
    let ra = B.read_int r in
    Isel (rd, rc, ra, B.read_int r)
  | 18 ->
    let fn = r_rt_fn r in
    let fd = B.read_int r in
    Callrt_f (fn, fd, B.read_int r)
  | 19 ->
    let signed = B.read_bool r in
    let q = B.read_int r in
    let rr = B.read_int r in
    let hi = B.read_int r in
    let lo = B.read_int r in
    Callrt_div { signed; q; r = rr; hi; lo; d = B.read_int r }
  | 20 ->
    let c = r_cmp r in
    let ra = B.read_int r in
    let rb = B.read_int r in
    B (c, ra, rb, B.read_int r)
  | 21 -> J (B.read_int r)
  | 22 ->
    let ra = B.read_int r in
    Jr (ra, B.read_int r)
  | 23 ->
    let c = r_cmp r in
    let ra = B.read_int r in
    Assert (c, ra, B.read_int r)
  | 24 -> Chk
  | 25 -> Commit (B.read_int r)
  | 26 -> Exit (r_exit r pending)
  | n -> B.corrupt (Printf.sprintf "invalid insn tag %d" n)

let w_region w (rg : Code.region) =
  B.int w rg.id;
  B.int w rg.entry_pc;
  enum_w w (function `Bb -> 0 | `Super -> 1) rg.mode;
  B.int w rg.base;
  B.bool w rg.invalidated;
  B.array w w_insn rg.code

let r_region r pending : Code.region =
  let id = B.read_int r in
  let entry_pc = B.read_int r in
  let mode =
    enum_r r (function 0 -> Some `Bb | 1 -> Some `Super | _ -> None) "region mode"
  in
  let base = B.read_int r in
  let invalidated = B.read_bool r in
  let code = B.read_array r (fun r -> r_insn r pending) in
  { id; entry_pc; mode; base; code; incoming = []; invalidated }

let w_codecache w (p : Darco.Codecache.persisted) =
  B.list w w_region p.p_regions;
  B.list w
    (fun w (pc, ids) ->
      B.int w pc;
      B.list w B.int ids)
    p.p_by_pc;
  B.int w p.p_next_id;
  B.int w p.p_next_base;
  B.int w p.p_total_insns;
  B.int w p.p_ibtc_base;
  B.int w p.p_ibtc_entries

let r_codecache r : Darco.Codecache.persisted =
  let pending = ref [] in
  let p_regions = B.read_list r (fun r -> r_region r pending) in
  let by_id = Hashtbl.create 64 in
  List.iter (fun (rg : Code.region) -> Hashtbl.replace by_id rg.id rg) p_regions;
  (* Patch chain pointers and rebuild incoming lists.  [pending] is in
     reverse decode order; reverse it so the rebuild is deterministic. *)
  List.iter
    (fun { exit_; chain_id } ->
      match chain_id with
      | None -> ()
      | Some id -> (
        match Hashtbl.find_opt by_id id with
        | None -> B.corrupt (Printf.sprintf "chain to unknown region %d" id)
        | Some target ->
          exit_.chain <- Some target;
          target.incoming <- exit_ :: target.incoming))
    (List.rev !pending);
  let p_by_pc =
    B.read_list r (fun r ->
        let pc = B.read_int r in
        let ids = B.read_list r B.read_int in
        List.iter
          (fun id ->
            if not (Hashtbl.mem by_id id) then
              B.corrupt (Printf.sprintf "pc index references unknown region %d" id))
          ids;
        (pc, ids))
  in
  let p_next_id = B.read_int r in
  let p_next_base = B.read_int r in
  let p_total_insns = B.read_int r in
  let p_ibtc_base = B.read_int r in
  let p_ibtc_entries = B.read_int r in
  {
    p_regions;
    p_by_pc;
    p_next_id;
    p_next_base;
    p_total_insns;
    p_ibtc_base;
    p_ibtc_entries;
  }

(* --- profiler / hashtable bookkeeping ------------------------------------ *)

let w_profile w (p : Darco.Profile.persisted) =
  B.list w
    (fun w (pc, n) ->
      B.int w pc;
      B.int w n)
    p.p_interp;
  B.list w
    (fun w (pc, addr) ->
      B.int w pc;
      B.int w addr)
    p.p_exec;
  B.list w
    (fun w (pc, (t, f)) ->
      B.int w pc;
      B.int w t;
      B.int w f)
    p.p_edges

let r_profile r : Darco.Profile.persisted =
  let pair r =
    let a = B.read_int r in
    (a, B.read_int r)
  in
  let p_interp = B.read_list r pair in
  let p_exec = B.read_list r pair in
  let p_edges =
    B.read_list r (fun r ->
        let pc = B.read_int r in
        let t = B.read_int r in
        (pc, (t, B.read_int r)))
  in
  { p_interp; p_exec; p_edges }

let sorted_tbl tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let tbl_of_list xs =
  let tbl = Hashtbl.create (max 16 (List.length xs)) in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) xs;
  tbl

(* --- sections ------------------------------------------------------------ *)

let encode_guest (ir : Interp_ref.t) =
  let w = B.writer () in
  B.int w ir.retired;
  B.option w B.int ir.exit_code;
  w_cpu w ir.cpu;
  w_sys w (Syscall.persist ir.sys);
  w_memory w ir.mem;
  B.contents w

let decode_guest payload : Interp_ref.t =
  let r = B.reader payload in
  let retired = B.read_int r in
  let exit_code = B.read_option r B.read_int in
  let cpu = r_cpu r in
  let sys = Syscall.unpersist (r_sys r) in
  let mem = r_memory r `Auto_zero in
  B.expect_end r;
  { cpu; mem; sys; icache = Step.icache_create (); retired; exit_code; last_effects = [] }

let encode_code (ctl : Darco.Controller.t) =
  let w = B.writer () in
  w_config w ctl.cfg;
  B.bool w ctl.validate_at_checkpoints;
  B.bool w ctl.validate_memory;
  B.option w
    (fun w (d : Darco.Controller.divergence) ->
      B.int w d.at_retired;
      B.list w B.str d.details)
    ctl.divergence;
  let co = ctl.co in
  w_config w co.cfg;
  w_stats w co.stats;
  w_cpu w co.cpu;
  w_memory w co.mem;
  (* host machine: at a synchronization boundary the store buffer and alias
     table are empty, but serialize them anyway so capture never lies *)
  B.int_array w co.machine.r;
  B.float_array w co.machine.f;
  B.list w
    (fun w (a, v) ->
      B.int w a;
      B.int w v)
    (Machine.pending_bytes co.machine);
  B.list w
    (fun w (a, b) ->
      B.int w a;
      B.int w b)
    co.machine.aliases;
  B.int_array w co.machine.ckpt_r;
  B.float_array w co.machine.ckpt_f;
  B.int w (Darco.Tolmem.brk co.tolmem);
  w_profile w (Darco.Profile.persist co.profile);
  w_codecache w (Darco.Codecache.persist co.codecache);
  B.list w
    (fun w (id, n) ->
      B.int w id;
      B.int w n)
    (sorted_tbl co.fails);
  B.list w
    (fun w (pc, (na, nm)) ->
      B.int w pc;
      B.bool w na;
      B.bool w nm)
    (sorted_tbl co.deopt);
  B.contents w

let decode_code ?bus ~(reference : Interp_ref.t) payload : Darco.Controller.t =
  let bus = match bus with Some b -> b | None -> Darco_obs.Bus.create () in
  let r = B.reader payload in
  let cfg = r_config r in
  let validate_at_checkpoints = B.read_bool r in
  let validate_memory = B.read_bool r in
  let divergence =
    B.read_option r (fun r ->
        let at_retired = B.read_int r in
        let details = B.read_list r B.read_str in
        ({ at_retired; details } : Darco.Controller.divergence))
  in
  let co_cfg = r_config r in
  let stats = r_stats r in
  let cpu = r_cpu r in
  let mem = r_memory r `Fault in
  let mr = B.read_int_array r in
  let mf = B.read_float_array r in
  if Array.length mr <> 64 || Array.length mf <> 32 then
    B.corrupt "host register file has wrong size";
  let pending =
    B.read_list r (fun r ->
        let a = B.read_int r in
        (a, B.read_int r))
  in
  let aliases =
    B.read_list r (fun r ->
        let a = B.read_int r in
        (a, B.read_int r))
  in
  let ckpt_r = B.read_int_array r in
  let ckpt_f = B.read_float_array r in
  let machine = Machine.create mem in
  Array.blit mr 0 machine.r 0 64;
  Array.blit mf 0 machine.f 0 32;
  List.iter (fun (a, v) -> Machine.store machine W8 a v) pending;
  machine.aliases <- aliases;
  machine.ckpt_r <- ckpt_r;
  machine.ckpt_f <- ckpt_f;
  let brk = B.read_int r in
  let tolmem = Darco.Tolmem.restore mem ~brk in
  let profile = Darco.Profile.unpersist tolmem (r_profile r) in
  let codecache = Darco.Codecache.unpersist ~bus tolmem stats (r_codecache r) in
  let fails =
    tbl_of_list
      (B.read_list r (fun r ->
           let id = B.read_int r in
           (id, B.read_int r)))
  in
  let deopt =
    tbl_of_list
      (B.read_list r (fun r ->
           let pc = B.read_int r in
           let na = B.read_bool r in
           (pc, (na, B.read_bool r))))
  in
  B.expect_end r;
  let co : Darco.Tol.t =
    {
      cfg = co_cfg;
      stats;
      bus;
      cpu;
      mem;
      machine;
      icache = Step.icache_create ();
      profile;
      tolmem;
      codecache;
      fails;
      deopt;
    }
  in
  { cfg; reference; co; divergence; validate_at_checkpoints; validate_memory }

(* --- timing section ------------------------------------------------------ *)

let w_geom w (g : Darco_timing.Tconfig.cache_geom) =
  B.int w g.sets;
  B.int w g.ways;
  B.int w g.line;
  B.int w g.latency

let r_geom r : Darco_timing.Tconfig.cache_geom =
  let sets = B.read_int r in
  let ways = B.read_int r in
  let line = B.read_int r in
  let latency = B.read_int r in
  { sets; ways; line; latency }

let w_tlb_geom w (g : Darco_timing.Tconfig.tlb_geom) =
  B.int w g.entries;
  B.int w g.latency

let r_tlb_geom r : Darco_timing.Tconfig.tlb_geom =
  let entries = B.read_int r in
  let latency = B.read_int r in
  { entries; latency }

let w_tconfig w (c : Darco_timing.Tconfig.t) =
  B.int w c.fetch_width;
  B.int w c.decode_depth;
  B.int w c.issue_width;
  B.int w c.iq_size;
  B.int w c.phys_regs;
  B.int w c.n_simple;
  B.int w c.n_complex;
  B.int w c.n_vector;
  B.int w c.mem_read_ports;
  B.int w c.mem_write_ports;
  B.int w c.complex_mul_latency;
  B.int w c.fp_latency;
  B.int w c.fp_div_latency;
  B.int w c.gshare_bits;
  B.int w c.btb_entries;
  B.int w c.mispredict_penalty;
  w_geom w c.il1;
  w_geom w c.dl1;
  w_geom w c.l2;
  w_tlb_geom w c.itlb;
  w_tlb_geom w c.dtlb;
  w_tlb_geom w c.l2tlb;
  B.int w c.tlb_walk_latency;
  B.int w c.mem_latency;
  B.bool w c.prefetch;
  B.int w c.prefetch_table;
  B.int w c.prefetch_degree;
  B.int w c.vector_length

let r_tconfig r : Darco_timing.Tconfig.t =
  let fetch_width = B.read_int r in
  let decode_depth = B.read_int r in
  let issue_width = B.read_int r in
  let iq_size = B.read_int r in
  let phys_regs = B.read_int r in
  let n_simple = B.read_int r in
  let n_complex = B.read_int r in
  let n_vector = B.read_int r in
  let mem_read_ports = B.read_int r in
  let mem_write_ports = B.read_int r in
  let complex_mul_latency = B.read_int r in
  let fp_latency = B.read_int r in
  let fp_div_latency = B.read_int r in
  let gshare_bits = B.read_int r in
  let btb_entries = B.read_int r in
  let mispredict_penalty = B.read_int r in
  let il1 = r_geom r in
  let dl1 = r_geom r in
  let l2 = r_geom r in
  let itlb = r_tlb_geom r in
  let dtlb = r_tlb_geom r in
  let l2tlb = r_tlb_geom r in
  let tlb_walk_latency = B.read_int r in
  let mem_latency = B.read_int r in
  let prefetch = B.read_bool r in
  let prefetch_table = B.read_int r in
  let prefetch_degree = B.read_int r in
  let vector_length = B.read_int r in
  {
    fetch_width;
    decode_depth;
    issue_width;
    iq_size;
    phys_regs;
    n_simple;
    n_complex;
    n_vector;
    mem_read_ports;
    mem_write_ports;
    complex_mul_latency;
    fp_latency;
    fp_div_latency;
    gshare_bits;
    btb_entries;
    mispredict_penalty;
    il1;
    dl1;
    l2;
    itlb;
    dtlb;
    l2tlb;
    tlb_walk_latency;
    mem_latency;
    prefetch;
    prefetch_table;
    prefetch_degree;
    vector_length;
  }

let w_cache w (p : Darco_timing.Cache.persisted) =
  B.array w
    (fun w set ->
      B.array w
        (fun w (tag, valid, dirty, lru) ->
          B.int w tag;
          B.bool w valid;
          B.bool w dirty;
          B.int w lru)
        set)
    p.p_lines;
  B.int w p.p_tick;
  B.int w p.p_accesses;
  B.int w p.p_misses;
  B.int w p.p_writebacks;
  B.int w p.p_prefetch_fills

let r_cache r : Darco_timing.Cache.persisted =
  let p_lines =
    B.read_array r (fun r ->
        B.read_array r (fun r ->
            let tag = B.read_int r in
            let valid = B.read_bool r in
            let dirty = B.read_bool r in
            (tag, valid, dirty, B.read_int r)))
  in
  let p_tick = B.read_int r in
  let p_accesses = B.read_int r in
  let p_misses = B.read_int r in
  let p_writebacks = B.read_int r in
  let p_prefetch_fills = B.read_int r in
  { p_lines; p_tick; p_accesses; p_misses; p_writebacks; p_prefetch_fills }

let w_tlb w (p : Darco_timing.Tlb.persisted) =
  B.array w
    (fun w (vpn, valid, lru) ->
      B.int w vpn;
      B.bool w valid;
      B.int w lru)
    p.p_entries;
  B.int w p.p_tick;
  B.int w p.p_accesses;
  B.int w p.p_misses

let r_tlb r : Darco_timing.Tlb.persisted =
  let p_entries =
    B.read_array r (fun r ->
        let vpn = B.read_int r in
        let valid = B.read_bool r in
        (vpn, valid, B.read_int r))
  in
  let p_tick = B.read_int r in
  let p_accesses = B.read_int r in
  let p_misses = B.read_int r in
  { p_entries; p_tick; p_accesses; p_misses }

let w_prefetch w (p : Darco_timing.Prefetch.persisted) =
  B.array w
    (fun w (tag, last_addr, stride, confidence) ->
      B.int w tag;
      B.int w last_addr;
      B.int w stride;
      B.int w confidence)
    p.p_table;
  B.int w p.p_issued;
  B.int w p.p_triggered

let r_prefetch r : Darco_timing.Prefetch.persisted =
  let p_table =
    B.read_array r (fun r ->
        let tag = B.read_int r in
        let last_addr = B.read_int r in
        let stride = B.read_int r in
        (tag, last_addr, stride, B.read_int r))
  in
  let p_issued = B.read_int r in
  let p_triggered = B.read_int r in
  { p_table; p_issued; p_triggered }

let w_predictor w (p : Darco_timing.Predictor.persisted) =
  B.int_array w p.p_pht;
  B.int w p.p_ghr;
  B.int_array w p.p_btb_tag;
  B.int_array w p.p_btb_target;
  B.int w p.p_branches;
  B.int w p.p_mispredicts;
  B.int w p.p_btb_misses

let r_predictor r : Darco_timing.Predictor.persisted =
  let p_pht = B.read_int_array r in
  let p_ghr = B.read_int r in
  let p_btb_tag = B.read_int_array r in
  let p_btb_target = B.read_int_array r in
  let p_branches = B.read_int r in
  let p_mispredicts = B.read_int r in
  let p_btb_misses = B.read_int r in
  { p_pht; p_ghr; p_btb_tag; p_btb_target; p_branches; p_mispredicts; p_btb_misses }

let w_ring w (buf, n) =
  B.int_array w buf;
  B.int w n

let r_ring r =
  let buf = B.read_int_array r in
  (buf, B.read_int r)

let encode_timing pipeline =
  let p = Darco_timing.Pipeline.persist pipeline in
  let w = B.writer () in
  w_tconfig w p.p_cfg;
  w_cache w p.p_l2;
  w_cache w p.p_il1;
  w_cache w p.p_dl1;
  w_tlb w p.p_l2tlb;
  w_tlb w p.p_itlb;
  w_tlb w p.p_dtlb;
  w_prefetch w p.p_pf;
  w_predictor w p.p_bp;
  B.int_array w p.p_int_ready;
  B.int_array w p.p_fp_ready;
  B.int_array w p.p_simple_free;
  B.int_array w p.p_complex_free;
  B.int_array w p.p_vector_free;
  B.int_array w p.p_rport_free;
  B.int_array w p.p_wport_free;
  w_ring w p.p_iq_ring;
  w_ring w p.p_inflight_ring;
  B.int w p.p_fetch_cycle;
  B.int w p.p_fetch_count;
  B.int w p.p_last_fetch_line;
  B.int w p.p_redirect_at;
  B.int w p.p_last_issue;
  B.int w p.p_issued_in_cycle;
  B.int w p.p_horizon;
  B.int w p.p_insns;
  B.int w p.p_int_ops;
  B.int w p.p_mul_ops;
  B.int w p.p_fp_ops;
  B.int w p.p_mem_reads;
  B.int w p.p_mem_writes;
  B.int w p.p_branches;
  B.int w p.p_rf_reads;
  B.int w p.p_rf_writes;
  B.contents w

let decode_timing payload =
  let r = B.reader payload in
  let p_cfg = r_tconfig r in
  let p_l2 = r_cache r in
  let p_il1 = r_cache r in
  let p_dl1 = r_cache r in
  let p_l2tlb = r_tlb r in
  let p_itlb = r_tlb r in
  let p_dtlb = r_tlb r in
  let p_pf = r_prefetch r in
  let p_bp = r_predictor r in
  let p_int_ready = B.read_int_array r in
  let p_fp_ready = B.read_int_array r in
  let p_simple_free = B.read_int_array r in
  let p_complex_free = B.read_int_array r in
  let p_vector_free = B.read_int_array r in
  let p_rport_free = B.read_int_array r in
  let p_wport_free = B.read_int_array r in
  let p_iq_ring = r_ring r in
  let p_inflight_ring = r_ring r in
  let p_fetch_cycle = B.read_int r in
  let p_fetch_count = B.read_int r in
  let p_last_fetch_line = B.read_int r in
  let p_redirect_at = B.read_int r in
  let p_last_issue = B.read_int r in
  let p_issued_in_cycle = B.read_int r in
  let p_horizon = B.read_int r in
  let p_insns = B.read_int r in
  let p_int_ops = B.read_int r in
  let p_mul_ops = B.read_int r in
  let p_fp_ops = B.read_int r in
  let p_mem_reads = B.read_int r in
  let p_mem_writes = B.read_int r in
  let p_branches = B.read_int r in
  let p_rf_reads = B.read_int r in
  let p_rf_writes = B.read_int r in
  B.expect_end r;
  let p : Darco_timing.Pipeline.persisted =
    {
      p_cfg;
      p_l2;
      p_il1;
      p_dl1;
      p_l2tlb;
      p_itlb;
      p_dtlb;
      p_pf;
      p_bp;
      p_int_ready;
      p_fp_ready;
      p_simple_free;
      p_complex_free;
      p_vector_free;
      p_rport_free;
      p_wport_free;
      p_iq_ring;
      p_inflight_ring;
      p_fetch_cycle;
      p_fetch_count;
      p_last_fetch_line;
      p_redirect_at;
      p_last_issue;
      p_issued_in_cycle;
      p_horizon;
      p_insns;
      p_int_ops;
      p_mul_ops;
      p_fp_ops;
      p_mem_reads;
      p_mem_writes;
      p_branches;
      p_rf_reads;
      p_rf_writes;
    }
  in
  try Darco_timing.Pipeline.restore p
  with Invalid_argument msg -> B.corrupt msg

(* --- public API ---------------------------------------------------------- *)

let capture_reference ir =
  { snap_kind = Functional; sections = [ (guest_tag, encode_guest ir) ] }

let capture ?pipeline (ctl : Darco.Controller.t) =
  (* The x86 component may lag the co-designed one between synchronization
     events; advance it to the shared clock first — the exact catch-up the
     controller would perform at the next event anyway.  This makes
     [retired] meaningful and keeps the two components' state aligned in
     the snapshot. *)
  Interp_ref.run_until ctl.reference (Darco.Tol.retired ctl.co);
  let sections =
    [ (guest_tag, encode_guest ctl.reference); (code_tag, encode_code ctl) ]
  in
  let sections =
    match pipeline with
    | None -> sections
    | Some p -> sections @ [ (timing_tag, encode_timing p) ]
  in
  { snap_kind = Full; sections }

let retired t =
  let r = B.reader (section t guest_tag) in
  B.read_int r

let guest_eip t =
  (* prefix decode of the guest section: retired count, exit code, then the
     CPU record whose [eip] we want — no need to materialize memory *)
  let r = B.reader (section t guest_tag) in
  ignore (B.read_int r);
  ignore (B.read_option r B.read_int);
  let cpu = r_cpu r in
  cpu.Cpu.eip

let restore_reference t = decode_guest (section t guest_tag)

let restore ?bus t =
  let reference = restore_reference t in
  match t.snap_kind with
  | Functional -> Darco.Controller.of_reference ?bus reference
  | Full -> decode_code ?bus ~reference (section t code_tag)

let restore_pipeline t =
  match List.assoc_opt timing_tag t.sections with
  | None -> None
  | Some payload -> Some (decode_timing payload)

let to_string t =
  let w = B.writer () in
  B.tag4 w magic;
  B.u8 w version;
  B.u8 w (match t.snap_kind with Functional -> 0 | Full -> 1);
  B.u8 w (List.length t.sections);
  List.iter
    (fun (tag, payload) ->
      B.tag4 w tag;
      B.seal w payload)
    t.sections;
  B.contents w

let of_string s =
  let r = B.reader s in
  if B.read_tag4 r <> magic then B.corrupt "bad snapshot magic";
  let v = B.read_u8 r in
  if v <> version then B.corrupt (Printf.sprintf "unsupported snapshot version %d" v);
  let snap_kind =
    match B.read_u8 r with
    | 0 -> Functional
    | 1 -> Full
    | n -> B.corrupt (Printf.sprintf "invalid snapshot kind %d" n)
  in
  let nsections = B.read_u8 r in
  let sections =
    List.init nsections (fun _ ->
        let tag = B.read_tag4 r in
        (tag, B.read_sealed r))
  in
  B.expect_end r;
  let t = { snap_kind; sections } in
  (* Validate framing invariants eagerly. *)
  (match snap_kind with
  | Functional -> ignore (section t guest_tag)
  | Full ->
    ignore (section t guest_tag);
    ignore (section t code_tag));
  t

let write_file path t =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string t))

let read_file path =
  match B.read_file path with
  | s -> of_string s
  | exception Sys_error msg -> B.corrupt msg
  | exception End_of_file -> B.corrupt "unexpected end of file"

let manifest t =
  Jsonx.Obj
    [
      ("version", Jsonx.Int version);
      ( "kind",
        Jsonx.String (match t.snap_kind with Functional -> "functional" | Full -> "full")
      );
      ("retired", Jsonx.Int (retired t));
      ( "sections",
        Jsonx.List
          (List.map
             (fun (tag, payload) ->
               Jsonx.Obj
                 [
                   ("tag", Jsonx.String tag);
                   ("bytes", Jsonx.Int (String.length payload));
                   ("crc32", Jsonx.Int (B.crc32 payload));
                 ])
             t.sections) );
    ]

let memory_hash mem =
  let buf = Buffer.create 4096 in
  List.iter
    (fun idx ->
      Buffer.add_string buf (string_of_int idx);
      Buffer.add_bytes buf (Memory.get_page mem idx))
    (Memory.touched_pages mem);
  Digest.to_hex (Digest.string (Buffer.contents buf))

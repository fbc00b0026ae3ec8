type overhead =
  | Ov_interp
  | Ov_bb_translate
  | Ov_sb_translate
  | Ov_prologue
  | Ov_chaining
  | Ov_cc_lookup
  | Ov_other

let[@inline] overhead_index = function
  | Ov_interp -> 0
  | Ov_bb_translate -> 1
  | Ov_sb_translate -> 2
  | Ov_prologue -> 3
  | Ov_chaining -> 4
  | Ov_cc_lookup -> 5
  | Ov_other -> 6

let all_overheads =
  [
    Ov_interp;
    Ov_bb_translate;
    Ov_sb_translate;
    Ov_prologue;
    Ov_chaining;
    Ov_cc_lookup;
    Ov_other;
  ]

let overhead_name = function
  | Ov_interp -> "interpreter"
  | Ov_bb_translate -> "bb_translator"
  | Ov_sb_translate -> "sb_translator"
  | Ov_prologue -> "prologue"
  | Ov_chaining -> "chaining"
  | Ov_cc_lookup -> "cc_lookup"
  | Ov_other -> "other"

type t = {
  mutable guest_im : int;
  mutable guest_bbm : int;
  mutable guest_sbm : int;
  mutable host_app_bbm : int;
  mutable host_app_sbm : int;
  overhead : int array;
  mutable bb_translations : int;
  mutable sb_translations : int;
  mutable sb_rebuilds_noassert : int;
  mutable sb_rebuilds_nomem : int;
  mutable assert_rollbacks : int;
  mutable alias_rollbacks : int;
  mutable page_requests : int;
  mutable syscalls : int;
  mutable chains_made : int;
  mutable chains_followed : int;
  mutable ibtc_fills : int;
  mutable ibtc_misses : int;
  mutable code_cache_flushes : int;
  mutable wasted_host : int;
  mutable validations : int;
  mutable startup_insns : int option;
  mutable unrolled_superblocks : int;
}

let create () =
  {
    guest_im = 0;
    guest_bbm = 0;
    guest_sbm = 0;
    host_app_bbm = 0;
    host_app_sbm = 0;
    overhead = Array.make 7 0;
    bb_translations = 0;
    sb_translations = 0;
    sb_rebuilds_noassert = 0;
    sb_rebuilds_nomem = 0;
    assert_rollbacks = 0;
    alias_rollbacks = 0;
    page_requests = 0;
    syscalls = 0;
    chains_made = 0;
    chains_followed = 0;
    ibtc_fills = 0;
    ibtc_misses = 0;
    code_cache_flushes = 0;
    wasted_host = 0;
    validations = 0;
    startup_insns = None;
    unrolled_superblocks = 0;
  }

let charge t cat n =
  let i = overhead_index cat in
  t.overhead.(i) <- t.overhead.(i) + n
let overhead_of t cat = t.overhead.(overhead_index cat)
let total_overhead t = Array.fold_left ( + ) 0 t.overhead
let guest_total t = t.guest_im + t.guest_bbm + t.guest_sbm
let host_app_total t = t.host_app_bbm + t.host_app_sbm
let host_total t = host_app_total t + total_overhead t

let note_sbm_start t =
  if t.startup_insns = None then t.startup_insns <- Some (guest_total t)

let mode_fractions t =
  let total = float_of_int (guest_total t) in
  if total = 0.0 then (0.0, 0.0, 0.0)
  else
    ( float_of_int t.guest_im /. total,
      float_of_int t.guest_bbm /. total,
      float_of_int t.guest_sbm /. total )

let emulation_cost_sbm t =
  if t.guest_sbm = 0 then 0.0
  else float_of_int t.host_app_sbm /. float_of_int t.guest_sbm

let overhead_fraction t =
  let total = float_of_int (host_total t) in
  if total = 0.0 then 0.0 else float_of_int (total_overhead t) /. total

let merge ~into:a b =
  a.guest_im <- a.guest_im + b.guest_im;
  a.guest_bbm <- a.guest_bbm + b.guest_bbm;
  a.guest_sbm <- a.guest_sbm + b.guest_sbm;
  a.host_app_bbm <- a.host_app_bbm + b.host_app_bbm;
  a.host_app_sbm <- a.host_app_sbm + b.host_app_sbm;
  Array.iteri (fun i n -> a.overhead.(i) <- a.overhead.(i) + n) b.overhead;
  a.bb_translations <- a.bb_translations + b.bb_translations;
  a.sb_translations <- a.sb_translations + b.sb_translations;
  a.sb_rebuilds_noassert <- a.sb_rebuilds_noassert + b.sb_rebuilds_noassert;
  a.sb_rebuilds_nomem <- a.sb_rebuilds_nomem + b.sb_rebuilds_nomem;
  a.assert_rollbacks <- a.assert_rollbacks + b.assert_rollbacks;
  a.alias_rollbacks <- a.alias_rollbacks + b.alias_rollbacks;
  a.page_requests <- a.page_requests + b.page_requests;
  a.syscalls <- a.syscalls + b.syscalls;
  a.chains_made <- a.chains_made + b.chains_made;
  a.chains_followed <- a.chains_followed + b.chains_followed;
  a.ibtc_fills <- a.ibtc_fills + b.ibtc_fills;
  a.ibtc_misses <- a.ibtc_misses + b.ibtc_misses;
  a.code_cache_flushes <- a.code_cache_flushes + b.code_cache_flushes;
  a.wasted_host <- a.wasted_host + b.wasted_host;
  a.validations <- a.validations + b.validations;
  (* startup is a "first time anywhere" mark: the earliest wins *)
  a.startup_insns <-
    (match (a.startup_insns, b.startup_insns) with
    | None, s | s, None -> s
    | Some x, Some y -> Some (min x y));
  a.unrolled_superblocks <- a.unrolled_superblocks + b.unrolled_superblocks

let equal a b =
  a.guest_im = b.guest_im && a.guest_bbm = b.guest_bbm && a.guest_sbm = b.guest_sbm
  && a.host_app_bbm = b.host_app_bbm
  && a.host_app_sbm = b.host_app_sbm
  && a.overhead = b.overhead
  && a.bb_translations = b.bb_translations
  && a.sb_translations = b.sb_translations
  && a.sb_rebuilds_noassert = b.sb_rebuilds_noassert
  && a.sb_rebuilds_nomem = b.sb_rebuilds_nomem
  && a.assert_rollbacks = b.assert_rollbacks
  && a.alias_rollbacks = b.alias_rollbacks
  && a.page_requests = b.page_requests
  && a.syscalls = b.syscalls
  && a.chains_made = b.chains_made
  && a.chains_followed = b.chains_followed
  && a.ibtc_fills = b.ibtc_fills
  && a.ibtc_misses = b.ibtc_misses
  && a.code_cache_flushes = b.code_cache_flushes
  && a.wasted_host = b.wasted_host
  && a.validations = b.validations
  && a.startup_insns = b.startup_insns
  && a.unrolled_superblocks = b.unrolled_superblocks

let pp_summary ppf t =
  let im, bbm, sbm = mode_fractions t in
  Format.fprintf ppf
    "@[<v>guest insns: %d (IM %.1f%% / BBM %.1f%% / SBM %.1f%%)@ \
     host app insns: %d (BBM %d, SBM %d)@ \
     TOL overhead: %d host insns (%.1f%% of host stream)@ \
     emulation cost in SBM: %.2f host/guest@ \
     translations: %d BB, %d SB (%d deopt, %d no-memspec); rollbacks: %d assert, %d alias@ \
     chaining: %d made, %d followed; IBTC: %d fills, %d misses@ \
     speculation waste: %d host insns; unrolled superblocks: %d@ \
     system: %d code-cache flushes, %d page requests, %d syscalls, %d validations@ \
     startup: %s guest insns before first SBM@]"
    (guest_total t) (100. *. im) (100. *. bbm) (100. *. sbm) (host_app_total t)
    t.host_app_bbm t.host_app_sbm (total_overhead t)
    (100. *. overhead_fraction t)
    (emulation_cost_sbm t) t.bb_translations t.sb_translations t.sb_rebuilds_noassert
    t.sb_rebuilds_nomem t.assert_rollbacks t.alias_rollbacks t.chains_made
    t.chains_followed t.ibtc_fills t.ibtc_misses t.wasted_host t.unrolled_superblocks
    t.code_cache_flushes t.page_requests t.syscalls t.validations
    (match t.startup_insns with None -> "n/a" | Some n -> string_of_int n)

open Darco_host

(** The in-order superscalar timing model: decoupled front-end (I-TLB,
    I-cache, BTB + gshare, decode pipe) and back-end (in-order scoreboarded
    issue, simple/complex/vector units, memory ports, D-TLB + 2-level data
    cache with a stride prefetcher), separated by an instruction queue.

    Trace-driven: feed it the retired host instruction stream via {!step},
    or subscribe it to a run's observability bus with {!attach}. *)

type t

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

(** Event counts consumed by the power model. *)
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

val create : Tconfig.t -> t
val step : t -> Emulator.retire_info -> unit
(** Advance the model by one retired host instruction.  Allocation-free:
    it runs once per retired instruction of every timed run. *)

val attach : t -> Darco_obs.Bus.t -> unit
(** Subscribe {!step} to the bus's retired-instruction stream (attach
    before the run starts). *)

val observe_latencies : t -> Darco_obs.Hist.t
(** Install (or return the already-installed) load-latency histogram: from
    this call on, every load's total memory latency (D-TLB walk plus data
    cache chain, in cycles) is added to the returned histogram.  Off by
    default — the un-observed path costs one pointer test per load.  The
    histogram is not part of {!persisted}; a {!restore}d pipeline starts
    with observation off. *)

val cycles : t -> int
val instructions : t -> int
val summary : t -> summary
val events : t -> events
val pp_summary : Format.formatter -> summary -> unit

val events_copy : events -> events
(** Deep copy (the cache-stats records inside {!events} alias the live,
    mutating counters) — take one before a measurement interval. *)

val events_diff : events -> events -> events
(** [events_diff after before]: the activity of the interval between two
    snapshots, field by field.  Feed the result to the power model to cost
    a measurement window rather than a whole run. *)

(** Complete microarchitectural state of a pipeline, as plain data.  Used by
    the snapshot codec to carry warmed caches, TLBs, predictor and prefetcher
    state across a checkpoint/restore boundary. *)
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

val persist : t -> persisted

val restore : persisted -> t
(** Build a pipeline whose observable behaviour continues exactly where
    [persist] left off.  Raises [Invalid_argument] if the persisted arrays
    do not match the geometry implied by [p_cfg]. *)

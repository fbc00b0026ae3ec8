(** Live metrics registry: named counters, gauges and {!Hist}-backed
    histograms with O(1) domain-safe updates.

    Registration mirrors {!Bus}: creating or looking up a metric takes a
    mutex, but the cell handed back is updated lock-free — counters and
    gauges are a single [Atomic.t] and {!inc}/{!set} cost one atomic
    RMW/store from any domain.  Histogram observation takes a
    per-histogram mutex ({!Hist.t} is plain mutable state) and is still
    O(1).

    Metric names are exposition identities.  A name is either a bare
    family ([dispatch_sent_total]) or a family plus one Prometheus-style
    label set ([dispatch_inflight{worker="127.0.0.1:9481"}]); the family
    must match [[a-zA-Z_][a-zA-Z0-9_]*] and a family keeps one kind for
    its whole life ([Invalid_argument] otherwise).  Histograms take bare
    families only.

    The registry is a {e separate document} from sweep results: sample
    and sweep JSON stay byte-deterministic whether or not a registry is
    attached (DESIGN.md §7). *)

type t
type counter
type gauge
type histogram

val create : unit -> t

val counter : t -> string -> counter
(** Get-or-register; the same name always returns the same cell. *)

val gauge : t -> string -> gauge
val hist : t -> string -> histogram

val inc : counter -> int -> unit
(** One [Atomic.fetch_and_add]; domain-safe, O(1). *)

val set : gauge -> int -> unit
val observe : histogram -> int -> unit
val counter_value : counter -> int
val gauge_value : gauge -> int

(** {1 Snapshots and exposition} *)

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * int) list;  (** sorted by name *)
  hists : (string * Jsonx.t) list;  (** name -> {!Hist.to_json}, sorted *)
}

val snapshot : t -> snapshot
(** Point-in-time view (registration mutex held while reading). *)

val to_json : snapshot -> Jsonx.t
(** [{"counters":{..},"gauges":{..},"hists":{..}}] — the METR payload. *)

val of_json : Jsonx.t -> (snapshot, string) result
(** Inverse of {!to_json} (used by [darco scrape]/[darco top]). *)

val exposition : snapshot -> string
(** Deterministic Prometheus-style text: families sorted alphabetically,
    one [# TYPE darco_<family> <kind>] line per family, histogram series
    as cumulative [_bucket{le=..}]/[_sum]/[_count].  A function of the
    snapshot alone, so a client-side render of a scraped snapshot is
    byte-identical to the server's [--metrics-file] dump. *)

(** {1 Bus fold} *)

val apply : t -> at:int -> Event.t -> unit
(** Fold one event into the registry.  The simulated-machine counters
    ([guest_insns_total], [translations_total], ...) are read-only views
    of a {!Stats.t} the registry owns and {!Agg.apply} folds, so they
    agree with an {!Agg} aggregate of the same stream by construction;
    the views are registered by the first [apply t].  Like {!Agg}, that
    fold is single-writer: emit from one domain at a time.  [events_total],
    [divergences_total] and the infrastructure events keep cells of their
    own: service counters, the per-worker [dispatch_inflight{worker=..}]
    gauges, the [straggler_ratio_pct] gauge and the byte-size histograms.
    The match is total: adding an {!Event.t} constructor forces a
    decision here.  Partially apply ([let f = apply t in ...]) to reuse
    the registered cells across events. *)

val attach : Bus.t -> t
(** [Agg.attach]-style: create a registry and subscribe {!apply} as a
    bus sink named ["registry"], so the registry is exactly
    reconstructible from the event stream. *)

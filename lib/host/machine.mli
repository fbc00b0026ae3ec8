open Darco_guest

(** The host machine state, including the co-designed hardware support for
    speculation: an architectural register checkpoint, a gated store buffer
    (stores are invisible to memory until {!commit}), and an alias-protection
    table that detects conflicts between hoisted speculative loads and later
    stores.

    The store buffer is a log of [(addr, width, value)] in program order,
    kept in preallocated arrays: a store appends, a load with stores in
    flight forwards byte by byte from the newest covering entry, and a
    commit probes then writes the entries in order.  None of them
    allocates. *)

type t = {
  r : int array;          (** 64 integer registers; r0 reads as zero *)
  f : float array;        (** 32 FP registers *)
  mem : Memory.t;         (** the co-designed component's emulated memory *)
  mutable log_addr : int array;         (** gated store log: addresses *)
  mutable log_width : Isa.width array;  (** ... widths *)
  mutable log_value : int array;        (** ... values *)
  mutable log_len : int;                (** ... entries in flight *)
  mutable aliases : (int * int) list;   (** speculative-load protection table *)
  mutable ckpt_r : int array;
  mutable ckpt_f : float array;
}

exception Alias_violation
(** A gated store overlapped a speculatively hoisted load. *)

val create : Memory.t -> t

val get : t -> Code.reg -> int
val set : t -> Code.reg -> int -> unit
(** Values are canonicalized to 32 bits; writes to r0 are discarded. *)

val checkpoint : t -> unit
val rollback : t -> unit
(** Restore registers from the checkpoint and discard gated stores and the
    alias table.  Memory is untouched (no store ever reached it). *)

val commit : t -> unit
(** Drain the store buffer to memory.  Probes every destination page first,
    in program order (each store's first then last byte), so
    {!Memory.Page_fault} leaves memory unmodified with the buffer intact
    (the caller then rolls back, services the fault and re-executes).  When
    several pages are absent, the first store's reports first. *)

val in_flight_stores : t -> int
(** Distinct bytes written by gated stores not yet committed
    (testing/stats). *)

val pending_bytes : t -> (int * int) list
(** The store buffer's byte view: [(addr, byte)] for every byte in flight,
    as the newest store left it, sorted by address.  Storing these as
    [W8] stores into an empty buffer rebuilds an equivalent one. *)

val load : t -> Isa.width -> signed:bool -> int -> int
(** Store-buffer-forwarding load. *)

val load_spec : t -> Isa.width -> signed:bool -> int -> int
(** As {!load}, additionally recording the range in the alias table. *)

val store : t -> Isa.width -> int -> int -> unit
(** Gated store; raises {!Alias_violation} on a conflict with a recorded
    speculative load. *)

val load_f64 : t -> int -> float
val store_f64 : t -> int -> float -> unit

val copy_guest_in : t -> Cpu.t -> unit
(** Prologue: place guest architectural state into the fixed mapping. *)

val copy_guest_out : t -> Cpu.t -> unit
(** Epilogue: read guest state back out of the fixed mapping (EIP and halt
    status are the caller's responsibility). *)

(** Single-step guest execution, shared by the authoritative reference
    interpreter (the x86 component) and the TOL interpreter (IM).

    Page-fault safety: an instruction either completes fully or raises
    {!Memory.Page_fault} with no architectural state modified, so a faulting
    instruction can be transparently retried after the controller services
    the data request.  REP string instructions fault at iteration
    granularity, which is architecturally consistent (ESI/EDI/ECX always
    describe the remaining work, as on real x86). *)

type control =
  | Next          (** fell through; EIP is the next instruction *)
  | Branch
      (** a control-transfer instruction (jmp, jcc taken or not, call,
          ret, indirect jmp/call); EIP is already its successor *)
  | Trap_syscall  (** EIP left pointing at the syscall instruction *)
  | Trap_halt

type icache
(** Decode cache (guest address -> decoded instruction): a direct-mapped
    front over a table of every instruction decoded.  Self-modifying guest
    code is unsupported across the infrastructure. *)

val icache_create : unit -> icache
val fetch : icache -> Memory.t -> int -> Isa.insn * int
(** Decode (with caching) the instruction at the given guest address. *)

val step : icache -> Cpu.t -> Memory.t -> control
(** Execute one instruction at [cpu.eip], updating [cpu] and memory and
    advancing EIP (except for traps, which leave EIP at the trapping
    instruction; the caller advances past it after servicing).  Allocates
    nothing once the instruction is in the decode cache, except on the
    paths that build tuples (multiply, divide) or floats (x87). *)

val is_interp_only : Isa.insn -> bool
(** Instructions the TOL never includes in translations and always defers to
    the interpreter (the paper's "corner cases moved to the software
    layer"): REP-prefixed string instructions. *)

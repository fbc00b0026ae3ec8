(** Hrisc: the host ISA and executable code regions.

    A PowerPC-flavoured 3-operand RISC extended with the co-designed
    features the paper assumes of the hardware: architectural checkpoints
    with gated stores, [Assert] instructions for control speculation,
    speculative loads protected by an alias table, and patchable region
    exits used for translation chaining.

    Host code lives in the code cache as arrays of instructions; instruction
    [i] of a region is architecturally at host address [base + 4*i] (a fixed
    4-byte encoding), which is what the timing simulator's front-end
    fetches. *)

open Darco_guest

type reg = int
(** 0..63; r0 reads as zero and ignores writes. *)

type freg = int
(** 0..31 *)

type binop =
  | Add | Sub | Mul | Mulhu | Mulhs
  | And | Or | Xor
  | Shl | Shr | Sar
  | Slt | Sltu | Seq | Sne

type cmp = Beq | Bne | Blt | Bge | Bltu | Bgeu

type fbinop = Fadd | Fsub | Fmul | Fdiv
type funop = Fsqrt | Fabs | Fneg

(** Complex guest operations the host implements as software runtime
    services (the paper's trigonometric functions, plus 64/32 division). *)
type rt_fn = Rt_sin | Rt_cos | Rt_divu | Rt_divs

val rt_cost : rt_fn -> int
(** Host instructions consumed by one invocation of the service routine. *)

(** Guest flag-producing operation kinds, for the [Mkfl] flag-assist
    instruction.  Co-designed hosts add hardware support for the guest's
    condition codes (Transmeta's hardware x86 flags being the canonical
    example); [Mkfl] computes the packed guest flags of one guest ALU
    operation in a single host instruction. *)
type flkind =
  | Fl_add | Fl_adc | Fl_sub | Fl_sbb
  | Fl_logic
  | Fl_shl | Fl_shr | Fl_sar | Fl_rol | Fl_ror
  | Fl_inc | Fl_dec | Fl_neg
  | Fl_mulu | Fl_muls

(** Why control leaves a region. *)
type exit_kind =
  | Exit_direct of int    (** next guest PC, statically known; chainable *)
  | Exit_indirect of reg  (** guest PC in a host register (IBTC miss path) *)
  | Exit_syscall of int   (** guest PC of the syscall instruction *)
  | Exit_interp of int    (** guest PC of an interpreter-only instruction *)
  | Exit_promote of int   (** guest PC whose counter crossed the SB threshold *)
  | Exit_halt

type region = {
  id : int;
  entry_pc : int;                       (** guest PC this region translates *)
  mode : [ `Bb | `Super ];
  mutable base : int;                   (** host code address of insn 0 *)
  mutable code : insn array;
  mutable incoming : exit_info list;    (** exits chained to this region *)
  mutable invalidated : bool;
}

and exit_info = {
  exit_id : int;
  kind : exit_kind;
  guest_retired : int;  (** guest insns completed when this exit commits *)
  mutable chain : region option;  (** patched direct jump to another region *)
  prefer_bb : bool;     (** chain only to a [`Bb] translation (unroll residue) *)
}

and insn =
  | Nop
  | Li of reg * int                               (** rd <- imm32 *)
  | Bin of binop * reg * reg * reg
  | Bini of binop * reg * reg * int
  | Load of Isa.width * bool * reg * reg * int    (** signed?, rd, base, disp *)
  | Sload of Isa.width * bool * reg * reg * int   (** speculative (hoisted) *)
  | Store of Isa.width * reg * reg * int          (** value, base, disp *)
  | Fli of freg * float
  | Fmov of freg * freg
  | Fbin of fbinop * freg * freg * freg
  | Fun of funop * freg * freg
  | Fload of freg * reg * int                     (** f64 *)
  | Fstore of freg * reg * int
  | Fcmp of reg * freg * freg                     (** rd <- packed guest flags *)
  | Cvtif of freg * reg                           (** signed int -> f64 *)
  | Cvtfi of reg * freg                           (** f64 -> int, truncating *)
  | Mkfl of flkind * reg * reg * reg * reg
      (** rd <- packed guest flags of the guest op described by (a, b, c);
          c carries the carry-in, dynamic shift count's incoming flags, or
          the flags whose CF an INC/DEC must preserve *)
  | Isel of reg * reg * reg * reg                 (** rd <- rc<>0 ? ra : rb *)
  | Callrt_f of rt_fn * freg * freg               (** sin/cos: dst, src *)
  | Callrt_div of {
      signed : bool;
      q : reg;
      r : reg;
      hi : reg;
      lo : reg;
      d : reg;
    }
  | B of cmp * reg * reg * int                    (** intra-region, target index *)
  | J of int                                      (** intra-region jump *)
  | Jr of reg * reg                               (** host addr, guest-PC fallback *)
  | Assert of cmp * reg * reg                     (** rollback if cmp is false *)
  | Chk                                           (** checkpoint *)
  | Commit of int
      (** drain the gated store buffer to memory and credit that many guest
          instructions as retired; every exit path runs exactly one *)
  | Exit of exit_info                             (** leave region (post-commit) *)

val binop_name : binop -> string
val exit_of : insn -> exit_info option
val pp_insn : Format.formatter -> insn -> unit
val pp_region : Format.formatter -> region -> unit

val host_pc : region -> int -> int
(** Architectural host address of instruction [idx]. *)

(** Register operands of one instruction, decoded in place.  The integer
    sets never contain r0 (hard-wired zero: no definition, no dependence).
    Only the first [n_*] slots of each array are meaningful. *)
type operands = {
  int_uses : reg array;
  mutable n_int_uses : int;
  fp_uses : freg array;
  mutable n_fp_uses : int;
  int_defs : reg array;
  mutable n_int_defs : int;
  fp_defs : freg array;
  mutable n_fp_defs : int;
}

val operands : unit -> operands
(** A scratch record, large enough for any instruction. *)

val decode : operands -> insn -> unit
(** Overwrite the record with [insn]'s operands.  Allocation-free: this is
    the per-retired-instruction form the timing pipeline uses. *)

val defs : insn -> reg list
val uses : insn -> reg list
val fdefs : insn -> freg list
val fuses : insn -> freg list
(** List views of {!decode} (integer and float classes), in operand
    order, for tests and tools. *)

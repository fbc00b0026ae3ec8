(** Pure value/flag semantics of Gx86, shared verbatim by the authoritative
    reference interpreter, the TOL interpreter, the IR evaluator and the
    host runtime services.  Sharing one definition is what makes the
    differential-validation machinery meaningful: any divergence between the
    components is a translation/optimization bug, never a semantics-fork
    artefact.

    32-bit values are represented as OCaml [int]s canonically in
    [\[0, 2{^32})]. *)

val mask32 : int -> int
val signed : int -> int
(** Reinterpret a canonical 32-bit value as a signed integer. *)

val truncate_width : Isa.width -> int -> int
val sign_extend : Isa.width -> int -> int
(** [sign_extend w v] sign-extends the low [w] bits of [v] to 32 bits
    (canonical representation). *)

val alu : Isa.alu_op -> cf_in:bool -> int -> int -> int * int
(** [alu op ~cf_in a b] returns [(result, flags)]. [cf_in] feeds ADC/SBB.
    It is [(alu_value op ~cf_in a b, alu_flags op ~cf_in a b)]; the split
    functions are what the allocation-free paths call. *)

val alu_value : Isa.alu_op -> cf_in:bool -> int -> int -> int
val alu_flags : Isa.alu_op -> cf_in:bool -> int -> int -> int

val add_flags : int -> int -> int -> int
val sub_flags : int -> int -> int -> int
(** [add_flags a b carry] / [sub_flags a b carry]: the flags of
    [a + b + carry] / [a - b - carry], [carry] being 0 or 1. *)

val keep_cf : int -> int -> int
(** [keep_cf flags new_flags] is [new_flags] with CF taken from [flags]. *)

val inc : int -> flags:int -> int * int
val dec : int -> flags:int -> int * int
(** INC/DEC: as add/sub 1 but CF is preserved from [flags]
    ([keep_cf flags (add_flags v 1 0)] for INC). *)

val neg : int -> int * int
(** [(0 - v, sub_flags 0 v 0)]. *)

val not32 : int -> int

val shift : Isa.shift_op -> int -> count:int -> flags:int -> int * int
(** x86-style: count is masked to 5 bits; zero count leaves flags untouched.
    Simplifications vs. real x86 (deterministic, shared by all paths):
    rotates also set ZF/SF from the result; OF is 0 for SAR/ROR.
    It is [(shift_value op v ~count, shift_flags op v ~count ~flags)]. *)

val shift_value : Isa.shift_op -> int -> count:int -> int
val shift_flags : Isa.shift_op -> int -> count:int -> flags:int -> int

val mul_u : int -> int -> int * int * int
(** [(lo, hi, flags)] of the unsigned 64-bit product; CF=OF = hi <> 0. *)

val mul_s : int -> int -> int * int * int
(** Signed; CF=OF unless the product fits in 32 signed bits. *)

val imul2 : int -> int -> int * int
(** Truncating signed multiply, [(result, flags)]. *)

val div_u : hi:int -> lo:int -> int -> int * int
(** [(quotient, remainder)] of the unsigned 64/32 division, quotient
    truncated to 32 bits.  Division by zero is defined (not trapping):
    quotient [0xFFFFFFFF], remainder [lo].  Flags are unaffected by
    division. *)

val div_s : hi:int -> lo:int -> int -> int * int
(** Signed counterpart with the same deterministic conventions. *)

val fp_bin : Isa.fp_bin -> float -> float -> float
val fp_un : Isa.fp_un -> float -> float
val fcmp_flags : float -> float -> int
(** FCOMI-style: below sets CF, equal sets ZF, unordered sets CF+ZF. *)

val f2i : float -> int
(** Truncate toward zero; NaN and out-of-range map to [0x80000000] (the x86
    "integer indefinite"). *)

val i2f : int -> float
(** Signed interpretation. *)

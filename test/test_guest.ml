open Darco_guest
module Rng = Darco_util.Rng

(* --- semantics ---------------------------------------------------------- *)

let flags_t = Alcotest.testable (Fmt.of_to_string Flags.to_string) ( = )

let test_add_flags () =
  let res, f = Semantics.alu Add ~cf_in:false 0xFFFFFFFF 1 in
  Alcotest.(check int) "wraps" 0 res;
  Alcotest.(check bool) "CF" true (Flags.cf f);
  Alcotest.(check bool) "ZF" true (Flags.zf f);
  Alcotest.(check bool) "OF clear (unsigned carry only)" false (Flags.of_ f);
  let _, f = Semantics.alu Add ~cf_in:false 0x7FFFFFFF 1 in
  Alcotest.(check bool) "signed overflow sets OF" true (Flags.of_ f);
  Alcotest.(check bool) "no carry" false (Flags.cf f);
  Alcotest.(check bool) "SF set" true (Flags.sf f)

let test_sub_flags () =
  let res, f = Semantics.alu Sub ~cf_in:false 3 5 in
  Alcotest.(check int) "wraps" (Semantics.mask32 (-2)) res;
  Alcotest.(check bool) "borrow sets CF" true (Flags.cf f);
  Alcotest.(check bool) "SF" true (Flags.sf f);
  let _, f = Semantics.alu Sub ~cf_in:false 0x80000000 1 in
  Alcotest.(check bool) "INT_MIN - 1 overflows" true (Flags.of_ f)

let test_adc_sbb_chain () =
  (* 64-bit add via adc: 0xFFFFFFFF_FFFFFFFF + 1 = 0 carry-out *)
  let lo, f1 = Semantics.alu Add ~cf_in:false 0xFFFFFFFF 1 in
  let hi, f2 = Semantics.alu Adc ~cf_in:(Flags.cf f1) 0xFFFFFFFF 0 in
  Alcotest.(check int) "lo" 0 lo;
  Alcotest.(check int) "hi" 0 hi;
  Alcotest.(check bool) "carry out" true (Flags.cf f2);
  let lo, f1 = Semantics.alu Sub ~cf_in:false 0 1 in
  let hi, _ = Semantics.alu Sbb ~cf_in:(Flags.cf f1) 5 0 in
  Alcotest.(check int) "borrow lo" 0xFFFFFFFF lo;
  Alcotest.(check int) "borrow hi" 4 hi

let test_logic_flags () =
  let res, f = Semantics.alu And ~cf_in:true 0xF0F0 0x0F0F in
  Alcotest.(check int) "and" 0 res;
  Alcotest.(check bool) "ZF" true (Flags.zf f);
  Alcotest.(check bool) "CF cleared" false (Flags.cf f);
  Alcotest.(check bool) "OF cleared" false (Flags.of_ f)

let test_inc_dec_preserve_cf () =
  let flags = Flags.make ~cf:true ~zf:false ~sf:false ~of_:false in
  let res, f = Semantics.inc 0xFFFFFFFF ~flags in
  Alcotest.(check int) "inc wraps" 0 res;
  Alcotest.(check bool) "CF preserved" true (Flags.cf f);
  Alcotest.(check bool) "ZF set" true (Flags.zf f);
  let res, f = Semantics.dec 0 ~flags:0 in
  Alcotest.(check int) "dec wraps" 0xFFFFFFFF res;
  Alcotest.(check bool) "CF still clear" false (Flags.cf f)

let test_shift_semantics () =
  let v, f = Semantics.shift Shl 0x80000001 ~count:1 ~flags:0 in
  Alcotest.(check int) "shl" 2 v;
  Alcotest.(check bool) "CF from msb" true (Flags.cf f);
  let v, f0 = Semantics.shift Shr 0x3 ~count:1 ~flags:0 in
  Alcotest.(check int) "shr" 1 v;
  Alcotest.(check bool) "CF from lsb" true (Flags.cf f0);
  let v, _ = Semantics.shift Sar 0x80000000 ~count:4 ~flags:0 in
  Alcotest.(check int) "sar sign-fills" 0xF8000000 v;
  let v, _ = Semantics.shift Rol 0x80000001 ~count:1 ~flags:0 in
  Alcotest.(check int) "rol" 3 v;
  let v, _ = Semantics.shift Ror 0x1 ~count:1 ~flags:0 in
  Alcotest.(check int) "ror" 0x80000000 v;
  (* zero count leaves flags untouched *)
  let sentinel = Flags.make ~cf:true ~zf:true ~sf:true ~of_:true in
  let v, f = Semantics.shift Shl 123 ~count:0 ~flags:sentinel in
  Alcotest.(check int) "value unchanged" 123 v;
  Alcotest.check flags_t "flags unchanged" sentinel f;
  (* counts are masked to 5 bits *)
  let v, _ = Semantics.shift Shl 1 ~count:33 ~flags:0 in
  Alcotest.(check int) "count masked" 2 v

let test_mul () =
  let lo, hi, f = Semantics.mul_u 0xFFFFFFFF 0xFFFFFFFF in
  Alcotest.(check int) "lo" 1 lo;
  Alcotest.(check int) "hi" 0xFFFFFFFE hi;
  Alcotest.(check bool) "wide" true (Flags.cf f);
  let lo, hi, f = Semantics.mul_s 0xFFFFFFFF 3 in
  (* -1 * 3 = -3 *)
  Alcotest.(check int) "slo" 0xFFFFFFFD lo;
  Alcotest.(check int) "shi" 0xFFFFFFFF hi;
  Alcotest.(check bool) "fits" false (Flags.cf f);
  let lo, _, _ = Semantics.mul_u 123456 789 in
  Alcotest.(check int) "plain" (123456 * 789) lo

let test_div () =
  let q, r = Semantics.div_u ~hi:0 ~lo:100 7 in
  Alcotest.(check int) "q" 14 q;
  Alcotest.(check int) "r" 2 r;
  (* wide dividend *)
  let q, r = Semantics.div_u ~hi:1 ~lo:0 2 in
  Alcotest.(check int) "2^32/2" 0x80000000 q;
  Alcotest.(check int) "rem" 0 r;
  (* division by zero is defined, not trapping *)
  let q, r = Semantics.div_u ~hi:5 ~lo:77 0 in
  Alcotest.(check int) "q = all-ones" 0xFFFFFFFF q;
  Alcotest.(check int) "r = lo" 77 r;
  (* signed: -7 / 2 = -3 rem -1 *)
  let q, r = Semantics.div_s ~hi:0xFFFFFFFF ~lo:(Semantics.mask32 (-7)) 2 in
  Alcotest.(check int) "signed q" (Semantics.mask32 (-3)) q;
  Alcotest.(check int) "signed r" (Semantics.mask32 (-1)) r

let prop_div_identity =
  QCheck.Test.make ~name:"div: n = q*d + r, 0 <= r < d (unsigned, narrow)"
    ~count:500
    QCheck.(pair (int_bound 0x3FFFFFFF) (int_range 1 0xFFFF))
    (fun (n, d) ->
      let q, r = Semantics.div_u ~hi:0 ~lo:n d in
      (q * d) + r = n && r < d)

let prop_alu_matches_int64 =
  QCheck.Test.make ~name:"add/sub value matches an Int64 model" ~count:1000
    QCheck.(triple bool (int_bound 0xFFFFFFF) (int_bound 0xFFFFFFF))
    (fun (is_add, a0, b0) ->
      let a = Semantics.mask32 (a0 * 17) and b = Semantics.mask32 (b0 * 29) in
      let res, _ =
        Semantics.alu (if is_add then Add else Sub) ~cf_in:false a b
      in
      let model =
        Int64.to_int
          (Int64.logand
             (if is_add then Int64.add (Int64.of_int a) (Int64.of_int b)
              else Int64.sub (Int64.of_int a) (Int64.of_int b))
             0xFFFFFFFFL)
      in
      res = model)

let test_sign_extend () =
  Alcotest.(check int) "byte" 0xFFFFFF80 (Semantics.sign_extend W8 0x80);
  Alcotest.(check int) "byte pos" 0x7F (Semantics.sign_extend W8 0x7F);
  Alcotest.(check int) "word" 0xFFFF8000 (Semantics.sign_extend W16 0x8000);
  Alcotest.(check int) "dword id" 0x12345678 (Semantics.sign_extend W32 0x12345678)

let test_f2i () =
  Alcotest.(check int) "trunc pos" 3 (Semantics.f2i 3.99);
  Alcotest.(check int) "trunc neg" (Semantics.mask32 (-3)) (Semantics.f2i (-3.99));
  Alcotest.(check int) "nan" 0x80000000 (Semantics.f2i Float.nan);
  Alcotest.(check int) "overflow" 0x80000000 (Semantics.f2i 1e30);
  Alcotest.(check int) "neg overflow" 0x80000000 (Semantics.f2i (-1e30))

let test_fcmp () =
  let f = Semantics.fcmp_flags 1.0 2.0 in
  Alcotest.(check bool) "below" true (Flags.eval_cond B f);
  let f = Semantics.fcmp_flags 2.0 2.0 in
  Alcotest.(check bool) "equal" true (Flags.eval_cond E f);
  let f = Semantics.fcmp_flags Float.nan 2.0 in
  Alcotest.(check bool) "unordered: CF and ZF" true (Flags.cf f && Flags.zf f)

(* --- flags / conditions -------------------------------------------------- *)

let test_eval_cond () =
  let f_eq = snd (Semantics.alu Sub ~cf_in:false 5 5) in
  let f_lt = snd (Semantics.alu Sub ~cf_in:false 3 5) in
  let f_gt = snd (Semantics.alu Sub ~cf_in:false 7 5) in
  let checks =
    [
      (Isa.E, f_eq, true); (Isa.E, f_lt, false);
      (Isa.NE, f_gt, true); (Isa.L, f_lt, true); (Isa.L, f_eq, false);
      (Isa.LE, f_eq, true); (Isa.G, f_gt, true); (Isa.GE, f_eq, true);
      (Isa.B, f_lt, true); (Isa.A, f_gt, true); (Isa.AE, f_eq, true);
      (Isa.BE, f_eq, true); (Isa.S, f_lt, true); (Isa.NS, f_gt, true);
    ]
  in
  List.iter
    (fun (c, f, expect) ->
      Alcotest.(check bool)
        (Printf.sprintf "cond %s" (Isa.to_string (Jcc (c, 0))))
        expect (Flags.eval_cond c f))
    checks

let prop_negate_cond =
  QCheck.Test.make ~name:"negate_cond inverts every condition" ~count:500
    QCheck.(pair (int_bound 13) (int_bound 15))
    (fun (ci, f) ->
      let c = Isa.all_conds.(ci) in
      Flags.eval_cond c f = not (Flags.eval_cond (Isa.negate_cond c) f))

(* --- codec -------------------------------------------------------------- *)

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"encode/decode roundtrip of random instructions"
    ~count:2000 QCheck.small_int (fun seed ->
      let rng = Rng.create (seed * 31 + 5) in
      let insn = Tgen.insn rng in
      let pc = 0x1000 + (Rng.int rng 0x1000 * 4) in
      let encoded = Codec.encode ~pc insn in
      let fetched i = Char.code (Bytes.get encoded (i - pc)) in
      let decoded, len = Codec.decode ~fetch:fetched ~pc in
      len = Bytes.length encoded && decoded = Codec.canonical insn)

let test_codec_control () =
  (* control transfers encode PC-relative: same insn at different PCs *)
  List.iter
    (fun insn ->
      List.iter
        (fun pc ->
          let b = Codec.encode ~pc insn in
          let decoded, len = Codec.decode ~fetch:(fun i -> Char.code (Bytes.get b (i - pc))) ~pc in
          Alcotest.(check int) "length" (Bytes.length b) len;
          Alcotest.(check bool) (Isa.to_string insn) true (decoded = insn))
        [ 0x1000; 0x7FFF; 0x123456 ])
    [
      Isa.Jmp 0x2000;
      Isa.Jcc (NE, 0x400);
      Isa.Call 0x999999;
      Isa.Ret;
      Isa.JmpInd (Reg EAX);
      Isa.Syscall;
      Isa.Halt;
      Isa.Str (Movs, W32, Rep);
    ]

let test_codec_bad_encoding () =
  Alcotest.check_raises "invalid opcode" (Codec.Bad_encoding 0) (fun () ->
      ignore (Codec.decode ~fetch:(fun _ -> 0xFF) ~pc:0))

let test_codec_variable_length () =
  let short = Codec.length (Mov (Reg EAX, Reg ECX)) in
  let long = Codec.length (Mov (Mem { base = Some EAX; index = Some (ECX, S4); disp = 100000 }, Imm 7)) in
  Alcotest.(check bool) "variable length" true (short < long);
  Alcotest.(check int) "one-byte nop" 1 (Codec.length Nop)

(* --- memory ------------------------------------------------------------- *)

let test_memory_rw () =
  let m = Memory.create `Auto_zero in
  Memory.write32 m 0x1000 0xDEADBEEF;
  Alcotest.(check int) "read32" 0xDEADBEEF (Memory.read32 m 0x1000);
  Alcotest.(check int) "read8" 0xEF (Memory.read8 m 0x1000);
  Alcotest.(check int) "read8 hi" 0xDE (Memory.read8 m 0x1003);
  Memory.write m W16 0x1000 0x1234;
  Alcotest.(check int) "merged" 0xDEAD1234 (Memory.read32 m 0x1000)

let test_memory_page_boundary () =
  let m = Memory.create `Auto_zero in
  let addr = 0x1FFE in
  Memory.write32 m addr 0xCAFEBABE;
  Alcotest.(check int) "straddling read" 0xCAFEBABE (Memory.read32 m addr);
  Alcotest.(check bool) "both pages exist" true
    (Memory.has_page m 1 && Memory.has_page m 2)

let test_memory_fault_policy () =
  let m = Memory.create `Fault in
  Alcotest.check_raises "faults" (Memory.Page_fault 5) (fun () ->
      ignore (Memory.read8 m (5 * 4096)));
  Memory.install_page m 5 (Bytes.make 4096 'x');
  Alcotest.(check int) "after install" (Char.code 'x') (Memory.read8 m (5 * 4096))

let test_memory_f64 () =
  let m = Memory.create `Auto_zero in
  Memory.write_f64 m 0x2000 3.14159;
  Alcotest.(check (float 0.0)) "roundtrip" 3.14159 (Memory.read_f64 m 0x2000);
  Memory.write_f64 m 0x2008 (-0.0);
  Alcotest.(check bool) "negative zero preserved" true
    (Int64.bits_of_float (Memory.read_f64 m 0x2008) = Int64.bits_of_float (-0.0))

let test_memory_equal_page () =
  let a = Memory.create `Auto_zero and b = Memory.create `Auto_zero in
  Memory.write32 a 0x1000 0;
  (* zero page in a, absent in b: equal *)
  Alcotest.(check bool) "absent = zero" true (Memory.equal_page a b 1);
  Memory.write32 a 0x1000 5;
  Alcotest.(check bool) "differs" false (Memory.equal_page a b 1)

(* --- cpu ---------------------------------------------------------------- *)

let test_cpu_ops () =
  let c = Cpu.create () in
  Cpu.set c EAX 0x1_2345_6789;
  Alcotest.(check int) "masked to 32 bits" 0x23456789 (Cpu.get c EAX);
  let d = Cpu.copy c in
  Alcotest.(check bool) "copy equal" true (Cpu.equal c d);
  Cpu.set d EBX 1;
  Alcotest.(check bool) "diverged" false (Cpu.equal c d);
  Alcotest.(check bool) "diff names ebx" true
    (List.exists (fun s -> String.length s >= 3 && String.sub s 0 3 = "ebx") (Cpu.diff c d))

(* --- step: targeted instruction semantics ------------------------------- *)

let exec_insns insns =
  let a = Asm.create ~base:0x1000 () in
  List.iter (Asm.insn a) insns;
  Asm.insn a Halt;
  let p = Asm.assemble a in
  let cpu, mem = Loader.boot p in
  let ic = Step.icache_create () in
  let rec go n =
    if n > 10000 then Alcotest.fail "did not halt";
    if not cpu.Cpu.halted then begin
      ignore (Step.step ic cpu mem);
      go (n + 1)
    end
  in
  go 0;
  (cpu, mem)

let test_step_push_pop () =
  let cpu, _ = exec_insns [ Mov (Reg EAX, Imm 77); Push (Reg EAX); Pop EDX ] in
  Alcotest.(check int) "popped" 77 (Cpu.get cpu EDX);
  Alcotest.(check int) "sp restored" Loader.stack_top (Cpu.get cpu ESP)

let test_step_pop_esp () =
  let cpu, _ = exec_insns [ Push (Imm 0x4242); Pop ESP ] in
  Alcotest.(check int) "pop esp = loaded value" 0x4242 (Cpu.get cpu ESP)

let test_step_call_ret () =
  let a = Asm.create ~base:0x1000 () in
  Asm.jmp a "main";
  Asm.label a "f";
  Asm.insn a (Mov (Reg EAX, Imm 9));
  Asm.insn a Ret;
  Asm.label a "main";
  Asm.insn a (Mov (Reg EAX, Imm 1));
  Asm.call a "f";
  Asm.insn a (Alu (Add, Reg EAX, Imm 100));
  Asm.insn a Halt;
  let p = Asm.assemble a in
  let r = Interp_ref.boot ~seed:0 p in
  ignore (Interp_ref.run_to_halt r);
  Alcotest.(check int) "call/ret flow" 109 (Cpu.get r.cpu EAX)

let test_step_string_rep_movs () =
  let cpu, mem =
    exec_insns
      [
        Mov (Mem { base = None; index = None; disp = 0x3000 }, Imm 0x11223344);
        Mov (Mem { base = None; index = None; disp = 0x3004 }, Imm 0x55667788);
        Mov (Reg ESI, Imm 0x3000);
        Mov (Reg EDI, Imm 0x3100);
        Mov (Reg ECX, Imm 8);
        Str (Movs, W8, Rep);
      ]
  in
  Alcotest.(check int) "copied lo" 0x11223344 (Memory.read32 mem 0x3100);
  Alcotest.(check int) "copied hi" 0x55667788 (Memory.read32 mem 0x3104);
  Alcotest.(check int) "ecx exhausted" 0 (Cpu.get cpu ECX);
  Alcotest.(check int) "esi advanced" 0x3008 (Cpu.get cpu ESI)

let test_step_repe_cmps () =
  let cpu, _ =
    exec_insns
      [
        Mov (Mem { base = None; index = None; disp = 0x3000 }, Imm 0xAAAA);
        Mov (Mem { base = None; index = None; disp = 0x3100 }, Imm 0xAAAB);
        Mov (Reg ESI, Imm 0x3000);
        Mov (Reg EDI, Imm 0x3100);
        Mov (Reg ECX, Imm 4);
        Str (Cmps, W8, Repe);
      ]
  in
  (* bytes 0: AA=AB? no: stops after first compare *)
  Alcotest.(check int) "stopped early" 3 (Cpu.get cpu ECX);
  Alcotest.(check bool) "ZF clear" false (Flags.zf cpu.flags)

let test_step_stos_scas () =
  let cpu, mem =
    exec_insns
      [
        Mov (Reg EAX, Imm 0x5A);
        Mov (Reg EDI, Imm 0x3000);
        Mov (Reg ECX, Imm 16);
        Str (Stos, W8, Rep);
        Mov (Reg EDI, Imm 0x3000);
        Mov (Reg ECX, Imm 32);
        Mov (Reg EAX, Imm 0x5A);
        Str (Scas, W8, Repe);
      ]
  in
  Alcotest.(check int) "filled" 0x5A5A5A5A (Memory.read32 mem 0x3000);
  (* scas runs until the zero byte after the 16 filled ones *)
  Alcotest.(check int) "stopped past fill" (0x3000 + 17) (Cpu.get cpu EDI)

let test_step_cmov_setcc () =
  let cpu, _ =
    exec_insns
      [
        Mov (Reg EAX, Imm 1);
        Mov (Reg EDX, Imm 99);
        Cmp (Reg EAX, Imm 5);
        Cmov (L, EAX, Reg EDX);
        Setcc (GE, ECX);
      ]
  in
  Alcotest.(check int) "cmov taken" 99 (Cpu.get cpu EAX);
  Alcotest.(check int) "setcc false" 0 (Cpu.get cpu ECX)

let test_step_fault_leaves_state () =
  (* a faulting instruction must not modify any state *)
  let m = Memory.create `Fault in
  Memory.install_page m 1 (Bytes.make 4096 '\000');
  let a = Asm.create ~base:0x1000 () in
  Asm.insn a (Mov (Reg EAX, Mem { base = None; index = None; disp = 0x800000 }));
  let p = Asm.assemble a in
  List.iter (fun (addr, b) -> Memory.blit_bytes m addr b) p.chunks;
  let cpu = Cpu.create () in
  cpu.eip <- 0x1000;
  Cpu.set cpu EAX 42;
  let snapshot = Cpu.copy cpu in
  let ic = Step.icache_create () in
  Alcotest.check_raises "fault" (Memory.Page_fault (0x800000 / 4096)) (fun () ->
      ignore (Step.step ic cpu m));
  Alcotest.(check bool) "state untouched" true (Cpu.equal snapshot cpu)

(* --- exactness: the allocation-free step against the record-returning one *)

(* A test-only copy of the record-returning step: tuple-returning
   semantics, an [rmw] closure per read-modify-write destination, a
   payload per control transfer, a hash-table-only decode cache.  The
   allocation-free [Step] must agree with it on every instruction. *)
module Oracle = struct
  open Isa

  let bit31 v = v land 0x80000000 <> 0
  let mask32 = Semantics.mask32
  let zf_sf res = Flags.make ~cf:false ~zf:(res = 0) ~sf:(bit31 res) ~of_:false

  let add_like a b cf_in =
    let full = a + b + cf_in in
    let res = mask32 full in
    let cf = full > 0xFFFFFFFF in
    let of_ = bit31 a = bit31 b && bit31 res <> bit31 a in
    (res, Flags.make ~cf ~zf:(res = 0) ~sf:(bit31 res) ~of_)

  let sub_like a b cf_in =
    let full = a - b - cf_in in
    let res = mask32 full in
    let cf = full < 0 in
    let of_ = bit31 a <> bit31 b && bit31 res <> bit31 a in
    (res, Flags.make ~cf ~zf:(res = 0) ~sf:(bit31 res) ~of_)

  let alu (op : Isa.alu_op) ~cf_in a b =
    let carry = if cf_in then 1 else 0 in
    match op with
    | Add -> add_like a b 0
    | Adc -> add_like a b carry
    | Sub -> sub_like a b 0
    | Sbb -> sub_like a b carry
    | And -> let r = a land b in (r, zf_sf r)
    | Or -> let r = a lor b in (r, zf_sf r)
    | Xor -> let r = a lxor b in (r, zf_sf r)

  let keep_cf flags new_flags = new_flags land lnot Flags.cf_bit lor (flags land Flags.cf_bit)

  let inc v ~flags =
    let res, f = add_like v 1 0 in
    (res, keep_cf flags f)

  let dec v ~flags =
    let res, f = sub_like v 1 0 in
    (res, keep_cf flags f)

  let neg v = sub_like 0 v 0
  let rotl32 v c = mask32 ((v lsl c) lor (v lsr (32 - c)))
  let rotr32 v c = mask32 ((v lsr c) lor (v lsl (32 - c)))

  let shift (op : Isa.shift_op) v ~count ~flags =
    let c = count land 31 in
    if c = 0 then (v, flags)
    else begin
      let res, cf, of_ =
        match op with
        | Shl ->
          let res = mask32 (v lsl c) in
          let cf = v land (1 lsl (32 - c)) <> 0 in
          (res, cf, bit31 res <> cf)
        | Shr ->
          let res = v lsr c in
          (res, v land (1 lsl (c - 1)) <> 0, bit31 v)
        | Sar ->
          let res = mask32 (Semantics.signed v asr c) in
          (res, v land (1 lsl (c - 1)) <> 0, false)
        | Rol ->
          let res = rotl32 v c in
          let cf = res land 1 <> 0 in
          (res, cf, bit31 res <> cf)
        | Ror ->
          let res = rotr32 v c in
          (res, bit31 res, false)
      in
      (res, Flags.make ~cf ~zf:(res = 0) ~sf:(bit31 res) ~of_)
    end

  type control =
    | Next
    | Cond_branch of { taken : bool; target : int }
    | Uncond of int
    | Indirect of int
    | Trap_syscall
    | Trap_halt

  type result = { insn : Isa.insn; len : int; control : control }

  let fetch ic mem pc =
    match Hashtbl.find_opt ic pc with
    | Some r -> r
    | None ->
      let r = Codec.decode ~fetch:(fun a -> Memory.read8 mem a) ~pc in
      Hashtbl.replace ic pc r;
      r

  let mem_addr cpu { base; index; disp } =
    let b = match base with None -> 0 | Some r -> Cpu.get cpu r in
    let i = match index with None -> 0 | Some (r, s) -> Cpu.get cpu r * scale_factor s in
    mask32 (b + i + disp)

  let read_operand cpu mem = function
    | Reg r -> Cpu.get cpu r
    | Imm n -> mask32 n
    | Mem m -> Memory.read mem W32 (mem_addr cpu m)

  let probe_write mem w addr =
    ignore (Memory.read8 mem addr);
    let last = addr + width_bytes w - 1 in
    if Memory.page_index last <> Memory.page_index addr then ignore (Memory.read8 mem last)

  let write_operand cpu mem op v =
    match op with
    | Reg r -> Cpu.set cpu r v
    | Mem m -> Memory.write mem W32 (mem_addr cpu m) v
    | Imm _ -> invalid_arg "write_operand: immediate destination"

  let rmw cpu mem op f =
    let v = read_operand cpu mem op in
    match f v with
    | None -> ()
    | Some res -> (
      match op with
      | Reg r -> Cpu.set cpu r res
      | Mem m -> Memory.write mem W32 (mem_addr cpu m) res
      | Imm _ -> invalid_arg "rmw: immediate destination")

  let push cpu mem v =
    let sp = mask32 (Cpu.get cpu ESP - 4) in
    probe_write mem W32 sp;
    Memory.write mem W32 sp v;
    Cpu.set cpu ESP sp

  let pop cpu mem =
    let sp = Cpu.get cpu ESP in
    let v = Memory.read mem W32 sp in
    Cpu.set cpu ESP (sp + 4);
    v

  let string_once (cpu : Cpu.t) mem kind w =
    let sz = width_bytes w in
    let esi = Cpu.get cpu ESI and edi = Cpu.get cpu EDI in
    match kind with
    | Movs ->
      let v = Memory.read mem w esi in
      probe_write mem w edi;
      Memory.write mem w edi v;
      Cpu.set cpu ESI (esi + sz);
      Cpu.set cpu EDI (edi + sz)
    | Stos ->
      probe_write mem w edi;
      Memory.write mem w edi (Semantics.truncate_width w (Cpu.get cpu EAX));
      Cpu.set cpu EDI (edi + sz)
    | Lods ->
      let v = Memory.read mem w esi in
      Cpu.set cpu EAX v;
      Cpu.set cpu ESI (esi + sz)
    | Scas ->
      let v = Memory.read mem w edi in
      let a = Semantics.truncate_width w (Cpu.get cpu EAX) in
      let _, f = alu Sub ~cf_in:false a v in
      cpu.flags <- f;
      Cpu.set cpu EDI (edi + sz)
    | Cmps ->
      let a = Memory.read mem w esi in
      let b = Memory.read mem w edi in
      let _, f = alu Sub ~cf_in:false a b in
      cpu.flags <- f;
      Cpu.set cpu ESI (esi + sz);
      Cpu.set cpu EDI (edi + sz)

  let exec_string (cpu : Cpu.t) mem kind w rep =
    match rep with
    | NoRep -> string_once cpu mem kind w
    | Rep | Repe | Repne ->
      let continue () =
        match rep with
        | Rep -> true
        | Repe -> Flags.zf cpu.flags
        | Repne -> not (Flags.zf cpu.flags)
        | NoRep -> assert false
      in
      let rec loop first =
        if Cpu.get cpu ECX <> 0 && (first || continue ()) then begin
          string_once cpu mem kind w;
          Cpu.set cpu ECX (Cpu.get cpu ECX - 1);
          loop false
        end
      in
      loop true

  let exec (cpu : Cpu.t) mem insn =
    let rd op = read_operand cpu mem op in
    let cf_in = Flags.cf cpu.flags in
    let set_flags f = cpu.flags <- f in
    match insn with
    | Nop -> Next
    | Mov (d, s) -> write_operand cpu mem d (rd s); Next
    | Movx (w, signed, r, m) ->
      let v = Memory.read mem w (mem_addr cpu m) in
      Cpu.set cpu r (if signed then Semantics.sign_extend w v else v);
      Next
    | Movw (w, m, r) ->
      let addr = mem_addr cpu m in
      probe_write mem w addr;
      Memory.write mem w addr (Semantics.truncate_width w (Cpu.get cpu r));
      Next
    | Lea (r, m) -> Cpu.set cpu r (mem_addr cpu m); Next
    | Alu (op, d, s) ->
      let b = rd s in
      rmw cpu mem d (fun a ->
          let res, f = alu op ~cf_in a b in
          set_flags f;
          Some res);
      Next
    | Cmp (d, s) ->
      let a = rd d and b = rd s in
      set_flags (snd (alu Sub ~cf_in:false a b));
      Next
    | Test (d, s) ->
      let a = rd d and b = rd s in
      set_flags (snd (alu And ~cf_in:false a b));
      Next
    | Inc d ->
      rmw cpu mem d (fun a -> let res, f = inc a ~flags:cpu.flags in set_flags f; Some res);
      Next
    | Dec d ->
      rmw cpu mem d (fun a -> let res, f = dec a ~flags:cpu.flags in set_flags f; Some res);
      Next
    | Neg d ->
      rmw cpu mem d (fun a -> let res, f = neg a in set_flags f; Some res);
      Next
    | Not d -> rmw cpu mem d (fun a -> Some (Semantics.not32 a)); Next
    | Shift (op, d, c) ->
      let count = rd c in
      rmw cpu mem d (fun a ->
          let res, f = shift op a ~count ~flags:cpu.flags in
          set_flags f;
          Some res);
      Next
    | Mul s ->
      let lo, hi, f = Semantics.mul_u (Cpu.get cpu EAX) (rd s) in
      Cpu.set cpu EAX lo; Cpu.set cpu EDX hi; set_flags f; Next
    | Imul s ->
      let lo, hi, f = Semantics.mul_s (Cpu.get cpu EAX) (rd s) in
      Cpu.set cpu EAX lo; Cpu.set cpu EDX hi; set_flags f; Next
    | Imul2 (r, s) ->
      let res, f = Semantics.imul2 (Cpu.get cpu r) (rd s) in
      Cpu.set cpu r res; set_flags f; Next
    | Div s ->
      let q, r = Semantics.div_u ~hi:(Cpu.get cpu EDX) ~lo:(Cpu.get cpu EAX) (rd s) in
      Cpu.set cpu EAX q; Cpu.set cpu EDX r; Next
    | Idiv s ->
      let q, r = Semantics.div_s ~hi:(Cpu.get cpu EDX) ~lo:(Cpu.get cpu EAX) (rd s) in
      Cpu.set cpu EAX q; Cpu.set cpu EDX r; Next
    | Push s -> push cpu mem (rd s); Next
    | Pop r -> let v = pop cpu mem in Cpu.set cpu r v; Next
    | Jmp t -> Uncond t
    | JmpInd s -> Indirect (rd s)
    | Jcc (c, t) -> Cond_branch { taken = Flags.eval_cond c cpu.flags; target = t }
    | Call t -> push cpu mem (mask32 (cpu.eip + Codec.length insn)); Uncond t
    | CallInd s ->
      let target = rd s in
      push cpu mem (mask32 (cpu.eip + Codec.length insn));
      Indirect target
    | Ret -> Indirect (pop cpu mem)
    | Cmov (c, r, s) ->
      let v = rd s in
      if Flags.eval_cond c cpu.flags then Cpu.set cpu r v;
      Next
    | Setcc (c, r) -> Cpu.set cpu r (if Flags.eval_cond c cpu.flags then 1 else 0); Next
    | Str (kind, w, rep) -> exec_string cpu mem kind w rep; Next
    | Fld (f, m) -> Cpu.setf cpu f (Memory.read_f64 mem (mem_addr cpu m)); Next
    | Fst (m, f) ->
      let addr = mem_addr cpu m in
      ignore (Memory.read8 mem addr);
      ignore (Memory.read8 mem (addr + 7));
      Memory.write_f64 mem addr (Cpu.getf cpu f);
      Next
    | Fmov (d, s) -> Cpu.setf cpu d (Cpu.getf cpu s); Next
    | Fldi (f, v) -> Cpu.setf cpu f v; Next
    | Fbin (op, d, s) ->
      Cpu.setf cpu d (Semantics.fp_bin op (Cpu.getf cpu d) (Cpu.getf cpu s)); Next
    | Fun_ (op, f) -> Cpu.setf cpu f (Semantics.fp_un op (Cpu.getf cpu f)); Next
    | Fcmp (a, b) -> set_flags (Semantics.fcmp_flags (Cpu.getf cpu a) (Cpu.getf cpu b)); Next
    | Fild (f, r) -> Cpu.setf cpu f (Semantics.i2f (Cpu.get cpu r)); Next
    | Fist (r, f) -> Cpu.set cpu r (Semantics.f2i (Cpu.getf cpu f)); Next
    | Syscall -> Trap_syscall
    | Halt -> Trap_halt

  let step ic (cpu : Cpu.t) mem =
    let insn, len = fetch ic mem cpu.eip in
    let control = exec cpu mem insn in
    (match control with
    | Next -> cpu.eip <- mask32 (cpu.eip + len)
    | Cond_branch { taken; target } ->
      cpu.eip <- (if taken then target else mask32 (cpu.eip + len))
    | Uncond t | Indirect t -> cpu.eip <- t
    | Trap_syscall -> ()
    | Trap_halt -> cpu.halted <- true);
    { insn; len; control }
end

let prop_split_semantics =
  QCheck.Test.make ~name:"split value/flag functions = tuple semantics" ~count:3000
    QCheck.(pair small_int (triple int int int))
    (fun (k, (a, b, f)) ->
      let a = Semantics.mask32 a and b = Semantics.mask32 b in
      let flags = f land Flags.mask and cf_in = f land 16 <> 0 in
      let op = [| Isa.Add; Sub; Adc; Sbb; And; Or; Xor |].(k mod 7) in
      let sop = [| Isa.Shl; Shr; Sar; Rol; Ror |].(k mod 5) in
      let count = b land 63 in
      Semantics.alu op ~cf_in a b
      = (Semantics.alu_value op ~cf_in a b, Semantics.alu_flags op ~cf_in a b)
      && Semantics.alu op ~cf_in a b = Oracle.alu op ~cf_in a b
      && Semantics.inc a ~flags
         = (Semantics.mask32 (a + 1), Semantics.keep_cf flags (Semantics.add_flags a 1 0))
      && Semantics.inc a ~flags = Oracle.inc a ~flags
      && Semantics.dec a ~flags
         = (Semantics.mask32 (a - 1), Semantics.keep_cf flags (Semantics.sub_flags a 1 0))
      && Semantics.dec a ~flags = Oracle.dec a ~flags
      && Semantics.neg a = (Semantics.mask32 (0 - a), Semantics.sub_flags 0 a 0)
      && Semantics.neg a = Oracle.neg a
      && Semantics.shift sop a ~count ~flags
         = (Semantics.shift_value sop a ~count, Semantics.shift_flags sop a ~count ~flags)
      && Semantics.shift sop a ~count ~flags = Oracle.shift sop a ~count ~flags)

(* Random single instructions on random state: every [Isa.insn]
   constructor, REP strings, calls, operands on and across page edges, and
   [`Fault] memories with absent pages. *)
module Single = struct
  let edge_pages = [| 5; 6; 7 |]

  (* an address within a few bytes of a page edge of the data region *)
  let edge_addr rng =
    (Rng.choose rng edge_pages * Memory.page_size) + Rng.in_range rng (-6) 5

  let value rng =
    match Rng.int rng 4 with
    | 0 -> edge_addr rng
    | 1 -> Rng.int rng 24
    | 2 -> Rng.choose rng [| 0; 1; 0x7FFFFFFF; 0x80000000; 0xFFFFFFFF |]
    | _ -> Rng.int rng 0x40000000 * 4 + Rng.int rng 4

  let reg rng = Rng.choose rng Isa.all_regs
  let freg rng = Rng.choose rng Isa.all_fregs
  let cond rng = Rng.choose rng Isa.all_conds
  let width rng = Rng.choose rng [| Isa.W8; W16; W32 |]

  let mem rng : Isa.mem =
    match Rng.int rng 4 with
    | 0 -> { base = None; index = None; disp = edge_addr rng }
    | 1 -> { base = Some (reg rng); index = None; disp = Rng.in_range rng (-8) 8 }
    | 2 ->
      {
        base = Some (reg rng);
        index = Some (reg rng, Rng.choose rng [| Isa.S1; S2; S4; S8 |]);
        disp = Rng.in_range rng (-8) 8;
      }
    | _ -> { base = None; index = Some (reg rng, S1); disp = Rng.in_range rng (-8) 8 }

  let src rng : Isa.operand =
    match Rng.int rng 3 with
    | 0 -> Reg (reg rng)
    | 1 -> Imm (value rng)
    | _ -> Mem (mem rng)

  let dst rng : Isa.operand = if Rng.bool rng then Reg (reg rng) else Mem (mem rng)

  (* a destination and a source, never both in memory *)
  let pair rng =
    let d = dst rng in
    let s = match d with Mem _ when Rng.bool rng -> Isa.Reg (reg rng) | Mem _ -> Imm (value rng) | _ -> src rng in
    (d, s)

  let target rng = Rng.choose rng [| 0x1000; 0x1800; 0x2010; 0xFFFFFFF0 |]

  let insn rng : Isa.insn =
    match Rng.int rng 42 with
    | 0 -> Nop
    | 1 | 2 -> let d, s = pair rng in Mov (d, s)
    | 3 -> Movx (width rng, Rng.bool rng, reg rng, mem rng)
    | 4 -> Movw (width rng, mem rng, reg rng)
    | 5 -> Lea (reg rng, mem rng)
    | 6 | 7 | 8 ->
      let d, s = pair rng in
      Alu (Rng.choose rng [| Isa.Add; Sub; Adc; Sbb; And; Or; Xor |], d, s)
    | 9 -> let d, s = pair rng in Cmp (d, s)
    | 10 -> let d, s = pair rng in Test (d, s)
    | 11 -> Inc (dst rng)
    | 12 -> Dec (dst rng)
    | 13 -> Neg (dst rng)
    | 14 -> Not (dst rng)
    | 15 ->
      let c : Isa.operand = if Rng.bool rng then Imm (Rng.int rng 40) else Reg ECX in
      Shift (Rng.choose rng [| Isa.Shl; Shr; Sar; Rol; Ror |], dst rng, c)
    | 16 -> Mul (src rng)
    | 17 -> Imul (src rng)
    | 18 -> Imul2 (reg rng, src rng)
    | 19 -> Div (src rng)
    | 20 -> Idiv (src rng)
    | 21 | 22 -> Push (src rng)
    | 23 -> Pop (reg rng)
    | 24 -> Jmp (target rng)
    | 25 -> JmpInd (src rng)
    | 26 | 27 -> Jcc (cond rng, target rng)
    | 28 -> Call (target rng)
    | 29 -> CallInd (src rng)
    | 30 -> Ret
    | 31 -> Cmov (cond rng, reg rng, src rng)
    | 32 -> Setcc (cond rng, reg rng)
    | 33 | 34 ->
      Str
        ( Rng.choose rng [| Isa.Movs; Stos; Lods; Scas; Cmps |],
          width rng,
          Rng.choose rng [| Isa.NoRep; Rep; Repe; Repne |] )
    | 35 -> Fld (freg rng, mem rng)
    | 36 -> Fst (mem rng, freg rng)
    | 37 -> (
      match Rng.int rng 3 with
      | 0 -> Fmov (freg rng, freg rng)
      | 1 -> Fldi (freg rng, Rng.float rng *. 100.0 -. 50.0)
      | _ -> Fcmp (freg rng, freg rng))
    | 38 ->
      if Rng.bool rng then Fbin (Rng.choose rng [| Isa.Fadd; Fsub; Fmul; Fdiv |], freg rng, freg rng)
      else Fun_ (Rng.choose rng [| Isa.Fsqrt; Fsin; Fcos; Fabs; Fchs |], freg rng)
    | 39 -> if Rng.bool rng then Fild (freg rng, reg rng) else Fist (reg rng, freg rng)
    | 40 -> Syscall
    | _ -> Halt

  type case = {
    insn : Isa.insn;
    pc : int;
    policy : [ `Auto_zero | `Fault ];
    pages : (int * Bytes.t) list;  (* present pages and their contents *)
    cpu : Cpu.t;
  }

  let gen seed =
    let rng = Rng.create seed in
    let insn = insn rng in
    (* the instruction sits mid-page or straddles the edge of page 1 *)
    let code = Codec.encode ~pc:0 insn in
    let pc =
      if Rng.bool rng then 0x1100
      else 0x2000 - 1 - Rng.int rng (Bytes.length code)
    in
    let code = Codec.encode ~pc insn in
    let policy = if Rng.bool rng then `Auto_zero else `Fault in
    (* random bytes where the edge-seeking operands land, a fill elsewhere *)
    let page idx =
      let b = Bytes.make Memory.page_size (Char.chr (Rng.int rng 256)) in
      for i = 0 to 15 do
        Bytes.set b i (Char.chr (Rng.int rng 256));
        Bytes.set b (Memory.page_size - 1 - i) (Char.chr (Rng.int rng 256))
      done;
      (idx, b)
    in
    let present _ = policy = `Auto_zero || Rng.chance rng 0.7 in
    let pages =
      page 1
      :: List.map page
           (List.filter present (2 :: Array.to_list edge_pages))
    in
    let cpu = Cpu.create () in
    Array.iter (fun r -> Cpu.set cpu r (value rng)) Isa.all_regs;
    Cpu.set cpu ESP (edge_addr rng);
    (* REP counts stay small; shifts by ECX see small counts too *)
    (match insn with
    | Str (_, _, (Rep | Repe | Repne)) -> Cpu.set cpu ECX (Rng.int rng 12)
    | _ -> if Rng.bool rng then Cpu.set cpu ECX (Rng.int rng 40));
    Array.iter (fun f -> Cpu.setf cpu f (Rng.float rng *. 20.0 -. 10.0)) Isa.all_fregs;
    cpu.flags <- Rng.int rng 16;
    cpu.eip <- pc;
    (* the code bytes go over whatever the pages hold *)
    let pages =
      List.map
        (fun (idx, b) ->
          let b = Bytes.copy b in
          Bytes.iteri
            (fun i c ->
              let a = pc + i in
              if Memory.page_index a = idx then Bytes.set b (a - Memory.page_base idx) c)
            code;
          (idx, b))
        pages
    in
    { insn; pc; policy; pages; cpu }

  let memory c =
    let m = Memory.create c.policy in
    List.iter (fun (idx, b) -> Memory.install_page m idx b) c.pages;
    m

  let same_memory a b =
    Memory.touched_pages a = Memory.touched_pages b
    && List.for_all (Memory.equal_page a b) (Memory.touched_pages a)

  let class_of : Oracle.control -> Step.control = function
    | Next -> Next
    | Cond_branch _ | Uncond _ | Indirect _ -> Branch
    | Trap_syscall -> Trap_syscall
    | Trap_halt -> Trap_halt
end

let prop_step_matches_oracle =
  QCheck.Test.make ~name:"Step.step = record-returning step on single instructions"
    ~count:4000 (QCheck.make QCheck.Gen.int) (fun seed ->
      let c = Single.gen seed in
      let cpu_a = Cpu.copy c.cpu and mem_a = Single.memory c in
      let cpu_b = Cpu.copy c.cpu and mem_b = Single.memory c in
      let a =
        match Step.step (Step.icache_create ()) cpu_a mem_a with
        | k -> Ok k
        | exception Memory.Page_fault p -> Error p
      in
      let b =
        match Oracle.step (Hashtbl.create 8) cpu_b mem_b with
        | r -> Ok (Single.class_of r.control)
        | exception Memory.Page_fault p -> Error p
      in
      let fail fmt =
        Printf.ksprintf
          (fun s -> QCheck.Test.fail_reportf "%s at 0x%x: %s" (Isa.to_string c.insn) c.pc s)
          fmt
      in
      if a <> b then fail "outcome differs";
      if not (Cpu.equal cpu_a cpu_b) then
        fail "cpu differs: %s" (String.concat "; " (Cpu.diff cpu_a cpu_b));
      if not (Single.same_memory mem_a mem_b) then fail "memory differs";
      (match a with
      | Error _ -> (
        (* a fault leaves the CPU as it was, except between REP iterations *)
        match c.insn with
        | Str (_, _, (Rep | Repe | Repne)) -> ()
        | _ ->
          if not (Cpu.equal cpu_a c.cpu) then fail "fault modified the cpu";
          (* only a plain store may have written the bytes before the edge *)
          (match c.insn with
          | Mov (Mem _, _) -> ()
          | _ -> if not (Single.same_memory mem_a (Single.memory c)) then fail "fault modified memory"))
      | Ok _ -> ());
      true)

(* The decode front is direct-mapped: two instructions whose addresses
   share a slot must both keep decoding to themselves. *)
let test_decode_front_conflicts () =
  let mem = Memory.create `Auto_zero in
  let a = 0x1010 and b = 0x1010 + 1024 and c = 0x1010 + 4096 in
  let put pc insn = Memory.blit_bytes mem pc (Codec.encode ~pc insn) in
  put a (Isa.Mov (Reg EAX, Imm 1));
  put b (Isa.Inc (Reg EBX));
  put c Isa.Nop;
  let ic = Step.icache_create () in
  for _ = 1 to 3 do
    List.iter
      (fun (pc, want) ->
        let got, len = Step.fetch ic mem pc in
        Alcotest.(check string) (Printf.sprintf "insn at 0x%x" pc) (Isa.to_string want)
          (Isa.to_string got);
        Alcotest.(check int) "length" (Codec.length want) len)
      [ (a, Isa.Mov (Reg EAX, Imm 1)); (b, Inc (Reg EBX)); (c, Nop) ]
  done

(* The page memo must follow [install_page]: a page replaced after it was
   memoized reads as its new contents. *)
let test_memory_memo_follows_install () =
  let m = Memory.create `Fault in
  Memory.install_page m 3 (Bytes.make 4096 'a');
  Alcotest.(check int) "first contents" (Char.code 'a') (Memory.read8 m 0x3000);
  Memory.install_page m 3 (Bytes.make 4096 'b');
  Alcotest.(check int) "replaced contents" (Char.code 'b') (Memory.read8 m 0x3000);
  Alcotest.check_raises "absent page still faults" (Memory.Page_fault 4) (fun () ->
      ignore (Memory.read8 m 0x4000));
  Alcotest.(check int) "memo kept after a fault" (Char.code 'b') (Memory.read8 m 0x3001)

(* --- the guest hot path allocates nothing ------------------------------- *)

(* After warm-up (every instruction decoded, every page touched), the
   reference interpreter runs an integer loop without touching the
   minor heap. *)
let test_run_until_allocation_free () =
  let a = Asm.create ~base:0x1000 () in
  Asm.insn a (Mov (Reg EBX, Imm 0x3000));
  Asm.insn a (Mov (Reg ECX, Imm 0x7FFFFFFF));
  Asm.label a "loop";
  Asm.insn a (Mov (Reg EAX, Mem { base = Some EBX; index = None; disp = 4 }));
  Asm.insn a (Alu (Add, Reg EAX, Reg ECX));
  Asm.insn a (Alu (Xor, Mem { base = Some EBX; index = None; disp = 8 }, Reg EAX));
  Asm.insn a (Lea (EDX, { base = Some EBX; index = Some (EAX, S1); disp = 0 }));
  Asm.insn a (Push (Reg EDX));
  Asm.insn a (Inc (Mem { base = Some EBX; index = None; disp = 12 }));
  Asm.insn a (Pop ESI);
  Asm.insn a (Alu (Sub, Reg ECX, Imm 1));
  Asm.insn a (Cmp (Reg ECX, Imm 0));
  Asm.jcc a NE "loop";
  Asm.insn a Halt;
  let r = Interp_ref.boot ~seed:0 (Asm.assemble a) in
  Interp_ref.run_until r 10_000;
  let before = Gc.minor_words () in
  Interp_ref.run_until r 110_000;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "retired" 110_000 r.retired;
  if words > 0.0 then
    Alcotest.failf "100000 guest instructions allocated %.0f minor words" words

(* --- asm / loader / syscall --------------------------------------------- *)

let test_asm_duplicate_label () =
  let a = Asm.create () in
  Asm.label a "x";
  Alcotest.check_raises "dup" (Failure "Asm: duplicate label x") (fun () ->
      Asm.label a "x")

let test_asm_undefined_label () =
  let a = Asm.create () in
  Asm.jmp a "nowhere";
  Alcotest.check_raises "undef" (Failure "Asm: undefined label nowhere") (fun () ->
      ignore (Asm.assemble a))

let test_asm_layout () =
  let a = Asm.create ~base:0x1000 () in
  Asm.insn a Nop;
  Asm.label a "after_nop";
  Asm.insn a Nop;
  let p = Asm.assemble a in
  Alcotest.(check int) "label address" 0x1001 (Program.symbol p "after_nop");
  Alcotest.(check int) "image size" 2 (Program.code_bytes p)

let test_syscall_write_and_exit () =
  let a = Asm.create ~base:0x1000 () in
  Asm.insn a (Mov (Mem { base = None; index = None; disp = 0x3000 }, Imm 0x6F6C6568));
  (* "helo" *)
  Asm.insn a (Mov (Reg EBX, Imm 1));
  Asm.insn a (Mov (Reg ECX, Imm 0x3000));
  Asm.insn a (Mov (Reg EDX, Imm 4));
  Asm.insn a (Mov (Reg EAX, Imm 4));
  Asm.insn a Syscall;
  Asm.insn a (Mov (Reg EBX, Imm 33));
  Asm.insn a (Mov (Reg EAX, Imm 1));
  Asm.insn a Syscall;
  Asm.insn a Halt;
  let r = Interp_ref.boot ~seed:0 (Asm.assemble a) in
  ignore (Interp_ref.run_to_halt r);
  Alcotest.(check string) "output" "helo" (Interp_ref.output r);
  Alcotest.(check (option int)) "exit code" (Some 33) r.exit_code

let test_syscall_read () =
  let a = Asm.create ~base:0x1000 () in
  Asm.insn a (Mov (Reg EBX, Imm 0));
  Asm.insn a (Mov (Reg ECX, Imm 0x3000));
  Asm.insn a (Mov (Reg EDX, Imm 5));
  Asm.insn a (Mov (Reg EAX, Imm 3));
  Asm.insn a Syscall;
  Asm.insn a Halt;
  let r = Interp_ref.boot ~input:"abcdef" ~seed:0 (Asm.assemble a) in
  ignore (Interp_ref.run_to_halt r);
  Alcotest.(check int) "bytes read" 5 (Cpu.get r.cpu EAX);
  Alcotest.(check int) "buffer" (Char.code 'a') (Memory.read8 r.mem 0x3000);
  Alcotest.(check int) "buffer end" (Char.code 'e') (Memory.read8 r.mem 0x3004)

let test_run_until_counts () =
  let a = Asm.create ~base:0x1000 () in
  for _ = 1 to 10 do
    Asm.insn a Nop
  done;
  Asm.insn a Halt;
  let r = Interp_ref.boot ~seed:0 (Asm.assemble a) in
  Interp_ref.run_until r 4;
  Alcotest.(check int) "retired exactly" 4 r.retired;
  Alcotest.(check int) "eip advanced" 0x1004 r.cpu.eip

let () =
  Alcotest.run "guest"
    [
      ( "semantics",
        [
          Alcotest.test_case "add flags" `Quick test_add_flags;
          Alcotest.test_case "sub flags" `Quick test_sub_flags;
          Alcotest.test_case "adc/sbb chains" `Quick test_adc_sbb_chain;
          Alcotest.test_case "logic flags" `Quick test_logic_flags;
          Alcotest.test_case "inc/dec preserve CF" `Quick test_inc_dec_preserve_cf;
          Alcotest.test_case "shifts" `Quick test_shift_semantics;
          Alcotest.test_case "multiply" `Quick test_mul;
          Alcotest.test_case "divide" `Quick test_div;
          Alcotest.test_case "sign extension" `Quick test_sign_extend;
          Alcotest.test_case "float->int" `Quick test_f2i;
          Alcotest.test_case "fcmp" `Quick test_fcmp;
          QCheck_alcotest.to_alcotest prop_div_identity;
          QCheck_alcotest.to_alcotest prop_alu_matches_int64;
        ] );
      ( "conditions",
        [
          Alcotest.test_case "eval_cond table" `Quick test_eval_cond;
          QCheck_alcotest.to_alcotest prop_negate_cond;
        ] );
      ( "codec",
        [
          QCheck_alcotest.to_alcotest prop_codec_roundtrip;
          Alcotest.test_case "control transfers" `Quick test_codec_control;
          Alcotest.test_case "bad encoding" `Quick test_codec_bad_encoding;
          Alcotest.test_case "variable length" `Quick test_codec_variable_length;
        ] );
      ( "memory",
        [
          Alcotest.test_case "read/write" `Quick test_memory_rw;
          Alcotest.test_case "page boundary" `Quick test_memory_page_boundary;
          Alcotest.test_case "fault policy" `Quick test_memory_fault_policy;
          Alcotest.test_case "f64" `Quick test_memory_f64;
          Alcotest.test_case "equal_page" `Quick test_memory_equal_page;
        ] );
      ("cpu", [ Alcotest.test_case "get/set/copy/diff" `Quick test_cpu_ops ]);
      ( "step",
        [
          Alcotest.test_case "push/pop" `Quick test_step_push_pop;
          Alcotest.test_case "pop esp" `Quick test_step_pop_esp;
          Alcotest.test_case "call/ret" `Quick test_step_call_ret;
          Alcotest.test_case "rep movs" `Quick test_step_string_rep_movs;
          Alcotest.test_case "repe cmps" `Quick test_step_repe_cmps;
          Alcotest.test_case "stos/scas" `Quick test_step_stos_scas;
          Alcotest.test_case "cmov/setcc" `Quick test_step_cmov_setcc;
          Alcotest.test_case "fault atomicity" `Quick test_step_fault_leaves_state;
          QCheck_alcotest.to_alcotest prop_step_matches_oracle;
          QCheck_alcotest.to_alcotest prop_split_semantics;
          Alcotest.test_case "decode front conflicts" `Quick test_decode_front_conflicts;
          Alcotest.test_case "page memo follows install" `Quick
            test_memory_memo_follows_install;
          Alcotest.test_case "run_until allocates nothing" `Quick
            test_run_until_allocation_free;
        ] );
      ( "asm-loader-syscall",
        [
          Alcotest.test_case "duplicate label" `Quick test_asm_duplicate_label;
          Alcotest.test_case "undefined label" `Quick test_asm_undefined_label;
          Alcotest.test_case "layout" `Quick test_asm_layout;
          Alcotest.test_case "write + exit" `Quick test_syscall_write_and_exit;
          Alcotest.test_case "read input" `Quick test_syscall_read;
          Alcotest.test_case "run_until" `Quick test_run_until_counts;
        ] );
    ]

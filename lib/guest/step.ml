open Isa

type control = Next | Branch | Trap_syscall | Trap_halt

(* A direct-mapped front (guest address -> decoded instruction) over the
   table that holds every instruction decoded so far: a hot loop hits the
   front, and a conflict costs one table lookup, not a decode. *)
type icache = {
  tags : int array;  (* guest address held by each slot; -1 when empty *)
  slots : (Isa.insn * int) array;
  table : (int, Isa.insn * int) Hashtbl.t;
}

let front_slots = 1024

let icache_create () : icache =
  {
    tags = Array.make front_slots (-1);
    slots = Array.make front_slots (Nop, 0);
    table = Hashtbl.create 1024;
  }

let fetch (ic : icache) mem pc =
  let slot = pc land (front_slots - 1) in
  if Array.unsafe_get ic.tags slot = pc then Array.unsafe_get ic.slots slot
  else begin
    let r =
      match Hashtbl.find_opt ic.table pc with
      | Some r -> r
      | None ->
        let r = Codec.decode ~fetch:(fun a -> Memory.read8 mem a) ~pc in
        Hashtbl.replace ic.table pc r;
        r
    in
    ic.tags.(slot) <- pc;
    ic.slots.(slot) <- r;
    r
  end

let is_interp_only = function Str (_, _, (Rep | Repe | Repne)) -> true | _ -> false

let mem_addr cpu { base; index; disp } =
  let b = match base with None -> 0 | Some r -> Cpu.get cpu r in
  let i =
    match index with None -> 0 | Some (r, s) -> Cpu.get cpu r * scale_factor s
  in
  Semantics.mask32 (b + i + disp)

let read_operand cpu mem = function
  | Reg r -> Cpu.get cpu r
  | Imm n -> Semantics.mask32 n
  | Mem m -> Memory.read mem W32 (mem_addr cpu m)

(* Touch every page a write of [w] at [addr] will reach, so the write cannot
   fault halfway through. *)
let probe_write mem w addr =
  ignore (Memory.read8 mem addr);
  let last = addr + width_bytes w - 1 in
  if Memory.page_index last <> Memory.page_index addr then ignore (Memory.read8 mem last)

let write_operand cpu mem op v =
  match op with
  | Reg r -> Cpu.set cpu r v
  | Mem m -> Memory.write mem W32 (mem_addr cpu m) v
  | Imm _ -> invalid_arg "write_operand: immediate destination"

(* The write half of a read-modify-write destination.  Reading the
   destination first (with [read_operand]) both fetched the value and probed
   the pages this write touches, so it cannot fault. *)
let write_back cpu mem op res =
  match op with
  | Reg r -> Cpu.set cpu r res
  | Mem m -> Memory.write mem W32 (mem_addr cpu m) res
  | Imm _ -> invalid_arg "write_back: immediate destination"

let push cpu mem v =
  let sp = Semantics.mask32 (Cpu.get cpu ESP - 4) in
  probe_write mem W32 sp;
  Memory.write mem W32 sp v;
  Cpu.set cpu ESP sp

let pop cpu mem =
  let sp = Cpu.get cpu ESP in
  let v = Memory.read mem W32 sp in
  Cpu.set cpu ESP (sp + 4);
  v

(* One iteration of a string instruction; [w] bytes, pointers ascend. *)
let string_once cpu mem kind w =
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
    cpu.flags <- Semantics.sub_flags a v 0;
    Cpu.set cpu EDI (edi + sz)
  | Cmps ->
    let a = Memory.read mem w esi in
    let b = Memory.read mem w edi in
    cpu.flags <- Semantics.sub_flags a b 0;
    Cpu.set cpu ESI (esi + sz);
    Cpu.set cpu EDI (edi + sz)

let exec_string cpu mem kind w rep =
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

(* Execute [insn] (of encoded length [len]) at [cpu.eip].  A control
   transfer sets EIP itself and answers [Branch]; [Next] and the traps leave
   EIP to [step]. *)
let exec (cpu : Cpu.t) mem insn len =
  let cf_in = Flags.cf cpu.flags in
  match insn with
  | Nop -> Next
  | Mov (d, s) ->
    write_operand cpu mem d (read_operand cpu mem s);
    Next
  | Movx (w, signed, r, m) ->
    let v = Memory.read mem w (mem_addr cpu m) in
    Cpu.set cpu r (if signed then Semantics.sign_extend w v else v);
    Next
  | Movw (w, m, r) ->
    let addr = mem_addr cpu m in
    probe_write mem w addr;
    Memory.write mem w addr (Semantics.truncate_width w (Cpu.get cpu r));
    Next
  | Lea (r, m) ->
    Cpu.set cpu r (mem_addr cpu m);
    Next
  | Alu (op, d, s) ->
    let b = read_operand cpu mem s in
    let a = read_operand cpu mem d in
    cpu.flags <- Semantics.alu_flags op ~cf_in a b;
    write_back cpu mem d (Semantics.alu_value op ~cf_in a b);
    Next
  | Cmp (d, s) ->
    let a = read_operand cpu mem d in
    cpu.flags <- Semantics.alu_flags Sub ~cf_in:false a (read_operand cpu mem s);
    Next
  | Test (d, s) ->
    let a = read_operand cpu mem d in
    cpu.flags <- Semantics.alu_flags And ~cf_in:false a (read_operand cpu mem s);
    Next
  | Inc d ->
    let a = read_operand cpu mem d in
    cpu.flags <- Semantics.keep_cf cpu.flags (Semantics.add_flags a 1 0);
    write_back cpu mem d (Semantics.mask32 (a + 1));
    Next
  | Dec d ->
    let a = read_operand cpu mem d in
    cpu.flags <- Semantics.keep_cf cpu.flags (Semantics.sub_flags a 1 0);
    write_back cpu mem d (Semantics.mask32 (a - 1));
    Next
  | Neg d ->
    let a = read_operand cpu mem d in
    cpu.flags <- Semantics.sub_flags 0 a 0;
    write_back cpu mem d (Semantics.mask32 (0 - a));
    Next
  | Not d ->
    write_back cpu mem d (Semantics.not32 (read_operand cpu mem d));
    Next
  | Shift (op, d, c) ->
    let count = read_operand cpu mem c in
    let a = read_operand cpu mem d in
    cpu.flags <- Semantics.shift_flags op a ~count ~flags:cpu.flags;
    write_back cpu mem d (Semantics.shift_value op a ~count);
    Next
  | Mul s ->
    let lo, hi, f = Semantics.mul_u (Cpu.get cpu EAX) (read_operand cpu mem s) in
    Cpu.set cpu EAX lo;
    Cpu.set cpu EDX hi;
    cpu.flags <- f;
    Next
  | Imul s ->
    let lo, hi, f = Semantics.mul_s (Cpu.get cpu EAX) (read_operand cpu mem s) in
    Cpu.set cpu EAX lo;
    Cpu.set cpu EDX hi;
    cpu.flags <- f;
    Next
  | Imul2 (r, s) ->
    let res, f = Semantics.imul2 (Cpu.get cpu r) (read_operand cpu mem s) in
    Cpu.set cpu r res;
    cpu.flags <- f;
    Next
  | Div s ->
    let q, r =
      Semantics.div_u ~hi:(Cpu.get cpu EDX) ~lo:(Cpu.get cpu EAX) (read_operand cpu mem s)
    in
    Cpu.set cpu EAX q;
    Cpu.set cpu EDX r;
    Next
  | Idiv s ->
    let q, r =
      Semantics.div_s ~hi:(Cpu.get cpu EDX) ~lo:(Cpu.get cpu EAX) (read_operand cpu mem s)
    in
    Cpu.set cpu EAX q;
    Cpu.set cpu EDX r;
    Next
  | Push s ->
    push cpu mem (read_operand cpu mem s);
    Next
  | Pop r ->
    let v = pop cpu mem in
    Cpu.set cpu r v;
    Next
  | Jmp t ->
    cpu.eip <- t;
    Branch
  | JmpInd s ->
    cpu.eip <- read_operand cpu mem s;
    Branch
  | Jcc (c, t) ->
    cpu.eip <-
      (if Flags.eval_cond c cpu.flags then t else Semantics.mask32 (cpu.eip + len));
    Branch
  | Call t ->
    push cpu mem (Semantics.mask32 (cpu.eip + Codec.length insn));
    cpu.eip <- t;
    Branch
  | CallInd s ->
    let target = read_operand cpu mem s in
    push cpu mem (Semantics.mask32 (cpu.eip + Codec.length insn));
    cpu.eip <- target;
    Branch
  | Ret ->
    cpu.eip <- pop cpu mem;
    Branch
  | Cmov (c, r, s) ->
    let v = read_operand cpu mem s in
    if Flags.eval_cond c cpu.flags then Cpu.set cpu r v;
    Next
  | Setcc (c, r) ->
    Cpu.set cpu r (if Flags.eval_cond c cpu.flags then 1 else 0);
    Next
  | Str (kind, w, rep) ->
    exec_string cpu mem kind w rep;
    Next
  | Fld (f, m) ->
    Cpu.setf cpu f (Memory.read_f64 mem (mem_addr cpu m));
    Next
  | Fst (m, f) ->
    let addr = mem_addr cpu m in
    ignore (Memory.read8 mem addr);
    ignore (Memory.read8 mem (addr + 7));
    Memory.write_f64 mem addr (Cpu.getf cpu f);
    Next
  | Fmov (d, s) ->
    Cpu.setf cpu d (Cpu.getf cpu s);
    Next
  | Fldi (f, v) ->
    Cpu.setf cpu f v;
    Next
  | Fbin (op, d, s) ->
    Cpu.setf cpu d (Semantics.fp_bin op (Cpu.getf cpu d) (Cpu.getf cpu s));
    Next
  | Fun_ (op, f) ->
    Cpu.setf cpu f (Semantics.fp_un op (Cpu.getf cpu f));
    Next
  | Fcmp (a, b) ->
    cpu.flags <- Semantics.fcmp_flags (Cpu.getf cpu a) (Cpu.getf cpu b);
    Next
  | Fild (f, r) ->
    Cpu.setf cpu f (Semantics.i2f (Cpu.get cpu r));
    Next
  | Fist (r, f) ->
    Cpu.set cpu r (Semantics.f2i (Cpu.getf cpu f));
    Next
  | Syscall -> Trap_syscall
  | Halt -> Trap_halt

let step ic cpu mem =
  let insn, len = fetch ic mem cpu.Cpu.eip in
  match exec cpu mem insn len with
  | Next ->
    cpu.eip <- Semantics.mask32 (cpu.eip + len);
    Next
  | Trap_halt ->
    cpu.halted <- true;
    Trap_halt
  | (Branch | Trap_syscall) as c -> c

open Darco_guest

type reg = int
type freg = int

type binop =
  | Add | Sub | Mul | Mulhu | Mulhs
  | And | Or | Xor
  | Shl | Shr | Sar
  | Slt | Sltu | Seq | Sne

type cmp = Beq | Bne | Blt | Bge | Bltu | Bgeu
type fbinop = Fadd | Fsub | Fmul | Fdiv
type funop = Fsqrt | Fabs | Fneg
type rt_fn = Rt_sin | Rt_cos | Rt_divu | Rt_divs

(* The service-routine instruction counts stand in for the paper's software
   emulation of complex guest instructions: transcendentals dominate (the
   Physicsbench observation), division is cheaper. *)
let rt_cost = function Rt_sin -> 46 | Rt_cos -> 46 | Rt_divu -> 22 | Rt_divs -> 24

type flkind =
  | Fl_add | Fl_adc | Fl_sub | Fl_sbb
  | Fl_logic
  | Fl_shl | Fl_shr | Fl_sar | Fl_rol | Fl_ror
  | Fl_inc | Fl_dec | Fl_neg
  | Fl_mulu | Fl_muls

type exit_kind =
  | Exit_direct of int
  | Exit_indirect of reg
  | Exit_syscall of int
  | Exit_interp of int
  | Exit_promote of int
  | Exit_halt

type region = {
  id : int;
  entry_pc : int;
  mode : [ `Bb | `Super ];
  mutable base : int;
  mutable code : insn array;
  mutable incoming : exit_info list;
  mutable invalidated : bool;
}

and exit_info = {
  exit_id : int;
  kind : exit_kind;
  guest_retired : int;
  mutable chain : region option;
  prefer_bb : bool;
}

and insn =
  | Nop
  | Li of reg * int
  | Bin of binop * reg * reg * reg
  | Bini of binop * reg * reg * int
  | Load of Isa.width * bool * reg * reg * int
  | Sload of Isa.width * bool * reg * reg * int
  | Store of Isa.width * reg * reg * int
  | Fli of freg * float
  | Fmov of freg * freg
  | Fbin of fbinop * freg * freg * freg
  | Fun of funop * freg * freg
  | Fload of freg * reg * int
  | Fstore of freg * reg * int
  | Fcmp of reg * freg * freg
  | Cvtif of freg * reg
  | Cvtfi of reg * freg
  | Mkfl of flkind * reg * reg * reg * reg
  | Isel of reg * reg * reg * reg
  | Callrt_f of rt_fn * freg * freg
  | Callrt_div of { signed : bool; q : reg; r : reg; hi : reg; lo : reg; d : reg }
  | B of cmp * reg * reg * int
  | J of int
  | Jr of reg * reg
  | Assert of cmp * reg * reg
  | Chk
  | Commit of int
  | Exit of exit_info

let exit_of = function Exit e -> Some e | _ -> None
let host_pc region idx = region.base + (4 * idx)

let binop_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Mulhu -> "mulhu" | Mulhs -> "mulhs"
  | And -> "and" | Or -> "or" | Xor -> "xor"
  | Shl -> "shl" | Shr -> "shr" | Sar -> "sar"
  | Slt -> "slt" | Sltu -> "sltu" | Seq -> "seq" | Sne -> "sne"

let cmp_name = function
  | Beq -> "eq" | Bne -> "ne" | Blt -> "lt" | Bge -> "ge" | Bltu -> "ltu" | Bgeu -> "geu"

let fbinop_name = function Fadd -> "fadd" | Fsub -> "fsub" | Fmul -> "fmul" | Fdiv -> "fdiv"
let funop_name = function Fsqrt -> "fsqrt" | Fabs -> "fabs" | Fneg -> "fneg"
let rt_name = function Rt_sin -> "sin" | Rt_cos -> "cos" | Rt_divu -> "divu" | Rt_divs -> "divs"
let width_tag (w : Isa.width) = match w with W8 -> "b" | W16 -> "h" | W32 -> "w"

let flkind_name = function
  | Fl_add -> "add" | Fl_adc -> "adc" | Fl_sub -> "sub" | Fl_sbb -> "sbb"
  | Fl_logic -> "logic"
  | Fl_shl -> "shl" | Fl_shr -> "shr" | Fl_sar -> "sar" | Fl_rol -> "rol"
  | Fl_ror -> "ror"
  | Fl_inc -> "inc" | Fl_dec -> "dec" | Fl_neg -> "neg"
  | Fl_mulu -> "mulu" | Fl_muls -> "muls"

let exit_kind_to_string = function
  | Exit_direct pc -> Printf.sprintf "direct:0x%x" pc
  | Exit_indirect r -> Printf.sprintf "indirect:r%d" r
  | Exit_syscall pc -> Printf.sprintf "syscall:0x%x" pc
  | Exit_interp pc -> Printf.sprintf "interp:0x%x" pc
  | Exit_promote pc -> Printf.sprintf "promote:0x%x" pc
  | Exit_halt -> "halt"

let insn_to_string = function
  | Nop -> "nop"
  | Li (rd, v) -> Printf.sprintf "li r%d, 0x%x" rd v
  | Bin (op, rd, ra, rb) -> Printf.sprintf "%s r%d, r%d, r%d" (binop_name op) rd ra rb
  | Bini (op, rd, ra, v) -> Printf.sprintf "%si r%d, r%d, %d" (binop_name op) rd ra v
  | Load (w, s, rd, ra, d) ->
    Printf.sprintf "l%s%s r%d, [r%d%+d]" (width_tag w) (if s then "s" else "") rd ra d
  | Sload (w, s, rd, ra, d) ->
    Printf.sprintf "l%s%s.spec r%d, [r%d%+d]" (width_tag w) (if s then "s" else "") rd ra d
  | Store (w, rv, ra, d) -> Printf.sprintf "s%s r%d, [r%d%+d]" (width_tag w) rv ra d
  | Fli (fd, v) -> Printf.sprintf "fli f%d, %g" fd v
  | Fmov (fd, fs) -> Printf.sprintf "fmov f%d, f%d" fd fs
  | Fbin (op, fd, fa, fb) -> Printf.sprintf "%s f%d, f%d, f%d" (fbinop_name op) fd fa fb
  | Fun (op, fd, fa) -> Printf.sprintf "%s f%d, f%d" (funop_name op) fd fa
  | Fload (fd, ra, d) -> Printf.sprintf "lfd f%d, [r%d%+d]" fd ra d
  | Fstore (fv, ra, d) -> Printf.sprintf "sfd f%d, [r%d%+d]" fv ra d
  | Fcmp (rd, fa, fb) -> Printf.sprintf "fcmp r%d, f%d, f%d" rd fa fb
  | Cvtif (fd, ra) -> Printf.sprintf "cvtif f%d, r%d" fd ra
  | Cvtfi (rd, fa) -> Printf.sprintf "cvtfi r%d, f%d" rd fa
  | Mkfl (k, rd, a, b, c) ->
    Printf.sprintf "mkfl.%s r%d, r%d, r%d, r%d" (flkind_name k) rd a b c
  | Isel (rd, rc, ra, rb) -> Printf.sprintf "isel r%d, r%d ? r%d : r%d" rd rc ra rb
  | Callrt_f (fn, fd, fs) -> Printf.sprintf "call.%s f%d, f%d" (rt_name fn) fd fs
  | Callrt_div { signed; q; r; hi; lo; d } ->
    Printf.sprintf "call.div%s r%d, r%d, (r%d:r%d / r%d)" (if signed then "s" else "u") q r
      hi lo d
  | B (c, ra, rb, t) -> Printf.sprintf "b%s r%d, r%d, @%d" (cmp_name c) ra rb t
  | J t -> Printf.sprintf "j @%d" t
  | Jr (ra, rg) -> Printf.sprintf "jr r%d (guest r%d)" ra rg
  | Assert (c, ra, rb) -> Printf.sprintf "assert.%s r%d, r%d" (cmp_name c) ra rb
  | Chk -> "chk"
  | Commit n -> Printf.sprintf "commit (retire %d)" n
  | Exit e ->
    Printf.sprintf "exit %s (retired %d)%s" (exit_kind_to_string e.kind) e.guest_retired
      (match e.chain with None -> "" | Some r -> Printf.sprintf " -> region %d" r.id)

let pp_insn ppf i = Format.pp_print_string ppf (insn_to_string i)

let pp_region ppf r =
  Format.fprintf ppf "@[<v>region %d (%s) guest 0x%x, base 0x%x%s@ " r.id
    (match r.mode with `Bb -> "bb" | `Super -> "super")
    r.entry_pc r.base
    (if r.invalidated then " INVALIDATED" else "");
  Array.iteri (fun i insn -> Format.fprintf ppf "  @%d: %s@ " i (insn_to_string insn)) r.code;
  Format.fprintf ppf "@]"

(* The one derivation of what an instruction reads and writes.  [decode]
   fills a caller-owned [operands] record in place, so per-instruction
   consumers (the timing pipeline) pay no allocation; [defs]/[uses]/
   [fdefs]/[fuses] are list views over the same match.  r0 is hard-wired
   zero: it is never a real definition and reading it carries no
   dependence, so it is dropped from the integer sets. *)
type operands = {
  int_uses : int array;
  mutable n_int_uses : int;
  fp_uses : int array;
  mutable n_fp_uses : int;
  int_defs : int array;
  mutable n_int_defs : int;
  fp_defs : int array;
  mutable n_fp_defs : int;
}

let operands () =
  {
    int_uses = Array.make 3 0;
    n_int_uses = 0;
    fp_uses = Array.make 2 0;
    n_fp_uses = 0;
    int_defs = Array.make 2 0;
    n_int_defs = 0;
    fp_defs = Array.make 1 0;
    n_fp_defs = 0;
  }

let use o r =
  if r <> 0 then begin
    o.int_uses.(o.n_int_uses) <- r;
    o.n_int_uses <- o.n_int_uses + 1
  end

let def o r =
  if r <> 0 then begin
    o.int_defs.(o.n_int_defs) <- r;
    o.n_int_defs <- o.n_int_defs + 1
  end

let fuse o f =
  o.fp_uses.(o.n_fp_uses) <- f;
  o.n_fp_uses <- o.n_fp_uses + 1

let fdef o f =
  o.fp_defs.(o.n_fp_defs) <- f;
  o.n_fp_defs <- o.n_fp_defs + 1

let decode o insn =
  o.n_int_uses <- 0;
  o.n_fp_uses <- 0;
  o.n_int_defs <- 0;
  o.n_fp_defs <- 0;
  match insn with
  | Nop | J _ | Chk | Commit _ -> ()
  | Li (rd, _) -> def o rd
  | Bin (_, rd, ra, rb) -> def o rd; use o ra; use o rb
  | Bini (_, rd, ra, _) | Load (_, _, rd, ra, _) | Sload (_, _, rd, ra, _) -> def o rd; use o ra
  | Store (_, rv, ra, _) -> use o rv; use o ra
  | Fli (fd, _) -> fdef o fd
  | Fmov (fd, fs) | Fun (_, fd, fs) | Callrt_f (_, fd, fs) -> fdef o fd; fuse o fs
  | Fbin (_, fd, fa, fb) -> fdef o fd; fuse o fa; fuse o fb
  | Fload (fd, ra, _) | Cvtif (fd, ra) -> fdef o fd; use o ra
  | Fstore (fv, ra, _) -> fuse o fv; use o ra
  | Fcmp (rd, fa, fb) -> def o rd; fuse o fa; fuse o fb
  | Cvtfi (rd, fs) -> def o rd; fuse o fs
  | Mkfl (_, rd, ra, rb, rc) -> def o rd; use o ra; use o rb; use o rc
  | Isel (rd, rc, ra, rb) -> def o rd; use o rc; use o ra; use o rb
  | Callrt_div { q; r; hi; lo; d; _ } -> def o q; def o r; use o hi; use o lo; use o d
  | B (_, ra, rb, _) | Assert (_, ra, rb) | Jr (ra, rb) -> use o ra; use o rb
  | Exit e -> ( match e.kind with Exit_indirect r -> use o r | _ -> ())

let operand_list pick insn =
  let o = operands () in
  decode o insn;
  let a, n = pick o in
  List.init n (Array.get a)

let defs = operand_list (fun o -> (o.int_defs, o.n_int_defs))
let uses = operand_list (fun o -> (o.int_uses, o.n_int_uses))
let fdefs = operand_list (fun o -> (o.fp_defs, o.n_fp_defs))
let fuses = operand_list (fun o -> (o.fp_uses, o.n_fp_uses))

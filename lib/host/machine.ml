open Darco_guest

type t = {
  r : int array;
  f : float array;
  mem : Memory.t;
  mutable log_addr : int array;         (* gated stores, in program order *)
  mutable log_width : Isa.width array;
  mutable log_value : int array;
  mutable log_len : int;
  mutable aliases : (int * int) list;   (* (addr, len) of speculative loads *)
  mutable ckpt_r : int array;
  mutable ckpt_f : float array;
}

exception Alias_violation

(* Commits drain the log every region, so it rarely outgrows this. *)
let log_capacity = 64

let create mem =
  {
    r = Array.make 64 0;
    f = Array.make 32 0.0;
    mem;
    log_addr = Array.make log_capacity 0;
    log_width = Array.make log_capacity Isa.W8;
    log_value = Array.make log_capacity 0;
    log_len = 0;
    aliases = [];
    ckpt_r = Array.make 64 0;
    ckpt_f = Array.make 32 0.0;
  }

let get t r = if r = 0 then 0 else t.r.(r)
let set t r v = if r <> 0 then t.r.(r) <- Semantics.mask32 v

let checkpoint t =
  Array.blit t.r 0 t.ckpt_r 0 64;
  Array.blit t.f 0 t.ckpt_f 0 32;
  t.log_len <- 0;
  t.aliases <- []

let rollback t =
  Array.blit t.ckpt_r 0 t.r 0 64;
  Array.blit t.ckpt_f 0 t.f 0 32;
  t.log_len <- 0;
  t.aliases <- []

let commit t =
  let n = t.log_len in
  if n <> 0 then begin
    (* Probe first, in program order: a page fault must leave memory
       untouched.  A store reaches at most two pages, its first and last
       byte's; the memory's page memo makes repeated probes cheap. *)
    for i = 0 to n - 1 do
      let addr = t.log_addr.(i) in
      ignore (Memory.read8 t.mem addr);
      let last = addr + Isa.width_bytes t.log_width.(i) - 1 in
      if Memory.page_index last <> Memory.page_index addr then
        ignore (Memory.read8 t.mem last)
    done;
    (* Later stores overwrite earlier ones, as the byte view says. *)
    for i = 0 to n - 1 do
      Memory.write t.mem t.log_width.(i) t.log_addr.(i) t.log_value.(i)
    done;
    t.log_len <- 0
  end;
  t.aliases <- []

(* The byte at [addr] as the newest store at or below entry [i] left it,
   or memory's if none covers it. *)
let rec forward t addr i =
  if i < 0 then Memory.read8 t.mem addr
  else begin
    let a = t.log_addr.(i) in
    if addr >= a && addr < a + Isa.width_bytes t.log_width.(i) then
      (t.log_value.(i) lsr (8 * (addr - a))) land 0xFF
    else forward t addr (i - 1)
  end

let pending_bytes t =
  let seen = Hashtbl.create 16 in
  for i = t.log_len - 1 downto 0 do
    for b = Isa.width_bytes t.log_width.(i) - 1 downto 0 do
      let addr = t.log_addr.(i) + b in
      if not (Hashtbl.mem seen addr) then
        Hashtbl.replace seen addr ((t.log_value.(i) lsr (8 * b)) land 0xFF)
    done
  done;
  List.sort compare (Hashtbl.fold (fun a v acc -> (a, v) :: acc) seen [])

let in_flight_stores t = List.length (pending_bytes t)

let load_byte t addr = forward t addr (t.log_len - 1)

let raw_load t (w : Isa.width) addr =
  (* With no stores in flight there is nothing to forward, so the load can
     go straight to memory in one access. *)
  if t.log_len = 0 then Memory.read t.mem w addr
  else
    match w with
    | W8 -> load_byte t addr
    | W16 -> load_byte t addr lor (load_byte t (addr + 1) lsl 8)
    | W32 ->
      load_byte t addr
      lor (load_byte t (addr + 1) lsl 8)
      lor (load_byte t (addr + 2) lsl 16)
      lor (load_byte t (addr + 3) lsl 24)

let load t w ~signed addr =
  let v = raw_load t w addr in
  if signed then Semantics.sign_extend w v else v

let load_spec t w ~signed addr =
  let v = load t w ~signed addr in
  t.aliases <- (addr, Isa.width_bytes w) :: t.aliases;
  v

let overlaps a la b lb = a < b + lb && b < a + la

let rec conflicts addr len = function
  | [] -> false
  | (a, l) :: rest -> overlaps a l addr len || conflicts addr len rest

let grow t =
  let n = Array.length t.log_addr in
  let widen a fill =
    let b = Array.make (2 * n) fill in
    Array.blit a 0 b 0 n;
    b
  in
  t.log_addr <- widen t.log_addr 0;
  t.log_width <- widen t.log_width Isa.W8;
  t.log_value <- widen t.log_value 0

let store t (w : Isa.width) addr v =
  if conflicts addr (Isa.width_bytes w) t.aliases then raise Alias_violation;
  if t.log_len = Array.length t.log_addr then grow t;
  let i = t.log_len in
  t.log_addr.(i) <- addr;
  t.log_width.(i) <- w;
  t.log_value.(i) <- v;
  t.log_len <- i + 1

let load_f64 t addr =
  let lo = Int64.of_int (raw_load t W32 addr) in
  let hi = Int64.of_int (raw_load t W32 (addr + 4)) in
  Int64.float_of_bits (Int64.logor (Int64.shift_left hi 32) lo)

let store_f64 t addr x =
  let bits = Int64.bits_of_float x in
  store t W32 addr (Int64.to_int (Int64.logand bits 0xFFFFFFFFL));
  store t W32 (addr + 4) (Int64.to_int (Int64.shift_right_logical bits 32))

let copy_guest_in t (cpu : Cpu.t) =
  Array.iter (fun gr -> set t (Regs.guest gr) (Cpu.get cpu gr)) Isa.all_regs;
  set t Regs.flags cpu.flags;
  Array.iter (fun gf -> t.f.(Regs.guest_f gf) <- Cpu.getf cpu gf) Isa.all_fregs

let copy_guest_out t (cpu : Cpu.t) =
  Array.iter (fun gr -> Cpu.set cpu gr (get t (Regs.guest gr))) Isa.all_regs;
  cpu.flags <- get t Regs.flags land Flags.mask;
  Array.iter (fun gf -> Cpu.setf cpu gf t.f.(Regs.guest_f gf)) Isa.all_fregs

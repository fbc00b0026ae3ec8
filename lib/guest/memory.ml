type t = {
  pages : (int, bytes) Hashtbl.t;
  policy : [ `Auto_zero | `Fault ];
  (* The last page [get_page] found: most accesses hit the page the one
     before them did.  Only set from [pages] (never on a fault), updated by
     [install_page], and never persisted. *)
  mutable memo_idx : int;
  mutable memo_page : bytes;
}

exception Page_fault of int

let page_size = 4096
let page_bits = 12

let create policy =
  { pages = Hashtbl.create 64; policy; memo_idx = -1; memo_page = Bytes.empty }

let page_index addr = addr lsr page_bits
let page_base idx = idx lsl page_bits

let remember t idx p =
  t.memo_idx <- idx;
  t.memo_page <- p;
  p

let get_page t idx =
  if idx = t.memo_idx then t.memo_page
  else
    match Hashtbl.find t.pages idx with
    | p -> remember t idx p
    | exception Not_found -> (
      match t.policy with
      | `Fault -> raise (Page_fault idx)
      | `Auto_zero ->
        let p = Bytes.make page_size '\000' in
        Hashtbl.replace t.pages idx p;
        remember t idx p)

let read8 t addr =
  let p = get_page t (page_index addr) in
  Char.code (Bytes.unsafe_get p (addr land (page_size - 1)))

let write8 t addr v =
  let p = get_page t (page_index addr) in
  Bytes.unsafe_set p (addr land (page_size - 1)) (Char.unsafe_chr (v land 0xFF))

(* Multi-byte accesses that stay within one page take a single page lookup;
   page-crossing ones fall back to the byte loop so the fault order (lowest
   byte's page first) is unchanged. *)
let read (t : t) (w : Isa.width) addr =
  match w with
  | W8 -> read8 t addr
  | W16 ->
    let off = addr land (page_size - 1) in
    if off <= page_size - 2 then begin
      let p = get_page t (page_index addr) in
      Char.code (Bytes.unsafe_get p off)
      lor (Char.code (Bytes.unsafe_get p (off + 1)) lsl 8)
    end
    else read8 t addr lor (read8 t (addr + 1) lsl 8)
  | W32 ->
    let off = addr land (page_size - 1) in
    if off <= page_size - 4 then begin
      let p = get_page t (page_index addr) in
      Int32.to_int (Bytes.get_int32_le p off) land 0xFFFFFFFF
    end
    else
      read8 t addr
      lor (read8 t (addr + 1) lsl 8)
      lor (read8 t (addr + 2) lsl 16)
      lor (read8 t (addr + 3) lsl 24)

let write (t : t) (w : Isa.width) addr v =
  match w with
  | W8 -> write8 t addr v
  | W16 ->
    let off = addr land (page_size - 1) in
    if off <= page_size - 2 then begin
      let p = get_page t (page_index addr) in
      Bytes.unsafe_set p off (Char.unsafe_chr (v land 0xFF));
      Bytes.unsafe_set p (off + 1) (Char.unsafe_chr ((v lsr 8) land 0xFF))
    end
    else begin
      write8 t addr v;
      write8 t (addr + 1) (v lsr 8)
    end
  | W32 ->
    let off = addr land (page_size - 1) in
    if off <= page_size - 4 then begin
      let p = get_page t (page_index addr) in
      Bytes.set_int32_le p off (Int32.of_int v)
    end
    else begin
      write8 t addr v;
      write8 t (addr + 1) (v lsr 8);
      write8 t (addr + 2) (v lsr 16);
      write8 t (addr + 3) (v lsr 24)
    end

let read32 t addr = read t W32 addr
let write32 t addr v = write t W32 addr v

let read_f64 t addr =
  let lo = Int64.of_int (read32 t addr) in
  let hi = Int64.of_int (read32 t (addr + 4)) in
  Int64.float_of_bits (Int64.logor (Int64.shift_left hi 32) lo)

let write_f64 t addr x =
  let bits = Int64.bits_of_float x in
  write32 t addr (Int64.to_int (Int64.logand bits 0xFFFFFFFFL));
  write32 t (addr + 4) (Int64.to_int (Int64.shift_right_logical bits 32))

let has_page t idx = Hashtbl.mem t.pages idx

let install_page t idx data =
  assert (Bytes.length data = page_size);
  let p = Bytes.make page_size '\000' in
  Bytes.blit data 0 p 0 page_size;
  Hashtbl.replace t.pages idx p;
  ignore (remember t idx p)

let touched_pages t =
  Hashtbl.fold (fun idx _ acc -> idx :: acc) t.pages [] |> List.sort compare

let blit_bytes t addr b =
  for i = 0 to Bytes.length b - 1 do
    write8 t (addr + i) (Char.code (Bytes.get b i))
  done

let zero_page = Bytes.make page_size '\000'

let equal_page a b idx =
  let pa = Option.value (Hashtbl.find_opt a.pages idx) ~default:zero_page in
  let pb = Option.value (Hashtbl.find_opt b.pages idx) ~default:zero_page in
  Bytes.equal pa pb

exception Corrupt of string

let corrupt msg = raise (Corrupt msg)

type writer = Buffer.t
type reader = { data : string; mutable pos : int }

let writer () = Buffer.create 4096
let contents w = Buffer.contents w
let reader data = { data; pos = 0 }
let reader_pos r = r.pos
let at_end r = r.pos = String.length r.data
let expect_end r = if not (at_end r) then corrupt "trailing bytes"

let need r n =
  (* [n > remaining], not [pos + n > length]: a length field near
     max_int must not overflow past the check *)
  if n < 0 || n > String.length r.data - r.pos then
    corrupt
      (Printf.sprintf "truncated input (need %d bytes at offset %d of %d)" n
         r.pos (String.length r.data))

let u8 w v = Buffer.add_char w (Char.chr (v land 0xff))

let read_u8 r =
  need r 1;
  let v = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  v

let i64 w v = Buffer.add_int64_le w v

let read_i64 r =
  need r 8;
  let v = String.get_int64_le r.data r.pos in
  r.pos <- r.pos + 8;
  v

let int w v = i64 w (Int64.of_int v)

let read_int r =
  let v = read_i64 r in
  let n = Int64.to_int v in
  if Int64.of_int n <> v then corrupt "integer out of native int range";
  n

let f64 w v = i64 w (Int64.bits_of_float v)
let read_f64 r = Int64.float_of_bits (read_i64 r)

let bool w v = u8 w (if v then 1 else 0)

let read_bool r =
  match read_u8 r with
  | 0 -> false
  | 1 -> true
  | n -> corrupt (Printf.sprintf "invalid boolean byte %d" n)

let str w s =
  int w (String.length s);
  Buffer.add_string w s

let read_str r =
  let n = read_int r in
  if n < 0 then corrupt "negative string length";
  need r n;
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let bytes w b = str w (Bytes.to_string b)
let read_bytes r = Bytes.of_string (read_str r)

let tag4 w s =
  if String.length s <> 4 then invalid_arg "Buf.tag4: tag must be 4 bytes";
  Buffer.add_string w s

let read_tag4 r =
  need r 4;
  let s = String.sub r.data r.pos 4 in
  r.pos <- r.pos + 4;
  s

let raw w s = Buffer.add_string w s

let read_raw r n =
  if n < 0 then corrupt "negative raw length";
  need r n;
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let option w f = function
  | None -> u8 w 0
  | Some v ->
    u8 w 1;
    f w v

let read_option r f =
  match read_u8 r with
  | 0 -> None
  | 1 -> Some (f r)
  | n -> corrupt (Printf.sprintf "invalid option byte %d" n)

let list w f xs =
  int w (List.length xs);
  List.iter (f w) xs

let read_list r f =
  let n = read_int r in
  if n < 0 then corrupt "negative list length";
  (* Bound sanity: every element consumes at least one byte in practice;
     reject counts that cannot possibly fit the remaining input. *)
  if n > String.length r.data - r.pos then corrupt "list length exceeds input";
  List.init n (fun _ -> f r)

let array w f xs =
  int w (Array.length xs);
  Array.iter (f w) xs

let read_array r f =
  let n = read_int r in
  if n < 0 then corrupt "negative array length";
  if n > String.length r.data - r.pos then corrupt "array length exceeds input";
  Array.init n (fun _ -> f r)

let int_array w xs = array w int xs
let read_int_array r = read_array r read_int
let float_array w xs = array w f64 xs
let read_float_array r = read_array r read_f64

(* CRC-32, reflected polynomial 0xEDB88320 (IEEE 802.3), table-driven. *)
let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let crc = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> crc := table.((!crc lxor Char.code ch) land 0xff) lxor (!crc lsr 8))
    s;
  !crc lxor 0xFFFFFFFF

let seal w payload =
  int w (String.length payload);
  int w (crc32 payload);
  raw w payload

let read_sealed ?max ?source r =
  let len = read_int r in
  let crc = read_int r in
  (match max with
  | Some m when len > m ->
    corrupt (Printf.sprintf "sealed length %d exceeds the bound %d" len m)
  | _ -> ());
  let payload =
    match source with
    | None -> read_raw r len
    | Some fetch ->
      if len < 0 then corrupt "negative sealed length";
      fetch len
  in
  if crc32 payload <> crc then corrupt "checksum mismatch";
  payload

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let tmp = path ^ ".tmp" in
  try
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc s;
        close_out oc);
    Sys.rename tmp path
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

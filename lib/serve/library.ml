module B = Darco_sampling.Buf
module Store = Darco_sampling.Store

type t = {
  dir : string;
  store : Store.t;
  (* warm cache of window texts already read (or written) this process;
     key id -> JSON text.  Purely an I/O saver: the disk copy is the
     truth and is fully re-verified whenever this table misses. *)
  windows : (string, string) Hashtbl.t;
}

type key = {
  bench : string;
  cfg : string;
  snap : string;
  offset : int;
  window : int;
  warmup : int;
}

let render k =
  let prefix =
    if String.length k.snap >= 8 then String.sub k.snap 0 8 else k.snap
  in
  Printf.sprintf "%s@%d/%s" k.bench k.offset prefix

let key_string k =
  Printf.sprintf "dart1|%s|%s|%s|%d|%d|%d" k.bench k.cfg k.snap k.offset
    k.window k.warmup

let key_id k = Store.digest (key_string k)

let ensure_dir dir =
  if not (Sys.file_exists dir) then
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let create ?bus ?max_bytes ~dir () =
  ensure_dir dir;
  let store =
    Store.create ?bus ~dir:(Filename.concat dir "ckpt") ?max_bytes ()
  in
  { dir; store; windows = Hashtbl.create 64 }

let store t = t.store

(* --- framed artifact files --------------------------------------------- *)

(* Same container discipline as DSNP: [tag4 | payload length (i64 LE) |
   CRC-32 (i64 LE) | payload], written whole to a temporary name and
   renamed into place so a crash mid-write leaves either the old file or
   none — never a torn one. *)

let header_bytes = 4 + 8 + 8

let write_framed path tag payload =
  let w = B.writer () in
  B.tag4 w tag;
  B.int w (String.length payload);
  B.int w (B.crc32 payload);
  B.raw w payload;
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (B.contents w));
  Sys.rename tmp path

let read_framed path tag =
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  if String.length s < header_bytes then
    B.corrupt (Printf.sprintf "%s: truncated artifact" (Filename.basename path));
  let r = B.reader s in
  let t = B.read_tag4 r in
  if t <> tag then
    B.corrupt
      (Printf.sprintf "%s: bad artifact magic %S" (Filename.basename path) t);
  let len = B.read_int r in
  let crc = B.read_int r in
  if len <> String.length s - header_bytes then
    B.corrupt
      (Printf.sprintf "%s: artifact length mismatch" (Filename.basename path));
  let payload = B.read_raw r len in
  if B.crc32 payload <> crc then
    B.corrupt
      (Printf.sprintf "%s: artifact checksum mismatch" (Filename.basename path));
  payload

(* --- window results ---------------------------------------------------- *)

let window_version = 1
let window_path t id = Filename.concat t.dir (id ^ ".dart")

let put_window t k json =
  let id = key_id k in
  let w = B.writer () in
  B.int w window_version;
  B.str w k.bench;
  B.str w k.cfg;
  B.str w k.snap;
  B.int w k.offset;
  B.int w k.window;
  B.int w k.warmup;
  B.str w (Store.digest json);
  B.str w json;
  write_framed (window_path t id) "DART" (B.contents w);
  Hashtbl.replace t.windows id json

let find_window t k =
  let id = key_id k in
  match Hashtbl.find_opt t.windows id with
  | Some json -> Some json
  | None ->
    let path = window_path t id in
    if not (Sys.file_exists path) then None
    else begin
      let r = B.reader (read_framed path "DART") in
      let v = B.read_int r in
      if v <> window_version then
        B.corrupt (Printf.sprintf "%s: unsupported window artifact version %d"
                     (Filename.basename path) v);
      let bench = B.read_str r in
      let cfg = B.read_str r in
      let snap = B.read_str r in
      let offset = B.read_int r in
      let window = B.read_int r in
      let warmup = B.read_int r in
      let json_digest = B.read_str r in
      let json = B.read_str r in
      B.expect_end r;
      (* the file name is a digest of the key; a mismatch means the file
         was renamed or the library tampered with — refuse, don't serve a
         wrong window under a right name *)
      if
        bench <> k.bench || cfg <> k.cfg || snap <> k.snap
        || offset <> k.offset || window <> k.window || warmup <> k.warmup
      then
        B.corrupt
          (Printf.sprintf "%s: window artifact does not match its key"
             (Filename.basename path));
      if Store.digest json <> json_digest then
        B.corrupt
          (Printf.sprintf "%s: window artifact content digest mismatch"
             (Filename.basename path));
      Hashtbl.replace t.windows id json;
      Some json
    end

(* --- checkpoint sets --------------------------------------------------- *)

let ckpt_version = 1

let ckpt_path t ~bench ~ckpt =
  ignore bench;
  Filename.concat t.dir ("ckpts_" ^ ckpt ^ ".dcki")

let put_checkpoints t ~bench ~ckpt entries =
  let w = B.writer () in
  B.int w ckpt_version;
  B.str w bench;
  B.str w ckpt;
  B.list w
    (fun w (at, digest) ->
      B.int w at;
      B.str w digest)
    entries;
  write_framed (ckpt_path t ~bench ~ckpt) "DCKI" (B.contents w)

let find_checkpoints t ~bench ~ckpt =
  let path = ckpt_path t ~bench ~ckpt in
  if not (Sys.file_exists path) then None
  else begin
    let r = B.reader (read_framed path "DCKI") in
    let v = B.read_int r in
    if v <> ckpt_version then
      B.corrupt (Printf.sprintf "%s: unsupported checkpoint index version %d"
                   (Filename.basename path) v);
    let f_bench = B.read_str r in
    let f_ckpt = B.read_str r in
    let entries =
      B.read_list r (fun r ->
          let at = B.read_int r in
          let digest = B.read_str r in
          (* the digest names a spill file and, once admitted, a window
             key and a wire work unit: refuse anything not digest-shaped *)
          if not (Store.is_digest digest) then
            B.corrupt
              (Printf.sprintf "%s: checkpoint index holds malformed digest %S"
                 (Filename.basename path) digest);
          (at, digest))
    in
    B.expect_end r;
    if entries = [] then
      B.corrupt
        (Printf.sprintf "%s: empty checkpoint index" (Filename.basename path));
    if f_bench <> bench || f_ckpt <> ckpt then
      B.corrupt
        (Printf.sprintf "%s: checkpoint index does not match its key"
           (Filename.basename path));
    (* every snapshot must still resolve: the store may have evicted some
       under its byte budget, and a partial checkpoint set is useless —
       the sweep would silently pick farther-away checkpoints and change
       its warm-up.  Absent any entry, report the whole set missing. *)
    if List.for_all (fun (_, digest) -> Store.find t.store digest <> None) entries
    then Some entries
    else None
  end

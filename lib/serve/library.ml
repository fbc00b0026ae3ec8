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

(* [tag4 | Buf.seal payload], the sealed container DSNP sections use,
   written through [Buf.write_file] so a crash mid-write leaves either the
   old file or none — never a torn one. *)

let write_framed path tag payload =
  let w = B.writer () in
  B.tag4 w tag;
  B.seal w payload;
  B.write_file path (B.contents w)

(* Whatever stops a file from reading back — an I/O error (a directory in
   its place), a short file, a wrong tag or a broken seal — is [Corrupt]
   naming the file, so the caller regenerates the artifact. *)
let read_framed path tag =
  let corrupt msg =
    B.corrupt (Printf.sprintf "%s: %s" (Filename.basename path) msg)
  in
  match
    let r = B.reader (B.read_file path) in
    let t = B.read_tag4 r in
    if t <> tag then B.corrupt (Printf.sprintf "bad artifact magic %S" t);
    let payload = B.read_sealed r in
    B.expect_end r;
    payload
  with
  | payload -> payload
  | exception (B.Corrupt msg | Sys_error msg) -> corrupt msg
  | exception End_of_file -> corrupt "unexpected end of file"

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

module B = Buf
module Jsonx = Darco_obs.Jsonx

type ckpt =
  | Inline of string
  | Stored of string

type t = {
  label : string;
  ckpt : ckpt;
  offset : int;
  window : int;
  warmup : int;
}

let magic = "DWRK"
let version = 2

let check_params ~window ~warmup who =
  if window <= 0 then invalid_arg (who ^ ": window <= 0");
  if warmup < 0 then invalid_arg (who ^ ": warmup < 0")

let pick_checkpoint ~checkpoints ~offset ~warmup =
  Driver.nearest checkpoints (Driver.window_start ~offset ~warmup)

let of_window ~checkpoints ~label ~offset ~window ~warmup =
  check_params ~window ~warmup "Work.of_window";
  let ck = pick_checkpoint ~checkpoints ~offset ~warmup in
  {
    label;
    ckpt = Inline (Snapshot.to_string ck.Driver.snapshot);
    offset;
    window;
    warmup;
  }

let of_digest ~digest ~label ~offset ~window ~warmup =
  check_params ~window ~warmup "Work.of_digest";
  if not (Store.is_digest digest) then
    invalid_arg (Printf.sprintf "Work.of_digest: malformed digest %S" digest);
  { label; ckpt = Stored digest; offset; window; warmup }

let of_window_stored ~store ~checkpoints ~label ~offset ~window ~warmup =
  check_params ~window ~warmup "Work.of_window_stored";
  let ck = pick_checkpoint ~checkpoints ~offset ~warmup in
  let digest = Store.add store (Snapshot.to_string ck.Driver.snapshot) in
  of_digest ~digest ~label ~offset ~window ~warmup

let digest t = match t.ckpt with Inline _ -> None | Stored d -> Some d

(* The payload layout is shared between the two versions: label and window
   parameters, then either the embedded snapshot bytes (version 1 — the
   exact layout the original writer produced) or the checkpoint digest
   (version 2).  Per the compatibility policy, the version-1 arm is frozen:
   it is only ever joined by new arms, never edited. *)
let to_string t =
  let p = B.writer () in
  B.str p t.label;
  B.int p t.offset;
  B.int p t.window;
  B.int p t.warmup;
  let v =
    match t.ckpt with
    | Inline snapshot ->
      B.str p snapshot;
      1
    | Stored d ->
      B.str p d;
      version
  in
  let w = B.writer () in
  B.tag4 w magic;
  B.u8 w v;
  B.seal w (B.contents p);
  B.contents w

let of_string s =
  let r = B.reader s in
  if B.read_tag4 r <> magic then B.corrupt "bad work-unit magic";
  let v = B.read_u8 r in
  if v <> 1 && v <> version then
    B.corrupt (Printf.sprintf "unsupported work-unit version %d" v);
  let payload = B.read_sealed r in
  B.expect_end r;
  let r = B.reader payload in
  let label = B.read_str r in
  let offset = B.read_int r in
  let window = B.read_int r in
  let warmup = B.read_int r in
  let ckpt =
    if v = 1 then Inline (B.read_str r)
    else begin
      let d = B.read_str r in
      if not (Store.is_digest d) then
        B.corrupt (Printf.sprintf "work unit carries malformed digest %S" d);
      Stored d
    end
  in
  B.expect_end r;
  if window <= 0 then B.corrupt "work unit has non-positive window";
  if warmup < 0 then B.corrupt "work unit has negative warmup";
  { label; ckpt; offset; window; warmup }

let snapshot_bytes ?store t =
  match t.ckpt with
  | Inline bytes -> bytes
  | Stored d -> (
    let found = Option.map (fun s -> Store.find s d) store in
    match found with
    | Some (Some bytes) -> bytes
    | Some None ->
      failwith (Printf.sprintf "checkpoint %s not in the store" d)
    | None ->
      failwith
        (Printf.sprintf
           "work unit %s references checkpoint %s but no store is available"
           t.label d))

let exec ?store t =
  let snap = Snapshot.of_string (snapshot_bytes ?store t) in
  let checkpoints = [ { Driver.at = Snapshot.retired snap; snapshot = snap } ] in
  Driver.window_json
    (Driver.detailed_window ~warmup:t.warmup ~checkpoints ~offset:t.offset
       ~window:t.window ())

(* Decoder totality: every binary format the simulator reads from disk or
   the network either decodes or raises Buf.Corrupt — never another
   exception — however its bytes are damaged.

   Mutations are structure-aware.  Each format's container checksum is
   recomputed after the payload is mutated, so the mutant gets past the
   frame check and reaches payload decoding; a share of the cases
   mutates the whole container instead, so the frame checks are exercised
   too.  A mutation flips bits, truncates, splices a run of bytes from
   elsewhere in the input, or rewrites one of the 8-byte integers that
   look like a length field of the remaining input. *)

module B = Darco_sampling.Buf
module Snapshot = Darco_sampling.Snapshot
module Store = Darco_sampling.Store
module Work = Darco_sampling.Work
module Wire = Darco_dispatch.Wire
module Campaign = Darco_serve.Campaign
module Library = Darco_serve.Library

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

let fixture name = read_file (Filename.concat "fixtures" name)

(* --- mutations ---------------------------------------------------------- *)

type mutation =
  | Flip of int * int  (** position, xor mask (1..255) *)
  | Truncate of int  (** bytes to keep *)
  | Splice of int * int * int  (** source, destination, run length *)
  | Length of int * int  (** which length-like field, how to rewrite it *)

let show = function
  | Flip (p, m) -> Printf.sprintf "flip byte %d ^ 0x%02x" p m
  | Truncate n -> Printf.sprintf "truncate to %d" n
  | Splice (s, d, n) -> Printf.sprintf "splice %d bytes %d -> %d" n s d
  | Length (i, k) -> Printf.sprintf "rewrite length field #%d (%d)" i k

(* Offsets of 8-byte little-endian integers whose value could be the
   length of (part of) the rest of the input: the codec's length
   prefixes, list counts and frame lengths all look like this. *)
let length_fields s =
  let n = String.length s in
  let acc = ref [] in
  for p = n - 8 downto 0 do
    let v = String.get_int64_le s p in
    if Int64.compare v 0L >= 0 && Int64.compare v (Int64.of_int (n - p - 8)) <= 0
    then acc := p :: !acc
  done;
  Array.of_list !acc

let apply m s =
  let n = String.length s in
  if n = 0 then s
  else
    match m with
    | Flip (p, mask) ->
      let b = Bytes.of_string s in
      let p = p mod n in
      Bytes.set b p (Char.chr (Char.code s.[p] lxor mask));
      Bytes.to_string b
    | Truncate k -> String.sub s 0 (k mod n)
    | Splice (src, dst, len) ->
      let src = src mod n and dst = dst mod n in
      let len = min (len mod 64) (n - src) in
      String.sub s 0 dst ^ String.sub s src len
      ^ String.sub s dst (n - dst)
    | Length (i, k) -> (
      let fields = length_fields s in
      if Array.length fields = 0 then s
      else
        let p = fields.(i mod Array.length fields) in
        let v = Int64.to_int (String.get_int64_le s p) in
        let nv =
          match k mod 6 with
          | 0 -> v + 1
          | 1 -> v - 1
          | 2 -> -1
          | 3 -> n
          | 4 -> max_int
          | _ -> v + (k mod 97) + 2
        in
        let b = Bytes.of_string s in
        Bytes.set_int64_le b p (Int64.of_int nv);
        Bytes.to_string b)

let gen_mutation =
  QCheck.Gen.(
    let pos = int_bound 1_000_000 in
    frequency
      [
        (3, map2 (fun p m -> Flip (p, m)) pos (int_range 1 255));
        (1, map (fun k -> Truncate k) pos);
        (2, map3 (fun s d l -> Splice (s, d, l)) pos pos (int_bound 1_000));
        (3, map2 (fun i k -> Length (i, k)) pos (int_bound 1_000));
      ])

(* --- container framings ---------------------------------------------------- *)

(* [tag4 | payload length | CRC-32 | payload]: DART, DCKI and wire frames. *)
let split_framed s = (String.sub s 0 4, String.sub s 20 (String.length s - 20))

let framed tag payload =
  let w = B.writer () in
  B.tag4 w tag;
  B.seal w payload;
  B.contents w

(* A format under test: its fixtures, how a mutated payload is sealed
   back into a valid container, and the full decode. *)
type format = {
  name : string;
  fixtures : string list;
  reseal : pick:int -> string -> (string -> string) -> string;
      (** [reseal ~pick original mutate]: the container with [mutate]
          applied to its payload (the [pick]-th one, modulo their number,
          when there are several) and every checksum recomputed *)
  decode : string -> unit;
}

let reseal_framed ~pick:_ s mutate =
  let tag, payload = split_framed s in
  framed tag (mutate payload)

(* DWRK: [tag4 | version u8 | length | CRC | payload]. *)
let reseal_work ~pick:_ s mutate =
  let payload = mutate (String.sub s 21 (String.length s - 21)) in
  let w = B.writer () in
  B.raw w (String.sub s 0 5);
  B.seal w payload;
  B.contents w

(* DSNP: a 7-byte header, then per section [tag4 | length | CRC |
   payload]; the mutation lands in the picked section. *)
let reseal_snapshot ~pick s mutate =
  let nsec = Char.code s.[6] in
  let r = B.reader (String.sub s 7 (String.length s - 7)) in
  let sections =
    List.init nsec (fun _ ->
        let tag = B.read_tag4 r in
        (tag, B.read_sealed r))
  in
  let victim = pick mod nsec in
  let w = B.writer () in
  B.raw w (String.sub s 0 7);
  List.iteri
    (fun i (tag, payload) ->
      let payload = if i = victim then mutate payload else payload in
      B.tag4 w tag;
      B.seal w payload)
    sections;
  B.contents w

(* --- library artifacts, decoded by a cold library from disk ------------ *)

let temp_dir () =
  let dir = Filename.temp_file "darco_decoders" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  dir

let rec rm path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* The committed DART/DCKI fixtures were written by the library under
   these keys; their store images are the bytes the index names. *)
let window_key =
  {
    Library.bench = "429.mcf";
    cfg = Store.digest "config";
    snap = Store.digest "snapshot";
    offset = 130_000;
    window = 25_000;
    warmup = 30_000;
  }

let ckpt = Store.digest "checkpoint set"
let images = List.map (Printf.sprintf "image %d") [ 0; 50_000; 100_000 ]
let window_path dir = Filename.concat dir (Library.key_id window_key ^ ".dart")
let ckpt_path dir = Filename.concat dir ("ckpts_" ^ ckpt ^ ".dcki")

(* A library directory whose store holds the index's images. *)
let lib_dir =
  lazy
    (let dir = temp_dir () in
     let store = Library.store (Library.create ~dir ()) in
     List.iter (fun b -> ignore (Store.add store b)) images;
     dir)

let () = at_exit (fun () -> if Lazy.is_val lib_dir then rm (Lazy.force lib_dir))

(* Decode through a cold library, the way a restarted service reads. *)
let find_window s =
  let dir = Lazy.force lib_dir in
  write_file (window_path dir) s;
  Library.find_window (Library.create ~dir ()) window_key

let find_checkpoints s =
  let dir = Lazy.force lib_dir in
  write_file (ckpt_path dir) s;
  Library.find_checkpoints (Library.create ~dir ()) ~bench:"429.mcf" ~ckpt

let spec =
  {
    Campaign.bench = "429.mcf";
    scale = 1;
    seed = 42;
    input = Some "stdin\n";
    interval = 50_000;
    horizon = 300_000;
    offsets = [ 130_000; 150_000 ];
    window = 25_000;
    warmup = 30_000;
    ci_target = None;
  }

let wire_v4 =
  [ "wire_subm_v4.bin"; "wire_stat_v4.bin"; "wire_artf_v4.bin"; "wire_done_v4.bin" ]

let wire_v5 = [ "wire_metr_v5.bin"; "wire_hlth_v5.bin"; "wire_rslt_v5.bin" ]

let formats () =
  [
    {
      name = "DSNP";
      fixtures =
        [ fixture "mcf_40k_functional_v1.dsnp"; fixture "mcf_40k_full_v1.dsnp" ];
      reseal = reseal_snapshot;
      decode =
        (fun s ->
          let t = Snapshot.of_string s in
          ignore (Snapshot.guest_eip t);
          ignore (Snapshot.restore t);
          ignore (Snapshot.restore_pipeline t));
    };
    {
      name = "DWRK";
      fixtures = [ fixture "mcf_40k_work_v1.dwrk"; fixture "mcf_40k_work_v2.dwrk" ];
      reseal = reseal_work;
      decode = (fun s -> ignore (Work.of_string s));
    };
    {
      name = "DCAM";
      fixtures =
        [
          Campaign.to_string spec;
          Campaign.to_string { spec with Campaign.ci_target = Some 0.02 };
        ];
      (* no container checksum: the payload is the whole encoding *)
      reseal = (fun ~pick:_ s mutate -> mutate s);
      decode = (fun s -> ignore (Campaign.of_string s));
    };
    {
      name = "DCKI";
      fixtures = [ fixture "library_ckpts_v1.dcki" ];
      reseal = reseal_framed;
      decode = (fun s -> ignore (find_checkpoints s));
    };
    {
      name = "DART";
      fixtures = [ fixture "library_window_v1.dart" ];
      reseal = reseal_framed;
      decode = (fun s -> ignore (find_window s));
    };
    {
      name = "wire v4";
      fixtures = List.map fixture wire_v4;
      reseal = reseal_framed;
      decode = (fun s -> ignore (Wire.decode s));
    };
    {
      name = "wire v5";
      fixtures = List.map fixture wire_v5;
      reseal = reseal_framed;
      decode = (fun s -> ignore (Wire.decode s));
    };
  ]

(* --- golden fixtures: decode, then re-encode the same bytes ------------- *)

let same_bytes name golden encoded =
  Alcotest.(check bool) (name ^ " re-encodes byte-identically") true
    (String.equal golden encoded)

let test_golden_roundtrip () =
  List.iter
    (fun name ->
      let b = fixture name in
      same_bytes name b (Snapshot.to_string (Snapshot.of_string b)))
    [ "mcf_40k_functional_v1.dsnp"; "mcf_40k_full_v1.dsnp" ];
  List.iter
    (fun name ->
      let b = fixture name in
      same_bytes name b (Work.to_string (Work.of_string b)))
    [ "mcf_40k_work_v1.dwrk"; "mcf_40k_work_v2.dwrk" ];
  List.iter
    (fun name ->
      let b = fixture name in
      same_bytes name b (Wire.encode (Wire.decode b)))
    (wire_v4 @ wire_v5);
  (match Wire.decode (fixture "wire_rslt_v5.bin") with
  | Wire.Result { spans; _ } ->
    Alcotest.(check bool) "the RSLT span log is not empty" true (spans <> "");
    same_bytes "RSLT span log" spans
      (Darco_obs.Span.encode_list (Darco_obs.Span.decode_list spans))
  | _ -> Alcotest.fail "the RSLT fixture decoded to another frame");
  (* library files: read back cold, then written by a fresh library *)
  let fresh = temp_dir () in
  Fun.protect ~finally:(fun () -> rm fresh) @@ fun () ->
  let lib = Library.create ~dir:fresh () in
  let dart = fixture "library_window_v1.dart" in
  (match find_window dart with
  | Some json -> Library.put_window lib window_key json
  | None -> Alcotest.fail "the DART fixture did not read back");
  same_bytes "library_window_v1.dart" dart (read_file (window_path fresh));
  let dcki = fixture "library_ckpts_v1.dcki" in
  (match find_checkpoints dcki with
  | Some entries ->
    Alcotest.(check (list string)) "the index names the store's images"
      (List.map Store.digest images) (List.map snd entries);
    Library.put_checkpoints lib ~bench:"429.mcf" ~ckpt entries
  | None -> Alcotest.fail "the DCKI fixture did not read back");
  same_bytes "library_ckpts_v1.dcki" dcki (read_file (ckpt_path fresh))

(* --- the property ------------------------------------------------------- *)

let cases_per_format = 200

let test_format f () =
  List.iter (fun s -> f.decode s) f.fixtures;
  let nfix = List.length f.fixtures in
  let gen =
    QCheck.make
      ~print:(fun (fix, resealed, pick, ms) ->
        Printf.sprintf "%s fixture %d, %s: %s" f.name fix
          (if resealed then Printf.sprintf "payload %d, checksum recomputed" pick
           else "whole container")
          (String.concat "; " (List.map show ms)))
      QCheck.Gen.(
        quad (int_bound (nfix - 1)) (frequencyl [ (4, true); (1, false) ])
          (int_bound 7)
          (list_size (int_range 1 3) gen_mutation))
  in
  let prop (fix, resealed, pick, ms) =
    let s = List.nth f.fixtures fix in
    let mutate p = List.fold_left (fun p m -> apply m p) p ms in
    let mutant = if resealed then f.reseal ~pick s mutate else mutate s in
    match f.decode mutant with
    | () -> true
    | exception B.Corrupt _ -> true
    | exception e ->
      QCheck.Test.fail_reportf "%s decoder raised %s" f.name
        (Printexc.to_string e)
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:cases_per_format
       ~name:(f.name ^ " mutants decode or raise Corrupt")
       gen prop)

let () =
  Alcotest.run "decoders"
    [
      ( "golden",
        [ Alcotest.test_case "decode then re-encode" `Quick test_golden_roundtrip ]
      );
      ( "totality",
        List.map
          (fun f -> Alcotest.test_case f.name `Quick (test_format f))
          (formats ()) );
    ]

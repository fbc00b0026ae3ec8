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
  B.int w (String.length payload);
  B.int w (B.crc32 payload);
  B.raw w payload;
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
  B.int w (String.length payload);
  B.int w (B.crc32 payload);
  B.raw w payload;
  B.contents w

(* DSNP: a 7-byte header, then per section [tag4 | length | CRC |
   payload]; the mutation lands in the picked section. *)
let reseal_snapshot ~pick s mutate =
  let nsec = Char.code s.[6] in
  let r = B.reader (String.sub s 7 (String.length s - 7)) in
  let sections =
    List.init nsec (fun _ ->
        let tag = B.read_tag4 r in
        let len = B.read_int r in
        ignore (B.read_int r);
        (tag, B.read_raw r len))
  in
  let victim = pick mod nsec in
  let w = B.writer () in
  B.raw w (String.sub s 0 7);
  List.iteri
    (fun i (tag, payload) ->
      let payload = if i = victim then mutate payload else payload in
      B.tag4 w tag;
      B.int w (String.length payload);
      B.int w (B.crc32 payload);
      B.raw w payload)
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

let lib_dir = lazy (temp_dir ())
let () = at_exit (fun () -> if Lazy.is_val lib_dir then rm (Lazy.force lib_dir))

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

let ckpt = Campaign.ckpt_digest spec
let ckpt_path () = Filename.concat (Lazy.force lib_dir) ("ckpts_" ^ ckpt ^ ".dcki")

let window_key =
  {
    Library.bench = "429.mcf";
    cfg = Campaign.config_digest spec;
    snap = Store.digest "snapshot";
    offset = 130_000;
    window = 25_000;
    warmup = 30_000;
  }

let window_path () =
  Filename.concat (Lazy.force lib_dir) (Library.key_id window_key ^ ".dart")

(* The library's own writers produce the fixtures, so the property tracks
   the format they write. *)
let library_fixtures =
  lazy
    (let lib = Library.create ~dir:(Lazy.force lib_dir) () in
     let store = Library.store lib in
     let entries =
       List.map (fun at -> (at, Store.add store (Printf.sprintf "image %d" at)))
         [ 0; 50_000; 100_000 ]
     in
     Library.put_checkpoints lib ~bench:"429.mcf" ~ckpt entries;
     Library.put_window lib window_key
       {|{"offset":130000,"window":25000,"ipc":1.5,"cycles":16123}|};
     (read_file (ckpt_path ()), read_file (window_path ())))

let formats () =
  let dcki, dart = Lazy.force library_fixtures in
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
      fixtures = [ dcki ];
      reseal = reseal_framed;
      decode =
        (fun s ->
          write_file (ckpt_path ()) s;
          let lib = Library.create ~dir:(Lazy.force lib_dir) () in
          ignore (Library.find_checkpoints lib ~bench:"429.mcf" ~ckpt));
    };
    {
      name = "DART";
      fixtures = [ dart ];
      reseal = reseal_framed;
      decode =
        (fun s ->
          write_file (window_path ()) s;
          let lib = Library.create ~dir:(Lazy.force lib_dir) () in
          ignore (Library.find_window lib window_key));
    };
    {
      name = "wire v4";
      fixtures =
        List.map fixture
          [ "wire_subm_v4.bin"; "wire_stat_v4.bin"; "wire_artf_v4.bin"; "wire_done_v4.bin" ];
      reseal = reseal_framed;
      decode = (fun s -> ignore (Wire.decode s));
    };
  ]

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
      ( "totality",
        List.map
          (fun f -> Alcotest.test_case f.name `Quick (test_format f))
          (formats ()) );
    ]

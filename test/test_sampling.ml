open Darco
open Darco_sampling
module Stats = Darco_obs.Stats
module Pipeline = Darco_timing.Pipeline

(* Snapshot/restore must be invisible: a run interrupted at an arbitrary
   point, serialized, deserialized and resumed has to retire the same
   instruction stream and end in the same state as a run never interrupted. *)

let cfg = { Config.quick with slice_fuel = 2_000 }

let build name = (Darco_workloads.Registry.find name).build ~scale:1 ()

let expect_done what = function
  | `Done -> ()
  | `Limit -> Alcotest.failf "%s: hit instruction limit" what
  | `Diverged (d : Controller.divergence) ->
    Alcotest.failf "%s: diverged at %d:\n%s" what d.at_retired
      (String.concat "\n" d.details)

type final = {
  f_stats : Stats.t;
  f_ref_hash : string;
  f_co_hash : string;
  f_output : string;
  f_exit : int option;
}

let final_of (ctl : Controller.t) =
  {
    f_stats = Controller.stats ctl;
    f_ref_hash = Snapshot.memory_hash ctl.reference.mem;
    f_co_hash = Snapshot.memory_hash ctl.co.mem;
    f_output = Controller.output ctl;
    f_exit = Controller.exit_code ctl;
  }

let check_final what want got =
  Alcotest.(check bool) (what ^ ": final stats identical") true
    (Stats.equal want.f_stats got.f_stats);
  Alcotest.(check string) (what ^ ": guest memory hash") want.f_ref_hash got.f_ref_hash;
  Alcotest.(check string) (what ^ ": co-designed memory hash") want.f_co_hash
    got.f_co_hash;
  Alcotest.(check string) (what ^ ": program output") want.f_output got.f_output;
  Alcotest.(check (option int)) (what ^ ": exit code") want.f_exit got.f_exit

let roundtrip_workload name offsets () =
  let program = build name in
  let seed = 7 in
  let full = Controller.create ~cfg ~seed program in
  expect_done (name ^ " uninterrupted") (Controller.run full);
  let want = final_of full in
  List.iter
    (fun offset ->
      let part = Controller.create ~cfg ~seed program in
      (match Controller.run ~max_insns:offset part with
      | `Limit -> ()
      | `Done -> Alcotest.failf "%s: offset %d beyond program end" name offset
      | `Diverged _ -> Alcotest.failf "%s: diverged before offset %d" name offset);
      (* serialize through bytes, not just in-memory structures *)
      let bytes = Snapshot.to_string (Snapshot.capture part) in
      let snap = Snapshot.of_string bytes in
      Alcotest.(check bool) "full kind" true (Snapshot.kind snap = Snapshot.Full);
      let resumed = Snapshot.restore snap in
      expect_done
        (Printf.sprintf "%s resumed from offset %d" name offset)
        (Controller.run resumed);
      check_final (Printf.sprintf "%s @%d" name offset) want (final_of resumed))
    offsets

(* A warmed timing pipeline captured alongside the snapshot must continue
   cycle-identically too. *)
let test_timing_roundtrip () =
  let program = build "continuous" in
  let seed = 3 in
  let tcfg = Darco_timing.Tconfig.default in
  let run_full () =
    let bus = Darco_obs.Bus.create () in
    let pipe = Pipeline.create tcfg in
    Pipeline.attach pipe bus;
    let ctl = Controller.create ~cfg ~bus ~seed program in
    expect_done "timing uninterrupted" (Controller.run ctl);
    pipe
  in
  let want = run_full () in
  let bus = Darco_obs.Bus.create () in
  let pipe = Pipeline.create tcfg in
  Pipeline.attach pipe bus;
  let part = Controller.create ~cfg ~bus ~seed program in
  (match Controller.run ~max_insns:60_000 part with
  | `Limit -> ()
  | _ -> Alcotest.fail "expected limit");
  let bytes = Snapshot.to_string (Snapshot.capture ~pipeline:pipe part) in
  let snap = Snapshot.of_string bytes in
  let bus2 = Darco_obs.Bus.create () in
  let pipe2 =
    match Snapshot.restore_pipeline snap with
    | Some p -> p
    | None -> Alcotest.fail "snapshot lost its timing section"
  in
  Pipeline.attach pipe2 bus2;
  let resumed = Snapshot.restore ~bus:bus2 snap in
  expect_done "timing resumed" (Controller.run resumed);
  Alcotest.(check int) "cycles identical" (Pipeline.cycles want) (Pipeline.cycles pipe2);
  Alcotest.(check int) "host instructions identical" (Pipeline.instructions want)
    (Pipeline.instructions pipe2)

(* Functional snapshots: the x86 component alone, restored and run to halt,
   behaves exactly like an uninterrupted plain emulation. *)
let test_functional_reference () =
  let program = build "470.lbm" in
  let plain = Darco_guest.Interp_ref.boot ~seed:5 program in
  ignore (Darco_guest.Interp_ref.run_to_halt plain);
  let ir = Darco_guest.Interp_ref.boot ~seed:5 program in
  Darco_guest.Interp_ref.run_until ir 25_000;
  let snap = Snapshot.of_string (Snapshot.to_string (Snapshot.capture_reference ir)) in
  Alcotest.(check bool) "functional kind" true (Snapshot.kind snap = Snapshot.Functional);
  Alcotest.(check int) "retired recorded" 25_000 (Snapshot.retired snap);
  let restored = Snapshot.restore_reference snap in
  ignore (Darco_guest.Interp_ref.run_to_halt restored);
  Alcotest.(check string) "output" (Darco_guest.Interp_ref.output plain)
    (Darco_guest.Interp_ref.output restored);
  Alcotest.(check (option int)) "exit code" plain.exit_code restored.exit_code;
  Alcotest.(check int) "retired" plain.retired restored.retired;
  Alcotest.(check string) "memory"
    (Snapshot.memory_hash plain.mem)
    (Snapshot.memory_hash restored.mem)

(* The sampling driver's fast-forward path must be bit-identical to the
   O(offset) [create_at] it replaces. *)
(* The host store buffer is empty at every synchronization boundary, but a
   snapshot must not lie if it is not: gated stores in flight survive an
   encode/decode as the same byte view, and re-encode byte-identically. *)
let test_store_buffer_roundtrip () =
  let ctl = Controller.create ~cfg ~seed:3 (build "continuous") in
  (match Controller.run ~max_insns:20_000 ctl with
  | `Limit -> ()
  | _ -> Alcotest.fail "expected limit");
  let m = ctl.co.machine in
  let mem = m.Darco_host.Machine.mem in
  let page = List.hd (List.rev (Darco_guest.Memory.touched_pages mem)) in
  let edge = Darco_guest.Memory.page_base page + Darco_guest.Memory.page_size in
  let module M = Darco_host.Machine in
  M.store m W32 (edge - 2) 0xA1B2C3D4;
  M.store m W8 (edge - 1) 0x5E;
  M.store m W16 (edge - 6) 0xBEEF;
  M.store m W32 (edge - 5) 0x01020304;
  let want = M.pending_bytes m in
  let bytes = Snapshot.to_string (Snapshot.capture ctl) in
  let back = Snapshot.restore (Snapshot.of_string bytes) in
  let m' = back.co.machine in
  Alcotest.(check (list (pair int int))) "byte view survives" want (M.pending_bytes m');
  Alcotest.(check int) "bytes in flight" (M.in_flight_stores m) (M.in_flight_stores m');
  List.iter
    (fun a ->
      Alcotest.(check int)
        (Printf.sprintf "forwarded load at 0x%x" a)
        (M.load m W32 ~signed:false a) (M.load m' W32 ~signed:false a))
    [ edge - 8; edge - 6; edge - 5; edge - 4 ];
  Alcotest.(check bool) "re-encodes byte-identically" true
    (String.equal bytes (Snapshot.to_string (Snapshot.capture back)))

let test_driver_matches_create_at () =
  let program = build "continuous" in
  let seed = 11 in
  let checkpoints =
    Driver.functional_checkpoints ~seed ~interval:20_000 ~horizon:150_000 program
  in
  Alcotest.(check bool) "several checkpoints" true (List.length checkpoints >= 5);
  List.iter
    (fun start ->
      let via_driver = Driver.controller_at ~cfg checkpoints ~start in
      let via_create = Controller.create_at ~cfg ~seed program ~start in
      expect_done "driver path" (Controller.run via_driver);
      expect_done "create_at path" (Controller.run via_create);
      Alcotest.(check bool)
        (Printf.sprintf "stats identical from start %d" start)
        true
        (Stats.equal (Controller.stats via_driver) (Controller.stats via_create)))
    [ 0; 35_000; 90_000 ]

(* Corruption must surface as a clean [Buf.Corrupt], never a crash or a
   silently wrong snapshot. *)
let test_corrupted_snapshot () =
  let program = build "continuous" in
  let part = Controller.create ~cfg ~seed:7 program in
  (match Controller.run ~max_insns:30_000 part with
  | `Limit -> ()
  | _ -> Alcotest.fail "expected limit");
  let good = Snapshot.to_string (Snapshot.capture part) in
  let expect_corrupt what s =
    match Snapshot.of_string s with
    | _ -> Alcotest.failf "%s: accepted corrupted snapshot" what
    | exception Buf.Corrupt _ -> ()
  in
  (* flip one byte in the middle of a section payload: CRC must catch it *)
  let flipped = Bytes.of_string good in
  let mid = String.length good / 2 in
  Bytes.set flipped mid (Char.chr (Char.code (Bytes.get flipped mid) lxor 0x40));
  expect_corrupt "bit flip" (Bytes.to_string flipped);
  (* truncations at every framing granularity *)
  expect_corrupt "truncated header" (String.sub good 0 3);
  expect_corrupt "truncated section" (String.sub good 0 (String.length good / 3));
  expect_corrupt "one byte short" (String.sub good 0 (String.length good - 1));
  (* bad magic / unsupported version *)
  expect_corrupt "bad magic" ("XSNP" ^ String.sub good 4 (String.length good - 4));
  let future = Bytes.of_string good in
  Bytes.set future 4 '\xff';
  expect_corrupt "future version" (Bytes.to_string future);
  (* trailing garbage *)
  expect_corrupt "trailing bytes" (good ^ "extra");
  (* a section length near max_int must not overflow the bounds check *)
  let huge = Bytes.of_string good in
  Bytes.set_int64_le huge 11 (Int64.of_int max_int);
  expect_corrupt "section length max_int" (Bytes.to_string huge);
  (* and the good bytes still restore fine afterwards *)
  let resumed = Snapshot.restore (Snapshot.of_string good) in
  expect_done "good bytes resume" (Controller.run resumed)

(* Dummy units for exercising the sweep machinery with injected behaviour:
   the closure passed to [Backend.of_exec] keys off the label, so no real
   simulation happens. *)
let dummy_works labels =
  List.map
    (fun label -> { Work.label; ckpt = Work.Inline ""; offset = 0; window = 1; warmup = 0 })
    labels

let crashy_exec (w : Work.t) =
  let module J = Darco_obs.Jsonx in
  match int_of_string w.label with
  | 1 -> failwith "boom"
  | 2 ->
    (* die without the courtesy of an exception *)
    Unix.kill (Unix.getpid ()) Sys.sigkill;
    assert false
  | i -> J.Obj [ ("v", J.Int i) ]

(* A crashing worker loses only its own sample.  Runs through the
   backend-agnostic [Sweep.run] front door with an instrumented executor
   ([Backend.of_exec]), which shares its fork pool with [Backend.local] —
   so the containment property is tested for the real path. *)
let test_sweep_contains_crashes () =
  let module J = Darco_obs.Jsonx in
  let results =
    Sweep.run
      (Sweep.Backend.of_exec ~jobs:2 ~name:"crashy" crashy_exec)
      (dummy_works [ "0"; "1"; "2"; "3" ])
  in
  Alcotest.(check int) "all samples reported" 4 (List.length results);
  let nth n = (List.nth results n).Sweep.outcome in
  (match nth 0 with
  | Sweep.Ok json ->
    Alcotest.(check (option int)) "payload survives" (Some 0)
      (Option.bind (J.member "v" json) J.to_int)
  | Sweep.Failed r -> Alcotest.failf "sample 0 failed: %s" r);
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  (match nth 1 with
  | Sweep.Failed reason ->
    Alcotest.(check bool) "exception reason captured" true (contains reason "boom")
  | Sweep.Ok _ -> Alcotest.fail "exception not contained");
  (match nth 2 with
  | Sweep.Failed reason ->
    Alcotest.(check bool) "signal death reported" true
      (String.length reason > 0)
  | Sweep.Ok _ -> Alcotest.fail "signal death not contained");
  match nth 3 with
  | Sweep.Ok _ -> ()
  | Sweep.Failed r -> Alcotest.failf "sample 3 failed: %s" r

(* --- the content-addressed checkpoint store --- *)

let test_store_basics () =
  (* the address function is a contract (workers on other machines hash
     the same bytes): pin a known value *)
  Alcotest.(check string) "digest pinned"
    "5d41402abc4b2a76b9719d911017c592" (Store.digest "hello");
  Alcotest.(check bool) "valid digest shape" true
    (Store.is_digest (Store.digest ""));
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "rejects %S" s) false (Store.is_digest s))
    [ ""; "xyz"; String.make 31 'a'; String.make 33 'a'; String.make 32 'A' ];
  let store = Store.create () in
  Alcotest.(check int) "empty" 0 (Store.count store);
  let d1 = Store.add store "first checkpoint" in
  let d1' = Store.add store "first checkpoint" in
  Alcotest.(check string) "idempotent add" d1 d1';
  Alcotest.(check int) "one distinct entry" 1 (Store.count store);
  let d2 = Store.add store "second checkpoint" in
  Alcotest.(check bool) "distinct content, distinct digest" true (d1 <> d2);
  Alcotest.(check (option string)) "find returns the bytes"
    (Some "first checkpoint") (Store.find store d1);
  Alcotest.(check (option string)) "unknown digest misses" None
    (Store.find store (Store.digest "never added"));
  Alcotest.(check bool) "mem" true (Store.mem store d2)

let test_store_disk_spill () =
  let dir = Filename.temp_file "darco_store" "" in
  Sys.remove dir;
  let cleanup () =
    if Sys.file_exists dir then begin
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir
    end
  in
  Fun.protect ~finally:cleanup (fun () ->
      let store = Store.create ~dir () in
      let d = Store.add store "spilled checkpoint" in
      (* a second store over the same directory sees the entry cold *)
      let fresh = Store.create ~dir () in
      Alcotest.(check int) "fresh store starts empty in memory" 0 (Store.count fresh);
      Alcotest.(check (option string)) "disk entry found"
        (Some "spilled checkpoint") (Store.find fresh d);
      Alcotest.(check int) "found entry now resident" 1 (Store.count fresh);
      (* tampered disk bytes are refused, never returned *)
      let d2 = Store.digest "phantom content" in
      let path = Filename.concat dir (d2 ^ ".dsnp") in
      let oc = open_out_bin path in
      output_string oc "not the phantom content";
      close_out oc;
      let cold = Store.create ~dir () in
      match Store.find cold d2 with
      | _ -> Alcotest.fail "accepted a tampered cache entry"
      | exception Buf.Corrupt _ -> ())

(* --- the spill directory's LRU byte budget --- *)

let with_store_dir f =
  let dir = Filename.temp_file "darco_store" "" in
  Sys.remove dir;
  let cleanup () =
    if Sys.file_exists dir then begin
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Unix.rmdir dir
    end
  in
  Fun.protect ~finally:cleanup (fun () -> f dir)

let evict_bus () =
  let evicted = ref [] in
  let bus = Darco_obs.Bus.create () in
  Darco_obs.Bus.attach bus ~name:"evictions" (fun ~at:_ ev ->
      match ev with
      | Darco_obs.Event.Store_evict { digest; bytes } ->
        evicted := (digest, bytes) :: !evicted
      | _ -> ());
  (bus, evicted)

let test_store_lru_eviction () =
  with_store_dir @@ fun dir ->
  let bus, evicted = evict_bus () in
  let store = Store.create ~bus ~dir ~max_bytes:50 () in
  let c1 = String.make 20 'a' and c2 = String.make 20 'b' in
  let c3 = String.make 20 'c' in
  let d1 = Store.add store c1 in
  let d2 = Store.add store c2 in
  Alcotest.(check int) "within budget, nothing evicted" 40
    (Store.spilled_bytes store);
  Alcotest.(check (list (pair string int))) "no evictions yet" [] !evicted;
  (* touch d1 so d2 is the least recently used when the budget bursts *)
  ignore (Store.find store d1);
  let d3 = Store.add store c3 in
  Alcotest.(check int) "evicted back under budget" 40
    (Store.spilled_bytes store);
  Alcotest.(check (list (pair string int))) "eviction on the bus"
    [ (d2, 20) ] !evicted;
  (* the evicted digest is gone warm and cold — a plain miss, not an error *)
  Alcotest.(check (option string)) "warm read of evicted digest misses" None
    (Store.find store d2);
  let fresh = Store.create ~dir () in
  Alcotest.(check (option string)) "cold read of evicted digest misses" None
    (Store.find fresh d2);
  Alcotest.(check (option string)) "recently used entry survived" (Some c1)
    (Store.find fresh d1);
  Alcotest.(check (option string)) "just-added entry never the victim"
    (Some c3) (Store.find fresh d3)

let test_store_pin_blocks_eviction () =
  with_store_dir @@ fun dir ->
  let bus, evicted = evict_bus () in
  let store = Store.create ~bus ~dir ~max_bytes:50 () in
  let c1 = String.make 20 'a' and c2 = String.make 20 'b' in
  let c3 = String.make 20 'c' and c4 = String.make 20 'd' in
  let d1 = Store.add store c1 in
  let d2 = Store.add store c2 in
  (* both in flight: the add must run the store over budget rather than
     drop a pinned checkpoint under a live sweep *)
  Store.pin store d1;
  Store.pin store d2;
  let d3 = Store.add store c3 in
  Alcotest.(check int) "over budget with only pinned victims" 60
    (Store.spilled_bytes store);
  Alcotest.(check (list (pair string int))) "no eviction while pinned" []
    !evicted;
  Alcotest.(check (option string)) "pinned entry intact" (Some c2)
    (Store.find store d2);
  (* the sweep settles: releasing the pin makes the entry evictable again *)
  Store.unpin store d1;
  let d4 = Store.add store c4 in
  Alcotest.(check bool) "budget enforced once unpinned" true
    (Store.spilled_bytes store <= 50);
  Alcotest.(check (option string)) "released entry was evicted" None
    (Store.find store d1);
  Alcotest.(check (option string)) "still-pinned entry survived" (Some c2)
    (Store.find store d2);
  Alcotest.(check bool) "evictions observed" true
    (List.mem_assoc d1 !evicted);
  (* pinning ahead of the add sticks: the entry is protected from the
     moment it lands *)
  let c5 = String.make 40 'e' in
  Store.pin store (Store.digest c5);
  let d5 = Store.add store c5 in
  Alcotest.(check (option string)) "pre-pinned entry immune" (Some c5)
    (Store.find store d5);
  Alcotest.(check (option string)) "unpinned neighbour paid for it" None
    (Store.find store d4);
  ignore d3

let test_manifest () =
  let program = build "continuous" in
  let part = Controller.create ~cfg ~seed:7 program in
  (match Controller.run ~max_insns:10_000 part with
  | `Limit -> ()
  | _ -> Alcotest.fail "expected limit");
  let snap = Snapshot.capture part in
  let m = Snapshot.manifest snap in
  let module J = Darco_obs.Jsonx in
  let str_field name = Option.bind (J.member name m) J.to_str in
  let int_field name = Option.bind (J.member name m) J.to_int in
  Alcotest.(check (option string)) "kind" (Some "full") (str_field "kind");
  Alcotest.(check (option int)) "version" (Some Snapshot.version) (int_field "version");
  match J.member "sections" m with
  | Some (J.List sections) ->
    Alcotest.(check bool) "at least guest+code sections" true (List.length sections >= 2)
  | _ -> Alcotest.fail "sections not a list"

(* Golden corpus: version-1 snapshot bytes committed under fixtures/ must
   keep decoding in every future build — the on-disk format is a contract,
   not an implementation detail.  DESIGN.md ("Snapshot compatibility
   policy") spells out the guarantee these fixtures enforce; regenerate
   them only alongside a version bump plus a new decoder arm. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_golden_corpus () =
  let module J = Darco_obs.Jsonx in
  let decode name = Snapshot.of_string (read_file (Filename.concat "fixtures" name)) in
  (* and re-encode to the very bytes they were read from *)
  List.iter
    (fun name ->
      let b = read_file (Filename.concat "fixtures" name) in
      Alcotest.(check bool) (name ^ " re-encodes byte-identically") true
        (String.equal b (Snapshot.to_string (Snapshot.of_string b))))
    [ "mcf_40k_functional_v1.dsnp"; "mcf_40k_full_v1.dsnp" ];
  let fn = decode "mcf_40k_functional_v1.dsnp" in
  Alcotest.(check string) "functional manifest stable"
    {|{"version":1,"kind":"functional","retired":40000,"sections":[{"tag":"GUST","bytes":16674,"crc32":3925566016}]}|}
    (J.to_string (Snapshot.manifest fn));
  let full = decode "mcf_40k_full_v1.dsnp" in
  Alcotest.(check string) "full manifest stable"
    {|{"version":1,"kind":"full","retired":372571,"sections":[{"tag":"GUST","bytes":16674,"crc32":863927439},{"tag":"CODE","bytes":55178,"crc32":1244300970}]}|}
    (J.to_string (Snapshot.manifest full));
  (* decoded state must still be runnable, not merely parseable *)
  let ctl = Snapshot.restore full in
  expect_done "full fixture resumes" (Controller.run ctl);
  Alcotest.(check (option int)) "resumed exit code" (Some 1)
    (Controller.exit_code ctl)

(* The one sealed container every framed format uses: the length is
   bounded (by the input left, or by [max] before a [source] is asked for
   anything) and the checksum checked. *)
let test_sealed_container () =
  let sealed payload =
    let w = Buf.writer () in
    Buf.seal w payload;
    Buf.contents w
  in
  let s = sealed "payload" in
  Alcotest.(check string) "round trip" "payload" (Buf.read_sealed (Buf.reader s));
  let expect_corrupt what f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Buf.Corrupt _ -> ()
  in
  expect_corrupt "over the bound" (fun () ->
      Buf.read_sealed ~max:6 (Buf.reader s));
  expect_corrupt "short input" (fun () ->
      Buf.read_sealed (Buf.reader (String.sub s 0 (String.length s - 1))));
  let flipped = Bytes.of_string s in
  Bytes.set flipped 16 'P';
  expect_corrupt "checksum" (fun () ->
      Buf.read_sealed (Buf.reader (Bytes.to_string flipped)));
  (* a header read apart from its payload, as a socket reader does *)
  let header = Buf.reader (String.sub s 0 16) in
  let asked = ref [] in
  let source n =
    asked := n :: !asked;
    String.sub s 16 n
  in
  Alcotest.(check string) "payload from a source" "payload"
    (Buf.read_sealed ~source header);
  expect_corrupt "source never asked past the bound" (fun () ->
      Buf.read_sealed ~max:6 ~source (Buf.reader (String.sub s 0 16)));
  Alcotest.(check (list int)) "source asked once, for the length" [ 7 ] !asked

(* Write-then-rename leaks nothing when the rename fails: the channel is
   closed and the temporary removed. *)
let test_write_file_cleans_up () =
  let dir = Filename.temp_file "darco_buf" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let target = Filename.concat dir "out" in
  let blocked = Filename.concat dir "blocked" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ target; Filename.concat blocked "inner"; blocked ^ ".tmp" ];
      (try Unix.rmdir blocked with Unix.Unix_error _ -> ());
      Unix.rmdir dir)
  @@ fun () ->
  Buf.write_file target "first";
  Buf.write_file target "second";
  Alcotest.(check string) "replaced whole" "second" (Buf.read_file target);
  Unix.mkdir blocked 0o755;
  Buf.write_file (Filename.concat blocked "inner") "x";
  let fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let before = fds () in
  (match Buf.write_file blocked "bytes" with
  | () -> Alcotest.fail "renaming onto a directory must raise"
  | exception Sys_error _ -> ());
  Alcotest.(check bool) "no temporary left" false
    (Sys.file_exists (blocked ^ ".tmp"));
  Alcotest.(check int) "no descriptor leaked" before (fds ());
  Alcotest.(check (list string)) "directory untouched" [ "inner" ]
    (Array.to_list (Sys.readdir blocked))

(* Work-frame golden fixtures: both DWRK versions committed as pinned
   bytes.  Version 1 (inline snapshot) is the frozen original format —
   it must decode, re-encode bit-identically, and still {e execute}; the
   current writer must keep emitting it for inline units.  Version 2
   (digest-addressed) is pinned the same way against future drift. *)
let test_golden_work_v1 () =
  let module J = Darco_obs.Jsonx in
  let bytes = read_file (Filename.concat "fixtures" "mcf_40k_work_v1.dwrk") in
  let w = Work.of_string bytes in
  Alcotest.(check string) "label" "429.mcf@41000" w.Work.label;
  Alcotest.(check int) "offset" 41_000 w.Work.offset;
  Alcotest.(check int) "window" 2_000 w.Work.window;
  Alcotest.(check int) "warmup" 1_000 w.Work.warmup;
  (match w.Work.ckpt with
  | Work.Inline snap ->
    Alcotest.(check string) "inline snapshot is the v1 snapshot fixture"
      (read_file (Filename.concat "fixtures" "mcf_40k_functional_v1.dsnp"))
      snap
  | Work.Stored _ -> Alcotest.fail "v1 frame decoded as digest unit");
  Alcotest.(check (option string)) "no digest" None (Work.digest w);
  (* the writer still emits version-1 bytes for inline units *)
  Alcotest.(check string) "re-encodes bit-identically" bytes (Work.to_string w);
  (* and the decoded unit still runs end to end *)
  match Work.exec w with
  | json ->
    Alcotest.(check bool) "result has an ipc field" true
      (match J.member "ipc" json with Some (J.Float _) -> true | _ -> false)
  | exception e ->
    Alcotest.failf "v1 work fixture no longer executes: %s" (Printexc.to_string e)

let test_golden_work_v2 () =
  let bytes = read_file (Filename.concat "fixtures" "mcf_40k_work_v2.dwrk") in
  let w = Work.of_string bytes in
  Alcotest.(check string) "label" "429.mcf@41000" w.Work.label;
  Alcotest.(check int) "offset" 41_000 w.Work.offset;
  Alcotest.(check int) "window" 2_000 w.Work.window;
  Alcotest.(check int) "warmup" 1_000 w.Work.warmup;
  let snap_bytes =
    read_file (Filename.concat "fixtures" "mcf_40k_functional_v1.dsnp")
  in
  Alcotest.(check (option string)) "digest addresses the snapshot fixture"
    (Some (Store.digest snap_bytes))
    (Work.digest w);
  Alcotest.(check string) "re-encodes bit-identically" bytes (Work.to_string w);
  (* resolving through a store executes identically to the inline form *)
  let store = Store.create () in
  ignore (Store.add store snap_bytes);
  let inline = Work.of_string (read_file (Filename.concat "fixtures" "mcf_40k_work_v1.dwrk")) in
  Alcotest.(check string) "digest unit result identical to inline unit"
    (Darco_obs.Jsonx.to_string (Work.exec inline))
    (Darco_obs.Jsonx.to_string (Work.exec ~store w))

(* --- the multicore runtime ------------------------------------------------ *)

(* Everything below spawns domains.  The OCaml 5 runtime forbids
   [Unix.fork] once any domain has ever been created in the process, so
   these suites are registered LAST: every fork-based test above (the
   sweep pool tests) has finished before the first domain exists. *)

let render_result (r : Sweep.result) =
  r.Sweep.label ^ " => "
  ^ (match r.Sweep.outcome with
    | Sweep.Ok j -> Darco_obs.Jsonx.to_string j
    | Sweep.Failed e -> "FAILED " ^ e)

(* The acceptance contract of the domains backend: a real sweep renders
   byte-identically whichever pool ran it.  Fork runs first — after the
   domains sweep this process can never fork again. *)
let test_domains_identical_to_fork () =
  let program = build "462.libquantum" in
  let store = Store.create () in
  let window = 1_500 and warmup = 500 in
  let offsets = [ 1_000; 4_000; 7_000; 10_000 ] in
  let checkpoints =
    Driver.functional_checkpoints ~seed:11 ~interval:3_000 ~horizon:12_000
      program
  in
  let works =
    List.map
      (fun offset ->
        Work.of_window_stored ~store ~checkpoints
          ~label:(Printf.sprintf "u@%d" offset)
          ~offset ~window ~warmup)
      offsets
  in
  let via_fork = Sweep.run (Sweep.Backend.local ~store ~jobs:3 ()) works in
  let via_domains = Sweep.run (Sweep.Backend.domains ~store ~jobs:3 ()) works in
  Alcotest.(check (list string))
    "fork and domains render identically"
    (List.map render_result via_fork)
    (List.map render_result via_domains)

(* A unit raising on a worker domain is contained as its own [Failed]
   outcome — and rendered exactly as the fork pool renders the same
   failure (a v2 unit whose digest is in nobody's store). *)
let test_domains_contains_failures () =
  let phantom = Store.digest "never stored anywhere" in
  let works =
    [
      {
        Work.label = "orphan";
        ckpt = Work.Stored phantom;
        offset = 0;
        window = 1;
        warmup = 0;
      };
    ]
  in
  let empty () = Store.create () in
  let via_domains =
    Sweep.run (Sweep.Backend.domains ~store:(empty ()) ~jobs:2 ()) works
  in
  match (List.hd via_domains).Sweep.outcome with
  | Sweep.Ok _ -> Alcotest.fail "missing digest produced a result"
  | Sweep.Failed reason ->
    Alcotest.(check bool) "reason mentions the failure" true
      (String.length reason > String.length "worker failed: ")

(* Many domains hammering one store: adds (duplicate and distinct),
   immediate readbacks and the spill directory must all stay coherent
   under concurrency. *)
let test_store_concurrent () =
  let dir = Filename.temp_file "darco_store_mt" "" in
  Sys.remove dir;
  let cleanup () =
    if Sys.file_exists dir then begin
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir
    end
  in
  Fun.protect ~finally:cleanup (fun () ->
      let store = Store.create ~dir ~tier:Store.Shared () in
      let ndom = 4 and per = 25 and shared_contents = 5 in
      let doms =
        List.init ndom (fun d ->
            Domain.spawn (fun () ->
                List.init per (fun i ->
                    (* every domain re-adds the same shared blobs AND its
                       own private ones, interleaved *)
                    let shared = Printf.sprintf "shared-%d" (i mod shared_contents) in
                    let own = Printf.sprintf "own-%d-%d" d i in
                    let ds = Store.add store shared in
                    let dn = Store.add store own in
                    let got_s = Store.find store ds = Some shared in
                    let got_n = Store.find store dn = Some own in
                    (ds, dn, got_s && got_n))))
      in
      let outcomes = List.concat_map Domain.join doms in
      List.iter
        (fun (_, _, ok) ->
          Alcotest.(check bool) "every readback saw its own bytes" true ok)
        outcomes;
      let distinct = shared_contents + (ndom * per) in
      Alcotest.(check int) "adds deduplicated across domains" distinct
        (Store.count store);
      (* every digest resolves after the dust settles *)
      List.iter
        (fun (ds, dn, _) ->
          Alcotest.(check bool) "shared digest resolves" true
            (Store.find store ds <> None);
          Alcotest.(check bool) "own digest resolves" true
            (Store.find store dn <> None))
        outcomes;
      (* a fresh Shared-tier store over the same directory cold-reads the
         spilled entries (mmap path) and re-verifies them *)
      let fresh = Store.create ~dir ~tier:Store.Shared () in
      Alcotest.(check int) "fresh store starts empty" 0 (Store.count fresh);
      let d0 = Store.digest "shared-0" in
      Alcotest.(check (option string)) "cold mmap read"
        (Some "shared-0") (Store.find fresh d0);
      (* concurrent cold reads of one spilled entry from several domains *)
      let cold = Store.create ~dir ~tier:Store.Shared () in
      let readers =
        List.init ndom (fun _ ->
            Domain.spawn (fun () -> Store.find cold d0 = Some "shared-0"))
      in
      List.iter
        (fun d ->
          Alcotest.(check bool) "concurrent cold read" true (Domain.join d))
        readers;
      (* tampered spill bytes are refused on the mmap path too *)
      let dp = Store.digest "phantom" in
      let oc = open_out_bin (Filename.concat dir (dp ^ ".dsnp")) in
      output_string oc "not the phantom";
      close_out oc;
      match Store.find (Store.create ~dir ~tier:Store.Shared ()) dp with
      | _ -> Alcotest.fail "accepted a tampered cache entry"
      | exception Buf.Corrupt _ -> ())

let () =
  Alcotest.run "sampling"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "462.libquantum" `Quick
            (roundtrip_workload "462.libquantum" [ 2_000; 60_000; 250_000 ]);
          Alcotest.test_case "470.lbm" `Quick
            (roundtrip_workload "470.lbm" [ 5_000; 120_000 ]);
          Alcotest.test_case "continuous (physics)" `Quick
            (roundtrip_workload "continuous" [ 1_000; 40_000; 150_000 ]);
          Alcotest.test_case "timing pipeline" `Quick test_timing_roundtrip;
          Alcotest.test_case "functional reference" `Quick test_functional_reference;
          Alcotest.test_case "stores in flight" `Quick test_store_buffer_roundtrip;
        ] );
      ( "driver",
        [ Alcotest.test_case "matches create_at" `Quick test_driver_matches_create_at ]
      );
      ( "sweep",
        [
          Alcotest.test_case "crash containment" `Quick test_sweep_contains_crashes;
        ] );
      ( "store",
        [
          Alcotest.test_case "content addressing" `Quick test_store_basics;
          Alcotest.test_case "disk spill and verification" `Quick
            test_store_disk_spill;
          Alcotest.test_case "LRU byte budget" `Quick test_store_lru_eviction;
          Alcotest.test_case "pins block eviction" `Quick
            test_store_pin_blocks_eviction;
        ] );
      ( "format",
        [
          Alcotest.test_case "corruption detected" `Quick test_corrupted_snapshot;
          Alcotest.test_case "manifest" `Quick test_manifest;
          Alcotest.test_case "golden corpus decodes" `Quick test_golden_corpus;
          Alcotest.test_case "sealed container" `Quick test_sealed_container;
          Alcotest.test_case "write-then-rename cleans up" `Quick
            test_write_file_cleans_up;
          Alcotest.test_case "golden work frame v1" `Quick test_golden_work_v1;
          Alcotest.test_case "golden work frame v2" `Quick test_golden_work_v2;
        ] );
      (* keep last: these spawn domains, which forbids fork for the rest
         of the process (the sweep suite above forks) *)
      ( "multicore",
        [
          Alcotest.test_case "domains backend identical to fork" `Quick
            test_domains_identical_to_fork;
          Alcotest.test_case "domains backend contains failures" `Quick
            test_domains_contains_failures;
          Alcotest.test_case "store under concurrent domains" `Quick
            test_store_concurrent;
        ] );
    ]

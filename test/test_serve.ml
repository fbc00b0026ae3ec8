(* The campaign service, tested against real processes: the [serve] loop
   runs in this process (so its bus is observable), real client processes
   are forked against its ephemeral port, and the artifact library is
   driven both through the service and directly — including the cold
   restart and corruption paths the crash-safety story depends on. *)

module Campaign = Darco_serve.Campaign
module Library = Darco_serve.Library
module Client = Darco_serve.Client
module Serve = Darco_serve.Serve
module Sweep = Darco_sampling.Sweep
module Work = Darco_sampling.Work
module Store = Darco_sampling.Store
module Driver = Darco_sampling.Driver
module Report = Darco_sampling.Report
module B = Darco_sampling.Buf
module Wire = Darco_dispatch.Wire
module Worker = Darco_dispatch.Worker
module Event = Darco_obs.Event
module J = Darco_obs.Jsonx

let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* --- plumbing ---------------------------------------------------------- *)

let with_temp_dir f =
  let dir = Filename.temp_file "darco_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm dir)
    (fun () -> f dir)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let collecting_bus () =
  let events = ref [] in
  let bus = Darco_obs.Bus.create () in
  Darco_obs.Bus.attach bus ~name:"collect" (fun ~at:_ ev -> events := ev :: !events);
  (bus, events)

let count events p = List.length (List.filter p !events)

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* Fork a client process that learns the server's kernel-assigned port
   through a pipe (written by [serve]'s [ready] callback), runs [job]
   against it, and exits.  Results come back through files — the child
   must not touch Alcotest state. *)
let fork_client (r, w) job =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    Unix.close w;
    let buf = Bytes.create 16 in
    let n = Unix.read r buf 0 16 in
    Unix.close r;
    let port = int_of_string (String.trim (Bytes.sub_string buf 0 n)) in
    (try job { Darco_dispatch.host = "127.0.0.1"; port } with _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close r;
    pid

(* The [ready] callback: announce the bound port to every waiting child. *)
let announce writers sa =
  let port = match sa with Unix.ADDR_INET (_, p) -> p | _ -> 0 in
  let line = Bytes.of_string (string_of_int port ^ "\n") in
  List.iter
    (fun w ->
      ignore (Unix.write w line 0 (Bytes.length line));
      Unix.close w)
    writers

(* Same worker-daemon spawner as test_dispatch: ephemeral port reported
   through a pipe once the daemon is actually listening.  [exec] lets a
   test slow the worker down to hold a campaign observably in flight. *)
let spawn_worker ?exec () =
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    (try
       Worker.serve ~quiet:true ?exec
         ~ready:(fun sa ->
           let port = match sa with Unix.ADDR_INET (_, p) -> p | _ -> 0 in
           let line = Bytes.of_string (string_of_int port ^ "\n") in
           ignore (Unix.write w line 0 (Bytes.length line));
           Unix.close w)
         ~host:"127.0.0.1" ~port:0 ()
     with _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close w;
    let buf = Bytes.create 16 in
    let n = Unix.read r buf 0 16 in
    Unix.close r;
    let port = int_of_string (String.trim (Bytes.sub_string buf 0 n)) in
    (pid, { Darco_dispatch.host = "127.0.0.1"; port })

let reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid)

let wait pid = ignore (Unix.waitpid [] pid)

(* The shared campaign: same physics workload and geometry as the
   dispatcher tests, so the windows are cheap and deterministic. *)
let spec1 =
  Campaign.normalize
    {
      Campaign.bench = "continuous";
      scale = 1;
      seed = 7;
      input = None;
      interval = 10_000;
      horizon = 40_000;
      offsets = [ 8_000; 16_000; 24_000 ];
      window = 2_000;
      warmup = 1_000;
      ci_target = None;
    }

let spec2 = Campaign.normalize { spec1 with offsets = [ 12_000; 20_000 ] }

(* What [darco sample --json] computes for [spec1] — the byte-identity
   reference for everything the service returns. *)
let expected_doc =
  lazy
    (let program =
       (Darco_workloads.Registry.find "continuous").build ~scale:1 ()
     in
     let checkpoints =
       Driver.functional_checkpoints ~seed:7 ~interval:10_000 ~horizon:40_000
         program
     in
     let store = Store.create () in
     let works =
       List.map
         (fun off ->
           Work.of_window_stored ~store ~checkpoints
             ~label:(Printf.sprintf "continuous@%d" off)
             ~offset:off ~window:2_000 ~warmup:1_000)
         spec1.Campaign.offsets
     in
     let results = Sweep.run (Sweep.Backend.local ~store ~jobs:2 ()) works in
     let rep =
       Report.sweep_json ~benchmark:"continuous" ~seed:7 ~interval:10_000
         ~window:2_000 ~warmup:1_000
         (List.combine spec1.Campaign.offsets results)
     in
     J.to_string rep.Report.doc)

(* --- the campaign codec ------------------------------------------------ *)

let test_campaign_codec () =
  let full =
    {
      Campaign.bench = "429.mcf";
      scale = 3;
      seed = 99;
      input = Some "line one\nline two\x00binary";
      interval = 5_000;
      horizon = 123_456;
      offsets = [ 10_000; 20_000; 30_000 ];
      window = 1_000;
      warmup = 500;
      ci_target = None;
    }
  in
  Alcotest.(check bool) "roundtrip is the identity" true
    (Campaign.of_string (Campaign.to_string full) = full);
  Alcotest.(check bool) "roundtrip without input" true
    (Campaign.of_string (Campaign.to_string spec1) = spec1);
  (* a confidence target bumps the frame to version 2 and survives the
     roundtrip; its absence keeps the version-1 bytes *)
  let planned = { full with Campaign.ci_target = Some 0.02 } in
  Alcotest.(check bool) "roundtrip with a ci target" true
    (Campaign.of_string (Campaign.to_string planned) = planned);
  Alcotest.(check bool) "v2 frame differs from v1" true
    (Campaign.to_string planned <> Campaign.to_string full);
  (* normalization: the flag discipline of [darco sample] *)
  let messy =
    Campaign.normalize
      { full with offsets = [ 30_000; 10_000; 10_000; 20_000 ]; horizon = 1 }
  in
  Alcotest.(check (list int)) "offsets sorted and deduplicated"
    [ 10_000; 20_000; 30_000 ] messy.Campaign.offsets;
  Alcotest.(check int) "horizon stretched over the last window" 31_000
    messy.Campaign.horizon;
  (* malformed specs are refused, never misread *)
  let corrupt s =
    match Campaign.of_string s with
    | _ -> Alcotest.fail "accepted a malformed campaign"
    | exception B.Corrupt _ -> ()
  in
  let enc = Campaign.to_string full in
  corrupt "";
  corrupt ("JUNK" ^ String.sub enc 4 (String.length enc - 4));
  corrupt (String.sub enc 0 (String.length enc - 3));
  corrupt (enc ^ "!");
  corrupt (Campaign.to_string { full with scale = 0 });
  corrupt (Campaign.to_string { full with interval = 0 });
  corrupt (Campaign.to_string { full with window = 0 });
  corrupt (Campaign.to_string { full with warmup = -1 });
  corrupt (Campaign.to_string { full with ci_target = Some 0.0 });
  corrupt (Campaign.to_string { full with ci_target = Some (-0.1) })

let test_campaign_digests () =
  let a = spec1 in
  (* the config digest pins a window's bytes: checkpointing parameters and
     the offset list must not perturb it, or campaigns stop sharing *)
  Alcotest.(check string) "config digest ignores interval/horizon/offsets"
    (Campaign.config_digest a)
    (Campaign.config_digest
       { a with interval = 777; horizon = 999_999; offsets = [ 1 ] });
  Alcotest.(check bool) "config digest sees the window length" true
    (Campaign.config_digest { a with window = 3_000 }
    <> Campaign.config_digest a);
  Alcotest.(check bool) "config digest sees the seed" true
    (Campaign.config_digest { a with seed = 8 } <> Campaign.config_digest a);
  (* the checkpoint digest pins a fast-forward, nothing about windows *)
  Alcotest.(check string) "ckpt digest ignores window/warmup/offsets"
    (Campaign.ckpt_digest a)
    (Campaign.ckpt_digest { a with window = 9; warmup = 0; offsets = [] });
  Alcotest.(check bool) "ckpt digest sees the interval" true
    (Campaign.ckpt_digest { a with interval = 5_000 } <> Campaign.ckpt_digest a);
  (* the input rendering is injective: empty input is not absent input *)
  Alcotest.(check bool) "empty input distinct from no input" true
    (Campaign.config_digest { a with input = Some "" }
    <> Campaign.config_digest a);
  (* the confidence target never reaches a digest: an adaptive campaign's
     windows must hit the exhaustive campaign's library entries *)
  Alcotest.(check string) "config digest ignores the ci target"
    (Campaign.config_digest a)
    (Campaign.config_digest { a with ci_target = Some 0.05 });
  Alcotest.(check string) "ckpt digest ignores the ci target"
    (Campaign.ckpt_digest a)
    (Campaign.ckpt_digest { a with ci_target = Some 0.05 })

(* --- the artifact library, driven directly ----------------------------- *)

let a_key =
  {
    Library.bench = "continuous";
    cfg = Store.digest "some config";
    snap = Store.digest "some snapshot";
    offset = 8_000;
    window = 2_000;
    warmup = 1_000;
  }

let test_library_windows () =
  with_temp_dir @@ fun dir ->
  let lib = Library.create ~dir () in
  Alcotest.(check (option string)) "empty library misses" None
    (Library.find_window lib a_key);
  let json = "{\"offset\":8000,\"ipc\":1.25}" in
  Library.put_window lib a_key json;
  Library.put_window lib a_key json;
  Alcotest.(check (option string)) "warm hit" (Some json)
    (Library.find_window lib a_key);
  (* a cold open re-reads and re-verifies the file *)
  let cold = Library.create ~dir () in
  Alcotest.(check (option string)) "cold hit, verified" (Some json)
    (Library.find_window cold a_key);
  Alcotest.(check (option string)) "a different offset is a different key"
    None
    (Library.find_window cold { a_key with offset = 16_000 })

let test_library_corruption () =
  with_temp_dir @@ fun dir ->
  let lib = Library.create ~dir () in
  let json = "{\"offset\":8000,\"ipc\":1.25}" in
  Library.put_window lib a_key json;
  let path = Filename.concat dir (Library.key_id a_key ^ ".dart") in
  (* one flipped payload byte must surface as Corrupt on a cold read *)
  let bytes = Bytes.of_string (read_file path) in
  let last = Bytes.length bytes - 1 in
  Bytes.set bytes last (Char.chr (Char.code (Bytes.get bytes last) lxor 0xff));
  write_file path (Bytes.to_string bytes);
  let cold = Library.create ~dir () in
  (match Library.find_window cold a_key with
  | _ -> Alcotest.fail "served a tampered window artifact"
  | exception B.Corrupt _ -> ());
  (* a valid artifact copied under the wrong name must also be refused:
     the embedded key is checked against the key looked up *)
  let lib2 = Library.create ~dir:(Filename.concat dir "two") () in
  Library.put_window lib2 a_key json;
  let wrong = { a_key with offset = 24_000 } in
  write_file
    (Filename.concat (Filename.concat dir "two") (Library.key_id wrong ^ ".dart"))
    (read_file
       (Filename.concat (Filename.concat dir "two") (Library.key_id a_key ^ ".dart")));
  let cold2 = Library.create ~dir:(Filename.concat dir "two") () in
  match Library.find_window cold2 wrong with
  | _ -> Alcotest.fail "served a window artifact under the wrong key"
  | exception B.Corrupt _ -> ()

let test_library_checkpoints () =
  with_temp_dir @@ fun dir ->
  let lib = Library.create ~dir () in
  let ck = Campaign.ckpt_digest spec1 in
  Alcotest.(check bool) "empty library has no checkpoint set" true
    (Library.find_checkpoints lib ~bench:"continuous" ~ckpt:ck = None);
  let b0 = "snapshot zero bytes" and b1 = "snapshot one bytes!" in
  let d0 = Store.add (Library.store lib) b0 in
  let d1 = Store.add (Library.store lib) b1 in
  Library.put_checkpoints lib ~bench:"continuous" ~ckpt:ck
    [ (0, d0); (10_000, d1) ];
  Alcotest.(check bool) "set restored in order, as digests" true
    (Library.find_checkpoints lib ~bench:"continuous" ~ckpt:ck
    = Some [ (0, d0); (10_000, d1) ]);
  let cold = Library.create ~dir () in
  Alcotest.(check bool) "cold restore identical" true
    (Library.find_checkpoints cold ~bench:"continuous" ~ckpt:ck
    = Some [ (0, d0); (10_000, d1) ]);
  Alcotest.(check bool) "cold restore resolves the digests to the bytes" true
    (Store.find (Library.store cold) d0 = Some b0
    && Store.find (Library.store cold) d1 = Some b1);
  (* a CRC-valid index whose entry is not a digest must not reach the
     store's spill path: it reads as corrupt, like any damaged index *)
  let bad = Store.digest "another campaign" in
  Library.put_checkpoints lib ~bench:"continuous" ~ckpt:bad [ (0, "../x") ];
  (match Library.find_checkpoints cold ~bench:"continuous" ~ckpt:bad with
  | _ -> Alcotest.fail "accepted a checkpoint index entry that is no digest"
  | exception B.Corrupt _ -> ());
  (* an evicted snapshot poisons the whole set: a partial restore would
     silently change warm-up distances, so the set reports absent *)
  Sys.remove (Filename.concat (Filename.concat dir "ckpt") (d1 ^ ".dsnp"));
  let cold2 = Library.create ~dir () in
  Alcotest.(check bool) "set with an evicted snapshot is absent" true
    (Library.find_checkpoints cold2 ~bench:"continuous" ~ckpt:ck = None)

(* --- the wire v4 SUBM frame, against its committed golden bytes -------- *)

let fixture_spec =
  {
    Campaign.bench = "429.mcf";
    scale = 1;
    seed = 42;
    input = None;
    interval = 50_000;
    horizon = 300_000;
    offsets = [ 130_000; 150_000 ];
    window = 25_000;
    warmup = 30_000;
    ci_target = None;
  }

let test_subm_golden () =
  let golden = read_file "fixtures/wire_subm_v4.bin" in
  let msg = Wire.Submit { id = 7; sweep = Campaign.to_string fixture_spec } in
  Alcotest.(check string) "encoder still emits the committed bytes" golden
    (Wire.encode msg);
  (* and the committed bytes still decode to the same submission *)
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  ignore (Unix.write_substring b golden 0 (String.length golden));
  Unix.close b;
  Fun.protect ~finally:(fun () -> Unix.close a) @@ fun () ->
  match Wire.recv ~deadline:(Unix.gettimeofday () +. 10.0) a with
  | Wire.Submit { id; sweep } ->
    Alcotest.(check int) "submission id" 7 id;
    Alcotest.(check bool) "campaign decodes to the fixture spec" true
      (Campaign.of_string sweep = fixture_spec)
  | _ -> Alcotest.fail "golden SUBM frame decoded to something else"

(* --- the service end to end: resubmission, restore, restart ------------ *)

let parse_stats s = Scanf.sscanf s "%d %d %d %d" (fun a b c d -> (a, b, c, d))

let seq_client dir addr =
  let save name s = write_file (Filename.concat dir name) s in
  let submit name spec =
    match Client.submit addr spec with
    | Ok (st, doc) ->
      save (name ^ ".stats")
        (Printf.sprintf "%d %d %d %d" st.Client.done_ st.Client.total
           st.Client.hits st.Client.dispatched);
      save (name ^ ".json") doc
    | Error e -> save (name ^ ".err") e
  in
  submit "first" spec1;
  submit "again" spec1;
  (match Client.status addr with
  | Ok (state, st, _info) ->
    save "status"
      (Printf.sprintf "%s %d %d %d %d" state st.Client.done_ st.Client.total
         st.Client.hits st.Client.dispatched)
  | Error e -> save "status.err" e);
  (match Client.fetch addr spec1 ~offset:8_000 with
  | Ok (Some j) -> save "fetch" j
  | Ok None -> save "fetch.err" "miss"
  | Error e -> save "fetch.err" e);
  (match Client.fetch addr spec1 ~offset:9_999 with
  | Ok None -> save "fetch_miss" "miss"
  | Ok (Some _) -> save "fetch_miss.err" "unexpected hit"
  | Error e -> save "fetch_miss.err" e);
  submit "sibling" spec2

let must_read dir name =
  let path = Filename.concat dir name in
  if Sys.file_exists path then read_file path
  else
    Alcotest.failf "client never wrote %s%s" name
      (let err = Filename.concat dir (Filename.remove_extension name ^ ".err") in
       if Sys.file_exists err then ": " ^ read_file err else "")

let test_serve_resubmit_and_restore () =
  with_temp_dir @@ fun dir ->
  let libdir = Filename.concat dir "lib" in
  let pipe = Unix.pipe () in
  let pid = fork_client pipe (seq_client dir) in
  let bus, events = collecting_bus () in
  Serve.serve ~bus ~quiet:true ~jobs:2 ~credit:2 ~max_submissions:3
    ~ready:(announce [ snd pipe ])
    ~library:libdir ~host:"127.0.0.1" ~port:0 ();
  wait pid;
  (* the first submission dispatched everything, the resubmission nothing *)
  Alcotest.(check (list int)) "first run: 3 windows, all dispatched"
    [ 3; 3; 0; 3 ]
    (let a, b, c, d = parse_stats (must_read dir "first.stats") in
     [ a; b; c; d ]);
  Alcotest.(check (list int)) "resubmission: all hits, zero dispatched"
    [ 3; 3; 3; 0 ]
    (let a, b, c, d = parse_stats (must_read dir "again.stats") in
     [ a; b; c; d ]);
  (* byte-identical to each other AND to what [darco sample --json] says *)
  let doc0 = must_read dir "first.json" in
  Alcotest.(check string) "resubmitted document byte-identical" doc0
    (must_read dir "again.json");
  Alcotest.(check string) "document byte-identical to the local backend"
    (Lazy.force expected_doc) doc0;
  (* the sibling campaign has new windows but the same checkpoint set *)
  Alcotest.(check (list int)) "sibling: new windows dispatched" [ 2; 2; 0; 2 ]
    (let a, b, c, d = parse_stats (must_read dir "sibling.stats") in
     [ a; b; c; d ]);
  (* mid-stream service queries worked *)
  (match String.split_on_char ' ' (must_read dir "status") with
  | state :: done_ :: total :: _ ->
    Alcotest.(check string) "service state" "serving" state;
    Alcotest.(check string) "completed submissions" "2" done_;
    Alcotest.(check string) "admitted submissions" "2" total
  | _ -> Alcotest.fail "malformed status line");
  Alcotest.(check bool) "fetch returned the stored window" true
    (let j = must_read dir "fetch" in
     let sub = "\"offset\":8000" in
     let rec find i =
       i + String.length sub <= String.length j
       && (String.sub j i (String.length sub) = sub || find (i + 1))
     in
     find 0);
  Alcotest.(check string) "fetch of an unknown window is a clean miss" "miss"
    (must_read dir "fetch_miss");
  (* the decisions were all on the bus *)
  Alcotest.(check int) "three submissions observed" 3
    (count events (function Event.Submit _ -> true | _ -> false));
  Alcotest.(check int) "one checkpoint set stored" 1
    (count events (function
      | Event.Artifact_store { key; _ } -> has_prefix "ckpts:" key
      | _ -> false));
  Alcotest.(check bool) "the sibling restored checkpoints from the library"
    true
    (count events (function
       | Event.Artifact_hit { key } -> has_prefix "ckpts:" key
       | _ -> false)
    >= 1);
  Alcotest.(check bool) "three window hits for the resubmission" true
    (count events (function
       | Event.Artifact_hit { key } -> not (has_prefix "ckpts:" key)
       | _ -> false)
    >= 3);
  Alcotest.(check int) "five window artifacts stored" 5
    (count events (function
      | Event.Artifact_store { key; _ } -> not (has_prefix "ckpts:" key)
      | _ -> false));
  (* fair share: every scheduling round honoured the credit *)
  let admits =
    List.filter_map
      (function Event.Admit { units; credit; _ } -> Some (units, credit) | _ -> None)
      !events
  in
  Alcotest.(check bool) "admission rounds observed" true (admits <> []);
  List.iter
    (fun (units, credit) ->
      if units < 1 || units > credit then
        Alcotest.failf "admission round took %d units against credit %d" units
          credit)
    admits;
  Alcotest.(check int) "admitted units equal dispatched units" 5
    (List.fold_left (fun acc (u, _) -> acc + u) 0 admits);
  (* --- restart the service cold on the same library -------------------- *)
  let pipe2 = Unix.pipe () in
  let pid2 =
    fork_client pipe2 (fun addr ->
        match Client.submit addr spec1 with
        | Ok (st, doc) ->
          write_file
            (Filename.concat dir "cold.stats")
            (Printf.sprintf "%d %d %d %d" st.Client.done_ st.Client.total
               st.Client.hits st.Client.dispatched);
          write_file (Filename.concat dir "cold.json") doc
        | Error e -> write_file (Filename.concat dir "cold.err") e)
  in
  Serve.serve ~quiet:true ~jobs:2 ~max_submissions:1
    ~ready:(announce [ snd pipe2 ])
    ~library:libdir ~host:"127.0.0.1" ~port:0 ();
  wait pid2;
  Alcotest.(check (list int)) "after restart: all hits, zero dispatched"
    [ 3; 3; 3; 0 ]
    (let a, b, c, d = parse_stats (must_read dir "cold.stats") in
     [ a; b; c; d ]);
  Alcotest.(check string) "after restart: document still byte-identical" doc0
    (must_read dir "cold.json")

(* --- an adaptive campaign exits early ---------------------------------- *)

(* A wide campaign with a loose confidence target: the planner should
   settle the sweep from a handful of windows and skip the rest, and the
   document should say so. *)
let adaptive_spec =
  Campaign.normalize
    {
      spec1 with
      Campaign.offsets = List.init 16 (fun i -> 2_000 + (i * 2_500));
      ci_target = Some 0.10;
    }

let test_serve_adaptive_campaign () =
  with_temp_dir @@ fun dir ->
  let pipe = Unix.pipe () in
  let pid =
    fork_client pipe (fun addr ->
        match Client.submit addr adaptive_spec with
        | Ok (st, doc) ->
          write_file
            (Filename.concat dir "adaptive.stats")
            (Printf.sprintf "%d %d %d %d" st.Client.done_ st.Client.total
               st.Client.hits st.Client.dispatched);
          write_file (Filename.concat dir "adaptive.json") doc
        | Error e -> write_file (Filename.concat dir "adaptive.err") e)
  in
  let bus, events = collecting_bus () in
  Serve.serve ~bus ~quiet:true ~jobs:2 ~credit:4 ~max_submissions:1
    ~ready:(announce [ snd pipe ])
    ~library:(Filename.concat dir "lib") ~host:"127.0.0.1" ~port:0 ();
  wait pid;
  let total = List.length adaptive_spec.Campaign.offsets in
  let done_, total', _hits, dispatched =
    parse_stats (must_read dir "adaptive.stats")
  in
  Alcotest.(check int) "status reports the full campaign" total total';
  Alcotest.(check bool)
    (Printf.sprintf "early exit measured a strict subset (%d of %d)" done_
       total)
    true
    (done_ > 0 && done_ < total);
  Alcotest.(check bool) "dispatch stopped with the plan" true
    (dispatched <= done_ && dispatched < total);
  (* the document carries the planner verdict *)
  let doc = J.parse (must_read dir "adaptive.json") in
  Alcotest.(check bool) "document is an adaptive plan" true
    (J.member "plan" doc = Some (J.String "adaptive"));
  Alcotest.(check bool) "ci target recorded" true
    (J.member "ci_target" doc = Some (J.Float 0.10));
  (match J.member "windows_used" doc with
  | Some (J.Int n) -> Alcotest.(check int) "windows_used matches status" done_ n
  | _ -> Alcotest.fail "windows_used missing");
  Alcotest.(check bool) "ci target met" true
    (J.member "ci_target_met" doc = Some (J.Bool true));
  (* unmeasured offsets are absent from the rows, not reported as failed *)
  (match J.member "samples" doc with
  | Some (J.List rows) ->
    Alcotest.(check int) "one row per measured window" done_ (List.length rows)
  | _ -> Alcotest.fail "samples missing");
  (* the planner narrated its early exit on the bus *)
  Alcotest.(check bool) "Plan_round observed" true
    (count events (function Event.Plan_round _ -> true | _ -> false) >= 1);
  Alcotest.(check int) "Plan_stop on ci_target" 1
    (count events (function
      | Event.Plan_stop { reason; _ } -> reason = "ci_target"
      | _ -> false))

(* --- back-to-back rounds do not wait out the select tick --------------- *)

(* Credit 1 over five windows needs five scheduling rounds.  The service
   must start each round as soon as the last one lands: idling a 0.25 s
   select tick between them would take a second for the pacing alone. *)
let test_serve_rounds_unpaced () =
  with_temp_dir @@ fun dir ->
  let spec =
    Campaign.normalize
      { spec1 with offsets = [ 8_000; 12_000; 16_000; 20_000; 24_000 ] }
  in
  let pipe = Unix.pipe () in
  let pid =
    fork_client pipe (fun addr ->
        let t0 = Unix.gettimeofday () in
        match Client.submit addr spec with
        | Ok (st, _) ->
          write_file
            (Filename.concat dir "rounds")
            (Printf.sprintf "%d %.6f" st.Client.dispatched
               (Unix.gettimeofday () -. t0))
        | Error e -> write_file (Filename.concat dir "rounds.err") e)
  in
  let bus, events = collecting_bus () in
  Serve.serve ~bus ~quiet:true ~jobs:1 ~credit:1 ~max_submissions:1
    ~ready:(announce [ snd pipe ])
    ~library:(Filename.concat dir "lib") ~host:"127.0.0.1" ~port:0 ();
  wait pid;
  let dispatched, secs =
    Scanf.sscanf (must_read dir "rounds") "%d %f" (fun d s -> (d, s))
  in
  Alcotest.(check int) "every window dispatched" 5 dispatched;
  Alcotest.(check bool) "one round per window" true
    (count events (function Event.Admit _ -> true | _ -> false) >= 5);
  if secs >= 4.0 *. 0.25 then
    Alcotest.failf "five rounds took %.3f s: the loop idled between rounds" secs

(* --- admission is digest-first ------------------------------------------ *)

(* Submit [spec], fetch each of its windows, then resubmit it (the
   second submission ends a [~max_submissions:2] service); the client
   writes the first submission's stats line, every artifact it streamed
   and every fetch answer under [dir]. *)
let submit_then_fetch dir spec addr =
  let save name s = write_file (Filename.concat dir name) s in
  let streamed = ref [] in
  (match
     Client.submit
       ~on_artifact:(fun ~key:_ ~json -> streamed := json :: !streamed)
       addr spec
   with
  | Ok (st, _) ->
    save "submit.stats"
      (Printf.sprintf "%d %d %d %d" st.Client.done_ st.Client.total
         st.Client.hits st.Client.dispatched)
  | Error e -> save "submit.err" e);
  List.iteri (fun i j -> save (Printf.sprintf "streamed.%d" i) j) !streamed;
  List.iter
    (fun off ->
      match Client.fetch addr spec ~offset:off with
      | Ok (Some j) -> save (Printf.sprintf "fetch.%d" off) j
      | Ok None -> save (Printf.sprintf "fetch.%d.err" off) "miss"
      | Error e -> save (Printf.sprintf "fetch.%d.err" off) e)
    spec.Campaign.offsets;
  ignore (Client.submit addr spec)

let serve_one ?bus dir libdir spec =
  let pipe = Unix.pipe () in
  let pid = fork_client pipe (submit_then_fetch dir spec) in
  Serve.serve ?bus ~quiet:true ~jobs:2 ~max_submissions:2
    ~ready:(announce [ snd pipe ])
    ~library:libdir ~host:"127.0.0.1" ~port:0 ();
  wait pid

let streamed dir n =
  List.sort compare
    (List.init n (fun i -> must_read dir (Printf.sprintf "streamed.%d" i)))

(* A library hit must cost lookups only.  The checkpoint "snapshots" here
   are bytes no snapshot decoder accepts — the store is content-addressed
   and takes any bytes — so the submission succeeds only if admission
   never decodes (or re-encodes) a checkpoint. *)
let test_serve_hit_decodes_nothing () =
  with_temp_dir @@ fun dir ->
  let libdir = Filename.concat dir "lib" in
  let lib = Library.create ~dir:libdir () in
  let pairs =
    List.init 5 (fun i ->
        let at = i * 10_000 in
        (at, Store.add (Library.store lib) (Printf.sprintf "not a DSNP @%d" at)))
  in
  Library.put_checkpoints lib ~bench:"continuous"
    ~ckpt:(Campaign.ckpt_digest spec1) pairs;
  (* offsets 8000/16000/24000 warm up from 7000/15000/23000 *)
  let texts =
    List.map2
      (fun off at ->
        let json = Printf.sprintf "{\"offset\":%d,\"ipc\":1.5}" off in
        Library.put_window lib
          {
            Library.bench = "continuous";
            cfg = Campaign.config_digest spec1;
            snap = List.assoc at pairs;
            offset = off;
            window = 2_000;
            warmup = 1_000;
          }
          json;
        (off, json))
      spec1.Campaign.offsets [ 0; 10_000; 20_000 ]
  in
  serve_one dir libdir spec1;
  Alcotest.(check (list int)) "all hits, zero dispatched" [ 3; 3; 3; 0 ]
    (let a, b, c, d = parse_stats (must_read dir "submit.stats") in
     [ a; b; c; d ]);
  Alcotest.(check (list string)) "the stored artifacts were streamed"
    (List.sort compare (List.map snd texts))
    (streamed dir 3);
  List.iter
    (fun (off, json) ->
      Alcotest.(check string) (Printf.sprintf "fetch %d" off) json
        (must_read dir (Printf.sprintf "fetch.%d" off)))
    texts

(* A CRC-valid checkpoint index holding a path instead of a digest is a
   damaged index: the service regenerates the set and the campaign runs
   as if the library were empty. *)
let test_serve_malformed_index_regenerates () =
  with_temp_dir @@ fun dir ->
  let libdir = Filename.concat dir "lib" in
  let lib = Library.create ~dir:libdir () in
  let ckpt = Campaign.ckpt_digest spec1 in
  Library.put_checkpoints lib ~bench:"continuous" ~ckpt [ (0, "../x") ];
  let bus, events = collecting_bus () in
  serve_one ~bus dir libdir spec1;
  Alcotest.(check (list int)) "every window dispatched" [ 3; 3; 0; 3 ]
    (let a, b, c, d = parse_stats (must_read dir "submit.stats") in
     [ a; b; c; d ]);
  Alcotest.(check int) "the checkpoint set was stored afresh" 1
    (count events (function
      | Event.Artifact_store { key; _ } -> has_prefix "ckpts:" key
      | _ -> false));
  Alcotest.(check bool) "the regenerated index reads back" true
    (match
       Library.find_checkpoints (Library.create ~dir:libdir ())
         ~bench:"continuous" ~ckpt
     with
    | Some pairs -> List.length pairs = 5
    | None -> false)

(* An unreadable library file — here a directory where a window artifact
   or a checkpoint index belongs — reads as a miss, and one that cannot be
   written is skipped: the service regenerates and the campaign completes
   with the same document as on a clean library. *)
let test_serve_unreadable_library_files () =
  with_temp_dir @@ fun dir ->
  let run name libdir =
    let pipe = Unix.pipe () in
    let pid =
      fork_client pipe (fun addr ->
          let save ext s = write_file (Filename.concat dir (name ^ ext)) s in
          match Client.submit addr spec1 with
          | Ok (_, doc) -> save ".json" doc
          | Error e -> save ".err" e)
    in
    Fun.protect
      ~finally:(fun () -> wait pid)
      (fun () ->
        Serve.serve ~quiet:true ~jobs:2 ~max_submissions:1
          ~ready:(announce [ snd pipe ])
          ~library:libdir ~host:"127.0.0.1" ~port:0 ());
    must_read dir (name ^ ".json")
  in
  let clean_lib = Filename.concat dir "clean" in
  let clean = run "clean" clean_lib in
  let blocked_lib = Filename.concat dir "blocked" in
  Unix.mkdir blocked_lib 0o755;
  let blocked =
    List.filter
      (fun n -> Filename.check_suffix n ".dart" || Filename.check_suffix n ".dcki")
      (Array.to_list (Sys.readdir clean_lib))
  in
  Alcotest.(check int) "three windows and one checkpoint index" 4
    (List.length blocked);
  List.iter (fun n -> Unix.mkdir (Filename.concat blocked_lib n) 0o755) blocked;
  Alcotest.(check string) "same document as on a clean library" clean
    (run "blocked" blocked_lib);
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " left in place") true
        (Sys.is_directory (Filename.concat blocked_lib n)))
    blocked

(* Fetch picks a window's checkpoint by the same rule admission does: a
   fetch of every window after a cold submit returns what the submit
   streamed, including a window whose warm-up would start before
   instruction 0 and one whose warm-up starts exactly on a checkpoint. *)
let test_serve_fetch_matches_submit () =
  with_temp_dir @@ fun dir ->
  let spec = Campaign.normalize { spec1 with offsets = [ 500; 11_000; 24_000 ] } in
  serve_one dir (Filename.concat dir "lib") spec;
  Alcotest.(check (list int)) "cold submit dispatched every window"
    [ 3; 3; 0; 3 ]
    (let a, b, c, d = parse_stats (must_read dir "submit.stats") in
     [ a; b; c; d ]);
  Alcotest.(check (list string)) "fetches return the streamed artifacts"
    (streamed dir 3)
    (List.sort compare
       (List.map
          (fun off -> must_read dir (Printf.sprintf "fetch.%d" off))
          spec.Campaign.offsets))

(* --- two concurrent clients share in-flight work ----------------------- *)

let test_serve_concurrent_sharing () =
  with_temp_dir @@ fun dir ->
  let libdir = Filename.concat dir "lib" in
  let spec =
    Campaign.normalize
      { spec1 with offsets = [ 8_000; 16_000; 24_000; 32_000 ] }
  in
  let p1, a1 = spawn_worker () in
  let p2, a2 = spawn_worker () in
  Fun.protect
    ~finally:(fun () -> reap p1; reap p2)
    (fun () ->
      let client name delay addr =
        if delay > 0.0 then Unix.sleepf delay;
        match Client.submit addr spec with
        | Ok (st, doc) ->
          write_file
            (Filename.concat dir (name ^ ".stats"))
            (Printf.sprintf "%d %d %d %d" st.Client.done_ st.Client.total
               st.Client.hits st.Client.dispatched);
          write_file (Filename.concat dir (name ^ ".json")) doc
        | Error e -> write_file (Filename.concat dir (name ^ ".err")) e
      in
      let pipe1 = Unix.pipe () and pipe2 = Unix.pipe () in
      let pid1 = fork_client pipe1 (client "one" 0.0) in
      let pid2 = fork_client pipe2 (client "two" 0.75) in
      let bus, events = collecting_bus () in
      (* credit 1 keeps scheduling rounds short, so the second submission
         is admitted while the first is still in flight *)
      Serve.serve ~bus ~quiet:true ~workers:[ a1; a2 ] ~credit:1
        ~max_submissions:2
        ~ready:(announce [ snd pipe1; snd pipe2 ])
        ~library:libdir ~host:"127.0.0.1" ~port:0 ();
      wait pid1;
      wait pid2;
      let s1 = parse_stats (must_read dir "one.stats") in
      let s2 = parse_stats (must_read dir "two.stats") in
      let (_, _, h1, d1) = s1 and (_, _, h2, d2) = s2 in
      (* every window ran exactly once, whoever got there first *)
      Alcotest.(check int) "four units dispatched in total" 4 (d1 + d2);
      Alcotest.(check int) "four windows served without dispatch" 4 (h1 + h2);
      Alcotest.(check int) "the staggered client dispatched nothing" 0 d2;
      Alcotest.(check string) "both clients got byte-identical documents"
        (must_read dir "one.json") (must_read dir "two.json");
      Alcotest.(check int) "both submissions observed" 2
        (count events (function Event.Submit _ -> true | _ -> false));
      Alcotest.(check bool) "the shared windows were observed as hits" true
        (count events (function
           | Event.Artifact_hit { key } -> not (has_prefix "ckpts:" key)
           | _ -> false)
        >= 4))

(* --- live telemetry end to end ----------------------------------------- *)

module Top = Darco_serve.Top
module Reg = Darco_obs.Registry
module Version = Darco_util.Version

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let geti k j = Option.value ~default:(-1) (Option.bind (J.member k j) J.to_int)
let gets k j = Option.value ~default:"" (Option.bind (J.member k j) J.to_str)
let getl k j = match J.member k j with Some (J.List l) -> l | _ -> []

(* A campaign long enough to still be in flight when the probe looks:
   ten wide windows, dispatched one per round ([credit 1]). *)
let spec_slow =
  Campaign.normalize
    {
      spec1 with
      Campaign.offsets = List.init 10 (fun i -> 2_000 + (i * 2_000));
      window = 120_000;
    }

(* A probe client: poll [darco top]'s exact fetch until the campaign is
   visibly in flight, persist that one consistent view (top text, METR
   snapshot, HLTH document all from the same instant), ask for STAT, and
   only then submit the second campaign that lets the service exit.
   [Top.fetch] is two round trips (METR, then HLTH), so a view counts as
   in flight only when both halves say so: the scrape must already show
   the admitted campaign, not just the health document. *)
let in_flight (v : Top.view) =
  let counter n = Option.value ~default:0 (List.assoc_opt n v.metrics.Reg.counters) in
  let gauge n = Option.value ~default:0 (List.assoc_opt n v.metrics.Reg.gauges) in
  contains (Top.render v) "continuous"
  && counter "submissions_total" = 1
  && gauge "serve_campaigns_active" = 1
  && gauge "serve_windows_unsettled" > 0

let telemetry_probe dir addr =
  let save name s = write_file (Filename.concat dir name) s in
  let rec grab tries =
    match Top.fetch addr with
    | Ok v when tries = 0 || in_flight v -> Ok v
    | Error e when tries = 0 -> Error e
    | _ ->
      Unix.sleepf 0.05;
      grab (tries - 1)
  in
  (match grab 100 with
  | Error e -> save "probe.err" e
  | Ok v ->
    save "top.txt" (Top.render v);
    save "scrape.json" (J.to_string (Reg.to_json v.Top.metrics));
    save "scrape.prom" (Reg.exposition v.Top.metrics);
    save "health.json" (J.to_string v.Top.health));
  (match Client.status addr with
  | Ok (state, _, info) ->
    save "status.txt"
      (Printf.sprintf "%s %d %s" state info.Client.uptime_s
         info.Client.version)
  | Error e -> save "status.err" e);
  match Client.submit addr spec1 with
  | Ok (st, doc) ->
    save "work.stats"
      (Printf.sprintf "%d %d %d %d" st.Client.done_ st.Client.total
         st.Client.hits st.Client.dispatched);
    save "work.json" doc
  | Error e -> save "work.err" e

let test_serve_telemetry () =
  with_temp_dir @@ fun dir ->
  let metrics_file = Filename.concat dir "metrics.prom" in
  let wp, waddr = spawn_worker () in
  Fun.protect ~finally:(fun () -> reap wp) @@ fun () ->
  let pipe1 = Unix.pipe () and pipe2 = Unix.pipe () in
  let slow_pid =
    fork_client pipe1 (fun addr ->
        match Client.submit addr spec_slow with
        | Ok (st, _) ->
          write_file
            (Filename.concat dir "slow.stats")
            (Printf.sprintf "%d %d %d %d" st.Client.done_ st.Client.total
               st.Client.hits st.Client.dispatched)
        | Error e -> write_file (Filename.concat dir "slow.err") e)
  in
  let probe_pid = fork_client pipe2 (telemetry_probe dir) in
  let bus, _events = collecting_bus () in
  Serve.serve ~bus ~quiet:true ~workers:[ waddr ] ~credit:1 ~max_submissions:2
    ~metrics_file ~metrics_interval:0.2
    ~ready:(announce [ snd pipe1; snd pipe2 ])
    ~library:(Filename.concat dir "lib") ~host:"127.0.0.1" ~port:0 ();
  wait slow_pid;
  wait probe_pid;
  (* the slow campaign measured everything *)
  Alcotest.(check (list int)) "slow campaign settled every window"
    [ 10; 10; 0; 10 ]
    (let a, b, c, d = parse_stats (must_read dir "slow.stats") in
     [ a; b; c; d ]);
  (* the campaign itself is untouched by telemetry: byte-identical to
     what [darco sample --json] computes with no registry anywhere *)
  Alcotest.(check string) "document byte-identical with telemetry on"
    (Lazy.force expected_doc)
    (must_read dir "work.json");
  (* the probe's single consistent view, taken mid-campaign *)
  let top = must_read dir "top.txt" in
  Alcotest.(check bool) "top names the build" true
    (contains top ("darco serve " ^ Version.string));
  Alcotest.(check bool) "top shows the campaign row" true
    (contains top "continuous");
  Alcotest.(check bool) "top shows the worker table" true
    (contains top "up");
  let prom = must_read dir "scrape.prom" in
  Alcotest.(check bool) "exposition types the submissions counter" true
    (contains prom "# TYPE darco_submissions_total counter\n");
  Alcotest.(check bool) "one submission at probe time" true
    (contains prom "darco_submissions_total 1\n");
  (match Reg.of_json (J.parse (must_read dir "scrape.json")) with
  | Error e -> Alcotest.failf "scraped snapshot does not parse: %s" e
  | Ok s ->
    let counter n = Option.value ~default:0 (List.assoc_opt n s.Reg.counters) in
    let gauge n = Option.value ~default:0 (List.assoc_opt n s.Reg.gauges) in
    Alcotest.(check bool) "events flowed" true (counter "events_total" > 0);
    Alcotest.(check int) "one campaign active mid-flight" 1
      (gauge "serve_campaigns_active");
    Alcotest.(check bool) "windows still unsettled mid-flight" true
      (gauge "serve_windows_unsettled" > 0);
    Alcotest.(check string) "client-side exposition is the same document"
      prom (Reg.exposition s));
  let health = J.parse (must_read dir "health.json") in
  Alcotest.(check string) "health: serving" "serving" (gets "state" health);
  Alcotest.(check string) "health: build version" Version.string
    (gets "version" health);
  Alcotest.(check int) "health: protocol" Wire.protocol_version
    (geti "protocol" health);
  Alcotest.(check bool) "health: uptime counted" true
    (geti "uptime_s" health >= 0);
  Alcotest.(check bool) "health: the campaign is listed" true
    (List.exists (fun c -> gets "benchmark" c = "continuous")
       (getl "campaigns" health));
  Alcotest.(check bool) "health: the worker is up" true
    (List.exists (fun w -> gets "state" w = "up") (getl "workers" health));
  (* STAT carries the v5 tail *)
  (match String.split_on_char ' ' (must_read dir "status.txt") with
  | [ state; up; version ] ->
    Alcotest.(check string) "status state" "serving" state;
    Alcotest.(check string) "status version" Version.string version;
    Alcotest.(check bool) "status uptime" true (int_of_string up >= 0)
  | _ -> Alcotest.fail "malformed status line");
  (* the periodic dump: valid exposition text, final state on disk *)
  let dump = must_read dir "metrics.prom" in
  Alcotest.(check bool) "metrics file dumped" true (String.length dump > 0);
  Alcotest.(check bool) "final dump counts both submissions" true
    (contains dump "darco_submissions_total 2\n");
  List.iter
    (fun line ->
      if line <> "" && not (has_prefix "# TYPE darco_" line)
         && not (has_prefix "darco_" line)
      then Alcotest.failf "stray exposition line %S" line)
    (String.split_on_char '\n' dump)

let () =
  Alcotest.run "serve"
    [
      ( "campaign",
        [
          Alcotest.test_case "codec roundtrip and rejection" `Quick
            test_campaign_codec;
          Alcotest.test_case "content digests" `Quick test_campaign_digests;
          Alcotest.test_case "golden SUBM frame" `Quick test_subm_golden;
        ] );
      ( "library",
        [
          Alcotest.test_case "window artifacts" `Quick test_library_windows;
          Alcotest.test_case "corruption refused" `Quick
            test_library_corruption;
          Alcotest.test_case "checkpoint sets" `Quick test_library_checkpoints;
        ] );
      ( "service",
        [
          Alcotest.test_case "resubmit, restore, restart" `Quick
            test_serve_resubmit_and_restore;
          Alcotest.test_case "concurrent clients share work" `Quick
            test_serve_concurrent_sharing;
          Alcotest.test_case "adaptive campaign exits early" `Quick
            test_serve_adaptive_campaign;
          Alcotest.test_case "rounds run back to back" `Quick
            test_serve_rounds_unpaced;
          Alcotest.test_case "a library hit decodes no snapshot" `Quick
            test_serve_hit_decodes_nothing;
          Alcotest.test_case "malformed checkpoint index regenerates" `Quick
            test_serve_malformed_index_regenerates;
          Alcotest.test_case "fetch agrees with submit" `Quick
            test_serve_fetch_matches_submit;
          Alcotest.test_case "unreadable library files regenerate" `Quick
            test_serve_unreadable_library_files;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "scrape, top, health, metrics file" `Quick
            test_serve_telemetry;
        ] );
    ]

(* The adaptive-sampling planner and the machinery it rides on: the
   binary-search checkpoint index (against the fold it replaced), the
   snapshot phase marker, round/stop behavior on synthetic workloads, and
   the streaming sweep path producing the same document as the one-shot
   path it generalizes. *)

open Darco_sampling
module Plan = Darco_sampling.Plan
module J = Darco_obs.Jsonx

let build name = (Darco_workloads.Registry.find name).build ~scale:1 ()

(* --- the checkpoint index ---------------------------------------------- *)

(* The O(n) fold [Driver.nearest] replaced, verbatim: latest checkpoint at
   or before the target, first list element among equals, earliest
   checkpoint when none qualifies. *)
let reference_nearest (checkpoints : Driver.checkpoint list) target =
  match
    List.fold_left
      (fun best (ck : Driver.checkpoint) ->
        if ck.Driver.at <= target then
          match best with
          | Some (b : Driver.checkpoint) when b.Driver.at >= ck.Driver.at ->
            best
          | _ -> Some ck
        else best)
      None checkpoints
  with
  | Some ck -> ck
  | None -> (
    match checkpoints with
    | ck :: _ -> ck
    | [] -> invalid_arg "reference_nearest: no checkpoints")

(* One cheap shared snapshot: [nearest] only compares [at], so every
   synthetic checkpoint can reuse the same image. *)
let shared_snapshot =
  lazy
    (let ir = Darco_guest.Interp_ref.boot ~seed:3 (build "continuous") in
     Darco_guest.Interp_ref.run_until ir 2_000;
     Snapshot.capture_reference ir)

let test_nearest_matches_fold () =
  let snapshot = Lazy.force shared_snapshot in
  let gen =
    QCheck.make
      ~print:(fun (ats, t) ->
        Printf.sprintf "ats=[%s] target=%d"
          (String.concat ";" (List.map string_of_int ats))
          t)
      QCheck.Gen.(
        pair
          (map
             (fun l -> List.sort_uniq compare l)
             (list_size (int_range 1 40) (int_bound 500)))
          (int_bound 600))
  in
  let prop (ats, target) =
    let checkpoints =
      List.map (fun at -> { Driver.at; snapshot }) ats
    in
    let want = reference_nearest checkpoints target in
    Driver.nearest checkpoints target == want
    && Driver.nearest_at (Driver.index_of checkpoints) target == want
    (* the same rule over the (at, digest)-style pairs serve admits *)
    && snd
         (Driver.nearest_at
            (Driver.sort_by_at fst
               (List.map (fun (ck : Driver.checkpoint) -> (ck.Driver.at, ck))
                  checkpoints))
            target)
       == want
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:500
       ~name:"binary-search nearest matches the reference fold" gen prop)

let test_index_rejects_empty () =
  (match Driver.index_of [] with
  | _ -> Alcotest.fail "index_of accepted an empty checkpoint list"
  | exception Invalid_argument _ -> ());
  match Driver.nearest [] 0 with
  | _ -> Alcotest.fail "nearest accepted an empty checkpoint list"
  | exception Invalid_argument _ -> ()

(* --- the phase marker --------------------------------------------------- *)

let test_guest_eip () =
  let snap = Lazy.force shared_snapshot in
  let eip = Snapshot.guest_eip snap in
  (* the prefix decode must agree with a full restore *)
  let restored = Snapshot.restore_reference snap in
  Alcotest.(check int) "prefix decode matches the restored CPU"
    restored.Darco_guest.Interp_ref.cpu.Darco_guest.Cpu.eip eip;
  (* and survive the wire *)
  Alcotest.(check int) "stable across serialization" eip
    (Snapshot.guest_eip (Snapshot.of_string (Snapshot.to_string snap)))

(* --- the planner on synthetic workloads -------------------------------- *)

(* A two-phase program: a steady phase (every window measures the same
   IPC) and a noisy one.  [measure] is the deterministic "simulator". *)
let steady_offsets = List.init 20 (fun i -> i * 100)
let noisy_offsets = List.init 20 (fun i -> 10_000 + (i * 100))
let phase_of off = if off < 10_000 then 0 else 1

let measure off =
  if phase_of off = 0 then 1.0
  else 1.1 +. (0.05 *. sin (float_of_int off))

(* Drive a planner to its stop against [measure], returning the rounds
   (each a list of offsets, in dispatch-priority order). *)
let drive plan =
  let rounds = ref [] in
  let continue = ref true in
  while !continue do
    match Plan.next plan with
    | [] -> continue := false
    | chosen ->
      rounds := chosen :: !rounds;
      Plan.record plan (List.map (fun off -> (off, measure off)) chosen)
  done;
  List.rev !rounds

let adaptive_cfg =
  { Plan.default with Plan.ci_target = 0.03; round_size = 4 }

let test_adaptive_converges_early () =
  let candidates = steady_offsets @ noisy_offsets in
  let plan =
    Plan.create adaptive_cfg ~candidates ~phase_of
  in
  let rounds = drive plan in
  Alcotest.(check bool) "stopped on the confidence target" true
    (Plan.stopped plan = Some Plan.Ci_target);
  Alcotest.(check bool) "ci target met" true (Plan.ci_target_met plan);
  (* the acceptance bar: at least 30% fewer windows than the fixed-stride
     sweep of every candidate *)
  let total = List.length candidates in
  Alcotest.(check bool)
    (Printf.sprintf "early exit saves >= 30%% (%d of %d windows)"
       (Plan.completed plan) total)
    true
    (float_of_int (Plan.completed plan) <= 0.7 *. float_of_int total);
  Alcotest.(check int) "rounds recorded" (List.length rounds)
    (Plan.rounds plan)

let test_adaptive_steers_to_variance () =
  (* no early exit: let the allocation run long enough to show its hand *)
  let plan =
    Plan.create
      { adaptive_cfg with Plan.ci_target = 0.0; max_windows = 16 }
      ~candidates:(steady_offsets @ noisy_offsets)
      ~phase_of
  in
  let chosen = List.concat (drive plan) in
  Alcotest.(check bool) "stopped on the budget" true
    (Plan.stopped plan = Some Plan.Budget);
  let in_phase p = List.length (List.filter (fun o -> phase_of o = p) chosen) in
  Alcotest.(check bool)
    (Printf.sprintf "noisy phase out-sampled the steady one (%d vs %d)"
       (in_phase 1) (in_phase 0))
    true
    (in_phase 1 > in_phase 0);
  (* the predictor prices each stratum near its sample mean *)
  Alcotest.(check bool) "steady-phase prediction near 1.0" true
    (abs_float (Plan.predict plan 50 -. 1.0) < 0.05);
  Alcotest.(check bool) "noisy-phase prediction near 1.1" true
    (abs_float (Plan.predict plan 10_050 -. 1.1) < 0.1)

let test_planner_determinism () =
  let candidates = steady_offsets @ noisy_offsets in
  let run () =
    let plan = Plan.create adaptive_cfg ~candidates ~phase_of in
    drive plan
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical round sequences" true (a = b);
  (* recording a round's results in a scrambled order must not change any
     later decision: rounds are the determinism barrier *)
  let plan = Plan.create adaptive_cfg ~candidates ~phase_of in
  let rounds = ref [] in
  let continue = ref true in
  while !continue do
    match Plan.next plan with
    | [] -> continue := false
    | chosen ->
      rounds := chosen :: !rounds;
      Plan.record plan
        (List.rev_map (fun off -> (off, measure off)) chosen)
  done;
  Alcotest.(check bool) "completion order does not perturb the plan" true
    (List.rev !rounds = a)

let test_fixed_plan_order_and_stops () =
  let candidates = [ 300; 100; 200; 400; 500 ] in
  let plan =
    Plan.create
      { Plan.default with Plan.kind = Plan.Fixed; ci_target = 0.0; round_size = 2 }
      ~candidates ~phase_of:(fun _ -> 0)
  in
  let rounds = drive plan in
  Alcotest.(check bool) "ascending offsets, round_size at a time" true
    (rounds = [ [ 100; 200 ]; [ 300; 400 ]; [ 500 ] ]);
  Alcotest.(check bool) "ran out of candidates" true
    (Plan.stopped plan = Some Plan.Exhausted);
  Alcotest.(check string) "stop reasons have stable names" "exhausted"
    (Plan.stop_reason Plan.Exhausted);
  (* a window budget cuts the sweep short *)
  let plan =
    Plan.create
      { Plan.default with Plan.kind = Plan.Fixed; ci_target = 0.0;
        round_size = 2; max_windows = 3 }
      ~candidates ~phase_of:(fun _ -> 0)
  in
  Alcotest.(check bool) "budget truncates the rounds" true
    (drive plan = [ [ 100; 200 ]; [ 300 ] ]);
  Alcotest.(check bool) "stopped on the budget" true
    (Plan.stopped plan = Some Plan.Budget)

(* --- the streaming sweep path ------------------------------------------ *)

let render_result (r : Sweep.result) =
  r.Sweep.label ^ " => "
  ^ (match r.Sweep.outcome with
    | Sweep.Ok j -> J.to_string j
    | Sweep.Failed e -> "FAILED " ^ e)

let small_sweep () =
  let program = build "continuous" in
  let store = Store.create () in
  let checkpoints =
    Driver.functional_checkpoints ~seed:7 ~interval:10_000 ~horizon:40_000
      program
  in
  let mk off =
    Work.of_window_stored ~store ~checkpoints
      ~label:(Printf.sprintf "continuous@%d" off)
      ~offset:off ~window:2_000 ~warmup:1_000
  in
  (store, [ 8_000; 16_000; 24_000 ], mk)

(* A fixed plan through [run_stream] on the serial backend must rebuild
   the one-shot fork sweep's document byte for byte — the degenerate plan
   really is the existing pipeline. *)
let test_fixed_stream_matches_oneshot () =
  let store, offsets, mk = small_sweep () in
  let report rows =
    J.to_string
      (Report.sweep_json ~benchmark:"continuous" ~seed:7 ~interval:10_000
         ~window:2_000 ~warmup:1_000 rows)
        .Report.doc
  in
  let oneshot =
    report
      (List.combine offsets
         (Sweep.run (Sweep.Backend.local ~store ~jobs:2 ()) (List.map mk offsets)))
  in
  let plan =
    Plan.create
      { Plan.default with Plan.kind = Plan.Fixed; ci_target = 0.0; round_size = 2 }
      ~candidates:offsets ~phase_of:(fun _ -> 0)
  in
  let pairs =
    Sweep.run_stream
      (Sweep.Backend.serial ~store ())
      ~next:(fun _ _ -> List.map mk (Plan.next plan))
  in
  let streamed =
    report (List.map (fun ((w : Work.t), r) -> (w.Work.offset, r)) pairs)
  in
  Alcotest.(check string) "streamed fixed plan byte-identical to one-shot"
    oneshot streamed

(* The serial backend is the determinism reference: same results, same
   rendering as the fork pool, without forking. *)
let test_serial_identical_to_fork () =
  let store, offsets, mk = small_sweep () in
  let works = List.map mk offsets in
  let via_fork = Sweep.run (Sweep.Backend.local ~store ~jobs:2 ()) works in
  let via_serial = Sweep.run (Sweep.Backend.serial ~store ()) works in
  Alcotest.(check (list string)) "serial renders identically to fork"
    (List.map render_result via_fork)
    (List.map render_result via_serial)

(* An adaptive sweep chooses the same windows and produces byte-identical
   documents on every backend: rounds are the barrier, so completion
   order inside a round cannot leak into the plan. *)
let test_adaptive_backend_independent () =
  let store, _, mk = small_sweep () in
  let candidates = List.init 12 (fun i -> 4_000 + (i * 3_000)) in
  let sweep backend =
    let plan =
      Plan.create
        { Plan.default with Plan.ci_target = 0.10; round_size = 3 }
        ~candidates ~phase_of:(fun off -> off / 10_000)
    in
    let recorded = ref 0 in
    let pairs =
      Sweep.run_stream backend
        ~next:(fun _ completed ->
          let fresh = List.filteri (fun i _ -> i >= !recorded) completed in
          recorded := List.length completed;
          Plan.record plan
            (List.filter_map
               (fun ((w : Work.t), (r : Sweep.result)) ->
                 match r.Sweep.outcome with
                 | Sweep.Ok json -> (
                   match J.member "ipc" json with
                   | Some (J.Float f) -> Some (w.Work.offset, f)
                   | _ -> None)
                 | Sweep.Failed _ -> None)
               fresh);
          List.map mk (Plan.next plan))
    in
    J.to_string
      (Report.sweep_json ~benchmark:"continuous" ~seed:7 ~interval:10_000
         ~window:2_000 ~warmup:1_000
         ~plan:
           {
             Report.plan_name = "adaptive";
             windows_used = List.length pairs;
             ci_target = 0.10;
             ci_target_met = Plan.ci_target_met plan;
             rounds = Plan.rounds plan;
           }
         (List.map (fun ((w : Work.t), r) -> (w.Work.offset, r)) pairs))
        .Report.doc
  in
  let serial = sweep (Sweep.Backend.serial ~store ()) in
  let fork = sweep (Sweep.Backend.local ~store ~jobs:3 ()) in
  let domains = sweep (Sweep.Backend.domains ~store ~jobs:3 ()) in
  Alcotest.(check string) "serial and fork byte-identical" serial fork;
  Alcotest.(check string) "serial and domains byte-identical" serial domains;
  (* and the document carries the planner's summary *)
  let doc = J.parse serial in
  Alcotest.(check bool) "plan recorded in the document" true
    (J.member "plan" doc = Some (J.String "adaptive"));
  match J.member "windows_used" doc with
  | Some (J.Int n) ->
    Alcotest.(check bool) "early exit used fewer windows" true
      (n < List.length candidates)
  | _ -> Alcotest.fail "windows_used missing from the document"

let () =
  Alcotest.run "plan"
    [
      ( "index",
        [
          Alcotest.test_case "nearest matches the fold" `Quick
            test_nearest_matches_fold;
          Alcotest.test_case "empty index rejected" `Quick
            test_index_rejects_empty;
          Alcotest.test_case "guest_eip phase marker" `Quick test_guest_eip;
        ] );
      ( "planner",
        [
          Alcotest.test_case "adaptive converges early" `Quick
            test_adaptive_converges_early;
          Alcotest.test_case "variance steers allocation" `Quick
            test_adaptive_steers_to_variance;
          Alcotest.test_case "deterministic rounds" `Quick
            test_planner_determinism;
          Alcotest.test_case "fixed plan order and stops" `Quick
            test_fixed_plan_order_and_stops;
        ] );
      ( "stream",
        [
          Alcotest.test_case "fixed stream matches one-shot" `Quick
            test_fixed_stream_matches_oneshot;
          Alcotest.test_case "serial backend identical to fork" `Quick
            test_serial_identical_to_fork;
          Alcotest.test_case "adaptive backend-independent" `Quick
            test_adaptive_backend_independent;
        ] );
    ]

open Darco_guest
open Darco_host

(* --- machine: store buffer, checkpoints, speculation -------------------- *)

let fresh_machine () =
  let mem = Memory.create `Auto_zero in
  (Machine.create mem, mem)

let test_gated_stores () =
  let m, mem = fresh_machine () in
  Machine.checkpoint m;
  Machine.store m W32 0x1000 0xAABBCCDD;
  Alcotest.(check int) "memory untouched before commit" 0 (Memory.read32 mem 0x1000);
  Alcotest.(check int) "buffer forwards" 0xAABBCCDD
    (Machine.load m W32 ~signed:false 0x1000);
  Machine.commit m;
  Alcotest.(check int) "committed" 0xAABBCCDD (Memory.read32 mem 0x1000)

let test_byte_merge_forwarding () =
  let m, _ = fresh_machine () in
  Machine.checkpoint m;
  Machine.store m W32 0x1000 0x11223344;
  Machine.store m W8 0x1001 0xFF;
  Alcotest.(check int) "partial overwrite visible" 0x1122FF44
    (Machine.load m W32 ~signed:false 0x1000)

let test_rollback_discards () =
  let m, mem = fresh_machine () in
  Machine.set m 20 123;
  Machine.checkpoint m;
  Machine.set m 20 456;
  Machine.store m W32 0x2000 99;
  Machine.rollback m;
  Alcotest.(check int) "register restored" 123 (Machine.get m 20);
  Alcotest.(check int) "store discarded" 0 (Memory.read32 mem 0x2000);
  Machine.commit m;
  Alcotest.(check int) "buffer empty after rollback" 0 (Memory.read32 mem 0x2000)

let test_alias_violation () =
  let m, _ = fresh_machine () in
  Machine.checkpoint m;
  ignore (Machine.load_spec m W32 ~signed:false 0x3000);
  Machine.store m W32 0x3004 1;
  Alcotest.check_raises "overlap" Machine.Alias_violation (fun () ->
      Machine.store m W8 0x3002 7)

let test_alias_cleared_on_commit () =
  let m, _ = fresh_machine () in
  Machine.checkpoint m;
  ignore (Machine.load_spec m W32 ~signed:false 0x3000);
  Machine.commit m;
  Machine.store m W32 0x3000 1;
  Alcotest.(check int) "in flight" 4 (Machine.in_flight_stores m)

let test_commit_page_fault_keeps_buffer () =
  let mem = Memory.create `Fault in
  let m = Machine.create mem in
  Machine.checkpoint m;
  Machine.store m W32 0x5000 42;
  Alcotest.check_raises "probe faults" (Memory.Page_fault 5) (fun () ->
      Machine.commit m);
  Memory.install_page mem 5 (Bytes.make Memory.page_size '\000');
  Machine.commit m;
  Alcotest.(check int) "committed after fault" 42 (Memory.read32 mem 0x5000)

let test_zero_register () =
  let m, _ = fresh_machine () in
  Machine.set m 0 999;
  Alcotest.(check int) "r0 ignores writes" 0 (Machine.get m 0)

let test_guest_mapping_roundtrip () =
  let m, _ = fresh_machine () in
  let cpu = Cpu.create () in
  Cpu.set cpu EAX 0x11;
  Cpu.set cpu EDI 0x77;
  cpu.flags <- Flags.make ~cf:true ~zf:false ~sf:true ~of_:false;
  Cpu.setf cpu F3 2.5;
  Machine.copy_guest_in m cpu;
  Alcotest.(check int) "eax in r1" 0x11 (Machine.get m (Regs.guest EAX));
  let cpu' = Cpu.create () in
  Machine.copy_guest_out m cpu';
  cpu'.eip <- cpu.eip;
  Alcotest.(check bool) "roundtrip" true (Cpu.equal cpu cpu')

(* --- exactness: the store log against the byte hash table ---------------- *)

(* A test-only copy of the byte-level hash-table store buffer the store log
   replaced: one entry per byte, commit probes every distinct page in hash
   order, then writes byte by byte. *)
module Oracle = struct
  type t = { mem : Memory.t; sbuf : (int, int) Hashtbl.t; mutable aliases : (int * int) list }

  exception Alias_violation

  let create mem = { mem; sbuf = Hashtbl.create 16; aliases = [] }

  let checkpoint t =
    Hashtbl.reset t.sbuf;
    t.aliases <- []

  let rollback = checkpoint

  let commit t =
    if Hashtbl.length t.sbuf <> 0 then begin
      let probed = ref [] in
      Hashtbl.iter
        (fun addr _ ->
          let p = Memory.page_index addr in
          if not (List.mem p !probed) then begin
            ignore (Memory.read8 t.mem addr);
            probed := p :: !probed
          end)
        t.sbuf;
      Hashtbl.iter (fun addr v -> Memory.write8 t.mem addr v) t.sbuf;
      Hashtbl.reset t.sbuf
    end;
    t.aliases <- []

  let in_flight_stores t = Hashtbl.length t.sbuf

  let load_byte t addr =
    match Hashtbl.find_opt t.sbuf addr with Some v -> v | None -> Memory.read8 t.mem addr

  let raw_load t (w : Isa.width) addr =
    if Hashtbl.length t.sbuf = 0 then Memory.read t.mem w addr
    else
      match w with
      | W8 -> load_byte t addr
      | W16 -> load_byte t addr lor (load_byte t (addr + 1) lsl 8)
      | W32 ->
        load_byte t addr
        lor (load_byte t (addr + 1) lsl 8)
        lor (load_byte t (addr + 2) lsl 16)
        lor (load_byte t (addr + 3) lsl 24)

  let load t w ~signed addr =
    let v = raw_load t w addr in
    if signed then Semantics.sign_extend w v else v

  let load_spec t w ~signed addr =
    let v = load t w ~signed addr in
    t.aliases <- (addr, Isa.width_bytes w) :: t.aliases;
    v

  let overlaps a la b lb = a < b + lb && b < a + la

  let store t (w : Isa.width) addr v =
    let len = Isa.width_bytes w in
    if List.exists (fun (a, l) -> overlaps a l addr len) t.aliases then raise Alias_violation;
    for i = 0 to len - 1 do
      Hashtbl.replace t.sbuf (addr + i) ((v lsr (8 * i)) land 0xFF)
    done
end

type sb_op =
  | Store of Isa.width * int * int
  | Load of Isa.width * bool * int
  | Load_spec of Isa.width * bool * int
  | Checkpoint
  | Commit
  | Rollback

let sb_pages = [| 4; 5; 6; 7 |]

(* The page a fault installs: the same contents on both sides. *)
let sb_page idx = Bytes.init Memory.page_size (fun i -> Char.chr (((idx * 37) + (i * 11)) land 0xFF))

let gen_sb_case seed =
  let rng = Darco_util.Rng.create seed in
  let module R = Darco_util.Rng in
  let addr () =
    (R.choose rng sb_pages * Memory.page_size) + R.in_range rng (-5) 4
  in
  let width () = R.choose rng [| Isa.W8; W16; W32 |] in
  let present = List.filter (fun _ -> R.bool rng) (Array.to_list sb_pages) in
  let ops =
    List.init (5 + R.int rng 40) (fun _ ->
        match R.int rng 20 with
        | 0 | 1 | 2 | 3 | 4 | 5 | 6 | 7 -> Store (width (), addr (), R.int rng 0x40000000 * 4 + R.int rng 4)
        | 8 | 9 | 10 | 11 -> Load (width (), R.bool rng, addr ())
        | 12 | 13 -> Load_spec (width (), R.bool rng, addr ())
        | 14 -> Checkpoint
        | 15 | 16 | 17 -> Commit
        | _ -> Rollback)
  in
  (present, ops)

type sb_outcome = Value of int | Aliased | Unit

(* Run [f], servicing page faults the way the controller does (install the
   page, retry), and report the pages it faulted on in order.  A faulting
   attempt must have left memory as it found it. *)
let with_faults mem f =
  let image () =
    List.map (fun p -> (p, Bytes.copy (Memory.get_page mem p))) (Memory.touched_pages mem)
  in
  let rec go faults =
    let before = image () in
    match f () with
    | v -> (v, List.rev faults)
    | exception Memory.Page_fault p ->
      if List.length faults > 8 then Alcotest.fail "fault loop";
      if image () <> before then QCheck.Test.fail_report "a fault left memory modified";
      Memory.install_page mem p (sb_page p);
      go (p :: faults)
  in
  go []

let prop_store_log_matches_oracle =
  QCheck.Test.make ~name:"store log = byte hash-table store buffer" ~count:1500
    (QCheck.make QCheck.Gen.int) (fun seed ->
      let present, ops = gen_sb_case seed in
      let mk () =
        let mem = Memory.create `Fault in
        List.iter (fun p -> Memory.install_page mem p (sb_page p)) present;
        mem
      in
      let mem_a = mk () and mem_b = mk () in
      let a = Machine.create mem_a and b = Oracle.create mem_b in
      List.iteri
        (fun i op ->
          let run_a () =
            match op with
            | Store (w, addr, v) -> (
              match Machine.store a w addr v with
              | () -> Unit
              | exception Machine.Alias_violation -> Aliased)
            | Load (w, signed, addr) -> Value (Machine.load a w ~signed addr)
            | Load_spec (w, signed, addr) -> Value (Machine.load_spec a w ~signed addr)
            | Checkpoint -> Machine.checkpoint a; Unit
            | Commit -> Machine.commit a; Unit
            | Rollback -> Machine.rollback a; Unit
          in
          let run_b () =
            match op with
            | Store (w, addr, v) -> (
              match Oracle.store b w addr v with
              | () -> Unit
              | exception Oracle.Alias_violation -> Aliased)
            | Load (w, signed, addr) -> Value (Oracle.load b w ~signed addr)
            | Load_spec (w, signed, addr) -> Value (Oracle.load_spec b w ~signed addr)
            | Checkpoint -> Oracle.checkpoint b; Unit
            | Commit -> Oracle.commit b; Unit
            | Rollback -> Oracle.rollback b; Unit
          in
          let ra, fa = with_faults mem_a run_a and rb, fb = with_faults mem_b run_b in
          let fail what = QCheck.Test.fail_reportf "op %d: %s differs" i what in
          if ra <> rb then fail "outcome";
          (* a commit over several absent pages may meet them in another
             order; loads meet them in the same one *)
          (match op with
          | Commit -> if List.sort compare fa <> List.sort compare fb then fail "fault set"
          | _ -> if fa <> fb then fail "faults");
          if Machine.in_flight_stores a <> Oracle.in_flight_stores b then fail "in-flight bytes")
        ops;
      Memory.touched_pages mem_a = Memory.touched_pages mem_b
      && List.for_all (Memory.equal_page mem_a mem_b) (Memory.touched_pages mem_a))

(* The byte view a snapshot stores: the newest value of every byte. *)
let test_pending_bytes () =
  let m, _ = fresh_machine () in
  Machine.store m W32 0x1FFE 0x44332211;
  Machine.store m W8 0x1FFF 0xAA;
  Machine.store m W16 0x2001 0xBBCC;
  Alcotest.(check (list (pair int int))) "byte view"
    [ (0x1FFE, 0x11); (0x1FFF, 0xAA); (0x2000, 0x33); (0x2001, 0xCC); (0x2002, 0xBB) ]
    (Machine.pending_bytes m);
  Alcotest.(check int) "distinct bytes in flight" 5 (Machine.in_flight_stores m)

(* A warm store/load/commit cycle, the region epilogue's work, allocates
   nothing, however many stores a region gates. *)
let test_store_log_allocation_free () =
  let m, _ = fresh_machine () in
  let cycle () =
    Machine.checkpoint m;
    for i = 0 to 99 do
      Machine.store m W32 (0x1000 + (i * 4)) i;
      Machine.store m W8 (0x1FFF - i) i
    done;
    ignore (Machine.load m W32 ~signed:false 0x1010);
    ignore (Machine.load m W16 ~signed:true 0x1FFE);
    Machine.commit m;
    ignore (Machine.load m W32 ~signed:false 0x1010)
  in
  cycle ();
  let before = Gc.minor_words () in
  for _ = 1 to 100 do
    cycle ()
  done;
  let words = Gc.minor_words () -. before in
  if words > 0.0 then Alcotest.failf "100 store/commit cycles allocated %.0f minor words" words

(* --- flagcalc vs shared semantics ---------------------------------------- *)

let prop_flagcalc_add_sub =
  QCheck.Test.make ~name:"Mkfl add/sub matches Semantics.alu" ~count:1000
    QCheck.(triple bool (int_bound 0xFFFFFF) (int_bound 0xFFFFFF))
    (fun (is_add, a0, b0) ->
      let a = Semantics.mask32 (a0 * 2654435761) in
      let b = Semantics.mask32 (b0 * 40503) in
      let kind : Code.flkind = if is_add then Fl_add else Fl_sub in
      let op : Isa.alu_op = if is_add then Add else Sub in
      Flagcalc.compute kind ~a ~b ~c:0 = snd (Semantics.alu op ~cf_in:false a b))

let prop_flagcalc_shift =
  QCheck.Test.make ~name:"Mkfl shifts match Semantics.shift" ~count:1000
    QCheck.(triple (int_bound 4) (int_bound 0xFFFFFF) (int_bound 40))
    (fun (k, v0, count) ->
      let v = Semantics.mask32 (v0 * 2654435761) in
      let kind : Code.flkind =
        match k with 0 -> Fl_shl | 1 -> Fl_shr | 2 -> Fl_sar | 3 -> Fl_rol | _ -> Fl_ror
      in
      let op : Isa.shift_op =
        match k with 0 -> Shl | 1 -> Shr | 2 -> Sar | 3 -> Rol | _ -> Ror
      in
      let incoming = 0b1010 in
      Flagcalc.compute kind ~a:v ~b:count ~c:incoming
      = snd (Semantics.shift op v ~count ~flags:incoming))

(* --- emulator: hand-built regions ---------------------------------------- *)

let mk_region ?(mode = `Super) ?(id = 0) ?(entry_pc = 0x1000) code : Code.region =
  {
    id;
    entry_pc;
    mode;
    base = 0xC0000000 + (id * 0x1000);
    code;
    incoming = [];
    invalidated = false;
  }

let exit_info ?(kind = Code.Exit_halt) ?(retired = 0) () : Code.exit_info =
  { exit_id = 0; kind; guest_retired = retired; chain = None; prefer_bb = false }

let run_region ?(fuel = 100000) m region =
  Emulator.run m ~resolve:(fun _ -> None) ~fuel region

let test_emulator_basic_alu () =
  let m, _ = fresh_machine () in
  let region =
    mk_region
      [|
        Code.Chk;
        Code.Li (20, 21);
        Code.Bini (Add, 21, 20, 21);
        Code.Bin (Mul, 22, 21, 20);
        Code.Commit 3;
        Code.Exit (exit_info ());
      |]
  in
  let res = run_region m region in
  Alcotest.(check int) "li+addi" 42 (Machine.get m 21);
  Alcotest.(check int) "mul" (42 * 21) (Machine.get m 22);
  Alcotest.(check int) "host retired" 6 res.host_retired;
  Alcotest.(check int) "guest credited to super" 3 res.guest_super;
  match res.stop with
  | Emulator.Stop_exit e -> Alcotest.(check bool) "halt exit" true (e.kind = Code.Exit_halt)
  | _ -> Alcotest.fail "expected exit"

let test_emulator_assert_rollback () =
  let m, mem = fresh_machine () in
  Machine.set m 20 5;
  let region =
    mk_region
      [|
        Code.Chk;
        Code.Li (21, 1);
        Code.Bin (Add, 20, 20, 21);
        Code.Store (W32, 20, 0, 0x4000);
        Code.Assert (Beq, 21, 0);
        Code.Commit 2;
        Code.Exit (exit_info ());
      |]
  in
  let res = run_region m region in
  (match res.stop with
  | Emulator.Stop_rollback (`Assert, r) -> Alcotest.(check int) "region id" 0 r.id
  | _ -> Alcotest.fail "expected rollback");
  Alcotest.(check int) "register rolled back" 5 (Machine.get m 20);
  Alcotest.(check int) "store never committed" 0 (Memory.read32 mem 0x4000);
  Alcotest.(check int) "no guest retired" 0 res.guest_super;
  Alcotest.(check bool) "wasted work counted" true (res.wasted_host > 0)

let test_emulator_chaining_and_fuel () =
  let m, _ = fresh_machine () in
  let b =
    mk_region ~id:2
      [|
        Code.Chk;
        Code.Bini (Add, 20, 20, 1);
        Code.Commit 1;
        Code.Exit (exit_info ~kind:(Code.Exit_direct 0x2000) ());
      |]
  in
  let exit_a = exit_info ~kind:(Code.Exit_direct 0x1000) () in
  let a = mk_region ~id:1 [| Code.Chk; Code.Commit 1; Code.Exit exit_a |] in
  exit_a.chain <- Some b;
  b.incoming <- [ exit_a ];
  let res = run_region m a in
  Alcotest.(check int) "chain followed" 1 res.chains_followed;
  Alcotest.(check int) "both retired" 2 (res.guest_super + res.guest_bb);
  (match res.stop with
  | Emulator.Stop_exit e ->
    Alcotest.(check bool) "stopped at B's exit" true (e.kind = Code.Exit_direct 0x2000)
  | _ -> Alcotest.fail "expected exit");
  let exit_loop = exit_info ~kind:(Code.Exit_direct 0x3000) () in
  let looper =
    mk_region ~id:3 ~entry_pc:0x3000 [| Code.Chk; Code.Commit 1; Code.Exit exit_loop |]
  in
  exit_loop.chain <- Some looper;
  let res = Emulator.run m ~resolve:(fun _ -> None) ~fuel:50 looper in
  match res.stop with
  | Emulator.Stop_fuel pc -> Alcotest.(check int) "fuel resumes at entry" 0x3000 pc
  | _ -> Alcotest.fail "expected fuel stop"

let test_emulator_invalidated_chain_not_followed () =
  let m, _ = fresh_machine () in
  let dead = mk_region ~id:9 [| Code.Chk; Code.Commit 0; Code.Exit (exit_info ()) |] in
  dead.invalidated <- true;
  let e = exit_info ~kind:(Code.Exit_direct 0x5000) () in
  e.chain <- Some dead;
  let a = mk_region ~id:8 [| Code.Chk; Code.Commit 1; Code.Exit e |] in
  let res = run_region m a in
  match res.stop with
  | Emulator.Stop_exit e' ->
    Alcotest.(check bool) "fell back to TOL" true (e'.kind = Code.Exit_direct 0x5000)
  | _ -> Alcotest.fail "expected exit"

let test_emulator_branches () =
  let m, _ = fresh_machine () in
  Machine.set m 20 7;
  let region =
    mk_region
      [|
        Code.Chk;
        Code.Li (21, 7);
        Code.B (Beq, 20, 21, 5);
        Code.Li (22, 666);
        Code.J 6;
        Code.Li (22, 42);
        Code.Commit 1;
        Code.Exit (exit_info ());
      |]
  in
  ignore (run_region m region);
  Alcotest.(check int) "took branch" 42 (Machine.get m 22)

let test_emulator_jr_resolution () =
  let m, _ = fresh_machine () in
  let target =
    mk_region ~id:5 ~entry_pc:0x7777
      [| Code.Chk; Code.Bini (Add, 22, 0, 55); Code.Commit 1; Code.Exit (exit_info ()) |]
  in
  let resolve addr = if addr = target.base then Some target else None in
  Machine.set m 20 target.base;
  Machine.set m 21 0x7777;
  let region = mk_region ~id:6 [| Code.Chk; Code.Commit 1; Code.Jr (20, 21) |] in
  let res = Emulator.run m ~resolve ~fuel:1000 region in
  Alcotest.(check int) "entered target" 55 (Machine.get m 22);
  Machine.set m 20 0xDEAD0000;
  let res2 = Emulator.run m ~resolve ~fuel:1000 region in
  (match res2.stop with
  | Emulator.Stop_indirect_miss pc -> Alcotest.(check int) "guest pc fallback" 0x7777 pc
  | _ -> Alcotest.fail "expected indirect miss");
  ignore res

let test_emulator_callrt_weight () =
  let m, _ = fresh_machine () in
  m.f.(8) <- 0.5;
  let region =
    mk_region
      [| Code.Chk; Code.Callrt_f (Rt_sin, 9, 8); Code.Commit 1; Code.Exit (exit_info ()) |]
  in
  let res = run_region m region in
  Alcotest.(check (float 1e-12)) "sin computed" (sin 0.5) m.f.(9);
  Alcotest.(check int) "stream weight includes rt cost"
    (3 + Code.rt_cost Rt_sin)
    res.host_retired

let test_emulator_isel_mkfl () =
  let m, _ = fresh_machine () in
  let region =
    mk_region
      [|
        Code.Chk;
        Code.Li (20, 3);
        Code.Li (21, 5);
        Code.Mkfl (Fl_sub, 22, 20, 21, 0);
        Code.Bini (And, 23, 22, 1);
        Code.Isel (24, 23, 20, 21);
        Code.Commit 1;
        Code.Exit (exit_info ());
      |]
  in
  ignore (run_region m region);
  Alcotest.(check int) "flags via mkfl"
    (snd (Semantics.alu Sub ~cf_in:false 3 5))
    (Machine.get m 22);
  Alcotest.(check int) "isel picked true side" 3 (Machine.get m 24)

let prop_emulator_binop_vs_semantics =
  QCheck.Test.make ~name:"host ALU = shared semantics" ~count:1000
    QCheck.(triple (int_bound 13) (int_bound 0xFFFFFF) (int_bound 0xFFFFFF))
    (fun (opi, a0, b0) ->
      let ops : Code.binop array =
        [| Add; Sub; Mul; Mulhu; Mulhs; And; Or; Xor; Shl; Shr; Sar; Slt; Sltu; Seq |]
      in
      let op = ops.(opi) in
      let a = Semantics.mask32 (a0 * 48271) in
      let b = Semantics.mask32 (b0 * 69621) in
      let v = Emulator.eval_binop op a b in
      let expected =
        match op with
        | Add -> Semantics.mask32 (a + b)
        | Sub -> Semantics.mask32 (a - b)
        | Mul ->
          let lo, _, _ = Semantics.mul_u a b in
          lo
        | Mulhu ->
          let _, hi, _ = Semantics.mul_u a b in
          hi
        | Mulhs ->
          let _, hi, _ = Semantics.mul_s a b in
          hi
        | And -> a land b
        | Or -> a lor b
        | Xor -> a lxor b
        | Shl -> Semantics.mask32 (a lsl (b land 31))
        | Shr -> a lsr (b land 31)
        | Sar -> Semantics.mask32 (Semantics.signed a asr (b land 31))
        | Slt -> if Semantics.signed a < Semantics.signed b then 1 else 0
        | Sltu -> if a < b then 1 else 0
        | Seq -> if a = b then 1 else 0
        | Sne -> if a <> b then 1 else 0
      in
      v = expected)

let test_defs_uses_consistency () =
  let i = Code.Bin (Add, 20, 21, 22) in
  Alcotest.(check (list int)) "defs" [ 20 ] (Code.defs i);
  Alcotest.(check (list int)) "uses" [ 21; 22 ] (Code.uses i);
  let s = Code.Store (W32, 20, 21, 0) in
  Alcotest.(check (list int)) "store defs nothing" [] (Code.defs s);
  Alcotest.(check (list int)) "store uses" [ 20; 21 ] (Code.uses s);
  let z = Code.Bin (Add, 0, 0, 21) in
  Alcotest.(check (list int)) "r0 filtered from defs" [] (Code.defs z);
  Alcotest.(check (list int)) "r0 filtered from uses" [ 21 ] (Code.uses z);
  let f = Code.Fbin (Fadd, 8, 9, 10) in
  Alcotest.(check (list int)) "fdefs" [ 8 ] (Code.fdefs f);
  Alcotest.(check (list int)) "fuses" [ 9; 10 ] (Code.fuses f)

let () =
  Alcotest.run "host"
    [
      ( "machine",
        [
          Alcotest.test_case "gated stores" `Quick test_gated_stores;
          Alcotest.test_case "byte merge forwarding" `Quick test_byte_merge_forwarding;
          Alcotest.test_case "rollback" `Quick test_rollback_discards;
          Alcotest.test_case "alias violation" `Quick test_alias_violation;
          Alcotest.test_case "alias cleared on commit" `Quick test_alias_cleared_on_commit;
          Alcotest.test_case "commit fault keeps buffer" `Quick
            test_commit_page_fault_keeps_buffer;
          Alcotest.test_case "zero register" `Quick test_zero_register;
          Alcotest.test_case "guest mapping" `Quick test_guest_mapping_roundtrip;
          QCheck_alcotest.to_alcotest prop_store_log_matches_oracle;
          Alcotest.test_case "pending byte view" `Quick test_pending_bytes;
          Alcotest.test_case "store log allocates nothing" `Quick
            test_store_log_allocation_free;
        ] );
      ( "flagcalc",
        [
          QCheck_alcotest.to_alcotest prop_flagcalc_add_sub;
          QCheck_alcotest.to_alcotest prop_flagcalc_shift;
        ] );
      ( "emulator",
        [
          Alcotest.test_case "basic alu" `Quick test_emulator_basic_alu;
          Alcotest.test_case "assert rollback" `Quick test_emulator_assert_rollback;
          Alcotest.test_case "chaining + fuel" `Quick test_emulator_chaining_and_fuel;
          Alcotest.test_case "invalidated chain" `Quick
            test_emulator_invalidated_chain_not_followed;
          Alcotest.test_case "branches" `Quick test_emulator_branches;
          Alcotest.test_case "jr resolution" `Quick test_emulator_jr_resolution;
          Alcotest.test_case "runtime call weight" `Quick test_emulator_callrt_weight;
          Alcotest.test_case "isel + mkfl" `Quick test_emulator_isel_mkfl;
          QCheck_alcotest.to_alcotest prop_emulator_binop_vs_semantics;
          Alcotest.test_case "def/use sets" `Quick test_defs_uses_consistency;
        ] );
    ]

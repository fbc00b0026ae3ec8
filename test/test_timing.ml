open Darco_timing
module Code = Darco_host.Code
module Emulator = Darco_host.Emulator

(* --- cache --------------------------------------------------------------- *)

let small_geom : Tconfig.cache_geom = { sets = 4; ways = 2; line = 64; latency = 2 }

let mk_cache ?(geom = small_geom) () =
  Cache.create ~name:"test" geom ~parent:(fun _ ~is_write:_ -> 100)

let test_cache_hit_miss () =
  let c = mk_cache () in
  Alcotest.(check int) "cold miss" 102 (Cache.access c 0x1000 ~is_write:false);
  Alcotest.(check int) "hit" 2 (Cache.access c 0x1000 ~is_write:false);
  Alcotest.(check int) "same line hit" 2 (Cache.access c 0x1020 ~is_write:false);
  Alcotest.(check int) "different line misses" 102 (Cache.access c 0x1040 ~is_write:false);
  let st = Cache.stats c in
  Alcotest.(check int) "accesses" 4 st.accesses;
  Alcotest.(check int) "misses" 2 st.misses

let test_cache_lru_eviction () =
  let c = mk_cache () in
  (* set 0 with 2 ways: three conflicting lines *)
  let addr k = k * small_geom.line * small_geom.sets in
  ignore (Cache.access c (addr 1) ~is_write:false);
  ignore (Cache.access c (addr 2) ~is_write:false);
  ignore (Cache.access c (addr 1) ~is_write:false);
  (* 2 is now LRU; 3 evicts it *)
  ignore (Cache.access c (addr 3) ~is_write:false);
  Alcotest.(check bool) "1 survives" true (Cache.contains c (addr 1));
  Alcotest.(check bool) "2 evicted" false (Cache.contains c (addr 2))

let test_cache_writeback () =
  let c = mk_cache () in
  let addr k = k * small_geom.line * small_geom.sets in
  ignore (Cache.access c (addr 1) ~is_write:true);
  ignore (Cache.access c (addr 2) ~is_write:false);
  ignore (Cache.access c (addr 3) ~is_write:false);
  Alcotest.(check int) "dirty eviction wrote back" 1 (Cache.stats c).writebacks

let test_cache_prefetch_fill () =
  let c = mk_cache () in
  Cache.prefetch c 0x4000;
  Alcotest.(check bool) "present" true (Cache.contains c 0x4000);
  Alcotest.(check int) "demand hit after prefetch" 2
    (Cache.access c 0x4000 ~is_write:false);
  Alcotest.(check int) "no demand miss counted" 0 (Cache.stats c).misses

(* --- tlb ------------------------------------------------------------------ *)

let test_tlb () =
  let t = Tlb.create { entries = 2; latency = 0 } ~parent:(fun _ -> 30) in
  Alcotest.(check int) "cold" 30 (Tlb.access t 0x1000);
  Alcotest.(check int) "hit" 0 (Tlb.access t 0x1abc);
  ignore (Tlb.access t 0x2000);
  ignore (Tlb.access t 0x3000);
  (* 0x1000 was LRU-evicted by the third page *)
  Alcotest.(check int) "evicted" 30 (Tlb.access t 0x1000);
  Alcotest.(check bool) "miss rate sane" true (Tlb.miss_rate t > 0.5)

(* --- branch predictor ------------------------------------------------------ *)

let test_predictor_learns_bias () =
  let p = Predictor.create Tconfig.default in
  let pc = 0x1000 in
  for _ = 1 to 100 do
    ignore (Predictor.observe p ~pc ~taken:true ~target:0x2000)
  done;
  let taken, target = Predictor.predict p ~pc in
  Alcotest.(check bool) "predicts taken" true taken;
  Alcotest.(check (option int)) "btb target" (Some 0x2000) target;
  Alcotest.(check bool) "high accuracy" true (Predictor.accuracy p > 0.9)

let test_predictor_alternating_pattern () =
  (* gshare with history should learn a strict alternation *)
  let p = Predictor.create Tconfig.default in
  let pc = 0x3000 in
  let mispredicts_late = ref 0 in
  for i = 1 to 400 do
    let taken = i mod 2 = 0 in
    match Predictor.observe p ~pc ~taken ~target:0x4000 with
    | `Mispredict when i > 200 -> incr mispredicts_late
    | _ -> ()
  done;
  Alcotest.(check bool) "pattern learned" true (!mispredicts_late < 20)

let test_predictor_btb_miss_counts () =
  let p = Predictor.create Tconfig.default in
  (* taken branch with no BTB entry: mispredict even if direction right *)
  for _ = 1 to 5 do
    ignore (Predictor.observe p ~pc:0x1000 ~taken:true ~target:0x2000)
  done;
  Alcotest.(check bool) "btb misses recorded" true ((Predictor.stats p).btb_misses >= 1)

(* --- prefetcher ------------------------------------------------------------ *)

let test_stride_prefetcher () =
  let dl1 = mk_cache ~geom:{ sets = 64; ways = 4; line = 64; latency = 2 } () in
  let pf = Prefetch.create Tconfig.default ~into:dl1 in
  (* constant stride of 256 bytes from one load PC *)
  for i = 0 to 9 do
    Prefetch.observe pf ~pc:0x1000 ~addr:(0x10000 + (i * 256))
  done;
  Alcotest.(check bool) "prefetches issued" true ((Prefetch.stats pf).issued > 0);
  (* the next strided line should already be resident *)
  Alcotest.(check bool) "next line resident" true (Cache.contains dl1 (0x10000 + (10 * 256)))

let test_prefetcher_ignores_random () =
  let dl1 = mk_cache () in
  let pf = Prefetch.create Tconfig.default ~into:dl1 in
  let rng = Darco_util.Rng.create 4 in
  for _ = 0 to 30 do
    Prefetch.observe pf ~pc:0x1000 ~addr:(Darco_util.Rng.int rng 0x100000)
  done;
  Alcotest.(check bool) "no stable stride, few prefetches" true
    ((Prefetch.stats pf).issued <= 4)

(* --- pipeline --------------------------------------------------------------- *)

let ri ?(pc = 0xC0000000) ?mem ?branch insn : Emulator.retire_info =
  { host_pc = pc; insn; mem_access = mem; branch }

let feed cfg stream =
  let p = Pipeline.create cfg in
  List.iter (Pipeline.step p) stream;
  p

let nop_stream n = List.init n (fun i -> ri ~pc:(0xC0000000 + (4 * i)) (Code.Li (20, i)))

let test_pipeline_width_bound () =
  let p = feed Tconfig.default (nop_stream 1000) in
  let s = Pipeline.summary p in
  Alcotest.(check bool) "IPC less than issue width" true
    (s.ipc <= float_of_int Tconfig.default.issue_width +. 0.001);
  Alcotest.(check int) "all retired" 1000 s.instructions;
  (* wider core must not be slower *)
  let pw = feed Tconfig.wide (nop_stream 1000) in
  Alcotest.(check bool) "wide >= narrow IPC" true
    ((Pipeline.summary pw).ipc >= s.ipc -. 0.001)

let test_pipeline_dependency_chain () =
  (* a serial dependency chain cannot exceed IPC 1 *)
  let chain = List.init 600 (fun i -> ri ~pc:(0xC0000000 + (4 * i)) (Code.Bini (Add, 20, 20, 1))) in
  let p = feed Tconfig.wide chain in
  Alcotest.(check bool) "chain serializes" true ((Pipeline.summary p).ipc <= 1.01);
  (* independent instructions on a wide core do better *)
  let par =
    List.init 600 (fun i -> ri ~pc:(0xC0000000 + (4 * i)) (Code.Bini (Add, 20 + (i mod 8), 21, 1)))
  in
  let p2 = feed Tconfig.wide par in
  Alcotest.(check bool) "parallel faster" true
    ((Pipeline.summary p2).ipc > (Pipeline.summary p).ipc)

let test_pipeline_memory_latency () =
  (* dependent loads with cache-hostile strides are slower than hits *)
  let loads stride =
    List.init 500 (fun i ->
        ri ~pc:0xC0000000
          ~mem:(0x10000 + (i * stride), `Load)
          (Code.Load (W32, false, 20, 21, 0)))
  in
  let hot = feed Tconfig.default (loads 0) in
  let cold = feed { Tconfig.default with prefetch = false } (loads 8192) in
  Alcotest.(check bool) "misses cost cycles" true
    (Pipeline.cycles cold > Pipeline.cycles hot);
  Alcotest.(check bool) "miss rates ordered" true
    ((Pipeline.summary cold).dl1_miss_rate > (Pipeline.summary hot).dl1_miss_rate)

let test_pipeline_mispredict_penalty () =
  let branchy taken_fn =
    List.init 800 (fun i ->
        ri ~pc:0xC0000000
          ~branch:(taken_fn i, 0xC0001000)
          (Code.B (Beq, 20, 21, 5)))
  in
  let predictable = feed Tconfig.default (branchy (fun _ -> true)) in
  (* adversarial: pseudo-random direction *)
  let rng = Darco_util.Rng.create 9 in
  let random = feed Tconfig.default (branchy (fun _ -> Darco_util.Rng.bool rng)) in
  Alcotest.(check bool) "mispredicts slow the core" true
    (Pipeline.cycles random > Pipeline.cycles predictable)

let test_pipeline_long_ops () =
  let sins =
    List.init 50 (fun _ -> ri (Code.Callrt_f (Rt_sin, 8, 9)))
  in
  let p = feed Tconfig.default sins in
  Alcotest.(check bool) "transcendentals occupy the unit" true
    (Pipeline.cycles p >= 50 * Code.rt_cost Rt_sin);
  Alcotest.(check int) "stream weight" (50 * Code.rt_cost Rt_sin) (Pipeline.instructions p)

let prop_pipeline_monotone_cycles =
  QCheck.Test.make ~name:"cycles grow monotonically with the stream" ~count:50
    QCheck.small_int (fun seed ->
      let rng = Darco_util.Rng.create seed in
      let p = Pipeline.create Tconfig.default in
      let ok = ref true in
      let last = ref 0 in
      for i = 0 to 300 do
        let insn : Code.insn =
          match Darco_util.Rng.int rng 5 with
          | 0 -> Code.Li (20, i)
          | 1 -> Code.Bin (Add, 21, 20, 21)
          | 2 -> Code.Load (W32, false, 22, 21, 0)
          | 3 -> Code.Store (W32, 22, 21, 0)
          | _ -> Code.Fbin (Fmul, 8, 9, 10)
        in
        let mem =
          match insn with
          | Code.Load _ -> Some (Darco_util.Rng.int rng 0x40000, `Load)
          | Code.Store _ -> Some (Darco_util.Rng.int rng 0x40000, `Store)
          | _ -> None
        in
        Pipeline.step p (ri ?mem ~pc:(0xC0000000 + (4 * i)) insn);
        let c = Pipeline.cycles p in
        if c < !last then ok := false;
        last := c
      done;
      !ok)

let test_events_populated () =
  let p =
    feed Tconfig.default
      (List.init 100 (fun i ->
           ri ~pc:(0xC0000000 + (4 * i))
             ~mem:(0x5000 + (4 * i), `Load)
             (Code.Load (W32, false, 20, 21, 0))))
  in
  let e = Pipeline.events p in
  Alcotest.(check int) "mem reads" 100 e.e_mem_reads;
  Alcotest.(check bool) "cycles" true (e.e_cycles > 0);
  Alcotest.(check bool) "regfile activity" true (e.e_regfile_writes > 0)

(* --- exactness: the allocation-free step against the list-based one ----- *)

(* A test-only copy of the list-based timing model the allocation-free
   [Pipeline.step] replaced: fresh operand lists per instruction, a tuple
   from [classify], a closure-driven unit pick, [mod]-indexed rings,
   option-returning cache lookups, full TLB folds and a tuple-returning
   branch predictor.  It exports its state as a [Pipeline.persisted] so the
   two can be compared field for field. *)
module Oracle = struct
  let strip = List.filter (fun r -> r <> 0)

  let defs : Code.insn -> int list = function
    | Li (rd, _) | Bin (_, rd, _, _) | Bini (_, rd, _, _)
    | Load (_, _, rd, _, _) | Sload (_, _, rd, _, _)
    | Fcmp (rd, _, _) | Cvtfi (rd, _) | Mkfl (_, rd, _, _, _) | Isel (rd, _, _, _) ->
      strip [ rd ]
    | Callrt_div { q; r; _ } -> strip [ q; r ]
    | _ -> []

  let uses : Code.insn -> int list = function
    | Bin (_, _, ra, rb) | B (_, ra, rb, _) | Assert (_, ra, rb) -> strip [ ra; rb ]
    | Mkfl (_, _, ra, rb, rc) -> strip [ ra; rb; rc ]
    | Isel (_, rc, ra, rb) -> strip [ rc; ra; rb ]
    | Bini (_, _, ra, _) | Load (_, _, _, ra, _) | Sload (_, _, _, ra, _)
    | Fload (_, ra, _) | Cvtif (_, ra) ->
      strip [ ra ]
    | Store (_, rv, ra, _) -> strip [ rv; ra ]
    | Fstore (_, ra, _) -> strip [ ra ]
    | Jr (ra, rg) -> strip [ ra; rg ]
    | Callrt_div { hi; lo; d; _ } -> strip [ hi; lo; d ]
    | Exit e -> ( match e.kind with Exit_indirect r -> strip [ r ] | _ -> [])
    | _ -> []

  let fdefs : Code.insn -> int list = function
    | Fli (fd, _) | Fmov (fd, _) | Fbin (_, fd, _, _) | Fun (_, fd, _) | Fload (fd, _, _)
    | Cvtif (fd, _) | Callrt_f (_, fd, _) ->
      [ fd ]
    | _ -> []

  let fuses : Code.insn -> int list = function
    | Fmov (_, fs) | Fun (_, _, fs) | Cvtfi (_, fs) | Callrt_f (_, _, fs) -> [ fs ]
    | Fbin (_, _, fa, fb) | Fcmp (_, fa, fb) -> [ fa; fb ]
    | Fstore (fv, _, _) -> [ fv ]
    | _ -> []

  module Cache = struct
    type line = { mutable tag : int; mutable valid : bool; mutable dirty : bool; mutable lru : int }

    type t = {
      geom : Tconfig.cache_geom;
      sets : line array array;
      parent : int -> is_write:bool -> int;
      stats : Cache.stats;
      mutable tick : int;
      line_bits : int;
      set_bits : int;
      set_mask : int;
    }

    let log2 n =
      let rec go k v = if v >= n then k else go (k + 1) (v * 2) in
      go 0 1

    let create (geom : Tconfig.cache_geom) ~parent =
      {
        geom;
        sets =
          Array.init geom.sets (fun _ ->
              Array.init geom.ways (fun _ -> { tag = 0; valid = false; dirty = false; lru = 0 }));
        parent;
        stats = { accesses = 0; misses = 0; writebacks = 0; prefetch_fills = 0 };
        tick = 0;
        line_bits = log2 geom.line;
        set_bits = log2 geom.sets;
        set_mask = geom.sets - 1;
      }

    let locate t addr =
      let block = addr lsr t.line_bits in
      (t.sets.(block land t.set_mask), block lsr t.set_bits)

    let find_way set tag =
      let n = Array.length set in
      let rec go i =
        if i >= n then None
        else if set.(i).valid && set.(i).tag = tag then Some set.(i)
        else go (i + 1)
      in
      go 0

    let fill t set tag ~dirty =
      let l = Array.fold_left (fun b l -> if l.lru < b.lru then l else b) set.(0) set in
      if l.valid && l.dirty then begin
        t.stats.writebacks <- t.stats.writebacks + 1;
        ignore (t.parent 0 ~is_write:true)
      end;
      l.valid <- true;
      l.dirty <- dirty;
      l.tag <- tag;
      t.tick <- t.tick + 1;
      l.lru <- t.tick

    let access t addr ~is_write =
      t.stats.accesses <- t.stats.accesses + 1;
      let set, tag = locate t addr in
      match find_way set tag with
      | Some l ->
        t.tick <- t.tick + 1;
        l.lru <- t.tick;
        if is_write then l.dirty <- true;
        t.geom.latency
      | None ->
        t.stats.misses <- t.stats.misses + 1;
        let below = t.parent addr ~is_write:false in
        fill t set tag ~dirty:is_write;
        t.geom.latency + below

    let prefetch t addr =
      let set, tag = locate t addr in
      match find_way set tag with
      | Some _ -> ()
      | None ->
        t.stats.prefetch_fills <- t.stats.prefetch_fills + 1;
        ignore (t.parent addr ~is_write:false);
        fill t set tag ~dirty:false

    let persist t : Cache.persisted =
      {
        p_lines = Array.map (Array.map (fun l -> (l.tag, l.valid, l.dirty, l.lru))) t.sets;
        p_tick = t.tick;
        p_accesses = t.stats.accesses;
        p_misses = t.stats.misses;
        p_writebacks = t.stats.writebacks;
        p_prefetch_fills = t.stats.prefetch_fills;
      }

    let miss_rate t =
      if t.stats.accesses = 0 then 0.0
      else float_of_int t.stats.misses /. float_of_int t.stats.accesses
  end

  module Tlb = struct
    type entry = { mutable vpn : int; mutable valid : bool; mutable lru : int }

    type t = {
      entries : entry array;
      latency : int;
      parent : int -> int;
      mutable accesses : int;
      mutable misses : int;
      mutable tick : int;
    }

    let create (geom : Tconfig.tlb_geom) ~parent =
      {
        entries = Array.init geom.entries (fun _ -> { vpn = 0; valid = false; lru = 0 });
        latency = geom.latency;
        parent;
        accesses = 0;
        misses = 0;
        tick = 0;
      }

    let access t addr =
      let vpn = addr lsr 12 in
      t.accesses <- t.accesses + 1;
      t.tick <- t.tick + 1;
      let hit =
        Array.fold_left
          (fun acc e ->
            if e.valid && e.vpn = vpn then begin
              e.lru <- t.tick;
              true
            end
            else acc)
          false t.entries
      in
      if hit then t.latency
      else begin
        t.misses <- t.misses + 1;
        let below = t.parent vpn in
        let v =
          Array.fold_left (fun b e -> if e.lru < b.lru then e else b) t.entries.(0) t.entries
        in
        v.valid <- true;
        v.vpn <- vpn;
        v.lru <- t.tick;
        t.latency + below
      end

    let persist t : Tlb.persisted =
      {
        p_entries = Array.map (fun e -> (e.vpn, e.valid, e.lru)) t.entries;
        p_tick = t.tick;
        p_accesses = t.accesses;
        p_misses = t.misses;
      }

    let miss_rate t =
      if t.accesses = 0 then 0.0 else float_of_int t.misses /. float_of_int t.accesses
  end

  module Prefetch = struct
    type entry = {
      mutable tag : int;
      mutable last_addr : int;
      mutable stride : int;
      mutable confidence : int;
    }

    type t = {
      table : entry array;
      mask : int;
      into : Cache.t;
      degree : int;
      enabled : bool;
      mutable issued : int;
      mutable triggered : int;
    }

    let create (cfg : Tconfig.t) ~into =
      {
        table =
          Array.init cfg.prefetch_table (fun _ ->
              { tag = -1; last_addr = 0; stride = 0; confidence = 0 });
        mask = cfg.prefetch_table - 1;
        into;
        degree = cfg.prefetch_degree;
        enabled = cfg.prefetch;
        issued = 0;
        triggered = 0;
      }

    let observe t ~pc ~addr =
      if t.enabled then begin
        let e = t.table.((pc lsr 2) land t.mask) in
        if e.tag <> pc then begin
          e.tag <- pc;
          e.last_addr <- addr;
          e.stride <- 0;
          e.confidence <- 0
        end
        else begin
          let stride = addr - e.last_addr in
          if stride <> 0 && stride = e.stride then e.confidence <- min 4 (e.confidence + 1)
          else e.confidence <- 0;
          e.stride <- stride;
          e.last_addr <- addr;
          if e.confidence >= 2 then begin
            t.triggered <- t.triggered + 1;
            for k = 1 to t.degree do
              let target = addr + (k * stride) in
              if target >= 0 then begin
                t.issued <- t.issued + 1;
                Cache.prefetch t.into target
              end
            done
          end
        end
      end

    let persist t : Prefetch.persisted =
      {
        p_table = Array.map (fun e -> (e.tag, e.last_addr, e.stride, e.confidence)) t.table;
        p_issued = t.issued;
        p_triggered = t.triggered;
      }
  end

  module Predictor = struct
    type t = {
      pht : int array;
      mutable ghr : int;
      ghr_mask : int;
      btb_tag : int array;
      btb_target : int array;
      btb_mask : int;
      mutable branches : int;
      mutable mispredicts : int;
      mutable btb_misses : int;
    }

    let create (cfg : Tconfig.t) =
      let pht_size = 1 lsl cfg.gshare_bits in
      {
        pht = Array.make pht_size 2;
        ghr = 0;
        ghr_mask = pht_size - 1;
        btb_tag = Array.make cfg.btb_entries (-1);
        btb_target = Array.make cfg.btb_entries 0;
        btb_mask = cfg.btb_entries - 1;
        branches = 0;
        mispredicts = 0;
        btb_misses = 0;
      }

    let pht_index t pc = (pc lsr 2) lxor t.ghr land t.ghr_mask
    let btb_index t pc = (pc lsr 2) land t.btb_mask

    let predict t ~pc =
      let i = btb_index t pc in
      ( t.pht.(pht_index t pc) >= 2,
        if t.btb_tag.(i) = pc then Some t.btb_target.(i) else None )

    let observe t ~pc ~taken ~target =
      t.branches <- t.branches + 1;
      let pred_taken, pred_target = predict t ~pc in
      let outcome =
        if pred_taken <> taken then `Mispredict
        else if taken then
          match pred_target with
          | Some tg when tg = target -> `Correct
          | Some _ | None ->
            t.btb_misses <- t.btb_misses + 1;
            `Mispredict
        else `Correct
      in
      if outcome = `Mispredict then t.mispredicts <- t.mispredicts + 1;
      let i = pht_index t pc in
      t.pht.(i) <- (if taken then min 3 (t.pht.(i) + 1) else max 0 (t.pht.(i) - 1));
      t.ghr <- ((t.ghr lsl 1) lor if taken then 1 else 0) land t.ghr_mask;
      if taken then begin
        let bi = btb_index t pc in
        t.btb_tag.(bi) <- pc;
        t.btb_target.(bi) <- target
      end;
      outcome

    let persist t : Predictor.persisted =
      {
        p_pht = Array.copy t.pht;
        p_ghr = t.ghr;
        p_btb_tag = Array.copy t.btb_tag;
        p_btb_target = Array.copy t.btb_target;
        p_branches = t.branches;
        p_mispredicts = t.mispredicts;
        p_btb_misses = t.btb_misses;
      }

    let accuracy t =
      if t.branches = 0 then 1.0
      else 1.0 -. (float_of_int t.mispredicts /. float_of_int t.branches)
  end

  type ring = { buf : int array; mutable n : int }

  let ring_make size = { buf = Array.make (max 1 size) 0; n = 0 }

  let ring_push r v =
    r.buf.(r.n mod Array.length r.buf) <- v;
    r.n <- r.n + 1

  let ring_cap r =
    if r.n < Array.length r.buf then 0 else r.buf.(r.n mod Array.length r.buf)

  type t = {
    cfg : Tconfig.t;
    l2 : Cache.t;
    il1 : Cache.t;
    dl1 : Cache.t;
    l2tlb : Tlb.t;
    itlb : Tlb.t;
    dtlb : Tlb.t;
    pf : Prefetch.t;
    bp : Predictor.t;
    int_ready : int array;
    fp_ready : int array;
    simple_free : int array;
    complex_free : int array;
    vector_free : int array;
    rport_free : int array;
    wport_free : int array;
    iq_ring : ring;
    inflight_ring : ring;
    mutable fetch_cycle : int;
    mutable fetch_count : int;
    mutable last_fetch_line : int;
    mutable redirect_at : int;
    mutable last_issue : int;
    mutable issued_in_cycle : int;
    mutable horizon : int;
    mutable insns : int;
    mutable int_ops : int;
    mutable mul_ops : int;
    mutable fp_ops : int;
    mutable mem_reads : int;
    mutable mem_writes : int;
    mutable branches : int;
    mutable rf_reads : int;
    mutable rf_writes : int;
  }

  let create (cfg : Tconfig.t) =
    let l2 = Cache.create cfg.l2 ~parent:(fun _ ~is_write:_ -> cfg.mem_latency) in
    let l2_parent addr ~is_write = Cache.access l2 addr ~is_write in
    let il1 = Cache.create cfg.il1 ~parent:l2_parent in
    let dl1 = Cache.create cfg.dl1 ~parent:l2_parent in
    let l2tlb = Tlb.create cfg.l2tlb ~parent:(fun _ -> cfg.tlb_walk_latency) in
    {
      cfg;
      l2;
      il1;
      dl1;
      l2tlb;
      itlb = Tlb.create cfg.itlb ~parent:(fun vpn -> Tlb.access l2tlb (vpn lsl 12));
      dtlb = Tlb.create cfg.dtlb ~parent:(fun vpn -> Tlb.access l2tlb (vpn lsl 12));
      pf = Prefetch.create cfg ~into:dl1;
      bp = Predictor.create cfg;
      int_ready = Array.make 64 0;
      fp_ready = Array.make 32 0;
      simple_free = Array.make (max 1 cfg.n_simple) 0;
      complex_free = Array.make (max 1 cfg.n_complex) 0;
      vector_free = Array.make (max 1 cfg.n_vector) 0;
      rport_free = Array.make (max 1 cfg.mem_read_ports) 0;
      wport_free = Array.make (max 1 cfg.mem_write_ports) 0;
      iq_ring = ring_make cfg.iq_size;
      inflight_ring = ring_make cfg.phys_regs;
      fetch_cycle = 0;
      fetch_count = 0;
      last_fetch_line = -1;
      redirect_at = 0;
      last_issue = 0;
      issued_in_cycle = 0;
      horizon = 0;
      insns = 0;
      int_ops = 0;
      mul_ops = 0;
      fp_ops = 0;
      mem_reads = 0;
      mem_writes = 0;
      branches = 0;
      rf_reads = 0;
      rf_writes = 0;
    }

  type cls = Simple | Complex | Mem_read | Mem_write

  let classify (cfg : Tconfig.t) (insn : Code.insn) =
    match insn with
    | Bin ((Mul | Mulhu | Mulhs), _, _, _) -> (Complex, cfg.complex_mul_latency, 1, 1)
    | Fbin (Fdiv, _, _, _) -> (Complex, cfg.fp_div_latency, cfg.fp_div_latency, 1)
    | Fbin (_, _, _, _) -> (Complex, cfg.fp_latency, 1, 1)
    | Fun (Fsqrt, _, _) -> (Complex, cfg.fp_div_latency + 3, cfg.fp_div_latency, 1)
    | Fun (_, _, _) | Fmov _ | Fli _ -> (Complex, 1, 1, 1)
    | Fcmp _ | Cvtif _ | Cvtfi _ -> (Complex, 2, 1, 1)
    | Callrt_f (fn, _, _) ->
      let c = Code.rt_cost fn in
      (Complex, c, c, c)
    | Callrt_div { signed; _ } ->
      let c = Code.rt_cost (if signed then Rt_divs else Rt_divu) in
      (Complex, c, c, c)
    | Load _ | Sload _ | Fload _ -> (Mem_read, 0, 1, 1)
    | Store _ | Fstore _ -> (Mem_write, 1, 1, 1)
    | Nop | Li _ | Bin _ | Bini _ | Mkfl _ | Isel _ | B _ | J _ | Jr _ | Assert _ | Chk
    | Commit _ | Exit _ ->
      (Simple, 1, 1, 1)

  let acquire_unit free_cycles at occupancy =
    let best = ref 0 in
    Array.iteri (fun i c -> if c < free_cycles.(!best) then best := i) free_cycles;
    let start = max at free_cycles.(!best) in
    free_cycles.(!best) <- start + occupancy;
    start

  let step t (ri : Emulator.retire_info) =
    let cfg = t.cfg in
    if t.redirect_at > t.fetch_cycle then begin
      t.fetch_cycle <- t.redirect_at;
      t.fetch_count <- 0;
      t.last_fetch_line <- -1
    end;
    if t.fetch_count >= cfg.fetch_width then begin
      t.fetch_cycle <- t.fetch_cycle + 1;
      t.fetch_count <- 0
    end;
    let line = ri.host_pc / cfg.il1.line in
    if line <> t.last_fetch_line then begin
      t.last_fetch_line <- line;
      let tlb_extra = Tlb.access t.itlb ri.host_pc in
      let ic = Cache.access t.il1 ri.host_pc ~is_write:false in
      t.fetch_cycle <- t.fetch_cycle + tlb_extra + (ic - cfg.il1.latency)
    end;
    t.fetch_cycle <- max t.fetch_cycle (ring_cap t.iq_ring);
    t.fetch_count <- t.fetch_count + 1;
    let at_decode = t.fetch_cycle + cfg.decode_depth in
    let cls, latency, occupancy, weight = classify cfg ri.insn in
    let src_ready =
      List.fold_left (fun acc r -> max acc t.int_ready.(r)) 0 (uses ri.insn)
    in
    let src_ready =
      List.fold_left (fun acc r -> max acc t.fp_ready.(r)) src_ready (fuses ri.insn)
    in
    let in_order_at =
      if t.issued_in_cycle >= cfg.issue_width then t.last_issue + 1 else t.last_issue
    in
    let earliest =
      max (max at_decode src_ready) (max in_order_at (ring_cap t.inflight_ring))
    in
    let units =
      match cls with
      | Simple -> t.simple_free
      | Complex -> t.complex_free
      | Mem_read -> t.rport_free
      | Mem_write -> t.wport_free
    in
    let issue = acquire_unit units earliest occupancy in
    if issue > t.last_issue then begin
      t.last_issue <- issue;
      t.issued_in_cycle <- 1
    end
    else t.issued_in_cycle <- t.issued_in_cycle + 1;
    let result_latency =
      match ri.mem_access with
      | Some (addr, `Load) ->
        t.mem_reads <- t.mem_reads + 1;
        let tlb_extra = Tlb.access t.dtlb addr in
        let lat = Cache.access t.dl1 addr ~is_write:false in
        Prefetch.observe t.pf ~pc:ri.host_pc ~addr;
        tlb_extra + lat
      | Some (addr, `Store) ->
        t.mem_writes <- t.mem_writes + 1;
        let tlb_extra = Tlb.access t.dtlb addr in
        ignore (Cache.access t.dl1 addr ~is_write:true);
        tlb_extra + 1
      | None -> latency
    in
    let done_at = issue + max 1 result_latency in
    List.iter (fun r -> t.int_ready.(r) <- done_at) (defs ri.insn);
    List.iter (fun r -> t.fp_ready.(r) <- done_at) (fdefs ri.insn);
    t.rf_reads <- t.rf_reads + List.length (uses ri.insn) + List.length (fuses ri.insn);
    t.rf_writes <- t.rf_writes + List.length (defs ri.insn) + List.length (fdefs ri.insn);
    (match ri.branch with
    | Some (taken, target) -> (
      t.branches <- t.branches + 1;
      match Predictor.observe t.bp ~pc:ri.host_pc ~taken ~target with
      | `Correct -> ()
      | `Mispredict ->
        t.redirect_at <- max t.redirect_at (issue + 1 + cfg.mispredict_penalty))
    | None -> ());
    ring_push t.iq_ring issue;
    ring_push t.inflight_ring done_at;
    t.horizon <- max t.horizon done_at;
    t.insns <- t.insns + weight;
    match cls with
    | Simple -> t.int_ops <- t.int_ops + 1
    | Complex -> (
      match ri.insn with
      | Bin _ -> t.mul_ops <- t.mul_ops + 1
      | _ -> t.fp_ops <- t.fp_ops + 1)
    | Mem_read | Mem_write -> ()

  let cycles t = max t.horizon t.last_issue

  let persist t : Pipeline.persisted =
    {
      p_cfg = t.cfg;
      p_l2 = Cache.persist t.l2;
      p_il1 = Cache.persist t.il1;
      p_dl1 = Cache.persist t.dl1;
      p_l2tlb = Tlb.persist t.l2tlb;
      p_itlb = Tlb.persist t.itlb;
      p_dtlb = Tlb.persist t.dtlb;
      p_pf = Prefetch.persist t.pf;
      p_bp = Predictor.persist t.bp;
      p_int_ready = Array.copy t.int_ready;
      p_fp_ready = Array.copy t.fp_ready;
      p_simple_free = Array.copy t.simple_free;
      p_complex_free = Array.copy t.complex_free;
      p_vector_free = Array.copy t.vector_free;
      p_rport_free = Array.copy t.rport_free;
      p_wport_free = Array.copy t.wport_free;
      p_iq_ring = (Array.copy t.iq_ring.buf, t.iq_ring.n);
      p_inflight_ring = (Array.copy t.inflight_ring.buf, t.inflight_ring.n);
      p_fetch_cycle = t.fetch_cycle;
      p_fetch_count = t.fetch_count;
      p_last_fetch_line = t.last_fetch_line;
      p_redirect_at = t.redirect_at;
      p_last_issue = t.last_issue;
      p_issued_in_cycle = t.issued_in_cycle;
      p_horizon = t.horizon;
      p_insns = t.insns;
      p_int_ops = t.int_ops;
      p_mul_ops = t.mul_ops;
      p_fp_ops = t.fp_ops;
      p_mem_reads = t.mem_reads;
      p_mem_writes = t.mem_writes;
      p_branches = t.branches;
      p_rf_reads = t.rf_reads;
      p_rf_writes = t.rf_writes;
    }

  let events t : Pipeline.events =
    {
      e_cycles = cycles t;
      e_insns = t.insns;
      e_int_ops = t.int_ops;
      e_mul_ops = t.mul_ops;
      e_fp_ops = t.fp_ops;
      e_mem_reads = t.mem_reads;
      e_mem_writes = t.mem_writes;
      e_branches = t.branches;
      e_il1 = t.il1.stats;
      e_dl1 = t.dl1.stats;
      e_l2 = t.l2.stats;
      e_btb = t.branches;
      e_regfile_reads = t.rf_reads;
      e_regfile_writes = t.rf_writes;
    }

  let summary t : Pipeline.summary =
    let c = cycles t in
    {
      instructions = t.insns;
      cycles = c;
      ipc = (if c = 0 then 0.0 else float_of_int t.insns /. float_of_int c);
      branch_accuracy = Predictor.accuracy t.bp;
      il1_miss_rate = Cache.miss_rate t.il1;
      dl1_miss_rate = Cache.miss_rate t.dl1;
      l2_miss_rate = Cache.miss_rate t.l2;
      itlb_miss_rate = Tlb.miss_rate t.itlb;
      dtlb_miss_rate = Tlb.miss_rate t.dtlb;
      mispredicts = t.bp.mispredicts;
      prefetches = t.pf.issued;
    }
end

(* Small structures so short streams still evict, miss in both TLB levels,
   fill the rings and contend for units. *)
let tiny_cfg =
  {
    Tconfig.default with
    iq_size = 3;
    phys_regs = 5;
    n_complex = 2;
    mem_write_ports = 2;
    gshare_bits = 4;
    btb_entries = 8;
    il1 = { sets = 2; ways = 2; line = 32; latency = 1 };
    dl1 = { sets = 4; ways = 2; line = 32; latency = 2 };
    l2 = { sets = 8; ways = 2; line = 64; latency = 5 };
    itlb = { entries = 2; latency = 0 };
    dtlb = { entries = 3; latency = 1 };
    l2tlb = { entries = 6; latency = 4 };
    prefetch_table = 4;
    prefetch_degree = 3;
  }

(* A random static program (every [Code.insn] shape, r0 operands
   included, spread over three code pages) walked dynamically: each load
   or store slot has its own address pattern (strided, random over 64 MB,
   or one hot page), and branches, jumps, indirect jumps and exits redirect
   the walk. *)
let random_stream seed len =
  let rng = Darco_util.Rng.create seed in
  let int n = Darco_util.Rng.int rng n in
  let pick a = a.(int (Array.length a)) in
  let reg () = if int 6 = 0 then 0 else int 64 in
  let freg () = int 32 in
  let n_static = 48 + int 48 in
  let bases = [| 0xC0000000; 0xC0001000; 0xC4000000 |] in
  let pc_of i = bases.(i mod 3) + (4 * (i / 3)) in
  let cmp () = pick [| Code.Beq; Bne; Blt; Bge; Bltu; Bgeu |] in
  let insn () : Code.insn =
    match int 27 with
    | 0 -> Nop
    | 1 -> Li (reg (), int 1000)
    | 2 ->
      Bin (pick [| Code.Add; Sub; Mul; Mulhu; Mulhs; And; Xor; Shl; Sltu; Sne |],
           reg (), reg (), reg ())
    | 3 -> Bini (pick [| Code.Add; Or; Sar; Slt; Seq |], reg (), reg (), int 64)
    | 4 -> Load (pick [| Darco_guest.Isa.W8; W16; W32 |], int 2 = 0, reg (), reg (), int 16)
    | 5 -> Sload (W32, false, reg (), reg (), 0)
    | 6 -> Store (pick [| Darco_guest.Isa.W8; W16; W32 |], reg (), reg (), int 16)
    | 7 -> Fli (freg (), 1.5)
    | 8 -> Fmov (freg (), freg ())
    | 9 -> Fbin (pick [| Code.Fadd; Fsub; Fmul; Fdiv |], freg (), freg (), freg ())
    | 10 -> Fun (pick [| Code.Fsqrt; Fabs; Fneg |], freg (), freg ())
    | 11 -> Fload (freg (), reg (), 8)
    | 12 -> Fstore (freg (), reg (), 8)
    | 13 -> Fcmp (reg (), freg (), freg ())
    | 14 -> Cvtif (freg (), reg ())
    | 15 -> Cvtfi (reg (), freg ())
    | 16 -> Mkfl (Fl_add, reg (), reg (), reg (), reg ())
    | 17 -> Isel (reg (), reg (), reg (), reg ())
    | 18 -> Callrt_f (pick [| Code.Rt_sin; Rt_cos |], freg (), freg ())
    | 19 ->
      Callrt_div
        { signed = int 2 = 0; q = reg (); r = reg (); hi = reg (); lo = reg (); d = reg () }
    | 20 | 21 -> B (cmp (), reg (), reg (), int n_static)
    | 22 -> J (int n_static)
    | 23 -> Jr (reg (), reg ())
    | 24 -> Assert (cmp (), reg (), reg ())
    | 25 -> pick [| Code.Chk; Commit (int 5) |]
    | _ ->
      Exit
        {
          exit_id = int 8;
          kind = pick [| Code.Exit_indirect (reg ()); Exit_direct 0x1000; Exit_halt |];
          guest_retired = 1;
          chain = None;
          prefer_bb = false;
        }
  in
  let program = Array.init n_static (fun _ -> insn ()) in
  (* per-slot address pattern: base, stride (0 = random, -1 = hot page) *)
  let pattern =
    Array.init n_static (fun _ ->
        (int 0x1000000, pick [| 0; -1; 4; 8; 64; 192; 4096; 12288; -64 |]))
  in
  let visits = Array.make n_static 0 in
  let taken_bias = Array.init n_static (fun _ -> int 4) in
  let mem i =
    let base, stride = pattern.(i) in
    let k = visits.(i) in
    visits.(i) <- k + 1;
    match stride with
    | 0 -> int 0x4000000
    | -1 -> 0x8000 + int 4096
    | s -> max 0 (base + (k * s))
  in
  let ix = ref 0 in
  List.init len (fun _ ->
      let i = !ix in
      let insn = program.(i) in
      let next = (i + 1) mod n_static in
      let far () = int n_static in
      let mem_access =
        match insn with
        | Load _ | Sload _ | Fload _ -> Some (mem i, `Load)
        | Store _ | Fstore _ -> Some (mem i, `Store)
        | _ -> None
      in
      let goto, branch =
        match insn with
        | B (_, _, _, t) ->
          (* mostly-biased directions the predictor can learn, some noise *)
          let taken = if int 8 = 0 then int 2 = 0 else taken_bias.(i) > 0 in
          if taken then (t, Some (true, pc_of t)) else (next, Some (false, pc_of t))
        | J t -> (t, Some (true, pc_of t))
        | Jr _ | Exit _ ->
          let t = far () in
          (t, Some (true, pc_of t))
        | _ -> (next, None)
      in
      ix := goto;
      { Emulator.host_pc = pc_of i; insn; mem_access; branch })

let same_state what (p : Pipeline.t) (o : Oracle.t) =
  let pp = Pipeline.persist p and op = Oracle.persist o in
  if pp <> op then QCheck.Test.fail_reportf "%s: persisted state differs" what;
  if Pipeline.events p <> Oracle.events o then
    QCheck.Test.fail_reportf "%s: events differ" what;
  if Pipeline.summary p <> Oracle.summary o then
    QCheck.Test.fail_reportf "%s: summary differs" what;
  true

let prop_step_matches_list_oracle =
  QCheck.Test.make ~name:"step = list-based oracle (fresh and persist/restore)"
    ~count:150
    QCheck.(pair small_nat (int_bound 3))
    (fun (seed, c) ->
      let cfg = [| Tconfig.default; Tconfig.narrow; Tconfig.wide; tiny_cfg |].(c) in
      let stream = Array.of_list (random_stream seed (200 + (seed * 7 mod 1200))) in
      let n = Array.length stream in
      let split = Darco_util.Rng.int (Darco_util.Rng.create (seed + 1)) n in
      (* fresh pipeline over the whole stream *)
      let fresh = Pipeline.create cfg and o = Oracle.create cfg in
      Array.iter (fun ri -> Pipeline.step fresh ri; Oracle.step o ri) stream;
      ignore (same_state "fresh" fresh o);
      (* the same stream cut at [split] by a persist -> restore: the restored
         TLBs start with no memo while the oracle's history runs on *)
      let first = Pipeline.create cfg and o = Oracle.create cfg in
      for i = 0 to split - 1 do
        Pipeline.step first stream.(i);
        Oracle.step o stream.(i)
      done;
      ignore (same_state "at the cut" first o);
      let resumed = Pipeline.restore (Pipeline.persist first) in
      for i = split to n - 1 do
        Pipeline.step resumed stream.(i);
        Oracle.step o stream.(i)
      done;
      same_state "restored" resumed o)

(* The contract the per-instruction path keeps: stepping a prebuilt retire
   stream allocates nothing on the OCaml heap. *)
let test_step_allocation_free () =
  let stream = Array.of_list (random_stream 11 4000) in
  let p = Pipeline.create Tconfig.default in
  Array.iter (Pipeline.step p) stream;
  let before = Gc.minor_words () in
  Array.iter (Pipeline.step p) stream;
  let words = Gc.minor_words () -. before in
  if words > 64.0 then
    Alcotest.failf "%d steps allocated %.0f minor words" (Array.length stream) words

(* A TLB overwritten in place keeps no usable memo: the last-hit hint from
   before [apply] must not answer for the applied contents. *)
let test_tlb_memo_not_persisted () =
  let mk () = Tlb.create { entries = 4; latency = 1 } ~parent:(fun _ -> 30) in
  let a = mk () and b = mk () in
  ignore (Tlb.access a 0x5000);
  ignore (Tlb.access b 0x9000);
  (* a's memo now points at the entry holding page 5 *)
  Alcotest.(check int) "memo hit" 1 (Tlb.access a 0x5abc);
  Tlb.apply a (Tlb.persist b);
  Alcotest.(check int) "applied contents miss page 5" 31 (Tlb.access a 0x5000);
  Alcotest.(check int) "applied contents hit page 9" 1 (Tlb.access a 0x9000)

let () =
  Alcotest.run "timing"
    [
      ( "cache",
        [
          Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "writeback" `Quick test_cache_writeback;
          Alcotest.test_case "prefetch fill" `Quick test_cache_prefetch_fill;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "two-level behaviour" `Quick test_tlb;
          Alcotest.test_case "memo not persisted" `Quick test_tlb_memo_not_persisted;
        ] );
      ( "predictor",
        [
          Alcotest.test_case "learns bias" `Quick test_predictor_learns_bias;
          Alcotest.test_case "alternating pattern" `Quick test_predictor_alternating_pattern;
          Alcotest.test_case "btb misses" `Quick test_predictor_btb_miss_counts;
        ] );
      ( "prefetcher",
        [
          Alcotest.test_case "stride detection" `Quick test_stride_prefetcher;
          Alcotest.test_case "ignores random" `Quick test_prefetcher_ignores_random;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "width bound" `Quick test_pipeline_width_bound;
          Alcotest.test_case "dependency chain" `Quick test_pipeline_dependency_chain;
          Alcotest.test_case "memory latency" `Quick test_pipeline_memory_latency;
          Alcotest.test_case "mispredict penalty" `Quick test_pipeline_mispredict_penalty;
          Alcotest.test_case "long operations" `Quick test_pipeline_long_ops;
          Alcotest.test_case "events" `Quick test_events_populated;
          QCheck_alcotest.to_alcotest prop_pipeline_monotone_cycles;
        ] );
      ( "exactness",
        [
          QCheck_alcotest.to_alcotest prop_step_matches_list_oracle;
          Alcotest.test_case "step allocates nothing" `Quick test_step_allocation_free;
        ] );
    ]

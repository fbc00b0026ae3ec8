type stats = { mutable accesses : int; mutable misses : int }

type entry = { mutable vpn : int; mutable valid : bool; mutable lru : int }

type t = {
  entries : entry array;
  latency : int;
  parent : int -> int;
  stats : stats;
  mutable tick : int;
  mutable last : int;
      (* memo: index of the entry that last hit or was filled, or -1.  A
         hint only: re-checked on every use, never persisted. *)
}

let page_bits = 12

let create (geom : Tconfig.tlb_geom) ~parent =
  {
    entries = Array.init geom.entries (fun _ -> { vpn = 0; valid = false; lru = 0 });
    latency = geom.latency;
    parent;
    stats = { accesses = 0; misses = 0 };
    tick = 0;
    last = -1;
  }

let walker (cfg : Tconfig.t) _vpn = cfg.tlb_walk_latency

(* Index of the valid entry translating [vpn], or -1.  Every fill targets
   a miss, so at most one valid entry holds a given page and the first
   match is the only one. *)
let lookup t vpn =
  let m = t.last in
  if m >= 0 && t.entries.(m).valid && t.entries.(m).vpn = vpn then m
  else begin
    let n = Array.length t.entries in
    let i = ref 0 in
    while !i < n && not (t.entries.(!i).valid && t.entries.(!i).vpn = vpn) do
      incr i
    done;
    if !i < n then !i else -1
  end

(* Least recently used entry; the first on a tie. *)
let victim t =
  let best = ref 0 in
  for i = 1 to Array.length t.entries - 1 do
    if t.entries.(i).lru < t.entries.(!best).lru then best := i
  done;
  !best

let access t addr =
  let vpn = addr lsr page_bits in
  t.stats.accesses <- t.stats.accesses + 1;
  t.tick <- t.tick + 1;
  let hit = lookup t vpn in
  if hit >= 0 then begin
    t.entries.(hit).lru <- t.tick;
    t.last <- hit;
    t.latency
  end
  else begin
    t.stats.misses <- t.stats.misses + 1;
    let below = t.parent vpn in
    let v = victim t in
    let e = t.entries.(v) in
    e.valid <- true;
    e.vpn <- vpn;
    e.lru <- t.tick;
    t.last <- v;
    t.latency + below
  end

let second_level (cfg : Tconfig.t) =
  create cfg.l2tlb ~parent:(fun vpn -> walker cfg vpn)

let stats t = t.stats

type persisted = {
  p_entries : (int * bool * int) array;  (* (vpn, valid, lru) *)
  p_tick : int;
  p_accesses : int;
  p_misses : int;
}

let persist t =
  {
    p_entries = Array.map (fun e -> (e.vpn, e.valid, e.lru)) t.entries;
    p_tick = t.tick;
    p_accesses = t.stats.accesses;
    p_misses = t.stats.misses;
  }

let apply t p =
  if Array.length p.p_entries <> Array.length t.entries then
    invalid_arg "Tlb.apply: persisted TLB geometry mismatch";
  Array.iteri
    (fun i (vpn, valid, lru) ->
      let e = t.entries.(i) in
      e.vpn <- vpn;
      e.valid <- valid;
      e.lru <- lru)
    p.p_entries;
  t.tick <- p.p_tick;
  t.last <- -1;
  t.stats.accesses <- p.p_accesses;
  t.stats.misses <- p.p_misses

let miss_rate t =
  if t.stats.accesses = 0 then 0.0
  else float_of_int t.stats.misses /. float_of_int t.stats.accesses

type stats = {
  mutable accesses : int;
  mutable misses : int;
  mutable writebacks : int;
  mutable prefetch_fills : int;
}

type line = { mutable tag : int; mutable valid : bool; mutable dirty : bool; mutable lru : int }

type t = {
  name : string;
  geom : Tconfig.cache_geom;
  sets : line array array;
  parent : int -> is_write:bool -> int;
  stats : stats;
  mutable tick : int;
  line_bits : int;
  set_bits : int;
  set_mask : int;
}

let log2 n =
  let rec go k v = if v >= n then k else go (k + 1) (v * 2) in
  go 0 1

let create ~name (geom : Tconfig.cache_geom) ~parent =
  {
    name;
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

(* The set an address maps to, and its tag within that set. *)
let set_of t addr = t.sets.((addr lsr t.line_bits) land t.set_mask)
let tag_of t addr = addr lsr (t.line_bits + t.set_bits)

(* The one lookup every operation shares: the index of the valid way
   holding [tag], or -1 on a miss.  No allocation, first match wins. *)
let find_way set tag =
  let n = Array.length set in
  let i = ref 0 in
  while !i < n && not (set.(!i).valid && set.(!i).tag = tag) do
    incr i
  done;
  if !i < n then !i else -1

(* Least recently used way; the first on a tie. *)
let victim set =
  let best = ref set.(0) in
  for i = 1 to Array.length set - 1 do
    if set.(i).lru < !best.lru then best := set.(i)
  done;
  !best

let fill t set tag ~dirty =
  let l = victim set in
  if l.valid && l.dirty then begin
    t.stats.writebacks <- t.stats.writebacks + 1;
    (* Dirty evictions write back to the parent; the latency is off the
       load's critical path and is not charged. *)
    ignore (t.parent 0 ~is_write:true)
  end;
  l.valid <- true;
  l.dirty <- dirty;
  l.tag <- tag;
  t.tick <- t.tick + 1;
  l.lru <- t.tick

let access t addr ~is_write =
  t.stats.accesses <- t.stats.accesses + 1;
  let set = set_of t addr and tag = tag_of t addr in
  let w = find_way set tag in
  if w >= 0 then begin
    let l = set.(w) in
    t.tick <- t.tick + 1;
    l.lru <- t.tick;
    if is_write then l.dirty <- true;
    t.geom.latency
  end
  else begin
    t.stats.misses <- t.stats.misses + 1;
    let below = t.parent addr ~is_write:false in
    fill t set tag ~dirty:is_write;
    t.geom.latency + below
  end

let prefetch t addr =
  let set = set_of t addr and tag = tag_of t addr in
  if find_way set tag < 0 then begin
    t.stats.prefetch_fills <- t.stats.prefetch_fills + 1;
    ignore (t.parent addr ~is_write:false);
    fill t set tag ~dirty:false
  end

let contains t addr = find_way (set_of t addr) (tag_of t addr) >= 0

let stats t = t.stats
let name t = t.name

type persisted = {
  p_lines : (int * bool * bool * int) array array;  (* (tag, valid, dirty, lru) *)
  p_tick : int;
  p_accesses : int;
  p_misses : int;
  p_writebacks : int;
  p_prefetch_fills : int;
}

let persist t =
  {
    p_lines =
      Array.map (Array.map (fun l -> (l.tag, l.valid, l.dirty, l.lru))) t.sets;
    p_tick = t.tick;
    p_accesses = t.stats.accesses;
    p_misses = t.stats.misses;
    p_writebacks = t.stats.writebacks;
    p_prefetch_fills = t.stats.prefetch_fills;
  }

let apply t p =
  if
    Array.length p.p_lines <> Array.length t.sets
    || (Array.length t.sets > 0 && Array.length p.p_lines.(0) <> Array.length t.sets.(0))
  then invalid_arg (t.name ^ ": persisted cache geometry mismatch");
  Array.iteri
    (fun si ways ->
      Array.iteri
        (fun wi (tag, valid, dirty, lru) ->
          let l = t.sets.(si).(wi) in
          l.tag <- tag;
          l.valid <- valid;
          l.dirty <- dirty;
          l.lru <- lru)
        ways)
    p.p_lines;
  t.tick <- p.p_tick;
  t.stats.accesses <- p.p_accesses;
  t.stats.misses <- p.p_misses;
  t.stats.writebacks <- p.p_writebacks;
  t.stats.prefetch_fills <- p.p_prefetch_fills

let miss_rate t =
  if t.stats.accesses = 0 then 0.0
  else float_of_int t.stats.misses /. float_of_int t.stats.accesses

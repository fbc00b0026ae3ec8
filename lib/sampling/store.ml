(* A checkpoint is identified by the digest of its encoded (DSNP) bytes,
   so equal snapshots share one entry no matter how many windows start from
   them.  The store is an in-memory table with an optional on-disk spill
   directory (one file per digest); disk reads are re-verified against the
   digest, so a tampered or bit-rotted cache entry is refused, never
   restored.

   Two residency tiers:
   - Heap: entries are ordinary strings.  Cheapest lookups; fine for a
     single-domain process and for the domains pool, where every domain
     reads the same string by reference.
   - Shared: entries live in Bigarrays outside the OCaml heap.  The GC
     neither moves nor marks them, so after a fork the image's pages stay
     copy-on-write-clean in every child no matter how hard the child's GC
     works — N forked units really do read ONE physical copy.  Cold reads
     from the spill directory are mmap'd, so separate worker processes on
     one machine share the page cache mapping too.

   All table operations are serialized by a per-store mutex, so any mix of
   domains may put/get concurrently.  Disk I/O happens outside the lock;
   a duplicate cold read loses nothing but the redundant read. *)

let digest bytes = Digest.to_hex (Digest.string bytes)

let is_digest s =
  String.length s = 32
  && String.for_all
       (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
       s

type tier = Heap | Shared

type bigstring =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type image = In_heap of string | Off_heap of bigstring

(* Spill-tier accounting for the byte-budget LRU policy: one record per
   on-disk entry.  [m_use] is a store-local logical clock tick (bumped on
   every add/find touching the entry); [m_pins] protects in-flight entries
   from eviction. *)
type meta = { mutable m_bytes : int; mutable m_use : int; mutable m_pins : int }

type t = {
  table : (string, image) Hashtbl.t;
  dir : string option;
  tier : tier;
  lock : Mutex.t;
  (* byte budget for the spill directory (None = unbounded, the
     pre-existing behaviour); enforcement state below is only meaningful
     when both [dir] and [max_bytes] are set *)
  max_bytes : int option;
  bus : Darco_obs.Bus.t option;
  meta : (string, meta) Hashtbl.t;
  mutable clock : int;
  mutable disk_bytes : int;
}

let path_of dir d = Filename.concat dir (d ^ ".dsnp")

let create ?bus ?dir ?(tier = Heap) ?max_bytes () =
  Option.iter
    (fun d -> if not (Sys.file_exists d) then Unix.mkdir d 0o755)
    dir;
  let t =
    {
      table = Hashtbl.create 16;
      dir;
      tier;
      lock = Mutex.create ();
      max_bytes;
      bus;
      meta = Hashtbl.create 16;
      clock = 0;
      disk_bytes = 0;
    }
  in
  (* Seed the accounting from whatever a previous process left in the
     spill directory, oldest mtime first, so recency survives restarts
     well enough for LRU to keep making sense. *)
  (match dir with
  | None -> ()
  | Some d ->
    Sys.readdir d
    |> Array.to_list
    |> List.filter_map (fun f ->
           if Filename.check_suffix f ".dsnp" then begin
             let dg = Filename.chop_suffix f ".dsnp" in
             if is_digest dg then
               match Unix.stat (Filename.concat d f) with
               | st -> Some (dg, st.Unix.st_size, st.Unix.st_mtime)
               | exception Unix.Unix_error _ -> None
             else None
           end
           else None)
    |> List.sort (fun (_, _, a) (_, _, b) -> compare a b)
    |> List.iter (fun (dg, size, _) ->
           t.clock <- t.clock + 1;
           Hashtbl.replace t.meta dg
             { m_bytes = size; m_use = t.clock; m_pins = 0 };
           t.disk_bytes <- t.disk_bytes + size));
  t

let tier t = t.tier

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let of_bigstring (ba : bigstring) =
  String.init (Bigarray.Array1.dim ba) (fun i -> ba.{i})

let to_bigstring s : bigstring =
  let n = String.length s in
  let ba = Bigarray.(Array1.create char c_layout n) in
  for i = 0 to n - 1 do
    ba.{i} <- s.[i]
  done;
  ba

let string_of_image = function
  | In_heap s -> s
  | Off_heap ba -> of_bigstring ba

let image_of_string tier s =
  match tier with Heap -> In_heap s | Shared -> Off_heap (to_bigstring s)

(* Call under the lock.  Records (or refreshes) the spill accounting for
   [d] and marks it most recently used. *)
let touch_spilled t d bytes =
  t.clock <- t.clock + 1;
  match Hashtbl.find_opt t.meta d with
  | Some m ->
    t.disk_bytes <- t.disk_bytes + bytes - m.m_bytes;
    m.m_bytes <- bytes;
    m.m_use <- t.clock
  | None ->
    Hashtbl.replace t.meta d { m_bytes = bytes; m_use = t.clock; m_pins = 0 };
    t.disk_bytes <- t.disk_bytes + bytes

let pin t d =
  locked t (fun () ->
      match Hashtbl.find_opt t.meta d with
      | Some m -> m.m_pins <- m.m_pins + 1
      | None ->
        (* not spilled (or not yet): a pin must still stick so the entry
           cannot be evicted between its spill and its use *)
        Hashtbl.replace t.meta d { m_bytes = 0; m_use = 0; m_pins = 1 })

let unpin t d =
  locked t (fun () ->
      match Hashtbl.find_opt t.meta d with
      | Some m -> m.m_pins <- max 0 (m.m_pins - 1)
      | None -> ())

(* Evict least-recently-used unpinned spill entries (never [keep], the
   entry that triggered enforcement) until the directory fits the budget
   or nothing evictable remains — then over-budget is tolerated rather
   than dropping pinned or just-written content. *)
let enforce_budget t ~keep =
  match (t.dir, t.max_bytes) with
  | Some dir, Some budget ->
    let evicted =
      locked t (fun () ->
          let out = ref [] in
          let continue = ref true in
          while !continue && t.disk_bytes > budget do
            let victim =
              Hashtbl.fold
                (fun d (m : meta) acc ->
                  if d = keep || m.m_pins > 0 || m.m_bytes = 0 then acc
                  else
                    match acc with
                    | Some (_, (b : meta)) when b.m_use <= m.m_use -> acc
                    | _ -> Some (d, m))
                t.meta None
            in
            match victim with
            | None -> continue := false
            | Some (d, m) ->
              Hashtbl.remove t.table d;
              Hashtbl.remove t.meta d;
              t.disk_bytes <- t.disk_bytes - m.m_bytes;
              out := (d, m.m_bytes) :: !out
          done;
          List.rev !out)
    in
    List.iter
      (fun (d, bytes) ->
        (try Sys.remove (path_of dir d) with Sys_error _ -> ());
        Option.iter
          (fun b ->
            Darco_obs.Bus.emit b ~at:(Darco_obs.Clock.ticks ())
              (Darco_obs.Event.Store_evict { digest = d; bytes }))
          t.bus)
      evicted
  | _ -> ()

(* Map the spill file read-only.  The mapping is shared machine-wide
   through the page cache: ten worker processes cold-reading the same
   digest fault in one set of physical pages. *)
let map_whole path : bigstring =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Bigarray.array1_of_genarray
        (Unix.map_file fd Bigarray.char Bigarray.c_layout false [| -1 |]))

let add t bytes =
  let d = digest bytes in
  let fresh =
    locked t (fun () ->
        if Hashtbl.mem t.table d then false
        else begin
          Hashtbl.replace t.table d (image_of_string t.tier bytes);
          true
        end)
  in
  (match t.dir with
  | None -> ()
  | Some dir ->
    let path = path_of dir d in
    if fresh && not (Sys.file_exists path) then Buf.write_file path bytes;
    locked t (fun () -> touch_spilled t d (String.length bytes));
    enforce_budget t ~keep:d);
  d

let find t d =
  match locked t (fun () -> Hashtbl.find_opt t.table d) with
  | Some img ->
    if t.dir <> None then
      locked t (fun () ->
          if Hashtbl.mem t.meta d then
            touch_spilled t d (String.length (string_of_image img)));
    Some (string_of_image img)
  | None -> (
    match t.dir with
    | None -> None
    | Some dir -> (
      let path = path_of dir d in
      let cold =
        match t.tier with
        | Shared -> (
          match map_whole path with
          | exception Unix.Unix_error _ -> None
          | ba -> Some (Off_heap ba))
        | Heap -> (
          match Buf.read_file path with
          | exception Sys_error _ -> None
          | bytes -> Some (In_heap bytes))
      in
      match cold with
      | None -> None
      | Some img ->
        let bytes = string_of_image img in
        if digest bytes <> d then
          Buf.corrupt
            (Printf.sprintf "checkpoint cache entry %s does not match its digest"
               d);
        (* a concurrent cold read of the same digest may have raced us
           here; either image has the right content, last write wins *)
        locked t (fun () ->
            Hashtbl.replace t.table d img;
            touch_spilled t d (String.length bytes));
        Some bytes))

let mem t d = find t d <> None
let count t = locked t (fun () -> Hashtbl.length t.table)
let spilled_bytes t = locked t (fun () -> t.disk_bytes)

(* The benchmark's own span recorder.  Spans are taken around calls into
   the simulator's public functions, from outside: nothing inside the
   libraries is instrumented.  Each span has a name, a start, an end and a
   parent, all kept in memory until [write] at the end of the run.

   Recording is off unless [enable] is called; a disabled [span] costs one
   branch, so the untraced run and the traced run execute the same code. *)

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 for a root *)
  start_ns : int;
  mutable stop_ns : int;
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let enabled = ref false
let recorded : span list ref = ref []
let count = ref 0
let stack : int list ref = ref []
let enable () = enabled := true

let span name f =
  if not !enabled then f ()
  else begin
    let s =
      {
        id = !count;
        name;
        parent = (match !stack with p :: _ -> p | [] -> -1);
        start_ns = now_ns ();
        stop_ns = -1;
      }
    in
    incr count;
    recorded := s :: !recorded;
    stack := s.id :: !stack;
    let close () =
      s.stop_ns <- now_ns ();
      stack := List.tl !stack
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

let all () =
  let a = Array.of_list !recorded in
  Array.sort (fun x y -> compare x.id y.id) a;
  a

let dur s = s.stop_ns - s.start_ns

(* Self time: a span's duration minus what its children cover.  Children
   of one parent never overlap (the benchmark is single-threaded), so the
   covered time is the sum of their durations. *)
let self_times spans =
  let self = Array.map dur spans in
  Array.iter
    (fun s -> if s.parent >= 0 then self.(s.parent) <- self.(s.parent) - dur s)
    spans;
  self

let parent_name spans s = if s.parent < 0 then "" else spans.(s.parent).name

(* Durations (ns) of every span called [name], optionally only those
   whose parent is called [under]. *)
let durations ?under spans name =
  Array.fold_right
    (fun s acc ->
      if
        s.name = name
        && match under with None -> true | Some u -> parent_name spans s = u
      then dur s :: acc
      else acc)
    spans []

let total ?under spans name = List.fold_left ( + ) 0 (durations ?under spans name)

let write path spans =
  let self = self_times spans in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Array.iteri
        (fun i s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d,\"self_ns\":%d}\n"
            s.id s.name s.parent s.start_ns s.stop_ns self.(i))
        spans)

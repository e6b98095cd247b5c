(* In-memory span recorder for the traced run.

   A span is one timed call into a layer, recorded from the benchmark's
   own code around the library's public entry point.  Spans nest: the
   enclosing span at the time of the call is the parent, and spans of one
   request carry its id.  Nothing is written while the benchmark runs; the
   spans are kept in memory and dumped once at exit. *)

type t = {
  id : int;
  name : string;
  req : int;  (** request id; -1 for spans outside any request *)
  parent : int;  (** enclosing span id; -1 at top level *)
  t0 : float;
  t1 : float;
  work : float;  (** layer-defined amount of work: ops, visits, bytes *)
}

type count = { cname : string; creq : int; value : int }

let enabled = ref false
let spans : t list ref = ref []
let counts : count list ref = ref []
let next_id = ref 0

(* (span id, request id) of the open spans, innermost first *)
let stack : (int * int) list ref = ref []
let now = Unix.gettimeofday

(* Span times are written relative to process start: absolute epoch
   seconds would lose the sub-millisecond digits in the JSON output. *)
let origin = now ()

let current_req () = match !stack with (_, r) :: _ -> r | [] -> -1

let record ?req ?work name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent, outer_req =
      match !stack with (p, r) :: _ -> (p, r) | [] -> (-1, -1)
    in
    let req = Option.value req ~default:outer_req in
    stack := (id, req) :: !stack;
    let t0 = now () in
    let close v =
      let t1 = now () in
      stack := List.tl !stack;
      let work =
        match (work, v) with Some w, Some v -> w v | _ -> 0.0
      in
      spans := { id; name; req; parent; t0; t1; work } :: !spans
    in
    match f () with
    | v ->
        close (Some v);
        v
    | exception e ->
        close None;
        raise e
  end

let count name value =
  if !enabled then
    counts := { cname = name; creq = current_req (); value } :: !counts

let duration s = s.t1 -. s.t0

(* Self time: the span's duration minus the part its direct children
   cover (children never overlap: the benchmark is single-threaded and
   spans are strictly nested). *)
let self_times all =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.0))
    all;
  List.map
    (fun s ->
      (s, duration s -. Option.value (Hashtbl.find_opt child s.id) ~default:0.0))
    all

let to_json s =
  Cccs_obs.Json.(
    Obj
      [
        ("id", int s.id);
        ("name", Str s.name);
        ("req", int s.req);
        ("parent", int s.parent);
        ("start_s", Num (s.t0 -. origin));
        ("end_s", Num (s.t1 -. origin));
        ("work", Num s.work);
      ])

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc (Cccs_obs.Json.to_string (to_json s));
      output_char oc '\n')
    (List.rev !spans);
  close_out oc

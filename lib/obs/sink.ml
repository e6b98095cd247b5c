(* A sink is the single entry point instrumented code talks to.  The
   convention at every instrumentation site is

     match obs with
     | Some s -> Sink.emit s (Event.Fetch { ... })
     | None -> ()

   i.e. the event value is only constructed under the [Some] branch, so an
   uninstrumented run ([?obs] left out) allocates nothing and pays one
   pointer comparison per site. *)

type t = { emit : Event.t -> unit }

let make emit = { emit }
let emit t e = t.emit e

(* Fan one stream out to several consumers. *)
let tee a b = { emit = (fun e -> a.emit e; b.emit e) }

let null = { emit = ignore }

(* Time [f] and emit a span around it.  Spans are on the wall clock, not
   process CPU time: CPU time misses a sleep or a wait, and over a
   Parallel.map it adds up every domain.  [start_us] counts from program
   start, so it stays small enough for exact microseconds.  Spans are
   excluded from the determinism contract (see Event). *)
let epoch = Unix.gettimeofday ()

let timed ?obs ~stage ~label f =
  match obs with
  | None -> f ()
  | Some s ->
      let t0 = Unix.gettimeofday () in
      let r = f () in
      let t1 = Unix.gettimeofday () in
      emit s
        (Event.Span
           {
             stage;
             label;
             start_us = (t0 -. epoch) *. 1e6;
             dur_us = (t1 -. t0) *. 1e6;
           });
      r

let gauge ?obs name value =
  match obs with
  | None -> ()
  | Some s -> emit s (Event.Gauge { name; value })

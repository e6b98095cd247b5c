(* Benchmark harness: one run, no arguments ([--flame FILE] optional).

   Measures symbol decode throughput (two-level table vs the bit-serial
   reference), the layers under a whole-image decode, the experiment sweep
   wall-clock at jobs=1 vs jobs=4, differential fuzz campaign throughput
   and bounded-memory trace streaming.  Every measurement is checked
   against an oracle as it runs; a mismatch fails the run.  The rows are
   written to BENCH_perf.json (schema "cccs-bench/1") and appended to the
   ledger as one "bench_perf" entry.  The paper's figures are printed by
   `cccs all`, not here. *)

(* ------------------------------------------------------------------ *)
(* Shared fixtures: one small SPEC-like program and one kernel.        *)
(* ------------------------------------------------------------------ *)

let fixture =
  lazy
    (let e =
       match Workloads.Suite.find "compress" with
       | Some e -> e
       | None -> assert false
     in
     Cccs.Workload_run.load e)

let kernel =
  lazy
    (let e =
       match Workloads.Suite.find "fir" with
       | Some e -> e
       | None -> assert false
     in
     Cccs.Workload_run.load e)

let program () = (Lazy.force fixture).Cccs.Workload_run.compiled.Cccs.Pipeline.program

(* --flame FILE: one recorder for the whole run; each phase below wraps
   itself in a Bench-stage span through [bspan]. *)
let flame_obs : Cccs_obs.Sink.t option ref = ref None

let bspan label f =
  match !flame_obs with
  | None -> f ()
  | Some obs -> Cccs_obs.Sink.timed ~obs ~stage:Cccs_obs.Event.Bench ~label f

let flame_path () =
  let p = ref None in
  Array.iteri
    (fun i a ->
      if a = "--flame" && i + 1 < Array.length Sys.argv then
        p := Some Sys.argv.(i + 1)
      else if
        String.length a > 8 && String.sub a 0 8 = "--flame="
      then p := Some (String.sub a 8 (String.length a - 8)))
    Sys.argv;
  !p

(* ------------------------------------------------------------------ *)
(* perf/decode: symbol decode throughput, table vs bit-serial.         *)
(* ------------------------------------------------------------------ *)

let now = Unix.gettimeofday

(* Deterministic symbol source — stdlib Random changed algorithms across
   releases, and the stream must be identical for both decoders. *)
let lcg s = ((s * 1103515245) + 12345) land 0x3FFFFFFF

(* A long codeword stream in a real codebook: symbols drawn uniformly
   from the alphabet, encoded with the book itself, so every read is a
   valid decode and both decoders walk identical bits. *)
let symbol_stream book ~target_bits =
  let syms =
    Array.of_list
      (List.map
         (fun (s, _, _) -> s)
         (Huffman.Canonical.to_list (Huffman.Codebook.canonical book)))
  in
  let w = Bits.Writer.create () in
  let n = ref 0 and state = ref 42 in
  while Bits.Writer.length w < target_bits do
    state := lcg !state;
    Huffman.Codebook.write book w syms.(!state mod Array.length syms);
    incr n
  done;
  (Bits.Writer.contents w, !n)

(* Two concrete passes (not one parameterized by the decoder) so the
   per-symbol call is direct in both loops — an indirect call per symbol
   would tax both decoders equally and dilute the measured ratio. *)
let pass_table book data nsyms =
  let r = Bits.Reader.of_string data in
  let acc = ref 0 in
  for _ = 1 to nsyms do
    acc := !acc + Huffman.Codebook.read book r
  done;
  !acc

let pass_serial book data nsyms =
  let r = Bits.Reader.of_string data in
  let acc = ref 0 in
  for _ = 1 to nsyms do
    acc := !acc + Huffman.Codebook.read_serial book r
  done;
  !acc

(* MB/s over the compressed payload for both decoders.  The untimed first
   passes warm both paths and, on the table path, trigger the lazy LUT
   build, so table construction is not billed to decode time (it is
   amortized over a whole program image in real use).  The two decoders
   run in interleaved timing windows and each takes its best window:
   external noise (scheduler steal on a shared box) only ever slows a
   window down, so the max is the least-perturbed estimate, and
   interleaving keeps a noise burst from taxing only one side. *)
(* One timing window: repeat [pass] for 0.2 s and return passes per
   second.  Every pass result is checked against [expect]. *)
let window ~expect pass =
  let t0 = now () in
  let passes = ref 0 and elapsed = ref 0.0 in
  while !elapsed < 0.2 do
    if pass () <> expect then failwith "bench: decode mismatch";
    incr passes;
    elapsed := now () -. t0
  done;
  float_of_int !passes /. !elapsed

let windows_per_row = 5

let throughput book data nsyms =
  let expect = pass_table book data nsyms in
  if pass_serial book data nsyms <> expect then
    failwith "bench: serial/table decode mismatch";
  let mb = float_of_int (String.length data) /. 1e6 in
  let window pass = mb *. window ~expect pass in
  let wt = ref [] and ws = ref [] in
  for _ = 1 to windows_per_row do
    wt := window (fun () -> pass_table book data nsyms) :: !wt;
    ws := window (fun () -> pass_serial book data nsyms) :: !ws
  done;
  let best l = List.fold_left Float.max 0.0 l in
  (* All per-window table readings ride along as "samples" so perfdiff
     can bootstrap a confidence interval instead of trusting one point. *)
  (best !wt, best !ws, List.rev !wt)

type decode_perf = {
  scheme : string;
  table_mb_s : float;
  serial_mb_s : float;
  table_windows : float list;
}

let perf_decode () =
  let prog = program () in
  [
    ("full", Encoding.Full_huffman.build prog);
    ("byte", Encoding.Byte_huffman.build prog);
  ]
  |> List.map (fun (scheme, sc) ->
         let book = List.assoc scheme sc.Encoding.Scheme.books in
         let data, nsyms = symbol_stream book ~target_bits:(8 * 256 * 1024) in
         let table_mb_s, serial_mb_s, table_windows =
           throughput book data nsyms
         in
         { scheme; table_mb_s; serial_mb_s; table_windows })

(* ------------------------------------------------------------------ *)
(* perf/layer: the layers under a whole-image decode, per op.          *)
(* [codec] times the 40-bit op codec alone over every op of the        *)
(* program: [of_int] (word to op), [to_int] (op to word) and [decode]  *)
(* (op read from the baseline image).  [walk/<scheme>] times the       *)
(* checked block walk of one scheme's image, which includes its symbol *)
(* decode and op codec.  [image/<scheme>] times the whole-image        *)
(* [Pipeline.decompress], which adds re-encoding to the baseline       *)
(* image; each pass checks its output against that image.  Every      *)
(* layer runs in the perf/decode windows, interleaved; a row reports   *)
(* the best window and carries every window as a sample.               *)
(* ------------------------------------------------------------------ *)

type layer_perf = { layer : string; ns_per_op : float; ns_samples : float list }

let walk_pass (sc : Encoding.Scheme.t) () =
  let r = Bits.Reader.of_string sc.Encoding.Scheme.image in
  let ops = ref 0 in
  Array.iteri
    (fun i off ->
      Bits.Reader.seek r off;
      match Encoding.Scheme.decode_block_checked_at sc r i with
      | Ok l -> ops := !ops + List.length l
      | Error e -> failwith (Encoding.Scheme.decode_error_to_string e))
    sc.Encoding.Scheme.block_offset_bits;
  !ops

let image_pass ~truth ~nops (sc : Encoding.Scheme.t) () =
  match Cccs.Pipeline.decompress sc with
  | Ok (img, _) -> if String.equal img truth then nops else -1
  | Error e -> failwith (Encoding.Scheme.decode_error_to_string e)

let perf_layers () =
  let prog = program () in
  let truth = Tepic.Program.baseline_image prog in
  let ops = Array.of_list (Tepic.Program.all_ops prog) in
  let nops = Array.length ops in
  let words = Array.map Tepic.Encode.to_int ops in
  let image = Tepic.Encode.encode_ops (Array.to_list ops) in
  if Array.map Tepic.Encode.of_int words <> ops then
    failwith "bench: op codec round trip differs";
  let s = Cccs.Experiments.schemes_of (Lazy.force fixture) in
  let schemes =
    Cccs.Experiments.all_schemes s
    @ [
        ("dict", s.Cccs.Experiments.dict);
        ( "full+crc16",
          Encoding.Scheme.protect Encoding.Scheme.Crc16 s.Cccs.Experiments.full );
      ]
  in
  (* Each pass returns the number of ops it handled: the checked result. *)
  let layers =
    [
      ( "codec/of_int",
        fun () ->
          Array.iter
            (fun w -> ignore (Sys.opaque_identity (Tepic.Encode.of_int w)))
            words;
          nops );
      ( "codec/to_int",
        fun () ->
          Array.iter
            (fun op -> ignore (Sys.opaque_identity (Tepic.Encode.to_int op)))
            ops;
          nops );
      ( "codec/decode",
        fun () ->
          let r = Bits.Reader.of_string image in
          for _ = 1 to nops do
            ignore (Sys.opaque_identity (Tepic.Encode.decode r))
          done;
          nops );
    ]
    @ List.map (fun (name, sc) -> ("walk/" ^ name, walk_pass sc)) schemes
    @ List.map
        (fun name ->
          ("image/" ^ name, image_pass ~truth ~nops (List.assoc name schemes)))
        [ "base"; "full"; "full+crc16" ]
  in
  List.iter (fun (_, pass) -> ignore (pass ())) layers;
  let samples = List.map (fun (name, _) -> (name, ref [])) layers in
  for _ = 1 to windows_per_row do
    List.iter
      (fun (name, pass) ->
        let ns = 1e9 /. (window ~expect:nops pass *. float_of_int nops) in
        let l = List.assoc name samples in
        l := ns :: !l)
      layers
  done;
  List.map
    (fun (layer, l) ->
      {
        layer;
        ns_per_op = List.fold_left Float.min infinity !l;
        ns_samples = List.rev !l;
      })
    samples

(* ------------------------------------------------------------------ *)
(* perf/sweep: the experiment sweep wall-clock at jobs=1 vs jobs=4.    *)
(* ------------------------------------------------------------------ *)

(* perf/sweep may cost at most this factor over jobs=1 at jobs=4. *)
let never_lose_factor = 1.15

(* One cold-cache sweep: fig5 + fig13 for the whole SPEC set in a single
   Parallel.map, so the parallel run duplicates no work against the
   sequential one (each workload is loaded, encoded and simulated exactly
   once per sweep in both modes). *)
let sweep_once ~jobs =
  Cccs.Workload_run.clear_cache ();
  Cccs.Experiments.clear_cache ();
  let t0 = now () in
  let rows =
    Cccs.Parallel.map ~jobs
      (fun e ->
        let r = Cccs.Workload_run.load e in
        (Cccs.Experiments.fig5_for r, Cccs.Experiments.fig13_for r))
      Workloads.Suite.spec
  in
  (rows, now () -. t0)

let sweep_rows () =
  let rows1, s1 = bspan "sweep_jobs1" (fun () -> sweep_once ~jobs:1) in
  let rows4, s4 = bspan "sweep_jobs4" (fun () -> sweep_once ~jobs:4) in
  if rows1 <> rows4 then
    failwith "bench: parallel sweep diverged from sequential";
  let cores = Cccs.Parallel.cores () in
  Printf.printf
    "perf/sweep   jobs=1 %6.2fs   jobs=4 %6.2fs   %5.2fx  (%d cores, \
     results identical)\n%!"
    s1 s4 (s1 /. s4) cores;
  (* Never lose: on a 1-core runner Parallel.map degrades jobs=4 to the
     sequential walk, so the jobs=4 sweep may never lose to jobs=1 past
     noise.  (This run used to regress to 0.46x on 1 core before the
     clamp existed.) *)
  if s4 > (s1 *. never_lose_factor) +. 0.1 then
    failwith
      (Printf.sprintf
         "bench: sweep jobs=4 (%.2fs) lost to jobs=1 (%.2fs) past the \
          %.2fx never-lose bound (%d cores)"
         s4 s1 never_lose_factor cores);
  let open Cccs_obs.Json in
  [
    Obj [ ("name", Str "perf/sweep/jobs1"); ("seconds", Num s1) ];
    Obj
      [
        ("name", Str "perf/sweep/jobs4");
        ("seconds", Num s4);
        ("speedup", Num (s1 /. s4));
        ("cores", int cores);
      ];
  ]

(* ------------------------------------------------------------------ *)
(* perf/fuzz and perf/stream: campaign throughput over a fixed seed,   *)
(* and bounded-memory trace streaming.  A two-million-visit trace is   *)
(* written through Trace_stream, replayed through Fetch.Sim.run_iter   *)
(* without ever materializing the visit sequence, and the heap is      *)
(* sampled along the way — growth past the cap (or a result that       *)
(* differs from the direct in-memory iterator) fails the run.          *)
(* ------------------------------------------------------------------ *)

let stream_target_visits = 2_000_000
let stream_heap_cap_bytes = 32 * 1024 * 1024

let fuzz_campaign_row () =
  let spec = { Cccs_fuzz.Fuzz.default_spec with Cccs_fuzz.Fuzz.runs = 2000 } in
  let r = Cccs_fuzz.Fuzz.run spec in
  if r.Cccs_fuzz.Fuzz.findings <> [] then
    failwith "bench: fixed-seed fuzz campaign produced findings";
  let cases = r.Cccs_fuzz.Fuzz.tallies.Cccs_fuzz.Fuzz.cases in
  let cps = float_of_int cases /. r.Cccs_fuzz.Fuzz.seconds in
  Printf.printf "perf/fuzz/campaign   %d cases in %.2fs  (%.0f cases/s)\n%!"
    cases r.Cccs_fuzz.Fuzz.seconds cps;
  let open Cccs_obs.Json in
  Obj
    [
      ("name", Str "perf/fuzz/campaign");
      ("cases", int cases);
      ("seconds", Num r.Cccs_fuzz.Fuzz.seconds);
      ("cases_per_s", Num cps);
      ("findings", int (List.length r.Cccs_fuzz.Fuzz.findings));
    ]

let stream_rows () =
  let module Ts = Workloads.Trace_stream in
  let run_k = Lazy.force kernel in
  let prog = run_k.Cccs.Workload_run.compiled.Cccs.Pipeline.program in
  let base =
    let acc = ref [] in
    Emulator.Trace.iter
      (fun b -> acc := b :: !acc)
      run_k.Cccs.Workload_run.exec.Emulator.Exec.trace;
    Array.of_list (List.rev !acc)
  in
  let n = Array.length base in
  let path = Filename.temp_file "cccs_bench_stream" ".trc" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let t0 = now () in
      let w = Ts.create path in
      let i = ref 0 in
      while Ts.visits_written w < stream_target_visits do
        Ts.add w base.(!i);
        i := if !i + 1 = n then 0 else !i + 1
      done;
      Ts.close w;
      let write_s = now () -. t0 in
      let file_bytes = (Unix.stat path).Unix.st_size in
      let sch = Encoding.Full_huffman.build prog in
      let cfg = Fetch.Config.default in
      let att = Encoding.Att.build sch ~line_bits:cfg.Fetch.Config.line_bits prog in
      let sim iter_blocks =
        Fetch.Sim.run_iter ~model:Fetch.Config.Compressed ~cfg ~scheme:sch ~att
          iter_blocks
      in
      (* Direct in-memory replay of the same visit sequence: the oracle the
         streamed run must match bit for bit. *)
      let expect =
        sim (fun f ->
            let i = ref 0 in
            for _ = 1 to stream_target_visits do
              f base.(!i);
              i := if !i + 1 = n then 0 else !i + 1
            done)
      in
      Gc.compact ();
      let heap0 = (Gc.quick_stat ()).Gc.heap_words in
      let peak = ref heap0 in
      let visits = ref 0 in
      let t0 = now () in
      let streamed =
        match
          Ts.with_blocks path ~f:(fun iter_blocks ->
              sim (fun f ->
                  iter_blocks (fun b ->
                      incr visits;
                      if !visits land 0xFFFF = 0 then
                        peak :=
                          max !peak (Gc.quick_stat ()).Gc.heap_words;
                      f b)))
        with
        | Ok r -> r
        | Error e -> failwith ("bench: " ^ Ts.error_to_string e)
      in
      let replay_s = now () -. t0 in
      peak := max !peak (Gc.quick_stat ()).Gc.heap_words;
      let heap_delta = (!peak - heap0) * (Sys.word_size / 8) in
      let bounded = heap_delta <= stream_heap_cap_bytes in
      if !visits <> stream_target_visits then
        failwith "bench: streamed replay lost visits";
      if streamed <> expect then
        failwith "bench: streamed result differs from in-memory replay";
      Printf.printf
        "perf/stream/write    %d visits in %.2fs  (%.1f Mvisits/s, %d bytes)\n"
        stream_target_visits write_s
        (float_of_int stream_target_visits /. write_s /. 1e6)
        file_bytes;
      Printf.printf
        "perf/stream/replay   %d visits in %.2fs  (%.1f Mvisits/s)  heap \
         +%.1f MB (cap %d MB)%s\n%!"
        streamed.Fetch.Sim.block_visits replay_s
        (float_of_int stream_target_visits /. replay_s /. 1e6)
        (float_of_int heap_delta /. 1e6)
        (stream_heap_cap_bytes / 1024 / 1024)
        (if bounded then "" else "  ** OVER CAP **");
      if not bounded then
        failwith "bench: streaming replay heap grew past the cap";
      let open Cccs_obs.Json in
      [
        Obj
          [
            ("name", Str "perf/stream/write");
            ("visits", int stream_target_visits);
            ("seconds", Num write_s);
            ("visits_per_s", Num (float_of_int stream_target_visits /. write_s));
            ("file_bytes", int file_bytes);
          ];
        Obj
          [
            ("name", Str "perf/stream/replay");
            ("visits", int streamed.Fetch.Sim.block_visits);
            ("seconds", Num replay_s);
            ( "visits_per_s",
              Num (float_of_int stream_target_visits /. replay_s) );
            ("heap_peak_delta_bytes", int heap_delta);
            ("heap_cap_bytes", int stream_heap_cap_bytes);
            ("bounded", Bool bounded);
          ];
      ])

(* ------------------------------------------------------------------ *)
(* The run: every phase, then BENCH_perf.json and one ledger entry.    *)
(* ------------------------------------------------------------------ *)

let run () =
  Printf.printf
    "CCCS bench — decode, decode layers, sweep, fuzz and streaming\n%s\n"
    (String.make 68 '-');
  let decode_rows = bspan "decode" perf_decode in
  List.iter
    (fun d ->
      Printf.printf
        "perf/decode/%-6s table %7.1f MB/s | serial %6.1f MB/s (%4.1fx)\n%!"
        d.scheme d.table_mb_s d.serial_mb_s
        (d.table_mb_s /. d.serial_mb_s))
    decode_rows;
  let layer_rows = bspan "layer" perf_layers in
  List.iter
    (fun l ->
      Printf.printf "perf/layer/%-18s %8.1f ns/op\n%!" l.layer l.ns_per_op)
    layer_rows;
  let sweep = sweep_rows () in
  let campaign = bspan "fuzz_campaign" fuzz_campaign_row in
  let streams = bspan "stream" stream_rows in
  let open Cccs_obs.Json in
  let layer_json l =
    Obj
      [
        ("name", Str ("perf/layer/" ^ l.layer));
        ("ns_per_op", Num l.ns_per_op);
        ("samples", Arr (List.map (fun x -> Num x) l.ns_samples));
      ]
  in
  let decode_json d =
    Obj
      [
        ("name", Str ("perf/decode/" ^ d.scheme));
        ("mb_per_s", Num d.table_mb_s);
        ("serial_mb_per_s", Num d.serial_mb_s);
        ("speedup_vs_serial", Num (d.table_mb_s /. d.serial_mb_s));
        ("samples", Arr (List.map (fun x -> Num x) d.table_windows));
      ]
  in
  let rows =
    List.map decode_json decode_rows
    @ List.map layer_json layer_rows
    @ sweep @ (campaign :: streams)
  in
  Cccs_obs.Export.write_file "BENCH_perf.json"
    (to_string (Obj [ ("schema", Str "cccs-bench/1"); ("results", Arr rows) ])
    ^ "\n");
  Printf.printf "wrote %d rows to BENCH_perf.json\n" (List.length rows);
  (* CCCS_LEDGER=off disables the entry; `cccs perfdiff` compares the
     last two. *)
  try
    Cccs_obs.Ledger.record ~kind:"bench_perf"
      ~jobs:(Cccs.Parallel.default_jobs ())
      ~schemes:(List.map (fun d -> d.scheme) decode_rows)
      rows
  with Sys_error msg -> Printf.eprintf "ledger: %s\n%!" msg

let () =
  let flame = flame_path () in
  let rc = Option.map (fun _ -> Cccs_obs.Recorder.create ()) flame in
  flame_obs := Option.map Cccs_obs.Recorder.sink rc;
  run ();
  match (flame, rc) with
  | Some path, Some rc ->
      let nodes = Cccs_obs.Flame.of_recorder rc in
      Cccs_obs.Flame.write ~path nodes;
      Printf.printf "wrote flamegraph (%.1f ms instrumented) to %s\n"
        (Cccs_obs.Flame.total_us nodes /. 1e3)
        path
  | _ -> ()

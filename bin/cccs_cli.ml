(* cccs — command-line driver for the code-compression study.

   Subcommands: list, compile, compress, decode, simulate, decoder, trace,
   verify, the checkers (lint, validate, certify, wcet — one driver, see
   [checker_cmd]), faults, fuzz, perfdiff, disasm, stats, export, and the
   experiment reproductions (fig5, fig7, fig10, fig13, fig14, ablation,
   predictors, superblocks, all). *)

open Cmdliner

(* Every subcommand threads this first: it installs the Logs reporter on
   stderr and wires the standard -v / -q / --verbosity flags. *)
let setup_logs =
  let init style_renderer level =
    Fmt_tty.setup_std_outputs ?style_renderer ();
    Logs.set_level level;
    Logs.set_reporter (Logs_fmt.reporter ())
  in
  Term.(const init $ Fmt_cli.style_renderer () $ Logs_cli.level ())

let find_workload name =
  match Workloads.Suite.find name with
  | Some e -> e
  | None ->
      Logs.err (fun m -> m "unknown workload %S; try `cccs list`" name);
      exit 1

let bench_arg =
  let doc = "Workload name (see `cccs list`)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH" ~doc)

(* Append one entry to the cross-run ledger (CCCS_LEDGER=off disables);
   never let telemetry bookkeeping fail the measured command itself. *)
let ledger_append ~kind ?(jobs = 1) ?(schemes = []) ?(meta = []) rows =
  if Cccs_obs.Ledger.enabled () then
    try
      Cccs_obs.Ledger.append
        ~path:(Cccs_obs.Ledger.default_path ())
        (Cccs_obs.Ledger.make ~kind
           ~git_rev:(Cccs_obs.Ledger.git_rev ())
           ~timestamp:(Unix.gettimeofday ())
           ~cores:(Cccs.Parallel.cores ())
           ~jobs ~schemes ~meta rows)
    with Sys_error msg -> Logs.warn (fun m -> m "ledger: %s" msg)

let flame_arg =
  let doc =
    "Write a collapsed-stack flamegraph of the pipeline stage spans to \
     $(docv) (self time per frame, integer microseconds; a $(b,.json) \
     suffix writes Chrome trace-event / Perfetto JSON instead)."
  in
  Arg.(value & opt (some string) None & info [ "flame" ] ~docv:"FILE" ~doc)

let write_flame path rc =
  let nodes = Cccs_obs.Flame.of_recorder rc in
  Cccs_obs.Flame.write ~path nodes;
  Logs.app (fun m ->
      m "wrote flamegraph (%d root span(s), %.1f ms instrumented) to %s"
        (List.length nodes)
        (Cccs_obs.Flame.total_us nodes /. 1e3)
        path)

let list_cmd =
  let run (() : unit) () =
    List.iter
      (fun (e : Workloads.Suite.entry) ->
        Printf.printf "%-14s %s\n" e.name
          (match e.kind with
          | `Spec -> "SPECint95-like synthetic program"
          | `Kernel -> "hand-written DSP kernel"))
      Workloads.Suite.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List available workloads")
    Term.(const run $ setup_logs $ const ())

let compile_cmd =
  let run () bench flame =
    let rc =
      match flame with
      | None -> None
      | Some _ -> Some (Cccs_obs.Recorder.create ())
    in
    let obs = Option.map Cccs_obs.Recorder.sink rc in
    let r = Cccs.Workload_run.load ?obs (find_workload bench) in
    let c = r.Cccs.Workload_run.compiled in
    let prog = c.Cccs.Pipeline.program in
    Printf.printf "workload      %s\n" r.Cccs.Workload_run.name;
    Printf.printf "blocks        %d\n" (Tepic.Program.num_blocks prog);
    Printf.printf "static ops    %d\n" (Tepic.Program.num_ops prog);
    Printf.printf "static MOPs   %d\n" (Tepic.Program.num_mops prog);
    Printf.printf "schedule ILP  %.2f ops/cycle\n" c.Cccs.Pipeline.ilp;
    Printf.printf "speculated    %d ops\n" c.Cccs.Pipeline.hoisted;
    Printf.printf "spill slots   %d\n" c.Cccs.Pipeline.spill_slots;
    List.iter
      (fun (cls, peak) ->
        Printf.printf "peak live %s   %d\n" (Tepic.Reg.cls_to_string cls) peak)
      c.Cccs.Pipeline.max_live;
    Printf.printf "executed ops  %d\n"
      (Emulator.Trace.total_ops r.Cccs.Workload_run.exec.Emulator.Exec.trace);
    Printf.printf "block visits  %d\n"
      (Emulator.Trace.length r.Cccs.Workload_run.exec.Emulator.Exec.trace);
    match (flame, rc) with
    | Some path, Some rc -> write_flame path rc
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile and execute a workload; print statistics")
    Term.(const run $ setup_logs $ bench_arg $ flame_arg)

let compress_cmd =
  let run () bench =
    let r = Cccs.Workload_run.load (find_workload bench) in
    let s = Cccs.Experiments.schemes_of r in
    let base_bits = s.Cccs.Experiments.base.Encoding.Scheme.code_bits in
    Printf.printf "%-10s %10s %10s %8s %12s\n" "scheme" "code-bits" "table-bits"
      "ratio" "transistors";
    List.iter
      (fun (sc : Encoding.Scheme.t) ->
        Printf.printf "%-10s %10d %10d %8.3f %12d\n" sc.Encoding.Scheme.name
          sc.Encoding.Scheme.code_bits sc.Encoding.Scheme.table_bits
          (Encoding.Scheme.ratio sc ~baseline_bits:base_bits)
          sc.Encoding.Scheme.decoder.Encoding.Scheme.transistors)
      ([ s.Cccs.Experiments.base; s.Cccs.Experiments.byte ]
      @ List.map snd s.Cccs.Experiments.streams
      @ [
          s.Cccs.Experiments.full;
          s.Cccs.Experiments.tailored;
          s.Cccs.Experiments.dict;
        ])
  in
  Cmd.v
    (Cmd.info "compress" ~doc:"Build every encoding scheme for a workload")
    Term.(const run $ setup_logs $ bench_arg)

let decode_cmd =
  let scheme_arg =
    let doc =
      "Scheme to decode: $(b,base), $(b,byte), $(b,stream*), $(b,full), \
       $(b,tailored) or $(b,dict) (see `cccs compress BENCH`)."
    in
    Arg.(value & opt string "full" & info [ "scheme" ] ~docv:"NAME" ~doc)
  in
  let protect_arg =
    let doc =
      "Wrap the scheme in protected block framing first: $(b,none), \
       $(b,crc8) or $(b,crc16) (strategy $(b,frames))."
    in
    Arg.(value & opt string "none" & info [ "protect" ] ~docv:"MODE" ~doc)
  in
  let out_arg =
    let doc = "Write the decoded 40-bit baseline image to $(docv)." in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let json_arg =
    let doc = "Machine-readable report (schema cccs-decode/1) on stdout." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run () bench scheme protect out json flame =
    let r = Cccs.Workload_run.load (find_workload bench) in
    let s = Cccs.Experiments.schemes_of r in
    let named =
      Cccs.Experiments.all_schemes s @ [ ("dict", s.Cccs.Experiments.dict) ]
    in
    let sc =
      match List.assoc_opt scheme named with
      | Some sc -> sc
      | None ->
          Logs.err (fun m ->
              m "decode: unknown scheme %S (one of: %s)" scheme
                (String.concat ", " (List.map fst named)));
          exit 2
    in
    let sc =
      match Encoding.Scheme.protection_of_name protect with
      | Some Encoding.Scheme.Unprotected -> sc
      | Some p -> Encoding.Scheme.protect p sc
      | None ->
          Logs.err (fun m ->
              m "decode: unknown protection %S (none|crc8|crc16)" protect);
          exit 2
    in
    let rc =
      match flame with
      | None -> None
      | Some _ -> Some (Cccs_obs.Recorder.create ())
    in
    let obs = Option.map Cccs_obs.Recorder.sink rc in
    let truth =
      Tepic.Program.baseline_image
        r.Cccs.Workload_run.compiled.Cccs.Pipeline.program
    in
    let t0 = Unix.gettimeofday () in
    match Cccs.Pipeline.decompress ?obs sc with
    | Error e ->
        Logs.err (fun m ->
            m "decode: %s" (Encoding.Scheme.decode_error_to_string e));
        exit 1
    | Ok (img, rep) ->
        let seconds = Unix.gettimeofday () -. t0 in
        let exact = String.equal img truth in
        let mb_per_s =
          if seconds > 0.0 then
            float_of_int (String.length sc.Encoding.Scheme.image)
            /. seconds /. 1e6
          else 0.0
        in
        (match out with
        | None -> ()
        | Some path ->
            let oc = open_out_bin path in
            output_string oc img;
            close_out oc);
        (match (flame, rc) with
        | Some path, Some rc -> write_flame path rc
        | _ -> ());
        if json then
          print_endline
            (Cccs_obs.Json.to_string
               (Cccs_obs.Json.Obj
                  [
                    ("schema", Cccs_obs.Json.Str "cccs-decode/1");
                    ("bench", Cccs_obs.Json.Str bench);
                    ("scheme", Cccs_obs.Json.Str sc.Encoding.Scheme.name);
                    ("protection", Cccs_obs.Json.Str protect);
                    ( "strategy",
                      Cccs_obs.Json.Str
                        (Cccs.Par_decode.strategy_name
                           rep.Cccs.Par_decode.strategy) );
                    (* jobs, chunks, min_chunk_bits and
                       resync_overhead_bits are fixed by the sequential
                       walk; cccs-decode/1 keeps them. *)
                    ("jobs", Cccs_obs.Json.int 1);
                    ("cores", Cccs_obs.Json.int (Cccs.Parallel.cores ()));
                    ("chunks", Cccs_obs.Json.int rep.Cccs.Par_decode.chunks);
                    ("min_chunk_bits", Cccs_obs.Json.int 0);
                    ( "resync_overhead_bits",
                      Cccs_obs.Json.int
                        rep.Cccs.Par_decode.resync_overhead_bits );
                    ( "compressed_bytes",
                      Cccs_obs.Json.int (String.length sc.Encoding.Scheme.image)
                    );
                    ("decoded_bytes", Cccs_obs.Json.int (String.length img));
                    ("exact", Cccs_obs.Json.Bool exact);
                    ("seconds", Cccs_obs.Json.Num seconds);
                    ("mb_per_s", Cccs_obs.Json.Num mb_per_s);
                  ]))
        else begin
          Printf.printf "workload       %s\n" bench;
          Printf.printf "scheme         %s\n" sc.Encoding.Scheme.name;
          Printf.printf "strategy       %s\n"
            (Cccs.Par_decode.strategy_to_string rep.Cccs.Par_decode.strategy);
          Printf.printf "jobs           1 (of %d core(s))\n"
            (Cccs.Parallel.cores ());
          Printf.printf "chunks         %d (floor 0 bits/chunk)\n"
            rep.Cccs.Par_decode.chunks;
          Printf.printf "resync bound   %d bits speculative over-read\n"
            rep.Cccs.Par_decode.resync_overhead_bits;
          Printf.printf "decoded        %d bytes from %d compressed (%s)\n"
            (String.length img)
            (String.length sc.Encoding.Scheme.image)
            (if exact then "bit-exact vs baseline" else "MISMATCH");
          Printf.printf "throughput     %.2f MB/s compressed (%.4fs)\n"
            mb_per_s seconds
        end;
        exit (if exact then 0 else 1)
  in
  Cmd.v
    (Cmd.info "decode"
       ~doc:
         "Decompress one scheme's ROM image back to the 40-bit baseline \
          image, block by block through the verifying decoder; verifies \
          bit-exactness against the baseline")
    Term.(const run $ setup_logs $ bench_arg $ scheme_arg $ protect_arg
          $ out_arg $ json_arg $ flame_arg)

let perfetto_arg =
  let doc =
    "Also write a Chrome trace-event / Perfetto JSON timeline to $(docv) \
     (load it in ui.perfetto.dev or chrome://tracing)."
  in
  Arg.(value & opt (some string) None & info [ "perfetto" ] ~docv:"FILE" ~doc)

let simulate_cmd =
  let run () bench perfetto flame =
    (* The flame recorder sees only stage spans: the compile pipeline's
       (via load ~obs) plus one Simulate span per fetch model, wrapped
       below — not the per-event fetch stream, which has its own
       --perfetto recorders. *)
    let frc =
      match flame with
      | None -> None
      | Some _ -> Some (Cccs_obs.Recorder.create ())
    in
    let fobs = Option.map Cccs_obs.Recorder.sink frc in
    let timed_flame label f =
      match fobs with
      | None -> f ()
      | Some obs ->
          Cccs_obs.Sink.timed ~obs ~stage:Cccs_obs.Event.Simulate ~label f
    in
    let r = Cccs.Workload_run.load ?obs:fobs (find_workload bench) in
    let s = Cccs.Experiments.schemes_of r in
    let prog = r.Cccs.Workload_run.compiled.Cccs.Pipeline.program in
    let trace = r.Cccs.Workload_run.exec.Emulator.Exec.trace in
    let cfg = Fetch.Config.default in
    let cfg_base = Fetch.Config.default_base in
    let att sc c =
      Encoding.Att.build sc ~line_bits:c.Fetch.Config.line_bits prog
    in
    let att_base = att s.Cccs.Experiments.base cfg_base in
    let tracks = ref [] in
    (* One recorder per fetch model, so the Perfetto export shows the four
       models as separate named processes. *)
    let with_track name f =
      match perfetto with
      | None -> f None
      | Some _ ->
          let rc = Cccs_obs.Recorder.create () in
          let res = f (Some (Cccs_obs.Recorder.sink rc)) in
          tracks := (name, Cccs_obs.Recorder.events rc) :: !tracks;
          res
    in
    (* Bind each run explicitly: list literals evaluate right-to-left, which
       would register the Perfetto tracks in reverse. *)
    let ideal =
      timed_flame "ideal" (fun () ->
          with_track "ideal" (fun obs ->
              Fetch.Sim.run_ideal ?obs ~att:att_base trace))
    in
    let base =
      timed_flame "base" (fun () ->
          with_track "base" (fun obs ->
              Fetch.Sim.run ?obs ~model:Fetch.Config.Base ~cfg:cfg_base
                ~scheme:s.Cccs.Experiments.base ~att:att_base trace))
    in
    let compressed =
      timed_flame "compressed" (fun () ->
          with_track "compressed" (fun obs ->
              Fetch.Sim.run ?obs ~model:Fetch.Config.Compressed ~cfg
                ~scheme:s.Cccs.Experiments.full
                ~att:(att s.Cccs.Experiments.full cfg)
                trace))
    in
    let tailored =
      timed_flame "tailored" (fun () ->
          with_track "tailored" (fun obs ->
              Fetch.Sim.run ?obs ~model:Fetch.Config.Tailored ~cfg
                ~scheme:s.Cccs.Experiments.tailored
                ~att:(att s.Cccs.Experiments.tailored cfg)
                trace))
    in
    let results = [ ideal; base; compressed; tailored ] in
    List.iter (fun res -> Format.printf "%a@." Fetch.Sim.pp res) results;
    (match perfetto with
    | None -> ()
    | Some path ->
        Cccs_obs.Export.write_file path
          (Cccs_obs.Json.to_string
             (Cccs_obs.Export.chrome_trace (List.rev !tracks)));
        Logs.app (fun m -> m "wrote Perfetto trace to %s" path));
    match (flame, frc) with
    | Some path, Some rc -> write_flame path rc
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Run the four fetch models on a workload")
    Term.(const run $ setup_logs $ bench_arg $ perfetto_arg $ flame_arg)

let decoder_cmd =
  let kind_arg =
    let doc = "Decoder to emit: tailored | full | byte." in
    Arg.(value & opt string "tailored" & info [ "kind" ] ~doc)
  in
  let run () bench kind =
    let r = Cccs.Workload_run.load (find_workload bench) in
    let s = Cccs.Experiments.schemes_of r in
    match kind with
    | "tailored" ->
        print_string
          (Encoding.Decoder_gen.tailored_decoder
             ~module_name:(bench ^ "_tailored_decoder")
             s.Cccs.Experiments.tailored_spec)
    | "full" | "byte" ->
        (* Rebuild the codebook to emit its dictionary ROM. *)
        let prog = r.Cccs.Workload_run.compiled.Cccs.Pipeline.program in
        let freq = Huffman.Freq.create () in
        Tepic.Program.iter_ops
          (fun op ->
            if kind = "full" then
              Huffman.Freq.add freq (Tepic.Encode.to_int op)
            else
              String.iter
                (fun c -> Huffman.Freq.add freq (Char.code c))
                (Tepic.Encode.encode_ops [ op ]))
          prog;
        let book =
          Huffman.Codebook.make
            ~max_len:
              (if kind = "full" then Encoding.Full_huffman.max_code_len
               else Encoding.Byte_huffman.max_code_len)
            ~symbol_bits:(fun _ -> if kind = "full" then 40 else 8)
            freq
        in
        print_string
          (Encoding.Decoder_gen.huffman_tables
             ~module_name:(bench ^ "_" ^ kind ^ "_dict")
             book)
    | other ->
        Logs.err (fun m -> m "unknown decoder kind %S" other);
        exit 1
  in
  Cmd.v
    (Cmd.info "decoder" ~doc:"Emit the Verilog decoder for a workload")
    Term.(const run $ setup_logs $ bench_arg $ kind_arg)

let trace_cmd =
  let path_arg =
    let doc = "Output path for the trace file." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"PATH" ~doc)
  in
  let run () bench path perfetto =
    let e = find_workload bench in
    let r =
      match perfetto with
      | None -> Cccs.Workload_run.load e
      | Some p ->
          (* Instrument the whole lower→compile→execute pipeline and dump
             the stage spans as a Perfetto timeline. *)
          let rc = Cccs_obs.Recorder.create () in
          let r = Cccs.Workload_run.load ~obs:(Cccs_obs.Recorder.sink rc) e in
          Cccs_obs.Export.write_file p
            (Cccs_obs.Json.to_string
               (Cccs_obs.Export.chrome_trace
                  [ ("pipeline", Cccs_obs.Recorder.events rc) ]));
          Logs.app (fun m -> m "wrote Perfetto span trace to %s" p);
          r
    in
    let t = r.Cccs.Workload_run.exec.Emulator.Exec.trace in
    Emulator.Trace.save t path;
    Printf.printf "wrote %d block visits (%d ops) to %s\n"
      (Emulator.Trace.length t) (Emulator.Trace.total_ops t) path
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Execute a workload and save its block-address trace to a file")
    Term.(const run $ setup_logs $ bench_arg $ path_arg $ perfetto_arg)

let verify_cmd =
  let run () bench =
    let r = Cccs.Workload_run.load (find_workload bench) in
    let prog = r.Cccs.Workload_run.compiled.Cccs.Pipeline.program in
    let mem_ok, trace_ok = Cccs.Workload_run.differential r in
    let decode_ok = ref true in
    List.iter
      (fun (sc : Encoding.Scheme.t) ->
        Printf.printf "scheme %-10s decode-back %s\n" sc.Encoding.Scheme.name
          (match Encoding.Scheme.verify sc prog with
          | () -> "OK"
          | exception Failure msg ->
              decode_ok := false;
              "FAILED: " ^ msg))
      (Cccs.Analysis.target_of_run r).Cccs.Analysis.Pass.schemes;
    let ok b = if b then "OK" else "MISMATCH" in
    Printf.printf "differential memory  %s\n" (ok mem_ok);
    Printf.printf "differential trace   %s\n" (ok trace_ok);
    if not (!decode_ok && mem_ok && trace_ok) then exit 1
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Differentially verify one workload (scheduled vs sequential \
          semantics) and decode-check every scheme")
    Term.(const run $ setup_logs $ bench_arg)

(* The checker subcommands — lint, validate, certify, wcet — share one
   contract: check BENCH or the whole suite (--all); print a human report
   on stdout, or under --json one cccs-<cmd>/1 object on stdout with the
   human report on stderr; exit 1 on any error, 0 otherwise (warnings
   included), 2 on a usage error and 1 on an unknown workload.  A checker
   states only what differs; [checker_cmd] is the rest. *)

module Diag = Cccs.Analysis.Diag
module Collector = Cccs.Analysis.Diag.Collector

type 'a checker = {
  cmd : string;
  schema : string;
  doc : string;
  setup : 'a Term.t;
      (* the command's own options, evaluated once per invocation *)
  check :
    'a -> Format.formatter -> Collector.t -> Cccs.Workload_run.run ->
    Cccs_obs.Json.t;
      (* one workload: collect its diagnostics, print its human lines and
         return its JSON *)
  extras : 'a -> Collector.t -> Cccs_obs.Json.t list ->
    (string * Cccs_obs.Json.t) list;
      (* the envelope fields after "schema" and "ok", given every
         workload's JSON *)
  trailer : Format.formatter -> Collector.t -> unit;
}

let opt_json f = function None -> Cccs_obs.Json.Null | Some v -> f v

let diag_json (d : Diag.t) =
  let open Cccs_obs.Json in
  let loc = d.Diag.loc in
  Obj
    [
      ("code", Str d.Diag.code);
      ("severity", Str (Format.asprintf "%a" Diag.pp_severity d.Diag.severity));
      ("workload", Str loc.Diag.workload);
      ("scheme", opt_json (fun s -> Str s) loc.Diag.scheme);
      ("block", opt_json int loc.Diag.block);
      ("inst", opt_json int loc.Diag.inst);
      ("bit", opt_json int loc.Diag.bit);
      ("message", Str d.Diag.message);
    ]

(* Add [diags] to the collector and print those [show] selects. *)
let collect ?(show = fun _ -> true) out collector diags =
  Collector.add_list collector diags;
  List.iter
    (fun d -> if show d then Format.fprintf out "%s@." (Diag.to_string d))
    diags

let workload_json name schemes =
  Cccs_obs.Json.(Obj [ ("name", Str name); ("schemes", Arr schemes) ])

let counts collector =
  Cccs_obs.Json.
    [
      ("errors", int (Collector.errors collector));
      ("warnings", int (Collector.warnings collector));
    ]

let counts_and_workloads _ collector workloads =
  counts collector @ [ ("workloads", Cccs_obs.Json.Arr workloads) ]

(* "<cmd>: <verdict> (N errors, M warnings)", FAILED on any error. *)
let verdict cmd word out collector =
  Format.fprintf out "%s: %s (%a)@." cmd
    (if Collector.exit_status collector = 0 then word else "FAILED")
    Collector.pp_summary collector

let checker_cmd c =
  let bench_opt_arg =
    let doc = "Workload name (see `cccs list`).  Omit with $(b,--all)." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"BENCH" ~doc)
  in
  let all_arg =
    let doc = "Check every workload in the suite." in
    Arg.(value & flag & info [ "all" ] ~doc)
  in
  let json_arg =
    let doc =
      Printf.sprintf
        "Emit one machine-readable JSON report (schema $(b,%s)) on stdout; \
         the human-readable report moves to stderr."
        c.schema
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run () bench all json setup =
    let entries =
      if all then Workloads.Suite.all
      else
        match bench with
        | Some b -> [ find_workload b ]
        | None ->
            Logs.err (fun m -> m "%s: give a BENCH or --all" c.cmd);
            exit 2
    in
    (* In JSON mode stdout carries exactly one JSON object. *)
    let out = if json then Format.err_formatter else Format.std_formatter in
    let collector = Collector.create () in
    let workloads =
      List.map
        (fun e -> c.check setup out collector (Cccs.Workload_run.load e))
        entries
    in
    c.trailer out collector;
    let status = Collector.exit_status collector in
    if json then
      print_endline
        Cccs_obs.Json.(
          to_string
            (Obj
               (("schema", Str c.schema)
               :: ("ok", Bool (status = 0))
               :: c.extras setup collector workloads)));
    exit status
  in
  Cmd.v (Cmd.info c.cmd ~doc:c.doc)
    Term.(const run $ setup_logs $ bench_opt_arg $ all_arg $ json_arg
          $ c.setup)

let lint =
  let pass_arg =
    let doc = "Run only the named pass (see `cccs lint --passes`)." in
    Arg.(value & opt (some string) None & info [ "pass" ] ~docv:"PASS" ~doc)
  in
  let passes_arg =
    let doc = "List the registered analysis passes and exit." in
    Arg.(value & flag & info [ "passes" ] ~doc)
  in
  let setup pass list_passes =
    if list_passes then begin
      List.iter
        (fun (name, doc) -> Printf.printf "%-16s %s\n" name doc)
        Cccs.Analysis.pass_names;
      exit 0
    end;
    pass
  in
  {
    cmd = "lint";
    schema = "cccs-lint/1";
    doc =
      "Run the whole-pipeline static verifier (dataflow, schedule, \
       encoding, decoder, image and certification checks) on one workload \
       or the whole suite";
    setup = Term.(const setup $ pass_arg $ passes_arg);
    check =
      (fun pass out collector r ->
        let target = Cccs.Analysis.target_of_run r in
        collect out collector
          (match pass with
          | None -> Cccs.Analysis.run_all target
          | Some p -> (
              match Cccs.Analysis.run_pass p target with
              | Some ds -> ds
              | None ->
                  Logs.err (fun m -> m "lint: unknown pass %S; try --passes" p);
                  exit 2));
        Cccs_obs.Json.Null);
    (* lint's envelope lists every diagnostic flat, not per workload. *)
    extras =
      (fun _ collector _ ->
        counts collector
        @ [
            ( "diags",
              Cccs_obs.Json.Arr
                (List.map diag_json (Collector.diags collector)) );
          ]);
    trailer = (fun out c -> Format.fprintf out "%a@." Collector.pp_summary c);
  }

let validate =
  let resync_arg =
    let doc =
      "Blocks per scheme to put through the single-bit-flip \
       resynchronization-distance analysis (0 disables it)."
    in
    Arg.(value & opt int 4 & info [ "resync-blocks" ] ~docv:"N" ~doc)
  in
  let check (resync_blocks, rc) out collector r =
    let obs = Cccs_obs.Recorder.sink rc in
    let t = Cccs.Analysis.target_of_run r in
    let workload = t.Cccs.Analysis.Pass.workload in
    let program = r.Cccs.Workload_run.compiled.Cccs.Pipeline.program in
    Format.fprintf out "%s:@." workload;
    workload_json workload
      (List.map
         (fun (sc : Encoding.Scheme.t) ->
           let name = sc.Encoding.Scheme.name in
           let t0 = Unix.gettimeofday () in
           let diags, summary =
             Cccs_obs.Sink.timed ~obs ~stage:Cccs_obs.Event.Decoder_gen
               ~label:("validate." ^ name) (fun () ->
                 Cccs.Analysis.Image_check.check_scheme ~workload ~program
                   ?tailored:t.Cccs.Analysis.Pass.tailored ~resync_blocks sc)
           in
           let seconds = Unix.gettimeofday () -. t0 in
           collect out collector diags;
           let open Cccs.Analysis.Image_check in
           Option.iter
             (fun rs ->
               let gauge what v =
                 Cccs_obs.Sink.gauge ~obs
                   (Printf.sprintf "validate.%s.%s.%s" workload name what)
                   (float_of_int v)
               in
               gauge "resync_max_distance" rs.max_distance;
               gauge "resync_silent_flips" rs.silent_flips)
             summary.resync;
           Format.fprintf out
             "  %-10s %3d blocks %5d ops  %d error(s) %d warning(s)%s %.3fs@."
             name summary.blocks summary.ops summary.errors summary.warnings
             (match summary.resync with
             | Some rs ->
                 Printf.sprintf "  resync worst %d cw, %d/%d silent"
                   rs.max_distance rs.silent_flips rs.flips_analyzed
             | None -> "")
             seconds;
           let open Cccs_obs.Json in
           Obj
             [
               ("name", Str name);
               ("blocks", int summary.blocks);
               ("ops", int summary.ops);
               ("errors", int summary.errors);
               ("warnings", int summary.warnings);
               ( "resync",
                 opt_json
                   (fun rs ->
                     Obj
                       [
                         ("blocks_analyzed", int rs.blocks_analyzed);
                         ("flips_analyzed", int rs.flips_analyzed);
                         ("silent_flips", int rs.silent_flips);
                         ("max_distance", int rs.max_distance);
                         ("worst_block", int rs.worst_block);
                       ])
                   summary.resync );
               ("seconds", Num seconds);
               ("diags", Arr (List.map diag_json diags));
             ])
         t.Cccs.Analysis.Pass.schemes)
  in
  {
    cmd = "validate";
    schema = "cccs-validate/1";
    doc =
      "Re-decode every scheme's ROM image with an independent abstract \
       decoder (published tables only), recover block boundaries and the \
       CFG, and check round-trip, ATB mappability, dense-map ranges, frame \
       guards and resynchronization distance";
    (* The event recorder lives for one invocation; its length is the
       envelope's "events" field. *)
    setup =
      Term.(
        const (fun n -> (n, Cccs_obs.Recorder.create ())) $ resync_arg);
    check;
    extras =
      (fun (_, rc) _ workloads ->
        Cccs_obs.Json.
          [
            ("events", int (Cccs_obs.Recorder.length rc));
            ("workloads", Arr workloads);
          ]);
    trailer =
      (fun out c ->
        Format.fprintf out "validate: %s@."
          (if Collector.exit_status c = 0 then "clean" else "FAILED"));
  }

let certify =
  let check () out collector r =
    let t = Cccs.Analysis.target_of_run r in
    let workload = t.Cccs.Analysis.Pass.workload in
    Format.fprintf out "%s:@." workload;
    workload_json workload
      (List.map
         (fun (sc : Encoding.Scheme.t) ->
           let diags, cert =
             Cccs.Analysis.Certify.certify_scheme ~workload
               ?program:t.Cccs.Analysis.Pass.program sc
           in
           collect out collector diags;
           let open Cccs.Analysis.Certify in
           let bits = Option.fold ~none:"-" ~some:string_of_int in
           Format.fprintf out
             "  %-10s %s  %d book(s)  worst op %s bits, worst block %d/%s \
              bits@."
             cert.scheme
             (if cert.ok then "certified" else "FAILED")
             (List.length cert.books) (bits cert.worst_op_bits)
             cert.worst_block_bits
             (bits cert.worst_block_bound);
           List.iter
             (fun b ->
               Format.fprintf out
                 "    book %-10s %5d syms  dfa %5d states  lut %5d+%-5d  \
                  resync %s  syncword %s@."
                 b.book b.symbols b.dfa_states b.lut_root_checked
                 b.lut_sub_checked
                 (match b.resync_bits with
                 | Some n -> string_of_int n ^ " bits"
                 | None -> "unbounded")
                 (match b.sync_word_bits with
                 | Some n -> "<=" ^ string_of_int n ^ " bits"
                 | None -> "none"))
             cert.books;
           let open Cccs_obs.Json in
           let book_json b =
             Obj
               [
                 ("book", Str b.book);
                 ("symbols", int b.symbols);
                 ("max_code_len", int b.max_code_len);
                 ("dfa_states", int b.dfa_states);
                 ("complete", Bool b.complete);
                 ("worst_bits", int b.worst_bits);
                 ("lut_root_checked", int b.lut_root_checked);
                 ("lut_sub_checked", int b.lut_sub_checked);
                 ("recoverable", Bool b.recoverable);
                 ("resync_bits", opt_json int b.resync_bits);
                 ("sync_word_bits", opt_json int b.sync_word_bits);
               ]
           in
           Obj
             [
               ("name", Str cert.scheme);
               ("ok", Bool cert.ok);
               ("errors", int cert.errors);
               ("warnings", int cert.warnings);
               ("worst_op_bits", opt_json int cert.worst_op_bits);
               ("worst_block_bits", int cert.worst_block_bits);
               ("worst_block_bound", opt_json int cert.worst_block_bound);
               ("blocks_checked", int cert.blocks_checked);
               ("books", Arr (List.map book_json cert.books));
               ("diags", Arr (List.map diag_json diags));
             ])
         t.Cccs.Analysis.Pass.schemes)
  in
  {
    cmd = "certify";
    schema = "cccs-certify/1";
    doc =
      "Prove decoder properties by exhaustive enumeration over each \
       published codebook's decode automaton: decode totality, bit-exact \
       Huffman LUT equivalence, resynchronization bounds, and certified \
       worst-case block sizes from each scheme's decode model";
    setup = Term.const ();
    check;
    extras = counts_and_workloads;
    trailer = verdict "certify" "certified";
  }

let wcet =
  let wcet_json (w : Cccs.Analysis.Timing_check.wcet) =
    let open Cccs.Analysis.Timing_check in
    let open Cccs_obs.Json in
    [
      ("name", Str w.scheme);
      ("model", Str (model_name w.model));
      ("bound", int w.bound);
      ("sim_cycles", opt_json int w.sim_cycles);
      ("ratio", opt_json (fun f -> Num f) w.ratio);
      ("blocks", int w.blocks);
      ("reachable", int w.reachable);
      ("always_hit", int w.always_hit);
      ("always_miss", int w.always_miss);
      ("unclassified", int w.unclassified);
      ("atb_always_hit", int w.atb_always_hit);
      ("charged_visits", int w.charged_visits);
      ("trace_bounds", Bool w.trace_bounds);
    ]
  in
  let check () out collector r =
    let workload = r.Cccs.Workload_run.name in
    let results = Cccs.Analysis.wcet_run r in
    List.iter
      (fun (diags, _) -> collect ~show:Diag.is_error out collector diags)
      results;
    Cccs.Report.wcet out [ (workload, List.filter_map snd results) ];
    workload_json workload
      (List.map
         (fun (diags, w) ->
           let open Cccs_obs.Json in
           let fields = Option.fold ~none:[ ("bound", Null) ] ~some:wcet_json w in
           Obj (fields @ [ ("diags", Arr (List.map diag_json diags)) ]))
         results)
  in
  {
    cmd = "wcet";
    schema = "cccs-wcet/1";
    doc =
      "Static WCET fetch-timing analysis: must/may cache abstract \
       interpretation over each scheme's recovered CFG, cycle bounds \
       charged from Table 1, and a simulator replay that must observe \
       cycles within the bound";
    setup = Term.const ();
    check;
    extras = counts_and_workloads;
    trailer = verdict "wcet" "bounded";
  }

let faults_cmd =
  let flips_arg =
    let doc = "Single-bit-flip trials per surface per scheme." in
    Arg.(value & opt int 64 & info [ "flips" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc = "Campaign seed (deterministic xorshift stream)." in
    Arg.(value & opt int 1999 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let retries_arg =
    let doc = "Recovery refetch attempts before a machine check." in
    Arg.(value & opt int 2 & info [ "retries" ] ~docv:"K" ~doc)
  in
  let protect_arg =
    let doc =
      "Protection mode: $(b,none), $(b,crc8), $(b,crc16), or $(b,both) \
       (unprotected and crc8 side by side)."
    in
    Arg.(value & opt string "both" & info [ "protect" ] ~docv:"MODE" ~doc)
  in
  let jobs_arg =
    let doc = "Worker domains for the campaign (default: CCCS_JOBS)." in
    Arg.(value & opt (some int) None & info [ "jobs" ] ~docv:"N" ~doc)
  in
  let json_arg =
    let doc = "Machine-readable report (schema cccs-faults/1) on stdout." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let counts_json (c : Cccs.Faults.counts) =
    let open Cccs_obs.Json in
    Obj
      [
        ("injected", int c.Cccs.Faults.injected);
        ("detected", int c.Cccs.Faults.detected);
        ("corrected", int c.Cccs.Faults.corrected);
        ("silent", int c.Cccs.Faults.silent);
        ("benign", int c.Cccs.Faults.benign);
        ("machine_checks", int c.Cccs.Faults.machine_checks);
        ("recovery_cycles", int c.Cccs.Faults.recovery_cycles);
      ]
  in
  let run () bench flips seed retries protect jobs json =
    ignore (find_workload bench);
    let protections =
      match protect with
      | "both" -> [ Encoding.Scheme.Unprotected; Encoding.Scheme.Crc8 ]
      | p -> (
          match Encoding.Scheme.protection_of_name p with
          | Some x -> [ x ]
          | None ->
              Logs.err (fun m ->
                  m "faults: unknown protection %S (none|crc8|crc16|both)" p);
              exit 2)
    in
    let protected_silent = ref 0 in
    let campaigns =
      List.map
        (fun protection ->
          let t =
            Cccs.Faults.run ?jobs
              { Cccs.Faults.bench; seed; flips; retries; protection }
          in
          if not json then Cccs.Report.faults Format.std_formatter t;
          if protection <> Encoding.Scheme.Unprotected then
            List.iter
              (fun row ->
                protected_silent :=
                  !protected_silent + Cccs.Faults.silent_total row)
              t.Cccs.Faults.rows;
          t)
        protections
    in
    if json then begin
      let open Cccs_obs.Json in
      let row_json (r : Cccs.Faults.scheme_report) =
        Obj
          [
            ("scheme", Str r.Cccs.Faults.scheme);
            ( "protection",
              Str (Encoding.Scheme.protection_name r.Cccs.Faults.protection) );
            ("ratio", Num r.Cccs.Faults.ratio);
            ("protection_overhead", Num r.Cccs.Faults.protection_overhead);
            ("rom", counts_json r.Cccs.Faults.rom);
            ("table", counts_json r.Cccs.Faults.table);
            ("cache", counts_json r.Cccs.Faults.cache);
            ("clean_cycles", int r.Cccs.Faults.clean_cycles);
            ("faulty_cycles", int r.Cccs.Faults.faulty_cycles);
          ]
      in
      print_endline
        (to_string
           (Obj
              [
                ("schema", Str "cccs-faults/1");
                ("ok", Bool (!protected_silent = 0));
                ("bench", Str bench);
                ("seed", int seed);
                ( "jobs",
                  int
                    (match jobs with
                    | Some j -> j
                    | None -> Cccs.Parallel.default_jobs ()) );
                ("flips", int flips);
                ("retries", int retries);
                ( "campaigns",
                  Arr
                    (List.map
                       (fun (t : Cccs.Faults.t) ->
                         Obj
                           [
                             ( "protection",
                               Str
                                 (Encoding.Scheme.protection_name
                                    t.Cccs.Faults.spec
                                      .Cccs.Faults.protection) );
                             ( "rows",
                               Arr (List.map row_json t.Cccs.Faults.rows) );
                           ])
                       campaigns) );
              ]))
    end;
    (* Ledger: one row per (protection, scheme) so perfdiff can track
       cycle costs and detection counts across runs. *)
    let ledger_rows =
      List.concat_map
        (fun (t : Cccs.Faults.t) ->
          List.map
            (fun (r : Cccs.Faults.scheme_report) ->
              let open Cccs_obs.Json in
              let sum f =
                f r.Cccs.Faults.rom + f r.Cccs.Faults.table
                + f r.Cccs.Faults.cache
              in
              Obj
                [
                  ( "name",
                    Str
                      (Printf.sprintf "faults/%s/%s"
                         (Encoding.Scheme.protection_name
                            r.Cccs.Faults.protection)
                         r.Cccs.Faults.scheme) );
                  ("ratio", Num r.Cccs.Faults.ratio);
                  ("clean_cycles", int r.Cccs.Faults.clean_cycles);
                  ("faulty_cycles", int r.Cccs.Faults.faulty_cycles);
                  ("detected", int (sum (fun c -> c.Cccs.Faults.detected)));
                  ("silent", int (Cccs.Faults.silent_total r));
                ])
            t.Cccs.Faults.rows)
        campaigns
    in
    let schemes =
      match campaigns with
      | t :: _ ->
          List.map
            (fun (r : Cccs.Faults.scheme_report) -> r.Cccs.Faults.scheme)
            t.Cccs.Faults.rows
      | [] -> []
    in
    ledger_append ~kind:"faults"
      ~jobs:
        (match jobs with Some j -> j | None -> Cccs.Parallel.default_jobs ())
      ~schemes
      ~meta:
        [
          ("bench", Cccs_obs.Json.Str bench);
          ("seed", Cccs_obs.Json.int seed);
          ("flips", Cccs_obs.Json.int flips);
        ]
      ledger_rows;
    if !protected_silent > 0 then begin
      Logs.err (fun m ->
          m "faults: %d silent corruption(s) leaked through CRC protection"
            !protected_silent);
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Run a seeded soft-error fault-injection campaign (ROM, cache and \
          decode-table surfaces) over every scheme; nonzero exit if a \
          protected scheme delivers a silent corruption")
    Term.(const run $ setup_logs $ bench_arg $ flips_arg $ seed_arg
          $ retries_arg $ protect_arg $ jobs_arg $ json_arg)

let fuzz_cmd =
  let seed_arg =
    let doc = "Campaign seed; every case derives its own stream from it." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let runs_arg =
    let doc = "Number of fuzz cases." in
    Arg.(value & opt int 1000 & info [ "runs" ] ~docv:"N" ~doc)
  in
  let budget_arg =
    let doc =
      "Wall-clock budget in seconds; 0 means unlimited.  A positive budget \
       truncates the campaign, so determinism holds only for (seed, runs)."
    in
    Arg.(value & opt float 0. & info [ "time-budget" ] ~docv:"SECONDS" ~doc)
  in
  let jobs_arg =
    let doc = "Worker domains (default: CCCS_JOBS)." in
    Arg.(value & opt (some int) None & info [ "jobs" ] ~docv:"N" ~doc)
  in
  let json_arg =
    let doc = "Machine-readable report (schema cccs-fuzz/1) on stdout." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let fixtures_arg =
    let doc =
      "Write a minimized repro fixture (JSON + OCaml snippet) per finding \
       into $(docv)."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "fixtures-dir" ] ~docv:"DIR" ~doc)
  in
  let run () seed runs time_budget jobs json fixtures_dir =
    let spec = { Cccs_fuzz.Fuzz.seed; runs; jobs; time_budget; fixtures_dir } in
    let r = Cccs_fuzz.Fuzz.run spec in
    if json then
      print_endline (Cccs_obs.Json.to_string (Cccs_fuzz.Fuzz.report_to_json r))
    else begin
      let t = r.Cccs_fuzz.Fuzz.tallies in
      Format.printf
        "fuzz: %d cases in %.1fs (%.0f/s): %d clean-ok, %d round-trip, %d \
         detected, %d silent-unprotected, %d codeword steps@."
        t.Cccs_fuzz.Fuzz.cases r.Cccs_fuzz.Fuzz.seconds
        (float_of_int t.Cccs_fuzz.Fuzz.cases
        /. Float.max 1e-9 r.Cccs_fuzz.Fuzz.seconds)
        t.Cccs_fuzz.Fuzz.clean_ok t.Cccs_fuzz.Fuzz.roundtrip
        t.Cccs_fuzz.Fuzz.detected t.Cccs_fuzz.Fuzz.silent_unprotected
        t.Cccs_fuzz.Fuzz.codeword_steps;
      List.iter
        (fun (f : Cccs_fuzz.Fuzz.finding) ->
          Format.printf "  FINDING case %d [%s] %s@." f.Cccs_fuzz.Fuzz.case.Cccs_fuzz.Fuzz.id
            (Cccs_fuzz.Fuzz.kind_label f.Cccs_fuzz.Fuzz.kind)
            (Cccs_obs.Json.to_string
               (Cccs_fuzz.Fuzz.case_to_json f.Cccs_fuzz.Fuzz.case)))
        r.Cccs_fuzz.Fuzz.findings
    end;
    let t = r.Cccs_fuzz.Fuzz.tallies in
    ledger_append ~kind:"fuzz"
      ~jobs:
        (match jobs with Some j -> j | None -> Cccs.Parallel.default_jobs ())
      ~meta:
        [
          ("seed", Cccs_obs.Json.int seed);
          ("runs", Cccs_obs.Json.int runs);
        ]
      [
        Cccs_obs.Json.Obj
          [
            ("name", Cccs_obs.Json.Str "fuzz/campaign");
            ("cases", Cccs_obs.Json.int t.Cccs_fuzz.Fuzz.cases);
            ("seconds", Cccs_obs.Json.Num r.Cccs_fuzz.Fuzz.seconds);
            ( "cases_per_s",
              Cccs_obs.Json.Num
                (float_of_int t.Cccs_fuzz.Fuzz.cases
                /. Float.max 1e-9 r.Cccs_fuzz.Fuzz.seconds) );
            ( "findings",
              Cccs_obs.Json.int (List.length r.Cccs_fuzz.Fuzz.findings) );
          ];
      ];
    if r.Cccs_fuzz.Fuzz.findings <> [] then begin
      Logs.err (fun m ->
          m "fuzz: %d finding(s)" (List.length r.Cccs_fuzz.Fuzz.findings));
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Run the seeded differential fuzzing campaign: random program x \
          scheme x protection x fault, every decoder (LUT, bit-serial, \
          abstract, DFA replay) as an oracle against the others; findings \
          are delta-minimized and exit nonzero")
    Term.(const run $ setup_logs $ seed_arg $ runs_arg $ budget_arg $ jobs_arg
          $ json_arg $ fixtures_arg)

let perfdiff_cmd =
  let baseline_arg =
    let doc =
      "Baseline rows: a BENCH_*.json-style object ($(b,results) array), a \
       single ledger entry or perfdiff report ($(b,rows) array), or a \
       ledger JSONL file (its last matching entry is used).  Without this \
       option the previous matching ledger entry is the baseline."
    in
    Arg.(
      value & opt (some string) None & info [ "baseline" ] ~docv:"FILE" ~doc)
  in
  let ledger_arg =
    let doc = "Ledger file (default: \\$CCCS_LEDGER or ledger.jsonl)." in
    Arg.(value & opt (some string) None & info [ "ledger" ] ~docv:"FILE" ~doc)
  in
  let kind_arg =
    let doc =
      "Ledger entry kind to compare: $(b,bench), $(b,bench_perf), \
       $(b,bench_fuzz), $(b,verify_all), $(b,faults) or $(b,fuzz)."
    in
    Arg.(value & opt string "bench" & info [ "kind" ] ~docv:"KIND" ~doc)
  in
  let threshold_arg =
    let doc =
      "Override both regression thresholds (CI-backed and point-only) with \
       one relative change, in percent."
    in
    Arg.(
      value & opt (some float) None & info [ "threshold" ] ~docv:"PCT" ~doc)
  in
  let warn_arg =
    let doc = "Report regressions but always exit 0." in
    Arg.(value & flag & info [ "warn-only" ] ~doc)
  in
  let json_arg =
    let doc =
      "Machine-readable report (schema $(b,cccs-perfdiff/1)) on stdout; \
       the human-readable table moves to stderr."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let read_file path =
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with Sys_error msg ->
      Logs.err (fun m -> m "perfdiff: %s" msg);
      exit 2
  in
  (* Baseline rows from a file: BENCH-style {"results":[...]}, anything
     with a "rows" array (a ledger entry, a perfdiff report), or a ledger
     JSONL file, whose last [kind] entry wins. *)
  let load_baseline path kind =
    match Cccs_obs.Json.parse (read_file path) with
    | Ok j -> (
        match
          ( Option.bind (Cccs_obs.Json.member "results" j) Cccs_obs.Json.to_list,
            Option.bind (Cccs_obs.Json.member "rows" j) Cccs_obs.Json.to_list )
        with
        | Some rows, _ | None, Some rows -> rows
        | None, None ->
            Logs.err (fun m ->
                m "perfdiff: %s has neither a \"results\" nor a \"rows\" array"
                  path);
            exit 2)
    | Error _ -> (
        (* Not one JSON value — try it as a JSONL ledger. *)
        let entries, warnings = Cccs_obs.Ledger.load ~path in
        List.iter
          (fun w -> Logs.warn (fun m -> m "perfdiff: %s: %s" path w))
          warnings;
        match Cccs_obs.Ledger.last ~kind entries with
        | Some e -> e.Cccs_obs.Ledger.rows
        | None ->
            Logs.err (fun m ->
                m "perfdiff: no %S entry in %s (and it is not a JSON report)"
                  kind path);
            exit 2)
  in
  let run () baseline ledger kind threshold warn_only json =
    let ledger_path =
      match ledger with
      | Some p -> p
      | None -> Cccs_obs.Ledger.default_path ()
    in
    let entries, warnings = Cccs_obs.Ledger.load ~path:ledger_path in
    List.iter
      (fun w -> Logs.warn (fun m -> m "ledger %s: %s" ledger_path w))
      warnings;
    let prev, cur_entry = Cccs_obs.Ledger.last_two ~kind entries in
    let cur =
      match cur_entry with
      | Some e -> e
      | None ->
          Logs.err (fun m ->
              m "perfdiff: no %S entry in %s — run the benchmark first" kind
                ledger_path);
          exit 2
    in
    let base_rows, base_desc =
      match baseline with
      | Some path -> (load_baseline path kind, path)
      | None -> (
          match prev with
          | Some e ->
              ( e.Cccs_obs.Ledger.rows,
                Printf.sprintf "ledger %s @ %.0f" e.Cccs_obs.Ledger.git_rev
                  e.Cccs_obs.Ledger.timestamp )
          | None ->
              Logs.err (fun m ->
                  m
                    "perfdiff: only one %S entry in %s and no --baseline — \
                     nothing to compare against"
                    kind ledger_path);
              exit 2)
    in
    let config =
      match threshold with
      | None -> Cccs_obs.Compare.default
      | Some pct ->
          {
            Cccs_obs.Compare.default with
            Cccs_obs.Compare.rel_threshold = pct /. 100.;
            point_threshold = pct /. 100.;
          }
    in
    let rows =
      Cccs_obs.Compare.rows ~config ~base:base_rows
        ~cur:cur.Cccs_obs.Ledger.rows ()
    in
    let s = Cccs_obs.Compare.summarize rows in
    let regressed = Cccs_obs.Compare.any_regressed rows in
    let out = if json then Format.err_formatter else Format.std_formatter in
    Format.fprintf out "perfdiff: %s entries, baseline %s@." kind base_desc;
    Format.fprintf out "%-34s %-11s %14s %14s %8s  %s@." "row" "metric" "base"
      "current" "delta" "verdict";
    List.iter
      (fun (r : Cccs_obs.Compare.row) ->
        Format.fprintf out "%-34s %-11s %14.4g %14.4g %+7.1f%%  %s%s@."
          r.Cccs_obs.Compare.name r.Cccs_obs.Compare.metric
          r.Cccs_obs.Compare.base r.Cccs_obs.Compare.cur
          (100. *. r.Cccs_obs.Compare.slowdown)
          (Cccs_obs.Compare.verdict_name r.Cccs_obs.Compare.verdict)
          (match r.Cccs_obs.Compare.ci with
          | Some (lo, hi) ->
              Printf.sprintf "  [%+.1f%%, %+.1f%%]" (100. *. lo) (100. *. hi)
          | None -> ""))
      rows;
    Format.fprintf out
      "perfdiff: %d improved, %d regressed, %d unchanged, %d untrusted@."
      s.Cccs_obs.Compare.improved s.Cccs_obs.Compare.regressed
      s.Cccs_obs.Compare.unchanged s.Cccs_obs.Compare.untrusted;
    if json then begin
      let open Cccs_obs.Json in
      print_endline
        (to_string
           (Obj
              [
                ("schema", Str "cccs-perfdiff/1");
                ("ok", Bool (not regressed));
                ("kind", Str kind);
                ("ledger", Str ledger_path);
                ("baseline", Str base_desc);
                ( "thresholds",
                  Obj
                    [
                      ("rel", Num config.Cccs_obs.Compare.rel_threshold);
                      ("point", Num config.Cccs_obs.Compare.point_threshold);
                      ("r2_gate", Num config.Cccs_obs.Compare.r2_gate);
                    ] );
                ("rows", Arr (List.map Cccs_obs.Compare.row_to_json rows));
                ( "summary",
                  Obj
                    [
                      ("improved", int s.Cccs_obs.Compare.improved);
                      ("regressed", int s.Cccs_obs.Compare.regressed);
                      ("unchanged", int s.Cccs_obs.Compare.unchanged);
                      ("untrusted", int s.Cccs_obs.Compare.untrusted);
                    ] );
              ]))
    end;
    if regressed && not warn_only then exit 1
  in
  Cmd.v
    (Cmd.info "perfdiff"
       ~doc:
         "Statistically compare the latest ledger entry against the \
          previous one (or an explicit baseline file): bootstrap \
          confidence intervals where samples exist, an r-square noise \
          gate for untrusted rows, and exit 1 on a confirmed regression")
    Term.(const run $ setup_logs $ baseline_arg $ ledger_arg $ kind_arg
          $ threshold_arg $ warn_arg $ json_arg)

let disasm_cmd =
  let run () bench =
    let r = Cccs.Workload_run.load (find_workload bench) in
    print_string
      (Tepic.Asm.print_program r.Cccs.Workload_run.compiled.Cccs.Pipeline.program)
  in
  Cmd.v
    (Cmd.info "disasm" ~doc:"Print a workload's scheduled TEPIC assembly")
    Term.(const run $ setup_logs $ bench_arg)

let stats_cmd =
  let json_arg =
    let doc = "Emit the metrics snapshot as one JSON object on stdout." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let flips_arg =
    let doc =
      "Also run a seeded fault campaign with $(docv) flips per surface, so \
       the recovery-latency histogram has samples.  0 disables it."
    in
    Arg.(value & opt int 8 & info [ "flips" ] ~docv:"N" ~doc)
  in
  let baseline_arg =
    let doc =
      "Compare the snapshot's counters and gauges against a previous \
       $(b,cccs stats --json) output; deltas are printed (and embedded in \
       the JSON, together with both schema versions)."
    in
    Arg.(
      value & opt (some string) None & info [ "baseline" ] ~docv:"FILE" ~doc)
  in
  let run () bench json flips baseline =
    let e = find_workload bench in
    let rc = Cccs_obs.Recorder.create () in
    let obs = Cccs_obs.Recorder.sink rc in
    (* Full instrumentation: compiler stage spans, the four fetch models,
       and (unless --flips 0) a small recovery campaign. *)
    let r = Cccs.Workload_run.load ~obs e in
    let s =
      Cccs_obs.Sink.timed ~obs ~stage:Cccs_obs.Event.Decoder_gen
        ~label:"schemes" (fun () -> Cccs.Experiments.schemes_of r)
    in
    let prog = r.Cccs.Workload_run.compiled.Cccs.Pipeline.program in
    let base_bits = s.Cccs.Experiments.base.Encoding.Scheme.code_bits in
    List.iter
      (fun (sc : Encoding.Scheme.t) ->
        Cccs_obs.Sink.gauge ~obs
          ("ratio." ^ sc.Encoding.Scheme.name)
          (Encoding.Scheme.ratio sc ~baseline_bits:base_bits))
      [
        s.Cccs.Experiments.base;
        s.Cccs.Experiments.full;
        s.Cccs.Experiments.tailored;
      ];
    let trace = r.Cccs.Workload_run.exec.Emulator.Exec.trace in
    let cfg = Fetch.Config.default in
    let cfg_base = Fetch.Config.default_base in
    let att sc c =
      Encoding.Att.build sc ~line_bits:c.Fetch.Config.line_bits prog
    in
    let att_base = att s.Cccs.Experiments.base cfg_base in
    ignore (Fetch.Sim.run_ideal ~obs ~att:att_base trace);
    ignore
      (Fetch.Sim.run ~obs ~model:Fetch.Config.Base ~cfg:cfg_base
         ~scheme:s.Cccs.Experiments.base ~att:att_base trace);
    ignore
      (Fetch.Sim.run ~obs ~model:Fetch.Config.Compressed ~cfg
         ~scheme:s.Cccs.Experiments.full
         ~att:(att s.Cccs.Experiments.full cfg)
         trace);
    ignore
      (Fetch.Sim.run ~obs ~model:Fetch.Config.Tailored ~cfg
         ~scheme:s.Cccs.Experiments.tailored
         ~att:(att s.Cccs.Experiments.tailored cfg)
         trace);
    let fault_seed = 1999 in
    if flips > 0 then
      ignore
        (Cccs.Faults.run ~obs
           {
             Cccs.Faults.bench;
             seed = fault_seed;
             flips;
             retries = 2;
             protection = Encoding.Scheme.Crc8;
           });
    let m = Cccs_obs.Recorder.summarize rc in
    let snap_json =
      Cccs_obs.Export.json_of_snapshot
        ~extra:
          [
            ("schema", Cccs_obs.Json.Str "cccs-stats/1");
            ("bench", Cccs_obs.Json.Str bench);
            ("events", Cccs_obs.Json.int (Cccs_obs.Recorder.length rc));
            (* Effective fault-campaign inputs, so the histogram's
               samples are reproducible from the snapshot alone. *)
            ("seed", Cccs_obs.Json.int fault_seed);
            ("flips", Cccs_obs.Json.int flips);
          ]
        (Cccs_obs.Metrics.snapshot m)
    in
    (* --baseline: numeric deltas of counters/gauges vs a previous
       `cccs stats --json` snapshot, via Obs.Compare. *)
    let baseline_j =
      match baseline with
      | None -> None
      | Some path -> (
          let contents =
            try
              let ic = open_in_bin path in
              Fun.protect
                ~finally:(fun () -> close_in_noerr ic)
                (fun () -> really_input_string ic (in_channel_length ic))
            with Sys_error msg ->
              Logs.err (fun m -> m "stats: --baseline: %s" msg);
              exit 2
          in
          match Cccs_obs.Json.parse contents with
          | Ok j -> Some (path, j)
          | Error msg ->
              Logs.err (fun m -> m "stats: --baseline %s: %s" path msg);
              exit 2)
    in
    let deltas =
      Option.map
        (fun (_, bj) -> Cccs_obs.Compare.snapshot_deltas ~base:bj ~cur:snap_json)
        baseline_j
    in
    if json then begin
      let open Cccs_obs.Json in
      let out =
        match (snap_json, baseline_j, deltas) with
        | Obj kvs, Some (path, bj), Some ds ->
            let bschema =
              match member "schema" bj with Some (Str s) -> s | _ -> "unknown"
            in
            Obj
              (kvs
              @ [
                  ("baseline_path", Str path);
                  ("baseline_schema", Str bschema);
                  ( "deltas",
                    Arr
                      (List.map
                         (fun (d : Cccs_obs.Compare.scalar_delta) ->
                           Obj
                             [
                               ("name", Str d.Cccs_obs.Compare.sname);
                               ("base", Num d.Cccs_obs.Compare.sbase);
                               ("cur", Num d.Cccs_obs.Compare.scur);
                             ])
                         ds) );
                ])
        | _ -> snap_json
      in
      print_endline (to_string out)
    end
    else begin
      Printf.printf "bench          %s\n" bench;
      Printf.printf "events         %d\n" (Cccs_obs.Recorder.length rc);
      Format.printf "%a@." Cccs_obs.Metrics.pp m;
      match (baseline_j, deltas) with
      | Some (path, _), Some ds ->
          Printf.printf "deltas vs %s (%d changed):\n" path (List.length ds);
          List.iter
            (fun (d : Cccs_obs.Compare.scalar_delta) ->
              Printf.printf "  %-42s %14.2f -> %14.2f  (%+.2f)\n"
                d.Cccs_obs.Compare.sname d.Cccs_obs.Compare.sbase
                d.Cccs_obs.Compare.scur
                (d.Cccs_obs.Compare.scur -. d.Cccs_obs.Compare.sbase))
            ds
      | _ -> ()
    end
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run a workload under full instrumentation (compiler spans, all \
          four fetch models, optional fault campaign) and print the \
          metrics snapshot")
    Term.(const run $ setup_logs $ bench_arg $ json_arg $ flips_arg
          $ baseline_arg)

let export_cmd =
  let run (() : unit) () =
    (* CSV on stdout: one section per figure, ready for any plotting tool. *)
    let rows5 = Cccs.Experiments.fig5 () in
    print_endline "# fig5: bench,scheme,ratio";
    List.iter
      (fun (r : Cccs.Experiments.fig5_row) ->
        List.iter
          (fun (scheme, v) -> Printf.printf "fig5,%s,%s,%.6f\n" r.bench scheme v)
          r.ratios)
      rows5;
    print_endline "# fig13: bench,model,ipc,cycles,l1_misses,mispredicts";
    List.iter
      (fun (r : Cccs.Experiments.fig13_row) ->
        List.iter
          (fun (res : Fetch.Sim.result) ->
            Printf.printf "fig13,%s,%s,%.6f,%d,%d,%d\n" r.bench
              res.Fetch.Sim.model res.Fetch.Sim.ipc res.Fetch.Sim.cycles
              res.Fetch.Sim.l1_misses res.Fetch.Sim.mispredicts)
          [ r.ideal; r.base; r.compressed; r.tailored ])
      (Cccs.Experiments.fig13 ());
    print_endline "# fig14: bench,model,bus_flips";
    List.iter
      (fun (r : Cccs.Experiments.fig14_row) ->
        List.iter
          (fun (m, f) -> Printf.printf "fig14,%s,%s,%d\n" r.bench m f)
          r.flips)
      (Cccs.Experiments.fig14 ());
    (* Full simulator records, one row per (bench, model): every counter in
       Fetch.Sim.result, including the six fault/recovery fields. *)
    print_endline ("# sim: bench," ^ Fetch.Sim.csv_header);
    List.iter
      (fun (r : Cccs.Experiments.fig13_row) ->
        List.iter
          (fun res -> Printf.printf "sim,%s,%s\n" r.bench (Fetch.Sim.csv_row res))
          [ r.ideal; r.base; r.compressed; r.tailored ])
      (Cccs.Experiments.fig13 ())
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Dump figure data as CSV for external plotting")
    Term.(const run $ setup_logs $ const ())

let fig_cmd name doc render =
  Cmd.v (Cmd.info name ~doc)
    Term.(const (fun () -> render Format.std_formatter) $ setup_logs)

let default =
  Term.(ret (const (fun () -> `Help (`Pager, None)) $ const ()))

let () =
  let cmds =
    [
      list_cmd;
      compile_cmd;
      compress_cmd;
      decode_cmd;
      simulate_cmd;
      decoder_cmd;
      trace_cmd;
      verify_cmd;
      checker_cmd lint;
      checker_cmd validate;
      checker_cmd certify;
      checker_cmd wcet;
      faults_cmd;
      fuzz_cmd;
      perfdiff_cmd;
      disasm_cmd;
      stats_cmd;
      export_cmd;
      fig_cmd "fig5" "Reproduce Figure 5 (compression ratios)" (fun ppf ->
          Cccs.Report.fig5 ppf (Cccs.Experiments.fig5 ()));
      fig_cmd "fig7" "Reproduce Figure 7 (total size with ATT)" (fun ppf ->
          Cccs.Report.fig7 ppf (Cccs.Experiments.fig7 ()));
      fig_cmd "fig10" "Reproduce Figure 10 (decoder complexity)" (fun ppf ->
          Cccs.Report.fig10 ppf (Cccs.Experiments.fig10 ()));
      fig_cmd "fig13" "Reproduce Figure 13 (IPC cache study)" (fun ppf ->
          Cccs.Report.fig13 ppf (Cccs.Experiments.fig13 ()));
      fig_cmd "fig14" "Reproduce Figure 14 (bus bit flips)" (fun ppf ->
          Cccs.Report.fig14 ppf (Cccs.Experiments.fig14 ()));
      fig_cmd "ablation" "Hit-time vs miss-time decompression" (fun ppf ->
          Cccs.Report.ablation ppf (Cccs.Experiments.ablation ()));
      fig_cmd "predictors" "2-bit vs gshare prediction (extension)" (fun ppf ->
          Cccs.Report.predictors ppf (Cccs.Experiments.predictors ()));
      fig_cmd "superblocks" "Superblock fetch units (extension)" (fun ppf ->
          Cccs.Report.superblocks ppf (Cccs.Experiments.superblocks ()));
      fig_cmd "all" "Reproduce every figure and extension" (fun ppf ->
          Cccs.Report.all ppf ());
    ]
  in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "cccs" ~version:"1.0.0"
             ~doc:
               "Compiler-driven cached code compression for embedded ILP \
                processors (MICRO-32 reproduction)")
          cmds))

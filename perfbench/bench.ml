(* The repository benchmark.

   One process, one workload, one seed:

     bench.exe --workload sweep|decode|check --seed N --seconds S --trace 0|1

   Each workload is a closed loop: one request at a time, the next sent
   when the previous one has returned.  Requests are grouped in rounds; a
   round is a fixed, stratified set of cells (profile x scheme x kind), so
   every run of a workload measures the same mix and the seed only
   changes the program instances (each profile's generator seed is
   derived from the workload seed through [Faults.Rng.mix]) and the
   request order.  A run measures whole rounds until [--seconds] have
   passed, and always at least one.

   Every request is timed alone and checked after its timed interval.
   The last line of standard output is the result object; the lines
   before it carry the provenance and the workload's own figures.  See
   README.md beside this file for the workloads, the metrics and the
   layer map. *)

module Scheme = Encoding.Scheme
module Program = Tepic.Program
module Rng = Cccs.Faults.Rng
module Json = Cccs_obs.Json

(* ------------------------------------------------------------------ *)
(* Command line *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref 0
let tiny = ref false
let inject_wrong_decode = ref false
let spans_out = ref ""

(* The seed later claims are checked against; never used while tuning. *)
let heldout_seed = 424242

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " sweep | decode | check");
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " measuring time (whole rounds)");
      ("--trace", Arg.Set_int trace, " 1: traced run, per-layer metrics");
      ("--tiny", Arg.Set tiny, " self-test scale: two small profiles");
      ( "--inject-wrong-decode",
        Arg.Set inject_wrong_decode,
        " self-test: corrupt the first decoded image before its check" );
      ("--spans-out", Arg.Set_string spans_out, " where the traced run writes spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1"

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Inputs *)

let profiles () =
  if !tiny then
    List.map
      (fun p ->
        { (Workloads.Profile.scale ~factor:0.15 p) with
          Workloads.Profile.dyn_ops_target = 20_000 })
      [ Workloads.Spec.compress; Workloads.Spec.go ]
  else Workloads.Spec.all

let kernels () =
  if !tiny then [ List.hd Workloads.Kernels.all ] else Workloads.Kernels.all

(* A fresh program instance of profile [p] for [label]: its generator
   seed comes from the workload seed, and its name is unique, so no memo
   keyed by workload name can hand one request another seed's results. *)
let seeded ~label (p : Workloads.Profile.t) =
  let m = Rng.mix !seed (Printf.sprintf "%s/%s" label p.Workloads.Profile.name) in
  {
    p with
    Workloads.Profile.seed = m mod 1_000_000_007;
    name = Printf.sprintf "%s#%x" p.Workloads.Profile.name m;
  }

let shuffle ~label xs =
  let rng = Rng.create (Rng.mix !seed label) in
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let compile_profile p =
  let w = Workloads.Gen.generate (Cccs.Workload_run.calibrate p) in
  (Cccs.Pipeline.compile w).Cccs.Pipeline.program

let run_program prog =
  (Emulator.Exec.run ~max_blocks:3_000_000 prog).Emulator.Exec.trace

(* The paper's figure set, in display order, and the decode set: the
   figure set plus [full] under a CRC-16 frame. *)
let figure_schemes =
  [ "base"; "byte" ]
  @ List.map fst Encoding.Stream_huffman.configs
  @ [ "full"; "tailored"; "dict" ]

let decode_schemes = figure_schemes @ [ "full-crc16" ]

(* Every scheme is built from scratch, so no two schemes share a lazily
   built decode table ([full-crc16] frames its own [full] build). *)
let build_scheme name prog =
  match name with
  | "base" -> Encoding.Baseline.build prog
  | "byte" -> Encoding.Byte_huffman.build prog
  | "full" -> Encoding.Full_huffman.build prog
  | "tailored" -> Encoding.Tailored.build prog
  | "dict" -> Encoding.Dictionary.build prog
  | "full-crc16" ->
      Scheme.protect Scheme.Crc16 (Encoding.Full_huffman.build prog)
  | s -> (
      match List.assoc_opt s Encoding.Stream_huffman.configs with
      | Some config -> Encoding.Stream_huffman.build ~config prog
      | None -> invalid_arg ("unknown scheme " ^ s))

let family name =
  if String.length name >= 6 && String.sub name 0 6 = "stream" then "stream"
  else name

let baseline_bits prog = 40 * Program.num_ops prog

(* ------------------------------------------------------------------ *)
(* Request accounting *)

type outcome = { cell : string; ms : float; ok : bool }

let outcomes : outcome list ref = ref []
let notes : string list ref = ref []

let fail_note fmt =
  Printf.ksprintf
    (fun s -> if List.length !notes < 20 then notes := s :: !notes)
    fmt

let next_req = ref 0

(* After a request that grew the heap by half, collect and compact
   before the next one, untimed: the garbage a request leaves (a
   certificate's pair automaton can reach a gigabyte) must not slow the
   collector during whichever requests follow it. *)
let settled_heap = ref 0
let compact_s = ref 0.0

let settle_heap () =
  let h = (Gc.quick_stat ()).Gc.heap_words in
  if h > !settled_heap + (!settled_heap / 2) then begin
    let t0 = now () in
    Gc.compact ();
    compact_s := !compact_s +. (now () -. t0);
    settled_heap := (Gc.quick_stat ()).Gc.heap_words
  end

(* Machine-speed canary: a fixed piece of stdlib-only work (hashing,
   list and array allocation, a sort) that never calls the library.  Its
   median time is recorded with the provenance, so a reader can tell a
   slow box from a slow program. *)
let canary_work () =
  let h = Hashtbl.create 4096 in
  for i = 0 to 20_000 do
    Hashtbl.replace h ((i * 7919) land 0xffff) i
  done;
  let l = List.init 20_000 (fun i -> (i * 31) land 1023) in
  let a = Array.of_list (List.rev_map (fun x -> x * 3) l) in
  Array.sort compare a;
  Hashtbl.length h + a.(0)

let canary_ms () =
  Stats.median
    (List.init 9 (fun _ ->
         let t0 = now () in
         ignore (Sys.opaque_identity (canary_work ()));
         (now () -. t0) *. 1000.0))

(* Time [f] as one request; [check req ms v] runs on its result after
   the timed interval, in the traced run under a "check" span of the same
   request, so counts it records belong to the request.  An exception
   from [f] or [check] fails the request and is counted, never
   propagated.  Returns the request id. *)
let request ~label f check =
  let req = !next_req in
  incr next_req;
  let t0 = now () in
  (match Span.record ~req "request" f with
  | exception e ->
      let ms = (now () -. t0) *. 1000.0 in
      fail_note "%s: %s" label (Printexc.to_string e);
      outcomes := { cell = label; ms; ok = false } :: !outcomes
  | v ->
      let ms = (now () -. t0) *. 1000.0 in
      let ok =
        match Span.record ~req "check" (fun () -> check req ms v) with
        | true -> true
        | false ->
            fail_note "%s: wrong output" label;
            false
        | exception e ->
            fail_note "%s: check raised %s" label (Printexc.to_string e);
            false
      in
      outcomes := { cell = label; ms; ok } :: !outcomes);
  settle_heap ();
  req

(* Code size over programs x figure schemes (Fig. 5): only the first
   round's programs count, so the figure repeats exactly for a seed. *)
let ratios : float list ref = ref []

let add_ratio ~round prog (s : Scheme.t) =
  if round = 0 then
    ratios :=
      (float_of_int s.Scheme.code_bits /. float_of_int (baseline_bits prog))
      :: !ratios

(* ------------------------------------------------------------------ *)
(* Layer probes shared by the workloads' traced runs *)

(* The decode layers below [Pipeline.decompress], each timed as a whole
   pass over one image: the checked block walk, the op codec over the
   baseline words, the Huffman symbol decode over a seeded symbol stream
   of each book, and the bit reader.  Rows are cumulative: each layer's
   pass includes the work of the layers below it. *)
let walk_probe name (s : Scheme.t) prog =
  let n = Array.length s.Scheme.block_offset_bits in
  ignore
    (Span.record
       ~work:(fun _ -> float_of_int (Program.num_ops prog))
       ("encoding.walk." ^ name)
       (fun () ->
         let r = Bits.Reader.of_string s.Scheme.image in
         for i = 0 to n - 1 do
           Bits.Reader.seek r s.Scheme.block_offset_bits.(i);
           match Scheme.decode_block_checked_at s r i with
           | Ok _ -> ()
           | Error e -> failwith (Scheme.decode_error_to_string e)
         done))

let bits_probe (s : Scheme.t) =
  let bytes = String.length s.Scheme.image in
  Span.record ~work:(fun _ -> float_of_int bytes) "bits.reader" (fun () ->
      let r = Bits.Reader.of_string s.Scheme.image in
      let acc = ref 0 in
      while Bits.Reader.remaining r >= 16 do
        acc := !acc lxor Bits.Reader.read_bits r ~width:16
      done;
      !acc)
  |> ignore

let huffman_probe ~label name (s : Scheme.t) =
  let fam = family name in
  if List.mem fam [ "byte"; "stream"; "full" ] then
    List.iter
      (fun (book, cb) ->
        let c = Huffman.Codebook.canonical cb in
        Span.count "huffman.book.entries" (Huffman.Canonical.entries c);
        let syms =
          Array.of_list
            (List.map (fun (sym, _, _) -> sym) (Huffman.Canonical.to_list c))
        in
        let rng = Rng.create (Rng.mix !seed (label ^ "/" ^ book)) in
        let n = 4096 in
        let want = Array.init n (fun _ -> syms.(Rng.int rng (Array.length syms))) in
        let w = Bits.Writer.create () in
        Array.iter (Huffman.Codebook.write cb w) want;
        let stream = Bits.Writer.contents w in
        let got = Array.make n 0 in
        Span.record
          ~work:(fun _ -> float_of_int (String.length stream))
          ("huffman.read." ^ fam)
          (fun () ->
            let r = Bits.Reader.of_string stream in
            for i = 0 to n - 1 do
              got.(i) <- Huffman.Codebook.read cb r
            done);
        if got <> want then failwith ("symbol stream mismatch in " ^ book))
      s.Scheme.books

let codec_probe prog reference =
  let nops = Program.num_ops prog in
  let work _ = float_of_int nops in
  let ops =
    Span.record ~work "tepic.decode" (fun () ->
        let r = Bits.Reader.of_string reference in
        List.init nops (fun _ -> Tepic.Encode.decode r))
  in
  let words = List.map Tepic.Encode.to_int ops in
  let back =
    Span.record ~work "tepic.of_int" (fun () -> List.map Tepic.Encode.of_int words)
  in
  if Tepic.Encode.encode_ops back <> reference then
    failwith "op codec round trip differs from the baseline image"

(* ------------------------------------------------------------------ *)
(* sweep: one program through the paper's figure path *)

type sweep_entry =
  | Spec of Workloads.Profile.t
  | Kernel of string * Workloads.Gen.result Lazy.t

let sweep_request entry =
  let w =
    Span.record "workloads.gen" (fun () ->
        match entry with
        | Spec p -> Workloads.Gen.generate (Cccs.Workload_run.calibrate p)
        | Kernel (_, k) -> Lazy.force k)
  in
  let c =
    Span.record "vliw_compiler.compile" (fun () -> Cccs.Pipeline.compile w)
  in
  let prog = c.Cccs.Pipeline.program in
  Span.count "tepic.ops" (Program.num_ops prog);
  Span.count "tepic.mops" (Program.num_mops prog);
  let trace =
    Span.record
      ~work:(fun t -> float_of_int (Emulator.Trace.length t))
      "emulator.exec"
      (fun () -> run_program prog)
  in
  let visits = Emulator.Trace.length trace in
  Span.count "emulator.visits" visits;
  let build name f = Span.record ("encoding.build." ^ name) f in
  let base = build "base" (fun () -> Encoding.Baseline.build prog) in
  let byte = build "byte" (fun () -> Encoding.Byte_huffman.build prog) in
  let streams =
    build "stream" (fun () ->
        List.map
          (fun (n, config) -> (n, Encoding.Stream_huffman.build ~config prog))
          Encoding.Stream_huffman.configs)
  in
  let full = build "full" (fun () -> Encoding.Full_huffman.build prog) in
  let tailored = build "tailored" (fun () -> Encoding.Tailored.build prog) in
  let dict = build "dict" (fun () -> Encoding.Dictionary.build prog) in
  let schemes =
    [ ("base", base); ("byte", byte) ]
    @ streams
    @ [ ("full", full); ("tailored", tailored); ("dict", dict) ]
  in
  Span.count "encoding.code_bits"
    (List.fold_left (fun a (_, s) -> a + s.Scheme.code_bits) 0 schemes);
  let cfg = Fetch.Config.default and cfg_base = Fetch.Config.default_base in
  let att_base, att_full, att_tailored =
    Span.record "encoding.att" (fun () ->
        let att s c = Encoding.Att.build s ~line_bits:c.Fetch.Config.line_bits prog in
        (att base cfg_base, att full cfg, att tailored cfg))
  in
  let sim name f = Span.record ~work:(fun _ -> float_of_int visits) ("fetch.sim." ^ name) f in
  let ideal = sim "ideal" (fun () -> Fetch.Sim.run_ideal ~att:att_base trace) in
  let runs =
    [
      sim "base" (fun () ->
          Fetch.Sim.run ~model:Fetch.Config.Base ~cfg:cfg_base ~scheme:base
            ~att:att_base trace);
      sim "compressed" (fun () ->
          Fetch.Sim.run ~model:Fetch.Config.Compressed ~cfg ~scheme:full
            ~att:att_full trace);
      sim "tailored" (fun () ->
          Fetch.Sim.run ~model:Fetch.Config.Tailored ~cfg ~scheme:tailored
            ~att:att_tailored trace);
    ]
  in
  let total f = List.fold_left (fun a r -> a + f r) 0 runs in
  Span.count "fetch.l1_misses" (total (fun r -> r.Fetch.Sim.l1_misses));
  Span.count "fetch.l0_hits" (total (fun r -> r.Fetch.Sim.l0_hits));
  Span.count "fetch.mispredicts" (total (fun r -> r.Fetch.Sim.mispredicts));
  Span.count "fetch.atb_misses" (total (fun r -> r.Fetch.Sim.atb_misses));
  Span.count "fetch.bus_flips" (total (fun r -> r.Fetch.Sim.bus_flips));
  (prog, schemes, ideal :: runs)

let sweep_check ~round (prog, schemes, sims) =
  List.iter
    (fun (_, s) ->
      Scheme.verify s prog;
      add_ratio ~round prog s)
    schemes;
  (* every fetch model must deliver the whole trace *)
  List.for_all
    (fun r -> r.Fetch.Sim.ops_delivered = (List.hd sims).Fetch.Sim.ops_delivered)
    sims

let sweep_round round =
  let cells =
    List.map (fun p -> Spec (seeded ~label:(Printf.sprintf "sweep/r%d" round) p)) (profiles ())
    @ List.map (fun (n, k) -> Kernel (n, k)) (kernels ())
  in
  List.iter
    (fun e ->
      let label =
        match e with Spec p -> p.Workloads.Profile.name | Kernel (n, _) -> n
      in
      ignore
        (request ~label
           (fun () -> sweep_request e)
           (fun _ _ v -> sweep_check ~round v)))
    (shuffle ~label:(Printf.sprintf "sweep/order/r%d" round) cells)

(* Set-up of a sweep run, one unit: force the lazily generated DSP
   kernels, then a checked warm-up figure path on a seeded instance of the
   first profile, so first-use costs land here rather than in the first
   request. *)
let sweep_setup_unit i () =
  List.iter (fun (_, k) -> ignore (Lazy.force k)) (kernels ());
  let p = seeded ~label:(Printf.sprintf "sweep/warmup%d" i) (List.hd (profiles ())) in
  if not (sweep_check ~round:(-1) (sweep_request (Spec p))) then
    failwith "sweep warm-up failed"

(* ------------------------------------------------------------------ *)
(* decode: cold and warm decode of a fresh image *)

type decode_input = {
  dname : string;  (** scheme name *)
  dprog : Program.t;
  dscheme : Scheme.t;
  reference : string;  (** the 40-bit baseline image *)
  first_of_program : bool;
}

let jobs () = Cccs.Parallel.cores ()

let decode_unit ~round p =
  let p = seeded ~label:(Printf.sprintf "decode/r%d" round) p in
  let prog = compile_profile p in
  let reference = Program.baseline_image prog in
  List.mapi
    (fun i name ->
      let s = build_scheme name prog in
      if name <> "full-crc16" then add_ratio ~round prog s;
      { dname = name; dprog = prog; dscheme = s; reference; first_of_program = i = 0 })
    decode_schemes

let lut_build (s : Scheme.t) =
  List.iter
    (fun (_, cb) ->
      let c = Huffman.Codebook.canonical cb in
      if Huffman.Canonical.lut_eligible c then ignore (Huffman.Canonical.table c))
    s.Scheme.books

let cold_ms = ref []
let warm_s = ref 0.0
let warm_bytes = ref 0

let decode_request d =
  let s = d.dscheme in
  let jobs = jobs () in
  (* The traced run takes the first decode apart from outside: the
     certificate classification and the lazy table builds it would pay
     inside, then the decode itself.  Untraced, all three are the one
     call, as in [cccs decode]. *)
  if !Span.enabled then begin
    let fam = match family d.dname with
      | ("byte" | "stream" | "full" | "full-crc16") as f -> f
      | _ -> "other"
    in
    ignore (Span.record ("core.classify." ^ fam) (fun () -> Cccs.Par_decode.classify s));
    Span.record "huffman.lut_build" (fun () -> lut_build s)
  end;
  let t0 = now () in
  let cold = Span.record "core.decompress.cold" (fun () -> Cccs.Pipeline.decompress ~jobs s) in
  let t1 = now () in
  let warm = Span.record "core.decompress.warm" (fun () -> Cccs.Pipeline.decompress ~jobs s) in
  let t2 = now () in
  (cold, warm, t1 -. t0, t2 -. t1)

let corrupt img =
  if img = "" then "\001"
  else
    String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lxor 0xff) else c) img

let decode_check d req _ (cold, warm, cold_s, warm_dt) =
  cold_ms := (cold_s *. 1000.0) :: !cold_ms;
  warm_s := !warm_s +. warm_dt;
  warm_bytes := !warm_bytes + String.length d.reference;
  match (cold, warm) with
  | Ok (c, _), Ok (w, _) ->
      let c = if !inject_wrong_decode && req = 0 then corrupt c else c in
      c = d.reference && w = c
  | Error e, _ | _, Error e ->
      fail_note "decode %s: %s" d.dname (Scheme.decode_error_to_string e);
      false

(* Traced decode runs also time the layers below the decode, outside the
   request, on the request's own image. *)
let decode_layer_probes d =
  let s = d.dscheme in
  let jobs = jobs () in
  walk_probe d.dname s d.dprog;
  bits_probe s;
  huffman_probe ~label:(d.dname ^ Program.(d.dprog.name)) d.dname s;
  if d.first_of_program then codec_probe d.dprog d.reference;
  let dec name j =
    Span.record name (fun () ->
        match Cccs.Pipeline.decompress ~jobs:j s with
        | Ok (_, rep) -> rep
        | Error e -> failwith (Scheme.decode_error_to_string e))
  in
  ignore (dec "core.decompress.jobs1" 1);
  let rep = dec "core.decompress.jobsN" jobs in
  Span.count "core.par_decode.chunks" rep.Cccs.Par_decode.chunks;
  Span.count "core.par_decode.resync_overhead_bits"
    rep.Cccs.Par_decode.resync_overhead_bits

let decode_round inputs round =
  List.iter
    (fun d ->
      let req =
        request ~label:d.dname (fun () -> decode_request d) (decode_check d)
      in
      if !Span.enabled then
        try Span.record ~req "probe" (fun () -> decode_layer_probes d)
        with e -> fail_note "decode probe %s: %s" d.dname (Printexc.to_string e))
    (shuffle ~label:(Printf.sprintf "decode/order/r%d" round) (List.concat inputs))

(* One throwaway decode, so the once-per-process calibration probe of the
   parallel decoder lands in set-up.  It decodes an extra [base] build,
   never a request's image. *)
let decode_warmup prog =
  match Cccs.Pipeline.decompress ~jobs:(jobs ()) (Encoding.Baseline.build prog) with
  | Ok _ -> ()
  | Error e -> failwith (Scheme.decode_error_to_string e)

(* ------------------------------------------------------------------ *)
(* check: one verdict of a static pass, or a checked decode of a
   corrupted copy *)

(* [Faulted] carries the corrupted image copy and which blocks hold a
   flip. *)
type check_kind =
  | Image
  | Certify
  | Timing
  | Faulted of { image : string; hit : bool array }

let kind_name = function
  | Image -> "image"
  | Certify -> "certify"
  | Timing -> "timing"
  | Faulted _ -> "faulted"

(* The cells of a round: the scheme each profile is checked under, per
   pass.  A fixed table, so every run measures the same mix; every figure
   scheme and [full-crc16] appear.  Two costs are kept out of the round
   so that it fits the run budget, both recorded in README.md: the
   [full] certificates are proven on the mid-size profiles only (about a
   second each, against 10-13 s on gcc, perl and vortex), and the timing
   pass runs on the mid-size profiles only (0.1-0.5 s, against 2-8 s on
   gcc, li, perl and vortex). *)
let check_table =
  [
    ("compress", ("stream", "full", Some "base", "full"));
    ("gcc", ("full", "stream_3", None, "byte"));
    ("go", ("byte", "full-crc16", Some "full", "stream"));
    ("ijpeg", ("stream_1", "stream_2", Some "tailored", "tailored"));
    ("li", ("stream_4", "byte", None, "base"));
    ("m88ksim", ("tailored", "full", Some "stream_4", "dict"));
    ("perl", ("base", "stream_5", None, "stream_2"));
    ("vortex", ("full-crc16", "stream", None, "full"));
  ]

type check_input = {
  kind : check_kind;
  cname : string;  (** scheme name, with "+crc16" when framed for a fault cell *)
  cprog : Program.t;
  ctrace : Emulator.Trace.t;
  cscheme : Scheme.t;
  tailored_spec : Encoding.Tailored.spec option;
}

let flips_per_image = 16

let fault_copy ~label (s : Scheme.t) =
  let n = Array.length s.Scheme.block_offset_bits in
  let rng = Rng.create (Rng.mix !seed label) in
  let hit = Array.make n false in
  let positions =
    List.init (min n flips_per_image) (fun _ ->
        let i = Rng.int rng n in
        hit.(i) <- true;
        s.Scheme.block_offset_bits.(i) + Rng.int rng (max 1 s.Scheme.block_bits.(i)))
  in
  Faulted { image = Bits.flip_bits s.Scheme.image (List.sort_uniq compare positions); hit }

let check_unit ~round (p : Workloads.Profile.t) =
  let image, certify, timing, fault =
    match List.assoc_opt p.Workloads.Profile.name check_table with
    | Some row -> row
    | None -> ("full", "byte", Some "tailored", "full")
  in
  let p = seeded ~label:(Printf.sprintf "check/r%d" round) p in
  let prog = compile_profile p in
  let trace = run_program prog in
  let spec = lazy (snd (Encoding.Tailored.build_with_spec prog)) in
  let cell kind name =
    let s = build_scheme name prog in
    if name <> "full-crc16" then add_ratio ~round prog s;
    {
      kind;
      cname = name;
      cprog = prog;
      ctrace = trace;
      cscheme = s;
      tailored_spec = (if name = "tailored" then Some (Lazy.force spec) else None);
    }
  in
  let faulted name s =
    let label = Printf.sprintf "check/flips/r%d/%s/%s" round p.Workloads.Profile.name name in
    { kind = fault_copy ~label s; cname = name; cprog = prog; ctrace = trace;
      cscheme = s; tailored_spec = None }
  in
  let unprotected = build_scheme fault prog in
  [ cell Image image; cell Certify certify ]
  @ Option.to_list (Option.map (cell Timing) timing)
  @ [
      faulted fault unprotected;
      faulted (fault ^ "+crc16") (Scheme.protect Scheme.Crc16 unprotected);
    ]

let static_ms = ref []
let fault_blocks = ref 0
let fault_s = ref 0.0

type check_result =
  | Diags of Cccs_analysis.Diag.t list
  | Blocks of {
      results : (Tepic.Op.t list, Scheme.decode_error) result option array;
      hit : bool array;
    }

let check_request c =
  let workload = Program.(c.cprog.name) and program = c.cprog in
  match c.kind with
  | Image ->
      Diags
        (fst
           (Span.record "analysis.image_check" (fun () ->
                Cccs_analysis.Image_check.check_scheme ~workload ~program
                  ?tailored:c.tailored_spec c.cscheme)))
  | Certify ->
      Diags
        (fst
           (Span.record "analysis.certify" (fun () ->
                Cccs_analysis.Certify.certify_scheme ~workload ~program c.cscheme)))
  | Timing ->
      Diags
        (fst
           (Span.record "analysis.timing" (fun () ->
                Cccs_analysis.Timing_check.analyze_scheme ~workload ~program
                  ?tailored:c.tailored_spec ~trace:c.ctrace c.cscheme)))
  | Faulted { image; hit } ->
      let n = Array.length c.cscheme.Scheme.block_offset_bits in
      let results =
        Span.record ~work:(fun _ -> float_of_int n) "encoding.faulted" (fun () ->
            Array.init n (fun i ->
                (* an exception escaping the checked decode is a failure,
                   recorded as [None] *)
                try Some (Scheme.decode_block_checked ~image c.cscheme i)
                with _ -> None))
      in
      Blocks { results; hit }

let check_verdict c ms = function
  | Diags ds ->
      static_ms := ms :: !static_ms;
      let errors = List.filter Cccs_analysis.Diag.is_error ds in
      Span.count "analysis.diag_errors" (List.length errors);
      List.iter
        (fun d ->
          fail_note "%s %s %s: %s" (kind_name c.kind) c.cname Program.(c.cprog.name)
            (Cccs_analysis.Diag.to_string d))
        errors;
      errors = []
  | Blocks { results; hit } ->
      let protected = c.cscheme.Scheme.frame.Scheme.protection <> Scheme.Unprotected in
      fault_blocks := !fault_blocks + Array.length results;
      let detected = ref 0 and benign = ref 0 and silent = ref 0 and ok = ref true in
      Array.iteri
        (fun i r ->
          let original = Program.block_ops (Program.block c.cprog i) in
          match (r, hit.(i)) with
          | None, _ ->
              fail_note "faulted %s block %d: exception escaped" c.cname i;
              ok := false
          | Some (Ok ops), false ->
              if ops <> original then begin
                fail_note "faulted %s block %d: clean block mis-decoded" c.cname i;
                ok := false
              end
          | Some (Error _), false ->
              fail_note "faulted %s block %d: clean block rejected" c.cname i;
              ok := false
          | Some (Error _), true -> incr detected
          | Some (Ok ops), true ->
              if ops = original then incr benign
              else begin
                incr silent;
                if protected then begin
                  fail_note "faulted %s block %d: silent corruption under CRC" c.cname i;
                  ok := false
                end
              end)
        results;
      Span.count "encoding.faulted.detected" !detected;
      Span.count "encoding.faulted.benign" !benign;
      Span.count "encoding.faulted.silent" !silent;
      !ok

let check_round inputs round =
  List.iter
    (fun c ->
      ignore
        (request ~label:(kind_name c.kind ^ " " ^ c.cname)
           (fun () -> check_request c)
           (fun _ ms r ->
             (match r with Blocks _ -> fault_s := !fault_s +. (ms /. 1000.0) | Diags _ -> ());
             check_verdict c ms r)))
    (shuffle ~label:(Printf.sprintf "check/order/r%d" round) (List.concat inputs))

(* ------------------------------------------------------------------ *)
(* Generic layer probe for the traced run: one request of every kind on
   a seeded instance of the first profile ([compress]), outside the
   workload's requests, so every traced run prints every layer row.  Rows
   a workload's own requests produce are taken from those; the probe
   fills the rest. *)

let layer_probe () =
  let p = seeded ~label:"probe" (List.hd (profiles ())) in
  let prog, _, _ = sweep_request (Spec p) in
  let trace = run_program prog in
  let reference = Program.baseline_image prog in
  List.iteri
    (fun i name ->
      let d =
        { dname = name; dprog = prog; dscheme = build_scheme name prog; reference;
          first_of_program = i = 0 }
      in
      ignore (decode_request d);
      decode_layer_probes d)
    [ "base"; "byte"; "stream"; "full"; "tailored"; "dict"; "full-crc16" ];
  let full = build_scheme "full" prog in
  List.iter
    (fun (kind, s) ->
      let c =
        { kind; cname = "full"; cprog = prog; ctrace = trace; cscheme = s;
          tailored_spec = None }
      in
      ignore (check_verdict c 0.0 (check_request c)))
    (let crc = Scheme.protect Scheme.Crc16 full in
     [ (Image, full); (Certify, full); (Timing, full);
       (fault_copy ~label:"probe/flips" full, full);
       (fault_copy ~label:"probe/flips-crc" crc, crc) ])

(* ------------------------------------------------------------------ *)
(* Metrics *)

let end_to_end =
  [
    ("setup_s", "s");
    ("peak_heap_mb", "MB");
    ("request_ms_p50", "ms");
    ("request_ms_tail", "ms");
    ("requests_per_s", "1/s");
    ("code_size_ratio", "ratio");
  ]

(* Per-layer metrics: name, unit, and how it is read off the spans. *)
type agg =
  | Median_ms of string  (** median span duration *)
  | Ns_per_work of string  (** total duration / total work *)
  | Mb_per_s of string  (** total work (bytes) / total duration *)
  | Count of string  (** sum of a recorded count *)
  | Speedup of string * string  (** total duration ratio *)
  | Overhead  (** the recorder's own cost, as a share of request time *)
  | Residual  (** request time inside no layer span, as a share *)

let per_layer =
  [
    ("workloads.gen_ms", "ms", Median_ms "workloads.gen");
    ("vliw_compiler.compile_ms", "ms", Median_ms "vliw_compiler.compile");
    ("tepic.ops", "count", Count "tepic.ops");
    ("tepic.mops", "count", Count "tepic.mops");
    ("emulator.exec_ms", "ms", Median_ms "emulator.exec");
    ("emulator.ns_per_visit", "ns", Ns_per_work "emulator.exec");
    ("emulator.visits", "count", Count "emulator.visits");
  ]
  @ List.map
      (fun s -> (Printf.sprintf "encoding.build.%s_ms" s, "ms", Median_ms ("encoding.build." ^ s)))
      [ "base"; "byte"; "stream"; "full"; "tailored"; "dict" ]
  @ [
      ("encoding.att_ms", "ms", Median_ms "encoding.att");
      ("encoding.code_bits", "count", Count "encoding.code_bits");
    ]
  @ List.map
      (fun m -> (Printf.sprintf "fetch.sim.%s.ns_per_visit" m, "ns", Ns_per_work ("fetch.sim." ^ m)))
      [ "ideal"; "base"; "compressed"; "tailored" ]
  @ List.map
      (fun c -> ("fetch." ^ c, "count", Count ("fetch." ^ c)))
      [ "l1_misses"; "l0_hits"; "mispredicts"; "atb_misses"; "bus_flips" ]
  @ [ ("bits.reader.mb_per_s", "MB/s", Mb_per_s "bits.reader") ]
  @ List.map
      (fun f -> (Printf.sprintf "huffman.read.%s.mb_per_s" f, "MB/s", Mb_per_s ("huffman.read." ^ f)))
      [ "byte"; "stream"; "full" ]
  @ [
      ("huffman.lut_build_ms", "ms", Median_ms "huffman.lut_build");
      ("huffman.book.entries", "count", Count "huffman.book.entries");
      ("tepic.of_int.ns_per_op", "ns/op", Ns_per_work "tepic.of_int");
      ("tepic.decode.ns_per_op", "ns/op", Ns_per_work "tepic.decode");
    ]
  @ List.map
      (fun s -> (Printf.sprintf "encoding.walk.%s.ns_per_op" s, "ns/op", Ns_per_work ("encoding.walk." ^ s)))
      [ "base"; "byte"; "stream"; "full"; "tailored"; "dict"; "full-crc16" ]
  @ List.map
      (fun f -> (Printf.sprintf "core.classify.%s_ms" f, "ms", Median_ms ("core.classify." ^ f)))
      [ "byte"; "stream"; "full"; "full-crc16" ]
  @ [
      ("core.decompress.jobs1_ms", "ms", Median_ms "core.decompress.jobs1");
      ("core.decompress.jobsN_ms", "ms", Median_ms "core.decompress.jobsN");
      ("core.par_decode.speedup", "x", Speedup ("core.decompress.jobs1", "core.decompress.jobsN"));
      ("core.par_decode.chunks", "count", Count "core.par_decode.chunks");
      ("core.par_decode.resync_overhead_bits", "count", Count "core.par_decode.resync_overhead_bits");
      ("analysis.image_check_ms", "ms", Median_ms "analysis.image_check");
      ("analysis.certify_ms", "ms", Median_ms "analysis.certify");
      ("analysis.timing_ms", "ms", Median_ms "analysis.timing");
      ("analysis.diag_errors", "count", Count "analysis.diag_errors");
      ("encoding.faulted.ns_per_block", "ns", Ns_per_work "encoding.faulted");
      ("encoding.faulted.detected", "count", Count "encoding.faulted.detected");
      ("encoding.faulted.benign", "count", Count "encoding.faulted.benign");
      ("encoding.faulted.silent", "count", Count "encoding.faulted.silent");
      ("trace.overhead_pct", "%", Overhead);
      ("trace.residual_pct", "%", Residual);
    ]

(* Spans of a layer from the workload's own traced round when it has
   any, else from the generic probe ([req = -1]). *)
let layer_spans ~first_req name =
  let all = List.filter (fun s -> s.Span.name = name) !Span.spans in
  match List.filter (fun s -> s.Span.req >= first_req) all with
  | [] -> List.filter (fun s -> s.Span.req = -1) all
  | own -> own

let layer_count ~first_req ~last_req name =
  let all = List.filter (fun c -> c.Span.cname = name) !Span.counts in
  let sum cs = List.fold_left (fun a c -> a + c.Span.value) 0 cs in
  match List.filter (fun c -> c.Span.creq >= first_req && c.Span.creq <= last_req) all with
  | [] -> sum (List.filter (fun c -> c.Span.creq = -1) all)
  | own -> sum own

(* ------------------------------------------------------------------ *)
(* Provenance *)

let git_rev () =
  (* only the checkout's own .git; never a parent directory *)
  let read p = try Some (In_channel.with_open_bin p In_channel.input_all) with _ -> None in
  match read ".git/HEAD" with
  | None -> "unknown"
  | Some head ->
      let head = String.trim head in
      if String.length head > 5 && String.sub head 0 5 = "ref: " then
        match read (Filename.concat ".git" (String.sub head 5 (String.length head - 5))) with
        | Some r -> String.trim r
        | None -> "unknown"
      else head

(* Digest of the library and benchmark sources, for checkouts without
   git metadata. *)
let source_digest () =
  let files = ref [] in
  let rec walk dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> ()
    | entries ->
        Array.iter
          (fun e ->
            let p = Filename.concat dir e in
            if Sys.is_directory p then walk p
            else if Filename.check_suffix e ".ml" || Filename.check_suffix e ".mli" then
              files := p :: !files)
          entries
  in
  List.iter walk [ "lib"; "perfbench" ];
  let files = List.sort compare !files in
  if files = [] then "unknown"
  else
    Digest.to_hex
      (Digest.string (String.concat "" (List.map (fun f -> f ^ Digest.to_hex (Digest.file f)) files)))

let provenance ~rounds ~requests =
  Json.(
    Obj
      [
        ("workload", Str !workload);
        ("seed", int !seed);
        ("heldout_seed", int heldout_seed);
        ("trace", int !trace);
        ("seconds", Num !seconds);
        ("rounds", int rounds);
        ("requests", int requests);
        ( "nproc",
          Str (Option.value (Sys.getenv_opt "PERFBENCH_NPROC") ~default:"unknown") );
        ("cores", int (Cccs.Parallel.cores ()));
        ("jobs", int (if !workload = "decode" then jobs () else 1));
        ("ocaml_version", Str Sys.ocaml_version);
        ("build_ocaml_version", Str Build_info.ocaml_version);
        ("build_profile", Str Build_info.profile);
        ("ocamlopt_flags", Str Build_info.ocamlopt_flags);
        ("git_rev", Str (git_rev ()));
        ("source_digest", Str (source_digest ()));
        ("tiny", Bool !tiny);
        ("canary_ms", Num (canary_ms ()));
      ])

(* ------------------------------------------------------------------ *)
(* Running a workload *)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

type runner = {
  setup_units : unit -> (unit -> unit) list;
      (** the set-up, as separately timed units *)
  round : int -> unit;  (** one measured round *)
  nominal_round_s : float;
      (** a round's length, untraced, on the 2-core reference box *)
  min_rounds : int;
      (** the rounds a run needs for its latency quantiles to be steady *)
}

let sweep_runner () =
  { setup_units = (fun () -> List.init 3 sweep_setup_unit);
    round = sweep_round;
    nominal_round_s = 11.0;
    min_rounds = 5 }

(* decode and check: set-up builds the first round's inputs, one timed
   unit per program; later rounds build theirs between rounds, untimed. *)
let staged_runner ~unit ~round ~warmup ~nominal_round_s ~min_rounds =
  let prepared = Hashtbl.create 4 in
  let store r x =
    let l = Option.value (Hashtbl.find_opt prepared r) ~default:[] in
    Hashtbl.replace prepared r (x :: l)
  in
  let inputs r =
    match Hashtbl.find_opt prepared r with
    | Some l -> List.rev l
    | None ->
        List.iter (fun p -> store r (unit ~round:r p)) (profiles ());
        List.rev (Hashtbl.find prepared r)
  in
  {
    setup_units =
      (fun () ->
        List.mapi
          (fun i p () ->
            let x = unit ~round:0 p in
            if i = 0 then warmup x;
            store 0 x)
          (profiles ()));
    round = (fun r -> round (inputs r) r);
    nominal_round_s;
    min_rounds;
  }

let decode_runner () =
  staged_runner ~unit:decode_unit ~round:decode_round ~nominal_round_s:60.0 ~min_rounds:1
    ~warmup:(fun ds -> decode_warmup (List.hd ds).dprog)

let check_runner () =
  staged_runner ~unit:check_unit ~round:check_round ~nominal_round_s:10.0 ~min_rounds:3
    ~warmup:(fun _ -> ())

(* A run measures a fixed number of whole rounds: as many nominal round
   lengths as [--seconds] covers, and at least [min_rounds].  The seed
   changes the program instances of every round, and their sizes vary by
   up to a quarter, so a sweep run needs five rounds (one instance of each
   profile per round) before its median stops following the instances the
   seed drew.  A check run needs three rounds for the same of its tail
   percentile, which falls among the certificates and timing passes of
   the mid-size programs.  The mix, the sample count and so the
   percentile the tail reports do not depend on how fast the box is
   today. *)
let round_count d =
  if !tiny then 1
  else
    max d.min_rounds
      (int_of_float (Float.ceil ((!seconds /. d.nominal_round_s) -. 1e-9)))

let print_json j = print_endline (Json.to_string j)

let metric v unit = Json.(Obj [ ("value", Num v); ("unit", Str unit) ])

let measure_setup d =
  List.map
    (fun u ->
      let t0 = now () in
      u ();
      now () -. t0)
    (d.setup_units ())

let attempted () = List.length !outcomes
let failed () = List.length (List.filter (fun o -> not o.ok) !outcomes)

(* Untraced run: the end-to-end metrics and the detail line. *)
let untraced d ~setup_times =
  let t0 = now () in
  for r = 0 to round_count d - 1 do
    d.round r
  done;
  let wall = now () -. t0 in
  (* a failed request counts as missing every latency bound *)
  let ms = List.map (fun o -> if o.ok then o.ms else Float.infinity) !outcomes in
  let busy = Stats.sum (List.map (fun o -> o.ms) !outcomes) /. 1000.0 in
  let rps = float_of_int (attempted ()) /. busy in
  let p50 = Stats.median ms and tail, pct = Stats.tail ms in
  let family =
    match !workload with
    | "sweep" ->
        [ ("sweep_programs_per_s", rps); ("sweep_ms_p50", p50); ("sweep_ms_tail", tail) ]
    | "decode" ->
        let ct, cp = Stats.tail !cold_ms in
        [
          ("decode_cold_ms_p50", Stats.median !cold_ms);
          ("decode_cold_ms_tail", ct);
          ("decode_cold_tail_percentile", cp);
          ("decode_warm_mb_per_s", float_of_int !warm_bytes /. 1e6 /. !warm_s);
        ]
    | _ ->
        let st, sp = Stats.tail !static_ms in
        [
          ("check_ms_p50", Stats.median !static_ms);
          ("check_ms_tail", st);
          ("check_tail_percentile", sp);
          ("fault_blocks_per_s", float_of_int !fault_blocks /. !fault_s);
        ]
  in
  let detail =
    [
      ("request_tail_percentile", pct);
      ("request_samples", float_of_int (List.length ms));
      ("measured_wall_s", wall);
      ("heap_settle_s", !compact_s);
    ]
    @ family
  in
  let metrics =
    [
      ("setup_s", Stats.median setup_times);
      ("peak_heap_mb", peak_heap_mb ());
      ("request_ms_p50", p50);
      ("request_ms_tail", tail);
      ("requests_per_s", rps);
      ("code_size_ratio", Stats.geomean !ratios);
    ]
  in
  (* every request, in the order sent, for offline analysis *)
  let per_request =
    List.rev_map
      (fun o -> Json.(Arr [ Str o.cell; Num o.ms; Bool o.ok ]))
      !outcomes
  in
  ( List.map (fun (k, v) -> (k, metric v (List.assoc k end_to_end))) metrics,
    Json.(
      Obj
        [
          ( "detail",
            Obj
              (List.map (fun (k, v) -> (k, Num v)) detail
              @ [ ("requests", Arr per_request) ]) );
        ]) )

(* Traced run: the same rounds with every layer call recorded, then the
   generic layer probe.  Counts come from the first round only, so they
   repeat exactly for a seed. *)
let traced d =
  Span.enabled := true;
  let first_req = !next_req in
  d.round 0;
  let last_req = !next_req - 1 in
  for r = 1 to round_count d - 1 do
    d.round r
  done;
  let requests = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.Span.name = "request" && s.Span.req >= first_req then
        Hashtbl.replace requests s.Span.id ())
    !Span.spans;
  (* request total, and the self time of every layer span directly under
     a request; what remains of the request is the residual *)
  let req_total = ref 0.0 and residual = ref 0.0 in
  let layer_self = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      if Hashtbl.mem requests s.Span.id then begin
        req_total := !req_total +. Span.duration s;
        residual := !residual +. self
      end
      else if Hashtbl.mem requests s.Span.parent then
        Hashtbl.replace layer_self s.Span.name
          (self +. Option.value (Hashtbl.find_opt layer_self s.Span.name) ~default:0.0))
    (Span.self_times !Span.spans);
  (* tracing overhead: the recorder's own cost per span, timed here, times
     the spans recorded inside requests *)
  let recorded =
    List.length
      (List.filter
         (fun s -> Hashtbl.mem requests s.Span.id || Hashtbl.mem requests s.Span.parent)
         !Span.spans)
  in
  let per_span =
    let saved = !Span.spans and n = 20_000 in
    let t0 = now () in
    for _ = 1 to n do
      Span.record "recorder" ignore
    done;
    Span.spans := saved;
    (now () -. t0) /. float_of_int n
  in
  let overhead = per_span *. float_of_int recorded in
  (try layer_probe () with e -> fail_note "layer probe: %s" (Printexc.to_string e));
  let durations n = List.map Span.duration (layer_spans ~first_req n) in
  let works n = List.map (fun s -> s.Span.work) (layer_spans ~first_req n) in
  let value name agg =
    let v =
      match agg with
      | Median_ms n -> 1000.0 *. Stats.median (durations n)
      | Ns_per_work n -> 1e9 *. Stats.sum (durations n) /. Stats.sum (works n)
      | Mb_per_s n -> Stats.sum (works n) /. 1e6 /. Stats.sum (durations n)
      | Count n -> float_of_int (layer_count ~first_req ~last_req n)
      | Speedup (a, b) -> Stats.sum (durations a) /. Stats.sum (durations b)
      | Overhead -> 100.0 *. overhead /. (!req_total -. overhead)
      | Residual -> 100.0 *. !residual /. !req_total
    in
    if Float.is_nan v then failwith ("no measurement for " ^ name) else v
  in
  let breakdown =
    Hashtbl.fold (fun k v acc -> (k, Json.Num (v *. 1000.0)) :: acc) layer_self []
    |> List.sort compare
  in
  ( List.map (fun (name, unit, agg) -> (name, metric (value name agg) unit)) per_layer,
    Json.(
      Obj
        [
          ( "layer_self_ms",
            Obj
              (breakdown
              @ [
                  ("(residual)", Num (!residual *. 1000.0));
                  ("(request total)", Num (!req_total *. 1000.0));
                ]) );
        ]) )

let main () =
  let d =
    match !workload with
    | "sweep" -> sweep_runner ()
    | "decode" -> decode_runner ()
    | "check" -> check_runner ()
    | w -> raise (Arg.Bad ("unknown workload " ^ w))
  in
  let setup_times = measure_setup d in
  let metrics, second_line =
    if !trace = 0 then untraced d ~setup_times else traced d
  in
  if !trace = 1 then begin
    let path =
      if !spans_out <> "" then !spans_out
      else Printf.sprintf ".bench_build/perfbench-spans-%s-%d.jsonl" !workload !seed
    in
    try Span.write path
    with Sys_error e -> prerr_endline ("perfbench: spans not written: " ^ e)
  end;
  print_json
    (Json.Obj [ ("provenance", provenance ~rounds:(round_count d) ~requests:(attempted ())) ]);
  print_json second_line;
  List.iter (fun n -> prerr_endline ("perfbench: failed: " ^ n)) (List.rev !notes);
  print_json
    Json.(
      Obj
        [
          ("correct", Bool (failed () = 0));
          ("attempted", int (attempted ()));
          ("failed", int (failed ()));
          ("metrics", Obj metrics);
        ])

let () =
  match main () with
  | () -> exit 0
  | exception Arg.Bad m ->
      prerr_endline ("perfbench: " ^ m);
      exit 2

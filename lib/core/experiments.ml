type schemes = {
  base : Encoding.Scheme.t;
  byte : Encoding.Scheme.t;
  streams : (string * Encoding.Scheme.t) list;
  full : Encoding.Scheme.t;
  tailored : Encoding.Scheme.t;
  tailored_spec : Encoding.Tailored.spec;
  dict : Encoding.Scheme.t;
}

(* Domain-local like the Workload_run memo: schemes carry lazily-built
   decode tables (mutable fields inside Canonical), so a parallel sweep
   worker must construct and memoize its own rather than share the
   caller's. *)
let scheme_cache_key : (string, schemes) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 17)

let schemes_of (r : Workload_run.run) =
  let scheme_cache = Domain.DLS.get scheme_cache_key in
  match Hashtbl.find_opt scheme_cache r.Workload_run.name with
  | Some s -> s
  | None ->
      let prog = r.Workload_run.compiled.Pipeline.program in
      let tailored, tailored_spec = Encoding.Tailored.build_with_spec prog in
      let s =
        {
          base = Encoding.Baseline.build prog;
          byte = Encoding.Byte_huffman.build prog;
          streams =
            List.map
              (fun (name, c) -> (name, Encoding.Stream_huffman.build ~config:c prog))
              Encoding.Stream_huffman.configs;
          full = Encoding.Full_huffman.build prog;
          tailored;
          tailored_spec;
          dict = Encoding.Dictionary.build prog;
        }
      in
      Hashtbl.replace scheme_cache r.Workload_run.name s;
      s

let all_schemes s =
  [ ("base", s.base); ("byte", s.byte) ]
  @ s.streams
  @ [ ("full", s.full); ("tailored", s.tailored) ]

(* Every figure driver maps a pure per-run row function over the SPEC set.
   [sweep ?jobs f] is the shared harness: workloads are loaded inside the
   mapped task so a parallel sweep compiles, executes and encodes each
   workload entirely within one worker domain (per-domain memo tables make
   this race-free); with [jobs = 1] — the default unless CCCS_JOBS is set —
   it degrades to exactly the old sequential drivers, reusing the calling
   domain's caches. *)
let sweep ?jobs f =
  Parallel.map ?jobs (fun e -> f (Workload_run.load e)) Workloads.Suite.spec

(* ------------------------------------------------------------------ *)

type fig5_row = {
  bench : string;
  ratios : (string * float) list;
}

let fig5_for (r : Workload_run.run) =
  let s = schemes_of r in
  let baseline_bits = s.base.Encoding.Scheme.code_bits in
  {
    bench = r.Workload_run.name;
    ratios =
      List.map
        (fun (name, sc) -> (name, Encoding.Scheme.ratio sc ~baseline_bits))
        (all_schemes s);
  }

let fig5 ?jobs () = sweep ?jobs fig5_for

(* ------------------------------------------------------------------ *)

type fig7_row = {
  bench : string;
  base_bits : int;
  schemes_total : (string * int * float) list;
  atb_miss_rate : float;
}

let fig7_for (r : Workload_run.run) =
  let s = schemes_of r in
  let prog = r.Workload_run.compiled.Pipeline.program in
  let cfg = Fetch.Config.default in
  let totals =
    List.map
      (fun (name, sc) ->
        let att =
          Encoding.Att.build sc ~line_bits:cfg.Fetch.Config.line_bits prog
        in
        let total =
          sc.Encoding.Scheme.code_bits + sc.Encoding.Scheme.table_bits
          + att.Encoding.Att.compressed_bits
        in
        ( name,
          total,
          Encoding.Att.overhead att ~code_bits:sc.Encoding.Scheme.code_bits ))
      (all_schemes s)
  in
  let att_full =
    Encoding.Att.build s.full ~line_bits:cfg.Fetch.Config.line_bits prog
  in
  let sim =
    Fetch.Sim.run ~model:Fetch.Config.Compressed ~cfg ~scheme:s.full
      ~att:att_full r.Workload_run.exec.Emulator.Exec.trace
  in
  {
    bench = r.Workload_run.name;
    base_bits = s.base.Encoding.Scheme.code_bits;
    schemes_total = totals;
    atb_miss_rate =
      float_of_int sim.Fetch.Sim.atb_misses
      /. float_of_int (max 1 sim.Fetch.Sim.block_visits);
  }

let fig7 ?jobs () = sweep ?jobs fig7_for

(* ------------------------------------------------------------------ *)

type fig10_row = {
  bench : string;
  decoders : (string * Encoding.Scheme.decoder_info) list;
}

let fig10_for (r : Workload_run.run) =
  let s = schemes_of r in
  {
    bench = r.Workload_run.name;
    decoders =
      List.filter_map
        (fun (name, sc) ->
          if name = "base" then None
          else Some (name, sc.Encoding.Scheme.decoder))
        (all_schemes s);
  }

let fig10 ?jobs () = sweep ?jobs fig10_for

(* ------------------------------------------------------------------ *)

type fig13_row = {
  bench : string;
  ideal : Fetch.Sim.result;
  base : Fetch.Sim.result;
  compressed : Fetch.Sim.result;
  tailored : Fetch.Sim.result;
}

let fig13_cache_key : (string, fig13_row) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 17)

let fig13_for (r : Workload_run.run) =
  let fig13_cache = Domain.DLS.get fig13_cache_key in
  match Hashtbl.find_opt fig13_cache r.Workload_run.name with
  | Some row -> row
  | None ->
      let s = schemes_of r in
      let prog = r.Workload_run.compiled.Pipeline.program in
      let trace = r.Workload_run.exec.Emulator.Exec.trace in
      let cfg = Fetch.Config.default in
      let cfg_base = Fetch.Config.default_base in
      let att sc c =
        Encoding.Att.build sc ~line_bits:c.Fetch.Config.line_bits prog
      in
      let att_base = att s.base cfg_base in
      let row =
        {
          bench = r.Workload_run.name;
          ideal = Fetch.Sim.run_ideal ~att:att_base trace;
          base =
            Fetch.Sim.run ~model:Fetch.Config.Base ~cfg:cfg_base ~scheme:s.base
              ~att:att_base trace;
          compressed =
            Fetch.Sim.run ~model:Fetch.Config.Compressed ~cfg ~scheme:s.full
              ~att:(att s.full cfg) trace;
          tailored =
            Fetch.Sim.run ~model:Fetch.Config.Tailored ~cfg ~scheme:s.tailored
              ~att:(att s.tailored cfg) trace;
        }
      in
      Hashtbl.replace fig13_cache r.Workload_run.name row;
      row

let fig13 ?jobs () = sweep ?jobs fig13_for

(* ------------------------------------------------------------------ *)

type fig14_row = {
  bench : string;
  flips : (string * int) list;
}

let fig14_for (r : Workload_run.run) =
  let row = fig13_for r in
  {
    bench = row.bench;
    flips =
      [
        ("base", row.base.Fetch.Sim.bus_flips);
        ("compressed", row.compressed.Fetch.Sim.bus_flips);
        ("tailored", row.tailored.Fetch.Sim.bus_flips);
      ];
  }

let fig14 ?jobs () = sweep ?jobs fig14_for

type ablation_row = {
  bench : string;
  hit_time : Fetch.Sim.result;
  miss_time : Fetch.Sim.result;
}

let ablation_for (r : Workload_run.run) =
  let s = schemes_of r in
  let prog = r.Workload_run.compiled.Pipeline.program in
  let trace = r.Workload_run.exec.Emulator.Exec.trace in
  let cfg = Fetch.Config.default in
  let comp_att =
    Encoding.Att.build s.full ~line_bits:cfg.Fetch.Config.line_bits prog
  in
  {
    bench = r.Workload_run.name;
    hit_time =
      Fetch.Sim.run ~model:Fetch.Config.Compressed ~cfg ~scheme:s.full
        ~att:comp_att trace;
    miss_time =
      Fetch.Ablation.run ~cfg ~base_scheme:s.base ~comp_scheme:s.full
        ~comp_att trace;
  }

let ablation ?jobs () = sweep ?jobs ablation_for

type predictor_row = {
  bench : string;
  two_bit : Fetch.Sim.result;
  gshare : Fetch.Sim.result;
}

let predictors_for (r : Workload_run.run) =
  let s = schemes_of r in
  let prog = r.Workload_run.compiled.Pipeline.program in
  let trace = r.Workload_run.exec.Emulator.Exec.trace in
  let run cfg =
    let att =
      Encoding.Att.build s.full ~line_bits:cfg.Fetch.Config.line_bits prog
    in
    Fetch.Sim.run ~model:Fetch.Config.Compressed ~cfg ~scheme:s.full ~att trace
  in
  {
    bench = r.Workload_run.name;
    two_bit = run Fetch.Config.default;
    gshare =
      run
        {
          Fetch.Config.default with
          Fetch.Config.predictor = Fetch.Config.Gshare 12;
        };
  }

let predictors ?jobs () = sweep ?jobs predictors_for

type superblock_row = {
  bench : string;
  mean_unit_blocks : float;
  bb_base : Fetch.Sim.result;
  sb_base : Fetch.Sim.result;
  bb_compressed : Fetch.Sim.result;
  sb_compressed : Fetch.Sim.result;
}

let superblocks_for (r : Workload_run.run) =
  let s = schemes_of r in
  let prog = r.Workload_run.compiled.Pipeline.program in
  let trace = r.Workload_run.exec.Emulator.Exec.trace in
  let units = Fetch.Superblock.form prog in
  let _, mean_unit_blocks = Fetch.Superblock.stats units in
  let cfg = Fetch.Config.default in
  let cfg_base = Fetch.Config.default_base in
  let att sc c =
    Encoding.Att.build sc ~line_bits:c.Fetch.Config.line_bits prog
  in
  let row13 = fig13_for r in
  {
    bench = r.Workload_run.name;
    mean_unit_blocks;
    bb_base = row13.base;
    sb_base =
      Fetch.Superblock.run ~model:Fetch.Config.Base ~cfg:cfg_base
        ~scheme:s.base ~att:(att s.base cfg_base) units trace;
    bb_compressed = row13.compressed;
    sb_compressed =
      Fetch.Superblock.run ~model:Fetch.Config.Compressed ~cfg
        ~scheme:s.full ~att:(att s.full cfg) units trace;
  }

let superblocks ?jobs () = sweep ?jobs superblocks_for

(* ------------------------------------------------------------------ *)

let clear_cache () =
  Hashtbl.reset (Domain.DLS.get scheme_cache_key);
  Hashtbl.reset (Domain.DLS.get fig13_cache_key)

(** Reproduction drivers, one per table/figure of the paper's evaluation.

    Every function returns structured rows; the bench harness and the CLI
    render them.  All results are memoized per domain through
    {!Workload_run} and {!schemes_of}.

    Each driver takes [?jobs] and distributes the workload sweep over a
    {!Parallel} pool ([jobs] defaults to [Parallel.default_jobs ()], i.e.
    the [CCCS_JOBS] environment variable, else sequential).  The row
    functions are deterministic, so parallel output is identical to the
    sequential run; workloads are loaded inside the worker, so each domain
    compiles and memoizes its own share. *)

(** All encoding schemes built for one workload, memoized per domain. *)
type schemes = {
  base : Encoding.Scheme.t;
  byte : Encoding.Scheme.t;
  streams : (string * Encoding.Scheme.t) list;  (** all six configurations *)
  full : Encoding.Scheme.t;
  tailored : Encoding.Scheme.t;
  tailored_spec : Encoding.Tailored.spec;
  dict : Encoding.Scheme.t;
      (** Liao-style sequence dictionary (related work, not in the paper's
          figures) *)
}

val schemes_of : Workload_run.run -> schemes

(** [all_schemes s] — the paper's figure set in display order: base,
    byte, the stream configurations, full, tailored ([dict] is kept
    apart, as in the figures). *)
val all_schemes : schemes -> (string * Encoding.Scheme.t) list

(** {1 Figure 5 — compression ratio, code segment only} *)

type fig5_row = {
  bench : string;
  ratios : (string * float) list;  (** scheme name -> ratio vs baseline *)
}

(** [fig5_for r] — one row; exported for the perf bench and tests. *)
val fig5_for : Workload_run.run -> fig5_row

val fig5 : ?jobs:int -> unit -> fig5_row list

(** {1 Figure 7 — total code size with the ATT, and ATB behaviour} *)

type fig7_row = {
  bench : string;
  base_bits : int;
  schemes_total : (string * int * float) list;
      (** scheme, code+table+ATT bits, ATT overhead ratio *)
  atb_miss_rate : float;  (** ATB misses per block visit (full scheme run) *)
}

val fig7 : ?jobs:int -> unit -> fig7_row list

(** {1 Figure 10 — Huffman decoder complexity} *)

type fig10_row = {
  bench : string;
  decoders : (string * Encoding.Scheme.decoder_info) list;
}

val fig10 : ?jobs:int -> unit -> fig10_row list

(** {1 Figure 13 — instructions delivered per cycle} *)

type fig13_row = {
  bench : string;
  ideal : Fetch.Sim.result;
  base : Fetch.Sim.result;
  compressed : Fetch.Sim.result;
  tailored : Fetch.Sim.result;
}

(** [fig13_for r] — one row, memoized per domain; exported for the perf
    bench and tests. *)
val fig13_for : Workload_run.run -> fig13_row

val fig13 : ?jobs:int -> unit -> fig13_row list

(** {1 Figure 14 — memory bus bit flips} *)

type fig14_row = {
  bench : string;
  flips : (string * int) list;  (** model -> total flips *)
}

val fig14 : ?jobs:int -> unit -> fig14_row list

(** {1 Ablation — decompress at hit time vs at miss time}

    DESIGN.md's headline design decision: the paper caches compressed code
    and decompresses on the hit path; CodePack-style systems decompress on
    the miss path and cache plain ops.  This experiment isolates the
    capacity effect by running both on identical traces. *)

type ablation_row = {
  bench : string;
  hit_time : Fetch.Sim.result;  (** the paper's organization *)
  miss_time : Fetch.Sim.result;  (** CodePack-style alternative *)
}

val ablation : ?jobs:int -> unit -> ablation_row list

(** {1 Extension — branch predictor study (the paper's future work)}

    Reruns the compressed fetch model (the one most sensitive to
    misprediction) with the 2-bit ATB predictor replaced by gshare. *)

type predictor_row = {
  bench : string;
  two_bit : Fetch.Sim.result;
  gshare : Fetch.Sim.result;  (** 12 history bits *)
}

val predictors : ?jobs:int -> unit -> predictor_row list

(** {1 Extension — superblock fetch units (the paper's future work)}

    §3.1 leaves "complex blocks as fetch units" to future work; this runs
    the Base and Compressed models with maximal single-entry fall-through
    chains as the atomic fetch unit. *)

type superblock_row = {
  bench : string;
  mean_unit_blocks : float;
  bb_base : Fetch.Sim.result;
  sb_base : Fetch.Sim.result;
  bb_compressed : Fetch.Sim.result;
  sb_compressed : Fetch.Sim.result;
}

val superblocks : ?jobs:int -> unit -> superblock_row list

(** [clear_cache ()] — reset the calling domain's memoized results
    (tests, cold-cache benchmarking). *)
val clear_cache : unit -> unit

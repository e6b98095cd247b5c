(* verify_all — end-to-end verification sweep over every workload.

   For each workload: compile, execute, differentially check the scheduled
   VLIW program against the sequential reference interpreter (identical
   memory, identical control-flow trace), check that every encoding scheme
   decodes the ROM back to the identical program, run each registered
   static-verifier pass (Cccs.Analysis) once — the image validator and the
   decoder certification pass (CCCS-E2xx) also get their own columns, read
   from their own findings — run a CRC-protected fault campaign, and run
   the trace-backed WCET analysis, whose bound must dominate the simulator
   replay on every scheme (bound/simulated ratio >= 1).

   This is the long-form version of what `dune runtest` samples; CI or a
   release check can run it directly:  dune exec bin/verify_all.exe

   With --json the human-readable report moves to stderr and stdout gets a
   single machine-readable JSON object (schema "cccs-verify/1") that CI
   archives as an artifact.  Exit codes are identical in both modes. *)

module Json = Cccs_obs.Json
module Diag = Cccs.Analysis.Diag

let json_mode = Array.exists (( = ) "--json") Sys.argv

(* Human-readable output; demoted to stderr in --json mode so stdout stays
   pure JSON. *)
let out = if json_mode then stderr else stdout

(* Fixed seed of the per-workload fault campaign; echoed in the JSON so a
   consumer can reproduce the exact campaign outside this sweep. *)
let fault_seed = 7

(* Wall-clock of the last ledgered sweep, keyed by workload, for the
   perf-trend column.  Point-only seconds go through Obs.Compare, whose
   wide point threshold keeps one noisy run from crying regression. *)
let prev_seconds : string -> float option =
  if not (Cccs_obs.Ledger.enabled ()) then fun _ -> None
  else
    let entries, _warnings =
      Cccs_obs.Ledger.load ~path:(Cccs_obs.Ledger.default_path ())
    in
    match Cccs_obs.Ledger.last ~kind:"verify_all" entries with
    | None -> fun _ -> None
    | Some e ->
        let tbl = Hashtbl.create 16 in
        List.iter
          (fun row ->
            match
              ( Cccs_obs.Json.member "name" row,
                Cccs_obs.Json.member "seconds" row )
            with
            | Some (Cccs_obs.Json.Str n), Some (Cccs_obs.Json.Num s) ->
                Hashtbl.replace tbl n s
            | _ -> ())
          e.Cccs_obs.Ledger.rows;
        fun n -> Hashtbl.find_opt tbl n

let trend_of ~name ~seconds =
  match prev_seconds name with
  | None -> ("n/a", None)
  | Some base_s -> (
      let mk s =
        [
          Cccs_obs.Json.Obj
            [
              ("name", Cccs_obs.Json.Str name);
              ("seconds", Cccs_obs.Json.Num s);
            ];
        ]
      in
      match Cccs_obs.Compare.rows ~base:(mk base_s) ~cur:(mk seconds) () with
      | [ row ] ->
          let pct = 100. *. row.Cccs_obs.Compare.slowdown in
          let label =
            match row.Cccs_obs.Compare.verdict with
            | Cccs_obs.Compare.Regressed -> Printf.sprintf "%+.0f%%" pct
            | Cccs_obs.Compare.Improved -> Printf.sprintf "%+.0f%%" pct
            | Cccs_obs.Compare.Unchanged -> "~"
            | Cccs_obs.Compare.Untrusted -> "?"
          in
          (label, Some base_s)
      | _ -> ("n/a", None))

(* What the columns read about one workload; the costly parts are
   computed once, on first use. *)
type subject = {
  run : Cccs.Workload_run.run;
  target : Cccs.Analysis.Pass.target;
  differential : (bool * bool) Lazy.t;  (* memory ok, trace ok *)
  findings : (string * Diag.t list) list Lazy.t;
      (* every registered pass's diagnostics, by pass name, in order *)
  seconds : float Lazy.t;  (* the row's wall clock, read once at its end *)
  emit : string -> unit;
      (* per-workload report lines: a parallel sweep buffers each
         workload's output and prints it in suite order after the gather;
         at jobs=1 it writes straight to [out] *)
}

(* One workload's verdict in one column: pass/fail, the text after the
   column's name in the row line, and the column's fields in the row's
   JSON object (after "<cell>_ok" for a gating column). *)
type cell = { ok : bool; show : string; fields : (string * Json.t) list }

(* The column table — THE single declarative source for the row line, the
   check summary, the JSON row and `checks` object, and the overall
   verdict.  Adding a check means adding one entry here.  Columns run in
   order, so their diagnostics print in that order and perf-trend, last,
   times the whole row.  [gates] separates pass/fail checks from
   informational columns (perf-trend), which print but never fail the
   sweep. *)
type column = {
  label : string;  (* summary / JSON key, e.g. "decoder-certify" *)
  cell : string;  (* short name in the row line and JSON field prefix *)
  gates : bool;
  check : subject -> cell;
}

let flag ok = if ok then "OK" else "FAIL"

let flag_schemes ok failed =
  if ok then "OK" else "FAIL[" ^ String.concat "," failed ^ "]"

let strs l = Json.Arr (List.map (fun s -> Json.Str s) l)
let num_opt = Option.fold ~none:Json.Null ~some:(fun f -> Json.Num f)
let plain ok = { ok; show = flag ok; fields = [] }

let emit_diags s =
  List.iter (fun d -> Printf.ksprintf s.emit "  %s\n" (Diag.to_string d))

(* A pass's own column: it fails on that pass's errors and names the
   schemes they are attributed to. *)
let pass_column ~label ~cell (module P : Cccs.Analysis.Pass.S) =
  let check s =
    let errors =
      List.filter Diag.is_error (List.assoc P.name (Lazy.force s.findings))
    in
    let failed =
      List.sort_uniq compare
        (List.filter_map (fun (d : Diag.t) -> d.Diag.loc.Diag.scheme) errors)
    in
    let ok = errors = [] in
    {
      ok;
      show = flag_schemes ok failed;
      fields = [ (cell ^ "_failed", strs failed) ];
    }
  in
  { label; cell; gates = true; check }

let decode_back s =
  let prog = s.run.Cccs.Workload_run.compiled.Cccs.Pipeline.program in
  plain
    (List.for_all
       (fun sc ->
         match Encoding.Scheme.verify sc prog with
         | () -> true
         | exception Failure msg ->
             Printf.ksprintf s.emit "  decode-back: %s\n" msg;
             false)
       s.target.Cccs.Analysis.Pass.schemes)

let lint s =
  let diags = List.concat_map snd (Lazy.force s.findings) in
  let errors = List.filter Diag.is_error diags in
  emit_diags s errors;
  {
    (plain (errors = [])) with
    fields =
      [ ("lint_warnings", Json.int (List.length diags - List.length errors)) ];
  }

(* Fixed-seed protected fault campaign: CRC framing must detect every
   exposed flip (zero silent corruptions) and must actually be exercised
   (nonzero detections). *)
let faults s =
  let t =
    Cccs.Faults.run
      {
        Cccs.Faults.bench = s.run.Cccs.Workload_run.name;
        seed = fault_seed;
        flips = 16;
        retries = 2;
        protection = Encoding.Scheme.Crc8;
      }
  in
  let detected =
    List.fold_left
      (fun a (x : Cccs.Faults.scheme_report) ->
        a + x.Cccs.Faults.rom.Cccs.Faults.detected
        + x.Cccs.Faults.table.Cccs.Faults.detected
        + x.Cccs.Faults.cache.Cccs.Faults.detected)
      0 t.Cccs.Faults.rows
  in
  let ok =
    List.for_all (fun x -> Cccs.Faults.silent_total x = 0) t.Cccs.Faults.rows
    && detected > 0
  in
  {
    ok;
    show = Printf.sprintf "%s(%d det)" (flag ok) detected;
    fields = [ ("faults_detected", Json.int detected) ];
  }

(* Trace-backed WCET with the simulator-replay soundness checks: every
   scheme must get a finite bound and the replay must land within it
   (bound/simulated ratio >= 1, CCCS-E30x clean). *)
let wcet s =
  let failed = ref [] and min_ratio = ref None in
  List.iter
    (fun (diags, w) ->
      let errs = List.filter Diag.is_error diags in
      emit_diags s errs;
      match w with
      | None ->
          let scheme =
            List.find_map (fun (d : Diag.t) -> d.Diag.loc.Diag.scheme) diags
          in
          failed := Option.value scheme ~default:"?" :: !failed
      | Some (w : Cccs.Analysis.Timing_check.wcet) -> (
          let ratio = w.Cccs.Analysis.Timing_check.ratio in
          if not (errs = [] && Option.fold ratio ~none:false ~some:(( <= ) 1.0))
          then failed := w.Cccs.Analysis.Timing_check.scheme :: !failed;
          match ratio with
          | Some f ->
              min_ratio := Some (Option.fold !min_ratio ~none:f ~some:(min f))
          | None -> ()))
    (Cccs.Analysis.wcet_run s.run);
  let ok = !failed = [] and failed = List.sort_uniq compare !failed in
  {
    ok;
    show =
      (match !min_ratio with
      | Some m when ok -> Printf.sprintf "OK(x%.2f)" m
      | _ -> flag_schemes ok failed);
    fields =
      [
        ("wcet_failed", strs failed);
        ("wcet_min_ratio", num_opt !min_ratio);
      ];
  }

let perf s =
  let seconds = Lazy.force s.seconds in
  let trend, baseline =
    trend_of ~name:s.run.Cccs.Workload_run.name ~seconds
  in
  {
    ok = true;
    show = trend;
    fields =
      [
        ("seconds", Json.Num seconds);
        ("perf_trend", Json.Str trend);
        ("seconds_baseline", num_opt baseline);
      ];
  }

let gate label cell check = { label; cell; gates = true; check }

let columns =
  [
    gate "differential-memory" "mem" (fun s ->
        plain (fst (Lazy.force s.differential)));
    gate "differential-trace" "trace" (fun s ->
        plain (snd (Lazy.force s.differential)));
    gate "scheme-decode-back" "schemes" decode_back;
    gate "static-lint" "lint" lint;
    pass_column ~label:"image-validate" ~cell:"validate"
      Cccs.Analysis.Image_check.pass;
    pass_column ~label:"decoder-certify" ~cell:"certify"
      Cccs.Analysis.Certify.pass;
    gate "fault-protection" "faults" faults;
    gate "wcet-bound" "wcet" wcet;
    { label = "perf-trend"; cell = "perf"; gates = false; check = perf };
  ]

let gating = List.filter (fun c -> c.gates) columns

type row = { name : string; seconds : float; cells : (column * cell) list }

let cell_ok c row = (List.assq c row.cells).ok
let row_ok row = List.for_all (fun c -> cell_ok c row) gating

let check_workload ~emit (e : Workloads.Suite.entry) =
  let t0 = Unix.gettimeofday () in
  let r = Cccs.Workload_run.load e in
  let target = Cccs.Analysis.target_of_run r in
  let s =
    {
      run = r;
      target;
      differential = lazy (Cccs.Workload_run.differential r);
      findings =
        lazy
          (List.map
             (fun (module P : Cccs.Analysis.Pass.S) -> (P.name, P.run target))
             Cccs.Analysis.passes);
      seconds = lazy (Unix.gettimeofday () -. t0);
      emit;
    }
  in
  let cells = List.map (fun c -> (c, c.check s)) columns in
  let c = r.Cccs.Workload_run.compiled in
  let prog = c.Cccs.Pipeline.program in
  let res = r.Cccs.Workload_run.exec in
  Printf.ksprintf emit
    "%-12s blocks=%5d ops=%6d ilp=%4.2f hoist=%4d | dyn_ops=%8d visits=%7d \
     %s |%s | %.2fs\n"
    r.Cccs.Workload_run.name
    (Tepic.Program.num_blocks prog)
    (Tepic.Program.num_ops prog)
    c.Cccs.Pipeline.ilp c.Cccs.Pipeline.hoisted
    (Emulator.Trace.total_ops res.Emulator.Exec.trace)
    (Emulator.Trace.length res.Emulator.Exec.trace)
    (match res.Emulator.Exec.stop with
    | Emulator.Exec.Fell_through -> "end"
    | Emulator.Exec.Halted -> "halt"
    | Emulator.Exec.Budget_exhausted -> "BUDGET")
    (String.concat ""
       (List.map (fun (col, x) -> " " ^ col.cell ^ " " ^ x.show) cells))
    (Lazy.force s.seconds);
  { name = r.Cccs.Workload_run.name; seconds = Lazy.force s.seconds; cells }

let row_json row =
  Json.Obj
    (("name", Json.Str row.name)
    :: List.concat_map
         (fun (col, x) ->
           if col.gates then (col.cell ^ "_ok", Json.Bool x.ok) :: x.fields
           else x.fields)
         row.cells)

let json_report ~jobs rows ok =
  let open Json in
  let check_json c =
    let failed =
      List.filter_map
        (fun r -> if cell_ok c r then None else Some (Str r.name))
        rows
    in
    (c.label, Obj [ ("pass", Bool (failed = [])); ("failed", Arr failed) ])
  in
  Obj
    [
      ("schema", Str "cccs-verify/1");
      ("ok", Bool ok);
      ("seed", int fault_seed);
      ("jobs", int jobs);
      ("workloads", Arr (List.map row_json rows));
      ("checks", Obj (List.map check_json gating));
    ]

let () =
  let jobs = Cccs.Parallel.default_jobs () in
  let rows =
    if jobs <= 1 then
      (* Sequential: stream each workload's lines as they finish. *)
      List.map
        (fun e ->
          let r = check_workload ~emit:(fun s -> output_string out s) e in
          flush out;
          r)
        Workloads.Suite.all
    else
      (* Parallel (CCCS_JOBS > 1): each workload verifies in its own
         domain with its output buffered; buffers print in suite order
         after the gather, so the report reads identically to the
         sequential run (modulo the per-workload timings). *)
      List.map
        (fun (r, lines) ->
          output_string out lines;
          r)
        (Cccs.Parallel.map ~jobs
           (fun e ->
             let b = Buffer.create 512 in
             let r = check_workload ~emit:(Buffer.add_string b) e in
             (r, Buffer.contents b))
           Workloads.Suite.all)
  in
  flush out;
  let total = List.length rows in
  let summary c =
    let failed = List.filter (fun r -> not (cell_ok c r)) rows in
    Printf.fprintf out "check %-22s %d/%d pass%s\n" c.label
      (total - List.length failed)
      total
      (if failed = [] then ""
       else
         ": FAIL " ^ String.concat ", " (List.map (fun r -> r.name) failed))
  in
  Printf.fprintf out "\n";
  List.iter summary gating;
  let warn =
    List.fold_left
      (fun acc r ->
        match Json.member "lint_warnings" (row_json r) with
        | Some (Json.Num n) -> acc + int_of_float n
        | _ -> acc)
      0 rows
  in
  if warn > 0 then
    Printf.fprintf out "static-lint warnings: %d (non-fatal)\n" warn;
  let ok = List.for_all row_ok rows in
  (* Ledger: one row per workload, so the next sweep's perf-trend column
     (and `cccs perfdiff --kind verify_all`) has this run as baseline. *)
  (try
     Cccs_obs.Ledger.record ~kind:"verify_all" ~jobs
       ~meta:[ ("seed", Cccs_obs.Json.int fault_seed) ]
       (List.map
          (fun r ->
            Cccs_obs.Json.Obj
              [
                ("name", Cccs_obs.Json.Str r.name);
                ("seconds", Cccs_obs.Json.Num r.seconds);
                ("ok", Cccs_obs.Json.Bool (row_ok r));
              ])
          rows)
   with Sys_error msg -> Printf.eprintf "verify_all: ledger: %s\n%!" msg);
  if json_mode then
    print_endline (Cccs_obs.Json.to_string (json_report ~jobs rows ok));
  if ok then Printf.fprintf out "verify_all: all workloads verified\n"
  else begin
    Printf.fprintf out "verify_all: FAILURES\n";
    exit 1
  end

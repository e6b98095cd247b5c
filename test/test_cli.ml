(* Golden tests of the checker subcommands (lint, validate, certify, wcet):
   human and --json stdout on fir and compress against fixtures/cli/, the
   exit codes, the --json stderr (the human report, moved), and the usage
   error paths; plus `decode --json` on compress.  Runs the built CLI from
   the test directory, so run it via `dune runtest` (or from
   _build/default/test).  The unstable output is masked on both sides:
   validate's per-scheme wall clock, and decode's timing and the
   machine's core count. *)

let exe = Filename.concat Filename.parent_dir_name "bin/cccs_cli.exe"

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

(* [cli args] — exit code, stdout and stderr of one CLI invocation. *)
let cli args =
  let out = Filename.temp_file "cccs_cli" ".out"
  and err = Filename.temp_file "cccs_cli" ".err" in
  let code =
    Sys.command (Filename.quote_command exe ~stdout:out ~stderr:err args)
  in
  let o = read_file out and e = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, o, e)

let mask_seconds s =
  s
  |> Str.global_replace (Str.regexp {|"seconds":[-0-9.eE+]+|}) {|"seconds":0|}
  |> Str.global_replace (Str.regexp " [0-9]+\\.[0-9][0-9][0-9]s$") " 0.000s"

(* Compare line by line so a mismatch names its first differing line
   instead of dumping two whole reports. *)
let same_text what ~expected actual =
  let e = String.split_on_char '\n' expected
  and a = String.split_on_char '\n' actual in
  let rec go n = function
    | x :: xs, y :: ys when String.equal x y -> go (n + 1) (xs, ys)
    | [], [] -> ()
    | x :: _, y :: _ ->
        Alcotest.failf "%s: line %d differs:\n  expected %s\n  actual   %s" what
          n x y
    | [], _ :: _ -> Alcotest.failf "%s: extra output from line %d" what n
    | _ :: _, [] -> Alcotest.failf "%s: output ends at line %d" what n
  in
  go 1 (e, a)

(* Masked here too, so a fixture can be regenerated straight from the CLI. *)
let fixture name =
  mask_seconds (read_file (Filename.concat "fixtures/cli" name))

let mask_decode s =
  s
  |> Str.global_replace (Str.regexp {|"mb_per_s":[-0-9.eE+]+|}) {|"mb_per_s":0|}
  |> Str.global_replace (Str.regexp {|"cores":[0-9]+|}) {|"cores":0|}

let golden cmd bench () =
  let base = cmd ^ "_" ^ bench in
  let code, human, human_err = cli [ cmd; bench ] in
  Alcotest.(check int) "human exit" 0 code;
  Alcotest.(check string) "human stderr" "" human_err;
  same_text (base ^ ".txt") ~expected:(fixture (base ^ ".txt"))
    (mask_seconds human);
  let code, json, json_err = cli [ cmd; bench; "--json" ] in
  Alcotest.(check int) "json exit" 0 code;
  same_text (base ^ ".json") ~expected:(fixture (base ^ ".json"))
    (mask_seconds json);
  same_text "--json stderr vs human stdout" ~expected:(mask_seconds human)
    (mask_seconds json_err)

let checkers = [ "lint"; "validate"; "certify"; "wcet" ]

let golden_decode name args () =
  let code, json, _ = cli ([ "decode"; "compress"; "--json" ] @ args) in
  Alcotest.(check int) "exit" 0 code;
  let mask s = mask_decode (mask_seconds s) in
  same_text name ~expected:(mask (fixture name)) (mask json)

let exits what expected args =
  let code, _, _ = cli args in
  Alcotest.(check int) (what ^ ": " ^ String.concat " " args) expected code

let test_no_bench () =
  List.iter (fun c -> exits "no BENCH" 2 [ c ]) checkers

let test_unknown_workload () =
  List.iter (fun c -> exits "unknown workload" 1 [ c; "nosuch" ]) checkers

let test_unknown_pass () =
  exits "unknown pass" 2 [ "lint"; "--pass"; "nope"; "fir" ]

let test_passes_listing () =
  let code, out, _ = cli [ "lint"; "--passes" ] in
  Alcotest.(check int) "exit" 0 code;
  same_text "lint --passes" ~expected:(fixture "lint_passes.txt") out

let () =
  Alcotest.run "cli"
    [
      ( "cli",
        List.concat_map
          (fun cmd ->
            List.map
              (fun bench ->
                Alcotest.test_case (cmd ^ " " ^ bench) `Quick
                  (golden cmd bench))
              [ "fir"; "compress" ])
          checkers
        @ [
            Alcotest.test_case "no BENCH exits 2" `Quick test_no_bench;
            Alcotest.test_case "unknown workload exits 1" `Quick
              test_unknown_workload;
            Alcotest.test_case "unknown pass exits 2" `Quick test_unknown_pass;
            Alcotest.test_case "lint --passes listing" `Quick
              test_passes_listing;
            Alcotest.test_case "decode compress base" `Quick
              (golden_decode "decode_compress_base.json"
                 [ "--scheme"; "base" ]);
            Alcotest.test_case "decode compress full+crc16" `Quick
              (golden_decode "decode_compress_full_crc16.json"
                 [ "--scheme"; "full"; "--protect"; "crc16" ]);
          ] );
    ]

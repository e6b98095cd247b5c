(* Runs the benchmark at tiny size on every workload, untraced and
   traced, and checks the result line against BENCHMARK.json: exactly the
   keys correct/attempted/failed/metrics, every named metric present with
   its declared unit and a finite value.  Then injects a wrong decoded
   image and checks that the run completes and counts it as a failure. *)

module Json = Cccs_obs.Json

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("selftest: " ^ s); exit 1) fmt

let read_file p = In_channel.with_open_bin p In_channel.input_all

let parse what s =
  match Json.parse s with Ok j -> j | Error e -> fail "%s: %s" what e

let member k j =
  match Json.member k j with Some v -> v | None -> fail "missing key %s" k

let str = function Json.Str s -> s | _ -> fail "expected a string"
let num = function Json.Num f -> f | _ -> fail "expected a number"

let list k j =
  match Json.to_list (member k j) with Some l -> l | None -> fail "%s: not a list" k

let spec = parse "BENCHMARK.json" (read_file "../../BENCHMARK.json")

let declared k =
  List.map (fun m -> (str (member "name" m), str (member "unit" m))) (list k spec)

(* Run the benchmark; return its exit code and parsed last stdout line. *)
let run args =
  let code =
    Sys.command
      (Filename.quote_command "../bench.exe" ~stdout:"out.txt" ~stderr:"err.txt"
         ([ "--tiny"; "--seed"; "3"; "--seconds"; "0" ] @ args))
  in
  let lines =
    String.split_on_char '\n' (read_file "out.txt")
    |> List.filter (fun l -> String.trim l <> "")
  in
  match List.rev lines with
  | [] -> fail "%s: no output (exit %d)" (String.concat " " args) code
  | last :: _ -> (code, parse "result line" last)

let check_result ~what ~metrics j =
  (match j with
  | Json.Obj kv ->
      let keys = List.sort compare (List.map fst kv) in
      if keys <> [ "attempted"; "correct"; "failed"; "metrics" ] then
        fail "%s: result keys %s" what (String.concat "," keys)
  | _ -> fail "%s: result is not an object" what);
  if num (member "attempted" j) < 1.0 then fail "%s: nothing attempted" what;
  let got = member "metrics" j in
  List.iter
    (fun (name, unit) ->
      let m = member name got in
      if str (member "unit" m) <> unit then fail "%s: %s has the wrong unit" what name;
      if not (Float.is_finite (num (member "value" m))) then
        fail "%s: %s is not finite" what name)
    metrics;
  match got with
  | Json.Obj kv when List.length kv = List.length metrics -> ()
  | _ -> fail "%s: metrics other than the declared ones" what

let () =
  let workloads = List.map (fun w -> str (member "name" w)) (list "workloads" spec) in
  List.iter
    (fun w ->
      let code, j = run [ "--workload"; w; "--trace"; "0" ] in
      if code <> 0 then fail "%s: exit %d" w code;
      check_result ~what:(w ^ " untraced") ~metrics:(declared "end_to_end") j;
      if member "correct" j <> Json.Bool true then
        fail "%s: failures at tiny size:\n%s" w (read_file "err.txt");
      let code, j =
        run [ "--workload"; w; "--trace"; "1"; "--spans-out"; "spans.jsonl" ]
      in
      if code <> 0 then fail "%s traced: exit %d" w code;
      check_result ~what:(w ^ " traced") ~metrics:(declared "per_layer") j;
      if String.length (read_file "spans.jsonl") = 0 then fail "%s: no spans written" w)
    workloads;
  let code, j = run [ "--workload"; "decode"; "--trace"; "0"; "--inject-wrong-decode" ] in
  if code <> 0 then fail "injected wrong decode crashed the run (exit %d)" code;
  check_result ~what:"injected" ~metrics:(declared "end_to_end") j;
  if member "correct" j <> Json.Bool false || num (member "failed" j) < 1.0 then
    fail "a wrong decoded image was not counted as a failure";
  print_endline "selftest: ok"

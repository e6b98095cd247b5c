(* Decoder-certification tests (Decode_dfa / Certify).

   Positive path: every scheme of a real compiled kernel — including the
   protected variants — certifies with zero errors, LUT slots proved
   exhaustively.  Negative paths: a non-prefix-free code list (E200), a
   deliberately corrupted LUT root/sub slot (E202/E203), a model naming an
   unpublished book and a model too small for the built blocks (E204),
   and a fixed-length code with no synchronizing sequence (W205).  Plus
   the Diag.registry invariants and the shared errors-fail/warnings-pass
   exit contract. *)

module A = Cccs_analysis
module Scheme = Encoding.Scheme
module D = A.Decode_dfa

let codes diags = List.map (fun (d : A.Diag.t) -> d.A.Diag.code) diags

let has code diags =
  Alcotest.(check bool)
    (code ^ " fired") true
    (List.mem code (codes diags))

let has_not code diags =
  Alcotest.(check bool)
    (code ^ " absent") false
    (List.mem code (codes diags))

let no_errors what diags =
  let errs = List.filter A.Diag.is_error diags in
  Alcotest.(check (list string)) (what ^ ": no errors") [] (codes errs)

let compiled =
  lazy (Cccs.Pipeline.compile (Workloads.Kernels.fir ~taps:4 ~samples:8))

let program () = (Lazy.force compiled).Cccs.Pipeline.program

let certify sc =
  fst (A.Certify.certify_scheme ~workload:"t" ~program:(program ()) sc)

(* ---------------------------------------------------------------- *)
(* Decode_dfa unit tests                                             *)
(* ---------------------------------------------------------------- *)

(* {0 -> "0", 1 -> "10", 2 -> "11"}: complete, variable-length. *)
let tiny = [ (0, 0b0, 1); (1, 0b10, 2); (2, 0b11, 2) ]

let build codes =
  match D.of_codes ~max_len:4 codes with
  | Ok t -> t
  | Error c -> Alcotest.failf "of_codes: %s" (D.conflict_to_string c)

let test_dfa_totality () =
  let t = build tiny in
  match D.prove_total t with
  | Error v -> Alcotest.failf "totality: %s" v.D.reason
  | Ok tot ->
      Alcotest.(check int) "worst bits" 2 tot.D.worst_bits;
      Alcotest.(check bool) "complete" true tot.D.complete;
      Alcotest.(check int) "no rejects" 0 tot.D.reject_prefixes

let test_dfa_run () =
  let t = build tiny in
  (match D.run t ~width:2 0b01 with
  | D.Emits { symbol = 0; length = 1 } -> ()
  | _ -> Alcotest.fail "pattern 01 must emit symbol 0 after 1 bit");
  (match D.run t ~width:2 0b10 with
  | D.Emits { symbol = 1; length = 2 } -> ()
  | _ -> Alcotest.fail "pattern 10 must emit symbol 1");
  (match D.run t ~width:1 0b1 with
  | D.Continues _ -> ()
  | _ -> Alcotest.fail "pattern 1 is mid-codeword");
  (* Incomplete code: the missing edge rejects at a bounded position. *)
  let t = build [ (0, 0b0, 1) ] in
  match D.run t ~width:1 0b1 with
  | D.Rejects { at_bit = 1 } -> ()
  | _ -> Alcotest.fail "missing edge must reject at bit 1"

let test_dfa_conflicts () =
  (match D.of_codes ~max_len:4 [ (0, 0b0, 1); (1, 0b01, 2) ] with
  | Error (D.Prefix { shorter = 0; longer = 1 }) -> ()
  | _ -> Alcotest.fail "prefix conflict not detected");
  (match D.of_codes ~max_len:4 [ (0, 0b1, 1); (1, 0b1, 1) ] with
  | Error (D.Duplicate _) -> ()
  | _ -> Alcotest.fail "duplicate codeword not detected");
  match D.of_codes ~max_len:4 [ (0, 0, 0) ] with
  | Error (D.Bad_length _) -> ()
  | _ -> Alcotest.fail "zero-length codeword not detected"

let test_dfa_sync () =
  (* Variable-length complete: every state pair merges within a bit. *)
  let t = build tiny in
  let s = D.certify_sync t in
  Alcotest.(check int) "live states" 2 s.D.live_states;
  Alcotest.(check bool) "recoverable" true s.D.recoverable;
  Alcotest.(check bool)
    "synchronizing sequence exists" true
    (s.D.sync_word_bits <> None);
  (* Fixed-length 2-bit code: a desynchronized decoder keeps a one-bit
     phase offset forever — provably non-synchronizing. *)
  let t = build [ (0, 0, 2); (1, 1, 2); (2, 2, 2); (3, 3, 2) ] in
  let s = D.certify_sync t in
  Alcotest.(check bool)
    "fixed-length code has no synchronizing sequence" true
    (s.D.sync_word_bits = None)

(* Resynchronization bounds a reader can check by hand.
   {0 -> "0", 1 -> "10", 2 -> "110"}, "111" unassigned: live states are
   the root R and the mid-codeword states A ("1") and B ("11").  A flip
   at R gives (R,A)/(A,R), one at A gives (R,B)/(B,R); from those the
   clean bits reach (A,B) and (B,A), and every pair merges on a 0 or is
   detected on a 1 within two more bits: 6 pairs, worst case 3 bits
   (the flip at R, then "1" to (A,B), then "1" detected).  The complete
   [tiny] book instead cycles (R,A) -1-> (A,R) -1-> (R,A): a clean run of
   1s keeps the decoders one bit apart forever. *)
let test_dfa_resync_bounds () =
  let s = D.certify_sync (build [ (0, 0b0, 1); (1, 0b10, 2); (2, 0b110, 3) ]) in
  Alcotest.(check int) "pairs reachable" 6 s.D.pairs_reachable;
  Alcotest.(check bool) "recoverable" true s.D.recoverable;
  Alcotest.(check (option int)) "resync bits" (Some 3) s.D.resync_bits;
  let s = D.certify_sync (build tiny) in
  Alcotest.(check int) "cyclic: pairs reachable" 2 s.D.pairs_reachable;
  Alcotest.(check bool) "cyclic: recoverable" true s.D.recoverable;
  Alcotest.(check (option int)) "cyclic: unbounded" None s.D.resync_bits

(* ---------------------------------------------------------------- *)
(* certify_sync against the reference sweep (Sync_reference)         *)
(* ---------------------------------------------------------------- *)

let pp_sync ppf (s : D.sync) =
  let opt ppf = function
    | None -> Fmt.string ppf "None"
    | Some v -> Fmt.pf ppf "Some %d" v
  in
  Fmt.pf ppf
    "{live=%d; pairs=%d; recoverable=%b; resync=%a; sync_word=%a}"
    s.D.live_states s.D.pairs_reachable s.D.recoverable opt s.D.resync_bits
    opt s.D.sync_word_bits

let sync_t = Alcotest.testable pp_sync ( = )

let sync_pair codes =
  let max_len = List.fold_left (fun a (_, _, l) -> max a l) 1 codes in
  match D.of_codes ~max_len codes with
  | Error c -> Alcotest.failf "of_codes: %s" (D.conflict_to_string c)
  | Ok t ->
      (D.certify_sync t, Sync_reference.certify_sync (Sync_reference.of_codes codes))

(* Every distinct book of every scheme of two SPEC profiles.  ijpeg's
   stream/stream2 book pins the order dependence: the reference sweep
   certifies a 1148-bit synchronizing word where shortest merge
   distances would give 984, and certificates carry the former. *)
let test_sync_matches_reference () =
  let checked = Hashtbl.create 64 and pinned = ref false in
  List.iter
    (fun name ->
      let e =
        match Workloads.Suite.find name with
        | Some e -> e
        | None -> Alcotest.failf "no workload %s" name
      in
      let t = Cccs.Analysis.target_of_run (Cccs.Workload_run.load e) in
      List.iter
        (fun (sc : Scheme.t) ->
          List.iter
            (fun (book, cb) ->
              let codes =
                Huffman.Canonical.to_list (Huffman.Codebook.canonical cb)
              in
              let got =
                match Hashtbl.find_opt checked codes with
                | Some got -> got
                | None ->
                    let got, want = sync_pair codes in
                    Alcotest.check sync_t
                      (Printf.sprintf "%s %s %s" name sc.Scheme.name book)
                      want got;
                    Hashtbl.add checked codes got;
                    got
              in
              if name = "ijpeg" && sc.Scheme.name = "stream" && book = "stream2"
              then begin
                pinned := true;
                Alcotest.(check (option int))
                  "ijpeg stream/stream2 sync word" (Some 1148)
                  got.D.sync_word_bits
              end)
            sc.Scheme.books)
        t.A.Pass.schemes)
    [ "compress"; "ijpeg" ];
  Alcotest.(check bool) "ijpeg stream/stream2 book checked" true !pinned

(* Random prefix codes of three kinds: complete (split random leaves of
   a trie), incomplete (the same with codewords dropped, so the Error
   pseudo-state is in play) and fixed-length (no synchronizing word). *)
type kind = Complete | Incomplete | Fixed

let gen_code =
  let open QCheck.Gen in
  let complete st ~splits =
    let leaves = ref [ (0, 0) ] in
    for _ = 1 to splits do
      let ok = List.filter (fun (_, l) -> l < 10) !leaves in
      if ok <> [] then begin
        let c, l = List.nth ok (Random.State.int st (List.length ok)) in
        leaves :=
          ((2 * c) + 1, l + 1) :: (2 * c, l + 1)
          :: List.filter (fun x -> x <> (c, l)) !leaves
      end
    done;
    !leaves
  in
  oneofl [ Complete; Incomplete; Fixed ] >>= fun kind ->
  int_range 1 40 >>= fun splits st ->
  let leaves =
    match kind with
    | Complete -> complete st ~splits
    | Incomplete -> (
        let all = complete st ~splits in
        match List.filter (fun _ -> Random.State.int st 3 > 0) all with
        | [] -> [ List.hd all ]
        | kept -> kept)
    | Fixed ->
        let len = 2 + (splits mod 4) in
        List.init (1 lsl len) (fun c -> (c, len))
  in
  (kind, List.mapi (fun i (c, l) -> (i, c, l)) leaves)

let prop_sync_matches_reference =
  let print (kind, codes) =
    Printf.sprintf "%s [%s]"
      (match kind with
      | Complete -> "complete"
      | Incomplete -> "incomplete"
      | Fixed -> "fixed")
      (String.concat "; "
         (List.map (fun (s, c, l) -> Printf.sprintf "%d:%d/%d" s c l) codes))
  in
  QCheck.Test.make ~name:"certify_sync = reference sweep on random codes"
    ~count:300 (QCheck.make ~print gen_code) (fun (kind, codes) ->
      let got, want = sync_pair codes in
      got = want && (kind <> Fixed || got.D.sync_word_bits = None))

(* ---------------------------------------------------------------- *)
(* Certification: positive path                                      *)
(* ---------------------------------------------------------------- *)

let test_certify_clean_all () =
  let prog = program () in
  let t_scheme, _ = Encoding.Tailored.build_with_spec prog in
  List.iter
    (fun (what, sc) ->
      let diags, cert = A.Certify.certify_scheme ~workload:"t" ~program:prog sc in
      no_errors what diags;
      Alcotest.(check bool) (what ^ " certified") true cert.A.Certify.ok)
    [
      ("base", Encoding.Baseline.build prog);
      ("byte", Encoding.Byte_huffman.build prog);
      ("stream", Encoding.Stream_huffman.build prog);
      ("full", Encoding.Full_huffman.build prog);
      ("tailored", t_scheme);
      ("dict", Encoding.Dictionary.build prog);
    ]

let test_certify_clean_protected () =
  let prog = program () in
  let sc = Scheme.protect Scheme.Crc8 (Encoding.Byte_huffman.build prog) in
  let diags, cert = A.Certify.certify_scheme ~workload:"t" ~program:prog sc in
  no_errors "byte+crc8" diags;
  (* Framed blocks bound desynchronization; W205 is unframed-only. *)
  has_not "CCCS-W205" diags;
  Alcotest.(check bool) "certified" true cert.A.Certify.ok

let test_certify_proves_luts () =
  let prog = program () in
  let _, cert =
    A.Certify.certify_scheme ~workload:"t" ~program:prog
      (Encoding.Byte_huffman.build prog)
  in
  match cert.A.Certify.books with
  | [ b ] ->
      Alcotest.(check bool)
        "root slots proved" true
        (b.A.Certify.lut_root_checked > 0);
      Alcotest.(check bool) "complete" true b.A.Certify.complete
  | bs -> Alcotest.failf "byte scheme publishes %d books" (List.length bs)

(* ---------------------------------------------------------------- *)
(* Certification: negative paths                                     *)
(* ---------------------------------------------------------------- *)

let test_e200_not_prefix_free () =
  let diags, cert =
    A.Certify.certify_codes ~workload:"t" ~book:"bad" ~max_len:4
      [ (0, 0b0, 1); (1, 0b01, 2) ]
  in
  has "CCCS-E200" diags;
  Alcotest.(check bool) "no certificate" true (cert = None)

let test_w205_fixed_length () =
  let fixed = [ (0, 0, 2); (1, 1, 2); (2, 2, 2); (3, 3, 2) ] in
  let diags, cert =
    A.Certify.certify_codes ~workload:"t" ~book:"fixed" ~max_len:2 fixed
  in
  has "CCCS-W205" diags;
  no_errors "W205 is a warning" diags;
  Alcotest.(check bool) "certificate still issued" true (cert <> None);
  (* Framed schemes suppress the warning. *)
  let diags, _ =
    A.Certify.certify_codes ~workload:"t" ~warn_sync:false ~book:"fixed"
      ~max_len:2 fixed
  in
  has_not "CCCS-W205" diags

(* A skewed histogram pushed past 12-bit codes so the LUT grows overflow
   sub-tables; corruption targets then exist at both levels. *)
let deep_book () =
  let f = Huffman.Freq.create () in
  for i = 0 to 17 do
    Huffman.Freq.add_many f i (1 lsl i)
  done;
  Huffman.Codebook.make ~max_len:16 ~symbol_bits:(fun _ -> 8) f

let find_sym_root tb =
  let module T = Huffman.Canonical.Table in
  let n = T.root_size tb in
  let rec go i =
    if i >= n then Alcotest.fail "no Sym slot in root table"
    else match T.root_slot tb i with T.Sym _ -> i | _ -> go (i + 1)
  in
  go 0

let find_sym_sub tb =
  let module T = Huffman.Canonical.Table in
  let rec go_root i =
    if i >= T.root_size tb then Alcotest.fail "no sub-table in LUT"
    else
      match T.root_slot tb i with
      | T.Sub si ->
          let rec go_sub j =
            if j >= T.sub_size tb si then go_root (i + 1)
            else
              match T.sub_slot tb si j with
              | T.Sym _ -> (si, j)
              | _ -> go_sub (j + 1)
          in
          go_sub 0
      | _ -> go_root (i + 1)
  in
  go_root 0

let test_e202_corrupt_root () =
  let cb = deep_book () in
  let c = Huffman.Codebook.canonical cb in
  Alcotest.(check bool) "lut eligible" true (Huffman.Canonical.lut_eligible c);
  let diags, _ = A.Certify.certify_book ~workload:"t" ("deep", cb) in
  no_errors "uncorrupted book certifies" diags;
  let tb = Huffman.Canonical.table c in
  let i = find_sym_root tb in
  Huffman.Canonical.Table.corrupt_root tb i ~xor:1;
  let diags, _ = A.Certify.certify_book ~workload:"t" ("deep", cb) in
  has "CCCS-E202" diags

let test_e203_corrupt_sub () =
  let cb = deep_book () in
  let c = Huffman.Codebook.canonical cb in
  let tb = Huffman.Canonical.table c in
  let si, j = find_sym_sub tb in
  Huffman.Canonical.Table.corrupt_sub tb si j ~xor:1;
  let diags, _ = A.Certify.certify_book ~workload:"t" ("deep", cb) in
  has "CCCS-E203" diags;
  has_not "CCCS-E202" diags

let test_e204_unpublished_book () =
  let prog = program () in
  let sc = Encoding.Byte_huffman.build prog in
  let diags = certify { sc with Scheme.books = [] } in
  has "CCCS-E204" diags

let test_e204_block_bound () =
  let prog = program () in
  let sc = Encoding.Byte_huffman.build prog in
  (* A model claiming 1 bit per op cannot cover any real block. *)
  let shrunk =
    {
      sc with
      Scheme.model =
        [ Scheme.Fixed_bits { label = "op"; min_bits = 0; max_bits = 1 } ];
    }
  in
  let diags = certify shrunk in
  has "CCCS-E204" diags;
  (* Without a program there is no block to bound: model-only check. *)
  let diags, _ = A.Certify.certify_scheme ~workload:"t" shrunk in
  has_not "CCCS-E204" diags

(* ---------------------------------------------------------------- *)
(* Diag.registry invariants                                          *)
(* ---------------------------------------------------------------- *)

let registry_codes () = List.map (fun (c, _, _) -> c) A.Diag.registry

let test_registry_unique_sorted () =
  let cs = registry_codes () in
  Alcotest.(check (list string))
    "codes unique" (List.sort_uniq compare cs) (List.sort compare cs);
  (* Append-only implies the numeric parts are strictly increasing. *)
  let num c = int_of_string (String.sub c 6 (String.length c - 6)) in
  let rec mono = function
    | a :: (b :: _ as rest) ->
        if num a >= num b then
          Alcotest.failf "registry not sorted: %s before %s" a b
        else mono rest
    | _ -> ()
  in
  mono cs

let test_registry_severity_prefix () =
  List.iter
    (fun (c, sev, _) ->
      let expect =
        match c.[5] with
        | 'E' -> A.Diag.Error
        | 'W' -> A.Diag.Warning
        | ch -> Alcotest.failf "%s: unknown severity prefix %c" c ch
      in
      Alcotest.(check bool)
        (c ^ " severity matches its prefix") true (sev = expect))
    A.Diag.registry

(* Every registered code must be emitted somewhere under lib/ — a code no
   pass can raise is dead weight the docs still promise. *)
let lib_sources () =
  let rec up dir n =
    if n = 0 then None
    else
      let p = Filename.concat dir "lib" in
      if Sys.file_exists p && Sys.is_directory p then Some p
      else up (Filename.dirname dir) (n - 1)
  in
  match up (Sys.getcwd ()) 8 with
  | None -> Alcotest.fail "lib/ not found from test cwd"
  | Some lib ->
      let buf = Buffer.create (1 lsl 20) in
      let rec walk dir =
        Array.iter
          (fun f ->
            let p = Filename.concat dir f in
            if Sys.is_directory p then walk p
            else if Filename.check_suffix f ".ml" then begin
              let ic = open_in_bin p in
              let n = in_channel_length ic in
              Buffer.add_string buf (really_input_string ic n);
              close_in ic
            end)
          (Sys.readdir dir)
      in
      walk lib;
      Buffer.contents buf

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_registry_reachable () =
  let src = lib_sources () in
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (c ^ " emitted somewhere under lib/") true
        (contains ~needle:("\"" ^ c ^ "\"") src))
    (registry_codes ())

(* ---------------------------------------------------------------- *)
(* Exit contract: errors fail, warnings pass (shared by lint,        *)
(* validate and certify through Diag.Collector / cert.ok).           *)
(* ---------------------------------------------------------------- *)

let test_exit_contract () =
  let open A.Diag in
  let c = Collector.create () in
  Alcotest.(check int) "empty exits 0" 0 (Collector.exit_status c);
  Collector.add c
    (make ~code:"CCCS-W205" ~loc:(loc "t") "fixed-length code");
  Alcotest.(check int) "warnings-only exits 0" 0 (Collector.exit_status c);
  Collector.add c (make ~code:"CCCS-E200" ~loc:(loc "t") "not prefix-free");
  Alcotest.(check int) "any error exits 1" 1 (Collector.exit_status c);
  (* cert.ok follows the same contract: W205 alone keeps ok=true. *)
  let prog = program () in
  let _, cert =
    A.Certify.certify_scheme ~workload:"t" ~program:prog
      (Encoding.Byte_huffman.build prog)
  in
  Alcotest.(check bool)
    "warnings do not fail a certificate" true
    (cert.A.Certify.ok && cert.A.Certify.errors = 0)

let suite =
  [
    Alcotest.test_case "DFA totality proof" `Quick test_dfa_totality;
    Alcotest.test_case "DFA replay oracle" `Quick test_dfa_run;
    Alcotest.test_case "DFA structural conflicts" `Quick test_dfa_conflicts;
    Alcotest.test_case "DFA synchronization" `Quick test_dfa_sync;
    Alcotest.test_case "DFA resynchronization bounds" `Quick
      test_dfa_resync_bounds;
    Alcotest.test_case "certify_sync = reference on SPEC books" `Quick
      test_sync_matches_reference;
    QCheck_alcotest.to_alcotest prop_sync_matches_reference;
    Alcotest.test_case "all schemes certify clean" `Quick
      test_certify_clean_all;
    Alcotest.test_case "protected scheme certifies clean" `Quick
      test_certify_clean_protected;
    Alcotest.test_case "LUT slots proved exhaustively" `Quick
      test_certify_proves_luts;
    Alcotest.test_case "E200 non-prefix-free code" `Quick
      test_e200_not_prefix_free;
    Alcotest.test_case "W205 fixed-length code" `Quick test_w205_fixed_length;
    Alcotest.test_case "E202 corrupted LUT root slot" `Quick
      test_e202_corrupt_root;
    Alcotest.test_case "E203 corrupted LUT sub slot" `Quick
      test_e203_corrupt_sub;
    Alcotest.test_case "E204 unpublished codebook" `Quick
      test_e204_unpublished_book;
    Alcotest.test_case "E204 block exceeds certified bound" `Quick
      test_e204_block_bound;
    Alcotest.test_case "registry codes unique and sorted" `Quick
      test_registry_unique_sorted;
    Alcotest.test_case "registry severity matches prefix" `Quick
      test_registry_severity_prefix;
    Alcotest.test_case "registry codes all reachable" `Quick
      test_registry_reachable;
    Alcotest.test_case "errors fail, warnings pass" `Quick test_exit_contract;
  ]

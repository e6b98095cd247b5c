(* Whole-image decode (Pipeline.decompress): every scheme decodes back to
   the baseline image, and on a corrupted image the walk reports exactly
   the first error an independent seek-per-block decode finds. *)

let load name =
  match Workloads.Suite.find name with
  | Some e -> Cccs.Workload_run.load e
  | None -> Alcotest.failf "workload %s missing" name

let registry r =
  let s = Cccs.Experiments.schemes_of r in
  Cccs.Experiments.all_schemes s
  @ [
      ("dict", s.Cccs.Experiments.dict);
      ( "full+crc16",
        Encoding.Scheme.protect Encoding.Scheme.Crc16 s.Cccs.Experiments.full );
      ( "byte+crc8",
        Encoding.Scheme.protect Encoding.Scheme.Crc8 s.Cccs.Experiments.byte );
    ]

let decode_error =
  Alcotest.testable Encoding.Scheme.pp_decode_error ( = )

let outcome = Alcotest.(result string decode_error)

let test_every_scheme () =
  let r = load "compress" in
  let truth =
    Tepic.Program.baseline_image
      r.Cccs.Workload_run.compiled.Cccs.Pipeline.program
  in
  List.iter
    (fun (name, sc) ->
      match Cccs.Pipeline.decompress sc with
      | Error e ->
          Alcotest.failf "%s: %s" name
            (Encoding.Scheme.decode_error_to_string e)
      | Ok (img, rep) ->
          Alcotest.(check bool)
            (name ^ " equals the baseline image")
            true (String.equal img truth);
          Alcotest.(check int)
            (name ^ " one chunk")
            1 rep.Cccs.Par_decode.chunks;
          Alcotest.(check int)
            (name ^ " no over-read")
            0 rep.Cccs.Par_decode.resync_overhead_bits)
    (registry r)

(* The reference: each block decoded on its own from its recorded offset
   (Scheme.decode_block_checked seeks), stopping at the first error;
   without one, the re-encoded blocks byte-aligned and concatenated. *)
let per_block (sc : Encoding.Scheme.t) =
  let w = Bits.Writer.create () in
  let rec go k =
    if k >= Array.length sc.Encoding.Scheme.block_offset_bits then
      Ok (Bits.Writer.contents w)
    else
      match Encoding.Scheme.decode_block_checked ~image:sc.image sc k with
      | Error e -> Error e
      | Ok ops ->
          List.iter (Tepic.Encode.encode w) ops;
          ignore (Bits.Writer.align_byte w);
          go (k + 1)
  in
  go 0

let test_corrupt_image () =
  let r = load "fir" in
  let s = Cccs.Experiments.schemes_of r in
  List.iter
    (fun (name, sc, always_detected) ->
      let open Encoding.Scheme in
      let n = Array.length sc.block_offset_bits in
      Alcotest.(check bool) (name ^ " has blocks") true (n > 0);
      let near b = sc.block_offset_bits.(b) + 2
      and mid b = sc.block_offset_bits.(b) + (sc.block_bits.(b) / 2) in
      (* Flips a few bits into a block (protected length fields) and in
         its middle (payload, guard), from the first block to the last;
         two corrupted blocks at once, where the earlier one must win; and
         a whole inverted block, which unframed codes do not survive. *)
      let blocks = List.sort_uniq compare [ 0; n / 3; n / 2; n - 1 ] in
      List.iter
        (fun bits ->
          let sc = { sc with image = Bits.flip_bits sc.image bits } in
          let got = Result.map fst (Cccs.Pipeline.decompress sc) in
          let label =
            Printf.sprintf "%s flip@%s" name
              (String.concat "," (List.map string_of_int bits))
          in
          Alcotest.check outcome label (per_block sc) got;
          if always_detected then
            Alcotest.(check bool)
              (label ^ " detected")
              true (Result.is_error got))
        ([ mid (n / 2); mid (n - 1) ]
        :: List.init sc.block_bits.(n / 2) (fun i -> near (n / 2) - 2 + i)
        :: List.concat_map (fun b -> [ [ near b ]; [ mid b ] ]) blocks))
    [
      ("full", s.Cccs.Experiments.full, false);
      ( "full+crc16",
        Encoding.Scheme.protect Encoding.Scheme.Crc16 s.Cccs.Experiments.full,
        true );
    ]

let test_classify () =
  let r = load "fir" in
  let s = Cccs.Experiments.schemes_of r in
  let check expect (name, sc) =
    Alcotest.(check string)
      name expect
      (Cccs.Par_decode.strategy_name (Cccs.Par_decode.classify sc))
  in
  List.iter (check "fixed")
    [
      ("base", s.Cccs.Experiments.base);
      ("tailored", s.Cccs.Experiments.tailored);
      ("dict", s.Cccs.Experiments.dict);
    ];
  List.iter (check "frames")
    [
      ( "full+crc8",
        Encoding.Scheme.protect Encoding.Scheme.Crc8 s.Cccs.Experiments.full );
      ( "base+crc16",
        Encoding.Scheme.protect Encoding.Scheme.Crc16 s.Cccs.Experiments.base );
    ];
  List.iter (check "sequential")
    (("full", s.Cccs.Experiments.full)
    :: ("byte", s.Cccs.Experiments.byte)
    :: s.Cccs.Experiments.streams)

let test_obs_span () =
  let r = load "fir" in
  let s = Cccs.Experiments.schemes_of r in
  let events = ref [] in
  let obs = Cccs_obs.Sink.make (fun e -> events := e :: !events) in
  (match Cccs.Pipeline.decompress ~obs s.Cccs.Experiments.base with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "decode under obs: %s"
        (Encoding.Scheme.decode_error_to_string e));
  let spans =
    List.filter_map
      (function
        | Cccs_obs.Event.Span { stage = Cccs_obs.Event.Decode; label; _ } ->
            Some label
        | _ -> None)
      !events
  in
  Alcotest.(check (list string))
    "one Decode-stage span"
    [ s.Cccs.Experiments.base.Encoding.Scheme.name ]
    spans

let suite =
  [
    Alcotest.test_case "decompress = baseline, every scheme" `Slow
      test_every_scheme;
    Alcotest.test_case "corrupt image = first block error" `Slow
      test_corrupt_image;
    Alcotest.test_case "classify: fixed, frames, sequential" `Quick
      test_classify;
    Alcotest.test_case "obs: one Decode-stage span" `Quick test_obs_span;
  ]

(* The word-level op codec against the field-table reference
   (Codec_reference): exhaustive over the opcode space and field edge
   values, every stream configuration, the tailored specs of two SPEC
   profiles, and random words.  Both codecs must return equal ops, or
   raise the same exception with the same message at the same reader
   position.  Also the golden decode verdicts of bit-flipped images. *)

module R = Codec_reference
open Tepic

type 'a outcome = Value of 'a | Raised of string

let run f =
  match f () with
  | v -> Value v
  | exception Invalid_argument m -> Raised ("Invalid_argument: " ^ m)
  | exception Not_found -> Raised "Not_found"

let show pp = function
  | Value v -> Format.asprintf "%a" pp v
  | Raised m -> "raised " ^ m

let pp_op ppf op = Format.pp_print_int ppf (R.to_int op)

let agree ~what pp eq a b =
  let same =
    match (a, b) with
    | Value x, Value y -> eq x y
    | Raised m, Raised n -> m = n
    | _ -> false
  in
  if not same then
    Alcotest.failf "%s: word codec %s, reference %s" what (show pp a) (show pp b)

let mask w = (1 lsl w) - 1
let alt_a = 0xAAAAAAAAAA
let alt_b = 0x5555555555
let edges w =
  List.sort_uniq compare
    [ 0; 1 land mask w; mask w; alt_a land mask w; alt_b land mask w ]

(* Body fields of [kind] with their positions in the word. *)
let body_fields kind =
  let hi = ref Format_spec.op_bits in
  List.filter_map
    (fun (fd : Format_spec.field) ->
      hi := !hi - fd.width;
      if
        List.exists
          (fun (p : Format_spec.field) -> p.fname = fd.fname)
          Format_spec.prefix
      then None
      else Some (fd, !hi))
    (Format_spec.layout kind)

let prefix ~t ~s ~opt ~code = Op.prefix_word ~tail:t ~spec:s ~opt ~code

(* Every OPT x OPCODE point with both T and S values.  A defined point's
   body takes each edge value in all of its fields at once, then each
   edge value in one field with the others zero; an undefined point gets
   the all-field patterns of every format. *)
let corpus =
  lazy
    (let words = ref [] in
     let add w = words := w :: !words in
     for opt = 0 to 3 do
       for code = 0 to 31 do
         for t = 0 to 1 do
           for s = 0 to 1 do
             let head = prefix ~t ~s ~opt ~code in
             let kinds =
               match Opcode.of_code (Opcode.optype_of_code opt) code with
               | Some oc -> [ Opcode.kind oc ]
               | None -> Format_spec.kinds
             in
             List.iter
               (fun kind ->
                 let body = body_fields kind in
                 List.iter
                   (fun e ->
                     add
                       (List.fold_left
                          (fun w ((fd : Format_spec.field), sh) ->
                            w lor ((e land mask fd.width) lsl sh))
                          head body))
                   (edges Format_spec.op_bits);
                 List.iter
                   (fun ((fd : Format_spec.field), sh) ->
                     List.iter (fun e -> add (head lor (e lsl sh))) (edges fd.width))
                   body)
               kinds
           done
         done
       done
     done;
     List.sort_uniq compare !words)

let bytes_of_word w =
  let b = Bits.Writer.create () in
  Bits.Writer.add_bits b ~width:Format_spec.op_bits w;
  Bits.Writer.contents b

(* [decode] from a byte string: the op or the exception, and where the
   reader stopped either way. *)
let decode_at decode s =
  let r = Bits.Reader.of_string s in
  let o = run (fun () -> decode r) in
  (o, Bits.Reader.pos r)

let check_word w =
  let what = Printf.sprintf "word %#x" w in
  let got = run (fun () -> Encode.of_int w) and want = run (fun () -> R.of_int w) in
  agree ~what:(what ^ " of_int") pp_op Op.equal got want;
  if w >= 0 && w lsr Format_spec.op_bits = 0 then begin
  let s = bytes_of_word w in
  List.iter
    (fun len ->
      let s = String.sub s 0 len in
      let o, pos = decode_at Encode.decode s and o', pos' = decode_at R.decode s in
      agree
        ~what:(Printf.sprintf "%s decode of %d bytes" what len)
        pp_op Op.equal o o';
      if pos <> pos' then
        Alcotest.failf "%s decode of %d bytes: reader at %d, reference at %d" what len
          pos pos')
    [ 0; 1; 2; 4; 5 ]
  end;
  match want with
  | Raised _ -> ()
  | Value op ->
      Alcotest.(check int) (what ^ " to_int") (R.to_int op) (Encode.to_int op);
      Alcotest.(check string) (what ^ " encode") (Tepic.Encode.encode_ops [ op ])
        (let b = Bits.Writer.create () in
         R.encode b op;
         Bits.Writer.contents b)

let test_exhaustive_words () =
  let words = Lazy.force corpus in
  List.iter check_word words;
  (* Outside [0, 2^40): the error of writing the word as 40 bits. *)
  List.iter check_word [ -1; min_int; 1 lsl 40; max_int ]

let configs = Encoding.Stream_huffman.configs

let check_streams w =
  List.iter
    (fun (name, config) ->
      let what = Printf.sprintf "word %#x %s" w name in
      (match run (fun () -> R.of_int w) with
      | Value op ->
          let got = Field_stream.symbols config op and want = R.symbols config op in
          if got <> want then Alcotest.failf "%s: symbols differ" what;
          Alcotest.(check (array int)) (what ^ " widths")
            (R.widths config (Op.kind op))
            (Field_stream.widths config (Op.kind op))
      | Raised _ -> ());
      (* Each word read through every format's layout: the matching one
         reassembles the op, the others must be rejected alike. *)
      List.iter
        (fun kind ->
          let values = R.stream_values config kind w in
          agree
            ~what:(Printf.sprintf "%s op_of_symbols as %s" what
                     (Format_spec.kind_to_string kind))
            pp_op Op.equal
            (run (fun () -> Field_stream.op_of_symbols config kind values))
            (run (fun () -> R.op_of_symbols config kind values)))
        Format_spec.kinds)
    configs

let test_streams_exhaustive () =
  (* A quarter of the corpus keeps this at a few seconds; every opcode
     point still appears with each of its fill patterns. *)
  List.iteri (fun i w -> if i land 3 = 0 then check_streams w) (Lazy.force corpus);
  List.iter
    (fun (_, config) ->
      agree ~what:"wrong stream count" pp_op Op.equal
        (run (fun () -> Field_stream.op_of_symbols config Opcode.K_alu [||]))
        (run (fun () -> R.op_of_symbols config Opcode.K_alu [||])))
    configs

let prop_random_words =
  QCheck.Test.make ~name:"word codec agrees with the reference on random 40-bit words"
    ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%#x")
       QCheck.Gen.(
         map2
           (fun hi lo -> (hi lsl 20) lor lo)
           (int_bound (mask 20)) (int_bound (mask 20))))
    (fun w ->
      check_word w;
      true)

(* {1 Tailored ISA} *)

let tailored name =
  let e =
    match Workloads.Suite.find name with
    | Some e -> e
    | None -> Alcotest.failf "no workload %s" name
  in
  let r = Cccs.Workload_run.load e in
  let s = Cccs.Experiments.schemes_of r in
  ( r.Cccs.Workload_run.compiled.Cccs.Pipeline.program,
    s.Cccs.Experiments.tailored_spec )

(* The spec with every register map's dense order reversed: the GPR and
   FPR maps of a densely allocated program are often the same table, and
   reversing them unequally (each by its own size) makes a register file
   chosen wrongly — by opcode or by TCS — encode differently. *)
let reversed_reg_maps (spec : Encoding.Tailored.spec) =
  let module T = Encoding.Tailored in
  let reverse (m : T.dense_map) =
    let to_old = Array.of_list (List.rev (Array.to_list m.T.to_old)) in
    let to_new = Hashtbl.create 16 in
    Array.iteri (fun i v -> Hashtbl.replace to_new v i) to_old;
    { m with T.to_old; to_new }
  in
  { spec with T.reg_maps = List.map (fun (c, m) -> (c, reverse m)) spec.T.reg_maps }

let check_tailored name program spec =
  let plan = Encoding.Tailored.compile spec in
  let image =
    let w = Bits.Writer.create () in
    Program.iter_ops (fun op -> Encoding.Tailored.encode_op plan w op) program;
    Bits.Writer.contents w
  in
  (* Every op encodes to the same bits. *)
  Program.iter_ops
    (fun op ->
      let w = Bits.Writer.create () and w' = Bits.Writer.create () in
      Encoding.Tailored.encode_op plan w op;
      R.tailored_encode_op spec w' op;
      if Bits.Writer.contents w <> Bits.Writer.contents w'
         || Bits.Writer.length w <> Bits.Writer.length w'
      then
        Alcotest.failf "%s: tailored encodings of %s differ" name
          (Op.to_string op))
    program;
  (* Decoding at every bit offset of the image's head — op starts and
     garbage alike — agrees, exceptions and reader positions included;
     the abstract decoder accepts exactly the ops the reference does. *)
  let strategy = Cccs_analysis.Abstract_decoder.Tailored_isa plan in
  for bit = 0 to min (8 * String.length image - 1) 6000 do
    let at decode =
      let r = Bits.Reader.of_string image in
      Bits.Reader.seek r bit;
      let o = run (fun () -> decode r) in
      (o, Bits.Reader.pos r)
    in
    let o, pos = at (Encoding.Tailored.decode_op plan)
    and o', pos' = at (R.tailored_decode_op spec) in
    let what = Printf.sprintf "%s tailored decode at bit %d" name bit in
    agree ~what pp_op Op.equal o o';
    if pos <> pos' then
      Alcotest.failf "%s: reader at %d, reference at %d" what pos pos';
    let r = Bits.Reader.of_string image in
    Bits.Reader.seek r bit;
    match (Cccs_analysis.Abstract_decoder.decode_step strategy r, o') with
    | Ok [ op ], Value op' when Op.equal op op' && Bits.Reader.pos r = pos' -> ()
    | Error _, Raised _ -> ()
    | _ -> Alcotest.failf "%s: abstract decoder disagrees with the reference" what
  done

let test_tailored name () =
  let program, spec = tailored name in
  check_tailored name program spec;
  check_tailored (name ^ " (reversed register maps)") program (reversed_reg_maps spec)

(* Random programs carry what the compiled workloads may not: FP loads
   and stores (TCS = 1), ITOF/FTOI, and register maps that differ per
   class. *)
let test_tailored_random () =
  for seed = 1 to 8 do
    let program =
      QCheck.Gen.generate1 ~rand:(Random.State.make [| seed |])
        (Gen_ops.program ~max_blocks:24 ())
    in
    let _, spec = Encoding.Tailored.build_with_spec program in
    check_tailored (Printf.sprintf "random program %d" seed) program spec
  done

(* {1 Out-of-range fields} *)

let test_to_int_rejects_wide_fields () =
  let unfit = Invalid_argument "Bits.Writer.add_bits: value does not fit width" in
  let ops =
    [
      Op.alu ~opcode:Opcode.ADD ~src1:1 ~src2:2 ~dest:3 ();
      Op.load ~tcs:1 ~opcode:Opcode.LW ~src1:4 ~dest:5 ();
      Op.branch ~opcode:Opcode.BRLC ~counter:6 ~target:9 ();
    ]
  in
  List.iter
    (fun op ->
      let bad = Op.map_regs (fun _ -> 40) op in
      Alcotest.check_raises "encode rejects" unfit (fun () ->
          Encode.encode (Bits.Writer.create ()) bad);
      Alcotest.check_raises "to_int rejects" unfit (fun () ->
          ignore (Encode.to_int bad));
      (* On a valid op the two are the same 40 bits. *)
      Alcotest.(check string) "encode = to_int" (Encode.encode_ops [ op ])
        (bytes_of_word (Encode.to_int op)))
    ops;
  let neg = { (List.hd ops) with Op.pred = -1 } in
  Alcotest.check_raises "negative field" unfit (fun () -> ignore (Encode.to_int neg))

(* {1 Golden verdicts} *)

let test_faulted_verdicts () =
  let want =
    In_channel.with_open_bin "fixtures/faulted_verdicts.json"
      In_channel.input_all
  in
  let got = Faulted_verdicts.render () in
  if got <> want then begin
    Out_channel.with_open_bin "faulted_verdicts.actual.json" (fun oc ->
        Out_channel.output_string oc got);
    let lines s = String.split_on_char '\n' s in
    let rec first i = function
      | a :: r, b :: r' -> if a = b then first (i + 1) (r, r') else Some (i, a, b)
      | a :: _, [] -> Some (i, a, "<end>")
      | [], b :: _ -> Some (i, "<end>", b)
      | [], [] -> None
    in
    match first 1 (lines got, lines want) with
    | Some (i, a, b) ->
        Alcotest.failf
          "verdicts differ at line %d (new rendering in \
           faulted_verdicts.actual.json):\n\
          \  got:  %s\n\
          \  want: %s" i a b
    | None -> Alcotest.fail "verdicts differ"
  end

let suite =
  [
    Alcotest.test_case "op words: every opcode point x field edge" `Quick
      test_exhaustive_words;
    Alcotest.test_case "field streams: every config x opcode point" `Quick
      test_streams_exhaustive;
    Alcotest.test_case "tailored: compress spec" `Quick (test_tailored "compress");
    Alcotest.test_case "tailored: ijpeg spec" `Quick (test_tailored "ijpeg");
    Alcotest.test_case "tailored: random programs" `Quick test_tailored_random;
    Alcotest.test_case "to_int rejects out-of-range fields" `Quick
      test_to_int_rejects_wide_fields;
    Alcotest.test_case "faulted decode verdicts (golden)" `Quick
      test_faulted_verdicts;
    QCheck_alcotest.to_alcotest prop_random_words;
  ]

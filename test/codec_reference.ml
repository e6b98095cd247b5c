(* The field-table op codec, kept as the differential reference for the
   word codec in lib/ (Op.to_word/of_word, Encode, Field_stream and the
   compiled tailored plans).  Every function here walks the format's
   field list by name and rebuilds ops from a string-keyed Hashtbl — the
   slow, obviously-faithful transcription of paper Table 2.  The
   production codec must agree with it on every op, and raise the same
   [Invalid_argument] message wherever it raises. *)

open Tepic

(* {1 Op field view} *)

let fields op =
  let layout = Format_spec.layout (Op.kind op) in
  List.map (fun fd -> (fd, Op.field_value op fd.Format_spec.fname)) layout

let of_fields kind lookup : Op.t =
  let opt = Opcode.optype_of_code (lookup "OPT") in
  let opcode =
    match Opcode.of_code opt (lookup "OPCODE") with
    | Some oc -> oc
    | None -> invalid_arg "Op.of_fields: unknown opcode"
  in
  if Opcode.kind opcode <> kind then
    invalid_arg "Op.of_fields: opcode/format mismatch";
  let body : Op.body =
    match kind with
    | Opcode.K_alu ->
        Alu
          {
            opcode;
            src1 = lookup "SRC1";
            src2 = lookup "SRC2";
            bhwx = lookup "BHWX";
            dest = lookup "DEST";
            l1 = lookup "L1" = 1;
          }
    | K_cmpp ->
        Cmpp
          {
            opcode;
            src1 = lookup "SRC1";
            src2 = lookup "SRC2";
            bhwx = lookup "BHWX";
            d1 = lookup "D1";
            dest = lookup "DEST";
            l1 = lookup "L1" = 1;
          }
    | K_ldi ->
        Ldi { imm = lookup "IMM"; dest = lookup "DEST"; l1 = lookup "L1" = 1 }
    | K_fpu ->
        Fpu
          {
            opcode;
            src1 = lookup "SRC1";
            src2 = lookup "SRC2";
            sd = lookup "SD" = 1;
            tss = lookup "TSS";
            dest = lookup "DEST";
            l1 = lookup "L1" = 1;
          }
    | K_load ->
        Load
          {
            opcode;
            src1 = lookup "SRC1";
            bhwx = lookup "BHWX";
            scs = lookup "SCS";
            tcs = lookup "TCS";
            lat = lookup "LAT";
            dest = lookup "DEST";
          }
    | K_store ->
        Store
          {
            opcode;
            src1 = lookup "SRC1";
            src2 = lookup "SRC2";
            bhwx = lookup "BHWX";
            tcs = lookup "TCS";
            l1 = lookup "L1" = 1;
          }
    | K_branch ->
        Branch
          {
            opcode;
            src1 = lookup "SRC1";
            counter = lookup "COUNTER";
            target = lookup "TARGET";
          }
  in
  { Op.tail = lookup "T" = 1; spec = lookup "S" = 1; pred = lookup "PRED"; body }

(* {1 Baseline 40-bit codec} *)

let encode w op =
  List.iter
    (fun (fd, v) -> Bits.Writer.add_bits w ~width:fd.Format_spec.width v)
    (fields op)

let decode r =
  let start = Bits.Reader.pos r in
  let tail = Bits.Reader.read_bits r ~width:1 in
  let spec = Bits.Reader.read_bits r ~width:1 in
  let opt = Bits.Reader.read_bits r ~width:2 in
  let code = Bits.Reader.read_bits r ~width:5 in
  ignore (tail, spec);
  let opcode =
    match Opcode.of_code (Opcode.optype_of_code opt) code with
    | Some oc -> oc
    | None ->
        invalid_arg
          (Printf.sprintf "Encode.decode: undefined opcode point %d/%d" opt code)
  in
  let layout = Format_spec.layout (Opcode.kind opcode) in
  Bits.Reader.seek r start;
  let tbl = Hashtbl.create 17 in
  List.iter
    (fun fd ->
      Hashtbl.replace tbl fd.Format_spec.fname
        (Bits.Reader.read_bits r ~width:fd.Format_spec.width))
    layout;
  of_fields (Opcode.kind opcode) (Hashtbl.find tbl)

(* The historical [to_int]: ORs fields in without a width check, so an
   over-wide field silently corrupts its neighbours. *)
let to_int op =
  List.fold_left
    (fun acc (fd, v) -> (acc lsl fd.Format_spec.width) lor v)
    0 (fields op)

let of_int v =
  let w = Bits.Writer.create ~initial_bytes:5 () in
  Bits.Writer.add_bits w ~width:Format_spec.op_bits v;
  decode (Bits.Reader.of_string (Bits.Writer.contents w))

(* {1 Field streams} *)

let stream_fields t kind =
  let per = Array.make (Field_stream.nstreams t) [] in
  List.iter
    (fun fd ->
      let s = Field_stream.stream_of_field t fd.Format_spec.fname in
      per.(s) <- fd :: per.(s))
    (Format_spec.layout kind);
  Array.map List.rev per

let widths t kind =
  stream_fields t kind
  |> Array.map (List.fold_left (fun a fd -> a + fd.Format_spec.width) 0)

let symbols t op =
  let per = stream_fields t (Op.kind op) in
  Array.map
    (fun fds ->
      List.fold_left
        (fun (v, w) fd ->
          let fv = Op.field_value op fd.Format_spec.fname in
          ((v lsl fd.Format_spec.width) lor fv, w + fd.Format_spec.width))
        (0, 0) fds)
    per

let op_of_symbols t kind values =
  if Array.length values <> Field_stream.nstreams t then
    invalid_arg "Field_stream.op_of_symbols: wrong stream count";
  let per = stream_fields t kind in
  let tbl = Hashtbl.create 17 in
  Array.iteri
    (fun s fds ->
      let total = List.fold_left (fun a fd -> a + fd.Format_spec.width) 0 fds in
      let consumed = ref 0 in
      List.iter
        (fun fd ->
          let shift = total - !consumed - fd.Format_spec.width in
          let mask = (1 lsl fd.Format_spec.width) - 1 in
          Hashtbl.replace tbl fd.Format_spec.fname ((values.(s) lsr shift) land mask);
          consumed := !consumed + fd.Format_spec.width)
        fds)
    per;
  of_fields kind (Hashtbl.find tbl)

(* [stream_values t kind word] — the per-stream symbol values of a raw
   40-bit word read through [kind]'s layout, whatever opcode the word
   names: the input that exercises [op_of_symbols]' rejections. *)
let stream_values t kind word =
  let per = stream_fields t kind in
  let layout = Format_spec.layout kind in
  let shift_of = Hashtbl.create 17 in
  ignore
    (List.fold_left
       (fun hi fd ->
         let sh = hi - fd.Format_spec.width in
         Hashtbl.replace shift_of fd.Format_spec.fname sh;
         sh)
       Format_spec.op_bits layout);
  Array.map
    (List.fold_left
       (fun v fd ->
         let fv =
           (word lsr Hashtbl.find shift_of fd.Format_spec.fname)
           land ((1 lsl fd.Format_spec.width) - 1)
         in
         (v lsl fd.Format_spec.width) lor fv)
       0)
    per

(* {1 Tailored ISA} *)

module T = Encoding.Tailored

let map_new (m : T.dense_map) v =
  match Hashtbl.find_opt m.T.to_new v with
  | Some i -> i
  | None -> invalid_arg "Tailored: value outside the tailored map"

let map_old (m : T.dense_map) i =
  if i < 0 || i >= Array.length m.T.to_old then
    invalid_arg "Tailored: dense index out of range";
  m.T.to_old.(i)

let prefix_names = [ "T"; "S"; "OPT"; "OPCODE" ]

let tailored_encode_op (spec : T.spec) w (op : Op.t) =
  let opcode = Op.opcode op in
  let kind = Opcode.kind opcode in
  let ty = Opcode.optype opcode in
  Bits.Writer.add_bits w ~width:1 (if op.Op.tail then 1 else 0);
  if spec.T.spec_bit then
    Bits.Writer.add_bits w ~width:1 (if op.Op.spec then 1 else 0);
  Bits.Writer.add_bits w ~width:2 (Opcode.optype_code ty);
  let omap = List.assoc ty spec.T.opcode_maps in
  Bits.Writer.add_bits w ~width:spec.T.opcode_bits
    (map_new omap (Opcode.code opcode));
  let tcs = try Op.field_value op "TCS" with Not_found -> 0 in
  List.iter
    (fun (fd, v) ->
      let name = fd.Format_spec.fname in
      if List.mem name prefix_names || T.is_reserved name then ()
      else begin
        let width = T.field_width spec kind fd in
        let encoded =
          match T.reg_class_of_field opcode ~tcs name with
          | Some c -> map_new (T.reg_map spec c) v
          | None -> if T.is_raw name then v else map_new (T.field_map spec name) v
        in
        if width > 0 then Bits.Writer.add_bits w ~width encoded
        else if encoded <> 0 then
          invalid_arg "Tailored.encode_op: nonzero value in zero-width field"
      end)
    (fields op)

let tailored_decode_op (spec : T.spec) r =
  let tail = Bits.Reader.read_bits r ~width:1 = 1 in
  let sp = if spec.T.spec_bit then Bits.Reader.read_bits r ~width:1 = 1 else false in
  let ty = Opcode.optype_of_code (Bits.Reader.read_bits r ~width:2) in
  let omap = List.assoc ty spec.T.opcode_maps in
  let code = map_old omap (Bits.Reader.read_bits r ~width:spec.T.opcode_bits) in
  let opcode =
    match Opcode.of_code ty code with
    | Some oc -> oc
    | None -> invalid_arg "Tailored.decode_op: bad opcode"
  in
  let kind = Opcode.kind opcode in
  let tbl = Hashtbl.create 17 in
  Hashtbl.replace tbl "T" (if tail then 1 else 0);
  Hashtbl.replace tbl "S" (if sp then 1 else 0);
  Hashtbl.replace tbl "OPT" (Opcode.optype_code ty);
  Hashtbl.replace tbl "OPCODE" code;
  let raws =
    List.filter_map
      (fun fd ->
        let name = fd.Format_spec.fname in
        if List.mem name prefix_names then None
        else if T.is_reserved name then Some (name, 0)
        else begin
          let width = T.field_width spec kind fd in
          Some (name, if width > 0 then Bits.Reader.read_bits r ~width else 0)
        end)
      (Format_spec.layout kind)
  in
  let tcs =
    match List.assoc_opt "TCS" raws with
    | Some raw -> map_old (T.field_map spec "TCS") raw
    | None -> 0
  in
  List.iter
    (fun (name, raw) ->
      let v =
        if T.is_reserved name then 0
        else
          match T.reg_class_of_field opcode ~tcs name with
          | Some c -> map_old (T.reg_map spec c) raw
          | None -> if T.is_raw name then raw else map_old (T.field_map spec name) raw
      in
      Hashtbl.replace tbl name v)
    raws;
  of_fields kind (Hashtbl.find tbl)

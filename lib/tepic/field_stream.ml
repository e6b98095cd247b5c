(* A stream's symbol is a concatenation of fields in layout order, so it
   is gathered from the 40-bit word as a few segments: runs of adjacent
   layout fields that share the stream.  Each segment is a triple in
   [segments.(s)]: its shift in the word, its mask, and its shift in the
   symbol. *)
type plan = { widths : int array; segments : int array array }

type t = {
  name : string;
  nstreams : int;
  stream_of_field : string -> int;
  plans : plan array;
}

let prefix_names = [ "T"; "S"; "OPT"; "OPCODE" ]

let validate ~name ~nstreams stream_of_field =
  if nstreams < 1 then invalid_arg "Field_stream: nstreams < 1";
  List.iter
    (fun fname ->
      let s = stream_of_field fname in
      if s < 0 || s >= nstreams then
        invalid_arg
          (Printf.sprintf "Field_stream %s: field %s maps to stream %d" name
             fname s))
    Format_spec.all_field_names;
  List.iter
    (fun fname ->
      if stream_of_field fname <> 0 then
        invalid_arg
          (Printf.sprintf
             "Field_stream %s: prefix field %s must be in stream 0" name fname))
    prefix_names

let plan_of_kind ~nstreams stream_of_field kind =
  let widths = Array.make nstreams 0 in
  (* Segments per stream, most significant first, as (word shift, width). *)
  let segs = Array.make nstreams [] in
  let hi = ref Format_spec.op_bits in
  List.iter
    (fun (fd : Format_spec.field) ->
      let s = stream_of_field fd.fname in
      let shift = !hi - fd.width in
      hi := shift;
      widths.(s) <- widths.(s) + fd.width;
      segs.(s) <-
        (match segs.(s) with
        | (sh, w) :: rest when sh = shift + fd.width ->
            (shift, w + fd.width) :: rest
        | l -> (shift, fd.width) :: l))
    (Format_spec.layout kind);
  let segments =
    Array.map
      (fun l ->
        (* [l] is least significant first: symbol shifts accumulate from 0. *)
        let _, triples =
          List.fold_left
            (fun (at, acc) (sh, w) ->
              (at + w, at :: ((1 lsl w) - 1) :: sh :: acc))
            (0, []) l
        in
        Array.of_list (List.rev triples))
      segs
  in
  { widths; segments }

let make ~name ~nstreams stream_of_field =
  validate ~name ~nstreams stream_of_field;
  {
    name;
    nstreams;
    stream_of_field;
    plans =
      Array.of_list
        (List.map (plan_of_kind ~nstreams stream_of_field) Format_spec.kinds);
  }

let name t = t.name
let nstreams t = t.nstreams
let stream_of_field t = t.stream_of_field
let plan t kind = t.plans.(Format_spec.kind_index kind)
let widths t kind = (plan t kind).widths

let symbols t op =
  let p = plan t (Op.kind op) in
  let w = Op.to_word op in
  Array.init t.nstreams (fun s ->
      let seg = p.segments.(s) in
      let v = ref 0 in
      let i = ref 0 in
      while !i < Array.length seg do
        v := !v lor (((w lsr seg.(!i)) land seg.(!i + 1)) lsl seg.(!i + 2));
        i := !i + 3
      done;
      (!v, p.widths.(s)))

let op_of_symbols t kind values =
  if Array.length values <> t.nstreams then
    invalid_arg "Field_stream.op_of_symbols: wrong stream count";
  let p = plan t kind in
  let w = ref 0 in
  for s = 0 to t.nstreams - 1 do
    let seg = p.segments.(s) and v = values.(s) in
    let i = ref 0 in
    while !i < Array.length seg do
      w := !w lor (((v lsr seg.(!i + 2)) land seg.(!i + 1)) lsl seg.(!i));
      i := !i + 3
    done
  done;
  (* Rejections keep the messages of the field-table decoder this
     replaced, which diagnostics and verdict fixtures record. *)
  match Op.opcode_of_word !w with
  | None -> invalid_arg "Op.of_fields: unknown opcode"
  | Some oc when Opcode.kind oc <> kind ->
      invalid_arg "Op.of_fields: opcode/format mismatch"
  | Some _ -> Op.of_word !w

let kind_of_stream0 _t ~value ~width =
  (* Every format lays out T(1) S(1) OPT(2) OPCODE(5) first and validation
     pins those fields to stream 0, so in any configuration the stream-0
     symbol starts with the 9-bit prefix at its MSB end, whatever trailing
     fields the format contributes. *)
  if width < Format_spec.prefix_bits then
    invalid_arg "Field_stream.kind_of_stream0: symbol narrower than prefix";
  let opt_code = (value lsr (width - 4)) land 3 in
  let opcode_code = (value lsr (width - 9)) land 31 in
  let opt = Opcode.optype_of_code opt_code in
  match Opcode.of_code opt opcode_code with
  | Some oc -> Opcode.kind oc
  | None -> invalid_arg "Field_stream.kind_of_stream0: undefined opcode"

let op_bits = Format_spec.op_bits
let body_bits = op_bits - Format_spec.prefix_bits

let encode w op = Bits.Writer.add_bits w ~width:op_bits (Op.to_word op)

let undefined word =
  let opt, code = Op.opcode_point word in
  invalid_arg
    (Printf.sprintf "Encode.decode: undefined opcode point %d/%d" opt code)

(* The 9-bit prefix is read and its opcode point checked before the rest
   of the op is read, so a stream is rejected at the same position and
   with the same message whether or not the other 31 bits are there. *)
let decode r =
  let head =
    Bits.Reader.read_bits r ~width:Format_spec.prefix_bits lsl body_bits
  in
  match Op.opcode_of_word head with
  | None -> undefined head
  | Some _ -> Op.of_word (head lor Bits.Reader.read_bits r ~width:body_bits)

let encode_ops ops =
  let w = Bits.Writer.create ~initial_bytes:(5 * List.length ops + 1) () in
  List.iter (encode w) ops;
  Bits.Writer.contents w

let decode_ops ~count s =
  let r = Bits.Reader.of_string s in
  List.init count (fun _ -> decode r)

let to_int = Op.to_word

let of_int v =
  if v < 0 || v lsr op_bits <> 0 then
    invalid_arg "Bits.Writer.add_bits: value does not fit width";
  match Op.opcode_of_word v with None -> undefined v | Some _ -> Op.of_word v

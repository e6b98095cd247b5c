let build program =
  let image, offsets, sizes =
    Scheme.build_blocks program (fun w ops ->
        List.iter (Tepic.Encode.encode w) ops)
  in
  let counts =
    Array.map
      (fun b -> Tepic.Program.block_num_ops b)
      program.Tepic.Program.blocks
  in
  let decode_payload r i =
    List.init counts.(i) (fun _ -> Tepic.Encode.decode r)
  in
  {
    Scheme.name = "base";
    image;
    code_bits = 8 * String.length image;
    table_bits = 0;
    block_offset_bits = offsets;
    block_bits = sizes;
    frame = Scheme.no_frame;
    decoder =
      { dict_entries = 0; max_code_bits = 0; entry_bits = 0; transistors = 0 };
    books = [];
    model =
      [
        Scheme.Fixed_bits
          {
            label = "op";
            min_bits = Tepic.Format_spec.op_bits;
            max_bits = Tepic.Format_spec.op_bits;
          };
      ];
    decode_payload;
  }

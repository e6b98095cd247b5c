type dense_map = {
  width : int;
  to_new : (int, int) Hashtbl.t;
  to_old : int array;
}

type spec = {
  opcode_bits : int;
  spec_bit : bool;
  opcode_maps : (Tepic.Opcode.optype * dense_map) list;
  reg_maps : (Tepic.Reg.cls * dense_map) list;
  field_maps : (string * dense_map) list;
  widths : (Tepic.Opcode.kind * int) list;
}

(* A dense map over the set of values actually used.  A single-valued field
   costs zero bits: the decoder simply emits the constant. *)
let dense_of_values values =
  let sorted = List.sort_uniq compare values in
  let to_old = Array.of_list sorted in
  let n = Array.length to_old in
  let to_new = Hashtbl.create (2 * n) in
  Array.iteri (fun i v -> Hashtbl.replace to_new v i) to_old;
  let width = if n <= 1 then 0 else Bits.bits_needed n in
  { width; to_new; to_old }

let map_new m v =
  match Hashtbl.find_opt m.to_new v with
  | Some i -> i
  | None -> invalid_arg "Tailored: value outside the tailored map"

let map_old m i =
  if i < 0 || i >= Array.length m.to_old then
    invalid_arg "Tailored: dense index out of range";
  m.to_old.(i)

(* Fields dropped entirely from the tailored encoding. *)
let is_reserved = function "RES" | "RES2" | "RSV" -> true | _ -> false

(* Raw (non-dictionary) fields: values pass through at reduced width.
   Branch targets must stay raw so the linker can still patch them
   (paper §3.3 leaves "enough space for later plug-in of new targets");
   immediates get a program-specific constant pool instead — an indexed,
   fixed-width namespace, tailoring in the same sense as register
   renumbering. *)
let is_raw = function "TARGET" -> true | _ -> false

(* Register fields, class decided by opcode (conversions cross files) and,
   for memory ops, by the TCS target-file specifier read earlier in the
   layout. *)
let reg_class_of_field (opcode : Tepic.Opcode.t) ~tcs fname =
  match (Tepic.Opcode.kind opcode, fname) with
  | (Tepic.Opcode.K_alu | K_cmpp), ("SRC1" | "SRC2") -> Some Tepic.Reg.Gpr
  | Tepic.Opcode.K_alu, "DEST" -> Some Tepic.Reg.Gpr
  | Tepic.Opcode.K_cmpp, "DEST" -> Some Tepic.Reg.Pr
  | Tepic.Opcode.K_ldi, "DEST" -> Some Tepic.Reg.Gpr
  | Tepic.Opcode.K_fpu, "SRC1" ->
      Some (if opcode = Tepic.Opcode.ITOF then Tepic.Reg.Gpr else Tepic.Reg.Fpr)
  | Tepic.Opcode.K_fpu, "SRC2" -> Some Tepic.Reg.Fpr
  | Tepic.Opcode.K_fpu, "DEST" ->
      Some (if opcode = Tepic.Opcode.FTOI then Tepic.Reg.Gpr else Tepic.Reg.Fpr)
  | Tepic.Opcode.K_load, "SRC1" -> Some Tepic.Reg.Gpr
  | Tepic.Opcode.K_load, "DEST" ->
      Some (if tcs = 1 then Tepic.Reg.Fpr else Tepic.Reg.Gpr)
  | Tepic.Opcode.K_store, "SRC1" -> Some Tepic.Reg.Gpr
  | Tepic.Opcode.K_store, "SRC2" ->
      Some (if tcs = 1 then Tepic.Reg.Fpr else Tepic.Reg.Gpr)
  | Tepic.Opcode.K_branch, ("SRC1" | "COUNTER") -> Some Tepic.Reg.Gpr
  | _, "PRED" -> Some Tepic.Reg.Pr
  | _ -> None

(* Classes a field of [kind] can hold, independent of the concrete opcode —
   fixes the field's width (the max over candidate class maps). *)
let reg_classes_of_field (kind : Tepic.Opcode.kind) fname :
    Tepic.Reg.cls list =
  match (kind, fname) with
  | (Tepic.Opcode.K_alu | K_cmpp), ("SRC1" | "SRC2") -> [ Tepic.Reg.Gpr ]
  | Tepic.Opcode.K_alu, "DEST" | Tepic.Opcode.K_ldi, "DEST" -> [ Tepic.Reg.Gpr ]
  | Tepic.Opcode.K_cmpp, "DEST" -> [ Tepic.Reg.Pr ]
  | Tepic.Opcode.K_fpu, ("SRC1" | "DEST") -> [ Tepic.Reg.Gpr; Tepic.Reg.Fpr ]
  | Tepic.Opcode.K_fpu, "SRC2" -> [ Tepic.Reg.Fpr ]
  | Tepic.Opcode.K_load, "SRC1" | Tepic.Opcode.K_store, "SRC1" ->
      [ Tepic.Reg.Gpr ]
  | Tepic.Opcode.K_load, "DEST" | Tepic.Opcode.K_store, "SRC2" ->
      [ Tepic.Reg.Gpr; Tepic.Reg.Fpr ]
  | Tepic.Opcode.K_branch, ("SRC1" | "COUNTER") -> [ Tepic.Reg.Gpr ]
  | _, "PRED" -> [ Tepic.Reg.Pr ]
  | _ -> []

let spec_of_program program =
  (* Collect used values. *)
  let opcode_vals : (Tepic.Opcode.optype, int list ref) Hashtbl.t =
    Hashtbl.create 7
  in
  let reg_vals : (Tepic.Reg.cls, int list ref) Hashtbl.t = Hashtbl.create 7 in
  let field_vals : (string, int list ref) Hashtbl.t = Hashtbl.create 17 in
  let raw_max : (string, int ref) Hashtbl.t = Hashtbl.create 7 in
  let bucket tbl key v =
    match Hashtbl.find_opt tbl key with
    | Some r -> r := v :: !r
    | None -> Hashtbl.add tbl key (ref [ v ])
  in
  let any_spec = ref false in
  Tepic.Program.iter_ops
    (fun op ->
      if op.Tepic.Op.spec then any_spec := true;
      let opcode = Tepic.Op.opcode op in
      bucket opcode_vals (Tepic.Opcode.optype opcode) (Tepic.Opcode.code opcode);
      List.iter
        (fun (r : Tepic.Reg.t) -> bucket reg_vals r.Tepic.Reg.cls r.Tepic.Reg.index)
        (Tepic.Op.regs op);
      (* Predicate 0 must stay representable: unpredicated ops use it. *)
      bucket reg_vals Tepic.Reg.Pr 0;
      let tcs = try Tepic.Op.field_value op "TCS" with Not_found -> 0 in
      List.iter
        (fun (fd, v) ->
          let name = fd.Tepic.Format_spec.fname in
          if is_reserved name then ()
          else if is_raw name then begin
            match Hashtbl.find_opt raw_max name with
            | Some r -> r := max !r v
            | None -> Hashtbl.add raw_max name (ref v)
          end
          else if
            name = "T" || name = "S" || name = "OPT" || name = "OPCODE"
            || reg_class_of_field opcode ~tcs name <> None
          then ()
          else bucket field_vals name v)
        (Tepic.Op.fields op))
    program;
  let opcode_maps =
    Hashtbl.fold
      (fun ty r acc -> (ty, dense_of_values !r) :: acc)
      opcode_vals []
    |> List.sort compare
  in
  let opcode_bits =
    List.fold_left (fun a (_, m) -> max a m.width) 0 opcode_maps
  in
  let reg_maps =
    Hashtbl.fold (fun c r acc -> (c, dense_of_values !r) :: acc) reg_vals []
    |> List.sort compare
  in
  let field_maps =
    Hashtbl.fold (fun n r acc -> (n, dense_of_values !r) :: acc) field_vals []
    |> List.sort compare
  in
  let field_maps =
    (* Raw fields become identity "maps" encoded as width-only entries:
       represent them as dense maps over [0, max] without a table by
       storing an empty table and the raw width. *)
    Hashtbl.fold
      (fun n r acc ->
        ( n,
          {
            width = Bits.bits_needed (!r + 1);
            to_new = Hashtbl.create 1;
            to_old = [||];
          } )
        :: acc)
      raw_max field_maps
    |> List.sort compare
  in
  let spec0 =
    {
      opcode_bits;
      spec_bit = !any_spec;
      opcode_maps;
      reg_maps;
      field_maps;
      widths = [];
    }
  in
  spec0

let reg_map spec c =
  match List.assoc_opt c spec.reg_maps with
  | Some m -> m
  | None -> { width = 0; to_new = Hashtbl.create 1; to_old = [| 0 |] }

let field_map spec name =
  match List.assoc_opt name spec.field_maps with
  | Some m -> m
  | None -> { width = 0; to_new = Hashtbl.create 1; to_old = [| 0 |] }

(* Tailored width of a non-prefix field in format [kind]. *)
let field_width spec kind (fd : Tepic.Format_spec.field) =
  let name = fd.Tepic.Format_spec.fname in
  if is_reserved name then 0
  else
    match reg_classes_of_field kind name with
    | [] -> (field_map spec name).width
    | classes ->
        List.fold_left (fun a c -> max a (reg_map spec c).width) 0 classes

let header_bits spec = 1 + (if spec.spec_bit then 1 else 0) + 2 + spec.opcode_bits

let op_bits spec kind =
  List.fold_left
    (fun a fd ->
      if List.mem fd.Tepic.Format_spec.fname [ "T"; "S"; "OPT"; "OPCODE" ] then a
      else a + field_width spec kind fd)
    (header_bits spec)
    (Tepic.Format_spec.layout kind)

let finalize_spec spec =
  {
    spec with
    widths = List.map (fun k -> (k, op_bits spec k)) Tepic.Format_spec.kinds;
  }

(* ---- compiled field plans ------------------------------------------ *)

type source = Reserved | Raw | Map of dense_map | Reg of dense_map array

type field_plan = {
  fd : Tepic.Format_spec.field;
  bits : int;
  shift : int;
  base_shift : int;
  source : source;
}

type op_plan = {
  body_bits : int;
  fields : field_plan array;
  tcs : field_plan option;
}

type plan = {
  spec : spec;
  opcode_maps_by_opt : dense_map option array;
  ops : op_plan array;
}

let is_prefix name =
  List.exists
    (fun (fd : Tepic.Format_spec.field) -> fd.fname = name)
    Tepic.Format_spec.prefix

(* Baseline positions, counted from the least significant bit of the
   40-bit word, of a layout's fields in layout order. *)
let base_shifts layout =
  let hi = ref Tepic.Format_spec.op_bits in
  List.map
    (fun (fd : Tepic.Format_spec.field) ->
      hi := !hi - fd.width;
      (fd, !hi))
    layout

(* TCS is a 2-bit field: a register field's map is resolved for each of
   its four values. *)
let tcs_values =
  match
    List.find_opt
      (fun (fd : Tepic.Format_spec.field) -> fd.fname = "TCS")
      (Tepic.Format_spec.layout Tepic.Opcode.K_load)
  with
  | Some fd -> 1 lsl fd.width
  | None -> 1

let op_plan spec opcode =
  let kind = Tepic.Opcode.kind opcode in
  let body =
    List.filter
      (fun ((fd : Tepic.Format_spec.field), _) -> not (is_prefix fd.fname))
      (base_shifts (Tepic.Format_spec.layout kind))
  in
  let body_bits =
    List.fold_left (fun a (fd, _) -> a + field_width spec kind fd) 0 body
  in
  let hi = ref body_bits in
  let fields =
    List.map
      (fun ((fd : Tepic.Format_spec.field), base_shift) ->
        let name = fd.fname in
        let bits = field_width spec kind fd in
        hi := !hi - bits;
        let source =
          if is_reserved name then Reserved
          else
            match reg_class_of_field opcode ~tcs:0 name with
            | Some _ ->
                Reg
                  (Array.init tcs_values (fun tcs ->
                       match reg_class_of_field opcode ~tcs name with
                       | Some c -> reg_map spec c
                       | None -> failwith "Tailored: register field without class"))
            | None -> if is_raw name then Raw else Map (field_map spec name)
        in
        { fd; bits; shift = !hi; base_shift; source })
      body
    |> Array.of_list
  in
  {
    body_bits;
    fields;
    tcs = Array.find_opt (fun f -> f.fd.Tepic.Format_spec.fname = "TCS") fields;
  }

let compile spec =
  {
    spec;
    opcode_maps_by_opt =
      Array.init 4 (fun c ->
          List.assoc_opt (Tepic.Opcode.optype_of_code c) spec.opcode_maps);
    ops = Array.of_list (List.map (op_plan spec) Tepic.Opcode.all);
  }

let[@inline] field_raw f body = (body lsr f.shift) land ((1 lsl f.bits) - 1)

let[@inline] reg_map_for maps tcs =
  if tcs >= 0 && tcs < Array.length maps then maps.(tcs) else maps.(0)

(* [List.assoc] semantics of the field-table codec: an op type with no
   published map raises [Not_found]. *)
let opcode_map plan optc =
  match plan.opcode_maps_by_opt.(optc) with Some m -> m | None -> raise Not_found

let encode_op plan w (op : Tepic.Op.t) =
  let spec = plan.spec in
  let opcode = Tepic.Op.opcode op in
  let optc = Tepic.Opcode.optype_code (Tepic.Opcode.optype opcode) in
  Bits.Writer.add_bits w ~width:1 (if op.Tepic.Op.tail then 1 else 0);
  if spec.spec_bit then
    Bits.Writer.add_bits w ~width:1 (if op.Tepic.Op.spec then 1 else 0);
  Bits.Writer.add_bits w ~width:2 optc;
  Bits.Writer.add_bits w ~width:spec.opcode_bits
    (map_new (opcode_map plan optc) (Tepic.Opcode.code opcode));
  let p = plan.ops.(Tepic.Opcode.index opcode) in
  let word = Tepic.Op.to_word op in
  let base f =
    (word lsr f.base_shift) land ((1 lsl f.fd.Tepic.Format_spec.width) - 1)
  in
  let tcs = match p.tcs with Some f -> base f | None -> 0 in
  let body = ref 0 in
  Array.iter
    (fun f ->
      let v = base f in
      let encoded =
        match f.source with
        | Reserved -> 0
        | Raw -> v
        | Map m -> map_new m v
        | Reg maps -> map_new (reg_map_for maps tcs) v
      in
      if f.bits > 0 then begin
        if encoded lsr f.bits <> 0 then
          invalid_arg "Bits.Writer.add_bits: value does not fit width";
        body := !body lor (encoded lsl f.shift)
      end
      else if encoded <> 0 then
        invalid_arg "Tailored.encode_op: nonzero value in zero-width field")
    p.fields;
  Bits.Writer.add_bits w ~width:p.body_bits !body

let decode_op plan r =
  let spec = plan.spec in
  let tail = Bits.Reader.read_bits r ~width:1 in
  let sp = if spec.spec_bit then Bits.Reader.read_bits r ~width:1 else 0 in
  let optc = Bits.Reader.read_bits r ~width:2 in
  let ty = Tepic.Opcode.optype_of_code optc in
  let omap = opcode_map plan optc in
  let code = map_old omap (Bits.Reader.read_bits r ~width:spec.opcode_bits) in
  let opcode =
    match Tepic.Opcode.of_code ty code with
    | Some oc -> oc
    | None -> invalid_arg "Tailored.decode_op: bad opcode"
  in
  let p = plan.ops.(Tepic.Opcode.index opcode) in
  (* A hardware decoder sees every field at once; reading the whole body
     before mapping any field gives the register-file lookahead the store
     format needs (SRC2's file depends on the later TCS field). *)
  let body = Bits.Reader.read_bits r ~width:p.body_bits in
  let tcs =
    match p.tcs with
    | Some ({ source = Map m; _ } as f) -> map_old m (field_raw f body)
    | _ -> 0
  in
  let word = ref (Tepic.Op.prefix_word ~tail ~spec:sp ~opt:optc ~code) in
  Array.iter
    (fun f ->
      let raw = field_raw f body in
      let v =
        match f.source with
        | Reserved -> 0
        | Raw -> raw
        | Map m -> map_old m raw
        | Reg maps -> map_old (reg_map_for maps tcs) raw
      in
      word := !word lor (v lsl f.base_shift))
    p.fields;
  Tepic.Op.of_word !word

let build_with_spec program =
  let spec = finalize_spec (spec_of_program program) in
  let plan = compile spec in
  let image, offsets, sizes =
    Scheme.build_blocks program (fun w ops -> List.iter (encode_op plan w) ops)
  in
  let counts =
    Array.map
      (fun b -> Tepic.Program.block_num_ops b)
      program.Tepic.Program.blocks
  in
  let decode_payload r i =
    List.init counts.(i) (fun _ -> decode_op plan r)
  in
  (* The tailored "table" cost is the PLA's value maps: every dense map
     entry stores its original value. *)
  let map_bits m =
    Array.fold_left (fun a v -> a + max 1 (Bits.bits_needed (v + 1))) 0 m.to_old
  in
  let table_bits =
    List.fold_left (fun a (_, m) -> a + map_bits m) 0 spec.reg_maps
    + List.fold_left (fun a (_, m) -> a + map_bits m) 0 spec.opcode_maps
    + List.fold_left (fun a (_, m) -> a + map_bits m) 0 spec.field_maps
  in
  ( {
      Scheme.name = "tailored";
      image;
      code_bits = 8 * String.length image;
      table_bits;
      block_offset_bits = offsets;
      block_bits = sizes;
      frame = Scheme.no_frame;
      decoder =
        { dict_entries = 0; max_code_bits = 0; entry_bits = 0; transistors = 0 };
      books = [];
      model =
        (let widths = List.map snd spec.widths in
         [
           Scheme.Fixed_bits
             {
               label = "tailored-op";
               min_bits = List.fold_left min max_int widths;
               max_bits = List.fold_left max 0 widths;
             };
         ]);
      decode_payload;
    },
    spec )

let build program = fst (build_with_spec program)

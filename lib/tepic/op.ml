type body =
  | Alu of {
      opcode : Opcode.t;
      src1 : int;
      src2 : int;
      bhwx : int;
      dest : int;
      l1 : bool;
    }
  | Cmpp of {
      opcode : Opcode.t;
      src1 : int;
      src2 : int;
      bhwx : int;
      d1 : int;
      dest : int;
      l1 : bool;
    }
  | Ldi of { imm : int; dest : int; l1 : bool }
  | Fpu of {
      opcode : Opcode.t;
      src1 : int;
      src2 : int;
      sd : bool;
      tss : int;
      dest : int;
      l1 : bool;
    }
  | Load of {
      opcode : Opcode.t;
      src1 : int;
      bhwx : int;
      scs : int;
      tcs : int;
      lat : int;
      dest : int;
    }
  | Store of {
      opcode : Opcode.t;
      src1 : int;
      src2 : int;
      bhwx : int;
      tcs : int;
      l1 : bool;
    }
  | Branch of { opcode : Opcode.t; src1 : int; counter : int; target : int }

type t = { tail : bool; spec : bool; pred : int; body : body }

let check_reg name i =
  if i < 0 || i >= Reg.file_size then
    invalid_arg (Printf.sprintf "Op: register field %s out of range: %d" name i)

let check_width name width v =
  if v < 0 || v lsr width <> 0 then
    invalid_arg (Printf.sprintf "Op: field %s does not fit %d bits: %d" name width v)

let check_kind expected opcode =
  if Opcode.kind opcode <> expected then
    invalid_arg
      (Printf.sprintf "Op: opcode %s has the wrong format" (Opcode.mnemonic opcode))

let mk ?(spec = false) ?(pred = 0) body =
  check_reg "PRED" pred;
  { tail = false; spec; pred; body }

let alu ?spec ?pred ?(bhwx = 2) ?(l1 = false) ~opcode ~src1 ~src2 ~dest () =
  check_kind K_alu opcode;
  check_reg "SRC1" src1;
  check_reg "SRC2" src2;
  check_reg "DEST" dest;
  check_width "BHWX" 2 bhwx;
  mk ?spec ?pred (Alu { opcode; src1; src2; bhwx; dest; l1 })

let cmpp ?spec ?pred ?(bhwx = 2) ?(d1 = 0) ?(l1 = false) ~opcode ~src1 ~src2
    ~dest () =
  check_kind K_cmpp opcode;
  check_reg "SRC1" src1;
  check_reg "SRC2" src2;
  check_reg "DEST" dest;
  check_width "BHWX" 2 bhwx;
  check_width "D1" 3 d1;
  mk ?spec ?pred (Cmpp { opcode; src1; src2; bhwx; d1; dest; l1 })

let ldi ?spec ?pred ?(l1 = false) ~imm ~dest () =
  check_width "IMM" 20 imm;
  check_reg "DEST" dest;
  mk ?spec ?pred (Ldi { imm; dest; l1 })

let fpu ?spec ?pred ?(sd = false) ?(tss = 0) ?(l1 = false) ~opcode ~src1 ~src2
    ~dest () =
  check_kind K_fpu opcode;
  check_reg "SRC1" src1;
  check_reg "SRC2" src2;
  check_reg "DEST" dest;
  check_width "TSS" 3 tss;
  mk ?spec ?pred (Fpu { opcode; src1; src2; sd; tss; dest; l1 })

let load ?spec ?pred ?(bhwx = 2) ?(scs = 0) ?(tcs = 0) ?(lat = 2) ~opcode ~src1
    ~dest () =
  check_kind K_load opcode;
  check_reg "SRC1" src1;
  check_reg "DEST" dest;
  check_width "BHWX" 2 bhwx;
  check_width "SCS" 2 scs;
  check_width "TCS" 2 tcs;
  check_width "LAT" 5 lat;
  mk ?spec ?pred (Load { opcode; src1; bhwx; scs; tcs; lat; dest })

let store ?spec ?pred ?(bhwx = 2) ?(tcs = 0) ~opcode ~src1 ~src2 () =
  check_kind K_store opcode;
  check_reg "SRC1" src1;
  check_reg "SRC2" src2;
  check_width "BHWX" 2 bhwx;
  check_width "TCS" 2 tcs;
  mk ?spec ?pred (Store { opcode; src1; src2; bhwx; tcs; l1 = false })

let branch ?spec ?pred ?(src1 = 0) ?(counter = 0) ~opcode ~target () =
  check_kind K_branch opcode;
  check_reg "SRC1" src1;
  check_reg "COUNTER" counter;
  check_width "TARGET" 16 target;
  mk ?spec ?pred (Branch { opcode; src1; counter; target })

let opcode op =
  match op.body with
  | Alu { opcode; _ }
  | Cmpp { opcode; _ }
  | Fpu { opcode; _ }
  | Load { opcode; _ }
  | Store { opcode; _ }
  | Branch { opcode; _ } ->
      opcode
  | Ldi _ -> Opcode.LDI

let kind op = Opcode.kind (opcode op)
let is_memory op = Opcode.is_memory (opcode op)
let is_branch op = Opcode.is_branch (opcode op)
let is_conditional_branch op = Opcode.is_conditional (opcode op)

let branch_target op =
  match op.body with
  | Branch { opcode = RET; _ } -> None
  | Branch { target; _ } -> Some target
  | _ -> None

let with_tail tail op = { op with tail }

let with_target target op =
  match op.body with
  | Branch b ->
      check_width "TARGET" 16 target;
      { op with body = Branch { b with target } }
  | _ -> invalid_arg "Op.with_target: not a branch"

let bool_bit b = if b then 1 else 0

let field_value op name =
  match (name, op.body) with
  | "T", _ -> bool_bit op.tail
  | "S", _ -> bool_bit op.spec
  | "OPT", _ -> Opcode.optype_code (Opcode.optype (opcode op))
  | "OPCODE", _ -> Opcode.code (opcode op)
  | "PRED", _ -> op.pred
  | ("RES" | "RES2" | "RSV"), _ -> 0
  | "SRC1", Alu { src1; _ }
  | "SRC1", Cmpp { src1; _ }
  | "SRC1", Fpu { src1; _ }
  | "SRC1", Load { src1; _ }
  | "SRC1", Store { src1; _ }
  | "SRC1", Branch { src1; _ } ->
      src1
  | "SRC2", Alu { src2; _ }
  | "SRC2", Cmpp { src2; _ }
  | "SRC2", Fpu { src2; _ }
  | "SRC2", Store { src2; _ } ->
      src2
  | "DEST", Alu { dest; _ }
  | "DEST", Cmpp { dest; _ }
  | "DEST", Ldi { dest; _ }
  | "DEST", Fpu { dest; _ }
  | "DEST", Load { dest; _ } ->
      dest
  | "BHWX", Alu { bhwx; _ }
  | "BHWX", Cmpp { bhwx; _ }
  | "BHWX", Load { bhwx; _ }
  | "BHWX", Store { bhwx; _ } ->
      bhwx
  | "L1", Alu { l1; _ }
  | "L1", Cmpp { l1; _ }
  | "L1", Ldi { l1; _ }
  | "L1", Fpu { l1; _ }
  | "L1", Store { l1; _ } ->
      bool_bit l1
  | "D1", Cmpp { d1; _ } -> d1
  | "IMM", Ldi { imm; _ } -> imm
  | "SD", Fpu { sd; _ } -> bool_bit sd
  | "TSS", Fpu { tss; _ } -> tss
  | "SCS", Load { scs; _ } -> scs
  | "TCS", Load { tcs; _ } | "TCS", Store { tcs; _ } -> tcs
  | "LAT", Load { lat; _ } -> lat
  | "COUNTER", Branch { counter; _ } -> counter
  | "TARGET", Branch { target; _ } -> target
  | _ -> raise Not_found

let fields op =
  let layout = Format_spec.layout (kind op) in
  List.map (fun fd -> (fd, field_value op fd.Format_spec.fname)) layout

(* Word codec.  Every layout of Format_spec is compiled once, at module
   initialization, into the bit position of each field counted from the
   least significant bit of the 40-bit word (the first field of a layout
   is the most significant).  [to_word] and [of_word] are then shifts and
   masks over those positions; no bit position is written down twice. *)
type slot = { shift : int; width : int; mask : int }

type slots = {
  t_ : slot;
  s_ : slot;
  opt_ : slot;
  code_ : slot;
  pred_ : slot;
  src1_ : slot;
  src2_ : slot;
  dest_ : slot;
  bhwx_ : slot;
  l1_ : slot;
  d1_ : slot;
  imm_ : slot;
  sd_ : slot;
  tss_ : slot;
  scs_ : slot;
  tcs_ : slot;
  lat_ : slot;
  counter_ : slot;
  target_ : slot;
}

let slots_of_layout layout =
  let rec place hi acc = function
    | [] -> acc
    | (fd : Format_spec.field) :: rest ->
        let shift = hi - fd.width in
        place shift
          ((fd.fname, { shift; width = fd.width; mask = (1 lsl fd.width) - 1 })
          :: acc)
          rest
  in
  let placed = place Format_spec.op_bits [] layout in
  (* A field the format lacks gets a zero-width slot: it reads as 0 and
     accepts only 0. *)
  let at name =
    match List.assoc_opt name placed with
    | Some sl -> sl
    | None -> { shift = 0; width = 0; mask = 0 }
  in
  {
    t_ = at "T";
    s_ = at "S";
    opt_ = at "OPT";
    code_ = at "OPCODE";
    pred_ = at "PRED";
    src1_ = at "SRC1";
    src2_ = at "SRC2";
    dest_ = at "DEST";
    bhwx_ = at "BHWX";
    l1_ = at "L1";
    d1_ = at "D1";
    imm_ = at "IMM";
    sd_ = at "SD";
    tss_ = at "TSS";
    scs_ = at "SCS";
    tcs_ = at "TCS";
    lat_ = at "LAT";
    counter_ = at "COUNTER";
    target_ = at "TARGET";
  }

let alu_slots = slots_of_layout (Format_spec.layout K_alu)
let cmpp_slots = slots_of_layout (Format_spec.layout K_cmpp)
let ldi_slots = slots_of_layout (Format_spec.layout K_ldi)
let fpu_slots = slots_of_layout (Format_spec.layout K_fpu)
let load_slots = slots_of_layout (Format_spec.layout K_load)
let store_slots = slots_of_layout (Format_spec.layout K_store)
let branch_slots = slots_of_layout (Format_spec.layout K_branch)

let slots : Opcode.kind -> slots = function
  | K_alu -> alu_slots
  | K_cmpp -> cmpp_slots
  | K_ldi -> ldi_slots
  | K_fpu -> fpu_slots
  | K_load -> load_slots
  | K_store -> store_slots
  | K_branch -> branch_slots

(* Every format starts with the same prefix, so T/S/OPT/OPCODE sit at the
   same positions in every word and the opcode is found before the
   format is known. *)
let prefix_slots = slots_of_layout Format_spec.prefix

let () =
  List.iter
    (fun k ->
      let p = slots k in
      if
        p.t_ <> prefix_slots.t_ || p.s_ <> prefix_slots.s_
        || p.opt_ <> prefix_slots.opt_ || p.code_ <> prefix_slots.code_
      then failwith "Op: format prefix is not at the top of the word")
    Format_spec.kinds

let[@inline] get sl w = (w lsr sl.shift) land sl.mask
let[@inline] bit sl w = get sl w = 1

(* An over-wide or negative field is rejected with the message
   [Bits.Writer.add_bits] gives when [Encode.encode] writes it, so the
   word and the bitstream encoders fail alike. *)
let[@inline] put sl v =
  if v < 0 || v lsr sl.width <> 0 then
    invalid_arg "Bits.Writer.add_bits: value does not fit width";
  v lsl sl.shift

let opcode_of_word w =
  Opcode.of_code
    (Opcode.optype_of_code (get prefix_slots.opt_ w))
    (get prefix_slots.code_ w)

let opcode_point w = (get prefix_slots.opt_ w, get prefix_slots.code_ w)

let prefix_word ~tail ~spec ~opt ~code =
  let p = prefix_slots in
  (tail lsl p.t_.shift) lor (spec lsl p.s_.shift) lor (opt lsl p.opt_.shift)
  lor (code lsl p.code_.shift)

let to_word op =
  let opcode = opcode op in
  let p = slots (Opcode.kind opcode) in
  let head =
    put p.t_ (bool_bit op.tail)
    lor put p.s_ (bool_bit op.spec)
    lor put p.opt_ (Opcode.optype_code (Opcode.optype opcode))
    lor put p.code_ (Opcode.code opcode)
    lor put p.pred_ op.pred
  in
  match op.body with
  | Alu b ->
      check_kind K_alu opcode;
      head lor put p.src1_ b.src1 lor put p.src2_ b.src2 lor put p.bhwx_ b.bhwx
      lor put p.dest_ b.dest lor put p.l1_ (bool_bit b.l1)
  | Cmpp b ->
      check_kind K_cmpp opcode;
      head lor put p.src1_ b.src1 lor put p.src2_ b.src2 lor put p.bhwx_ b.bhwx
      lor put p.d1_ b.d1 lor put p.dest_ b.dest lor put p.l1_ (bool_bit b.l1)
  | Ldi b ->
      head lor put p.imm_ b.imm lor put p.dest_ b.dest
      lor put p.l1_ (bool_bit b.l1)
  | Fpu b ->
      check_kind K_fpu opcode;
      head lor put p.src1_ b.src1 lor put p.src2_ b.src2
      lor put p.sd_ (bool_bit b.sd) lor put p.tss_ b.tss lor put p.dest_ b.dest
      lor put p.l1_ (bool_bit b.l1)
  | Load b ->
      check_kind K_load opcode;
      head lor put p.src1_ b.src1 lor put p.bhwx_ b.bhwx lor put p.scs_ b.scs
      lor put p.tcs_ b.tcs lor put p.lat_ b.lat lor put p.dest_ b.dest
  | Store b ->
      check_kind K_store opcode;
      head lor put p.src1_ b.src1 lor put p.src2_ b.src2 lor put p.bhwx_ b.bhwx
      lor put p.tcs_ b.tcs lor put p.l1_ (bool_bit b.l1)
  | Branch b ->
      check_kind K_branch opcode;
      head lor put p.src1_ b.src1 lor put p.counter_ b.counter
      lor put p.target_ b.target

let of_word w =
  if w < 0 || w lsr Format_spec.op_bits <> 0 then
    invalid_arg (Printf.sprintf "Op.of_word: %#x is not a 40-bit word" w);
  match opcode_of_word w with
  | None ->
      let opt, code = opcode_point w in
      invalid_arg
        (Printf.sprintf "Op.of_word: undefined opcode point %d/%d" opt code)
  | Some opcode ->
      let kind = Opcode.kind opcode in
      let p = slots kind in
      let body =
        match kind with
        | K_alu ->
            Alu
              {
                opcode;
                src1 = get p.src1_ w;
                src2 = get p.src2_ w;
                bhwx = get p.bhwx_ w;
                dest = get p.dest_ w;
                l1 = bit p.l1_ w;
              }
        | K_cmpp ->
            Cmpp
              {
                opcode;
                src1 = get p.src1_ w;
                src2 = get p.src2_ w;
                bhwx = get p.bhwx_ w;
                d1 = get p.d1_ w;
                dest = get p.dest_ w;
                l1 = bit p.l1_ w;
              }
        | K_ldi ->
            Ldi { imm = get p.imm_ w; dest = get p.dest_ w; l1 = bit p.l1_ w }
        | K_fpu ->
            Fpu
              {
                opcode;
                src1 = get p.src1_ w;
                src2 = get p.src2_ w;
                sd = bit p.sd_ w;
                tss = get p.tss_ w;
                dest = get p.dest_ w;
                l1 = bit p.l1_ w;
              }
        | K_load ->
            Load
              {
                opcode;
                src1 = get p.src1_ w;
                bhwx = get p.bhwx_ w;
                scs = get p.scs_ w;
                tcs = get p.tcs_ w;
                lat = get p.lat_ w;
                dest = get p.dest_ w;
              }
        | K_store ->
            Store
              {
                opcode;
                src1 = get p.src1_ w;
                src2 = get p.src2_ w;
                bhwx = get p.bhwx_ w;
                tcs = get p.tcs_ w;
                l1 = bit p.l1_ w;
              }
        | K_branch ->
            Branch
              {
                opcode;
                src1 = get p.src1_ w;
                counter = get p.counter_ w;
                target = get p.target_ w;
              }
      in
      { tail = bit p.t_ w; spec = bit p.s_ w; pred = get p.pred_ w; body }

let regs op =
  let pred = if op.pred <> 0 then [ Reg.pr op.pred ] else [] in
  let body =
    match op.body with
    | Alu { src1; src2; dest; _ } -> [ Reg.gpr src1; Reg.gpr src2; Reg.gpr dest ]
    | Cmpp { src1; src2; dest; _ } ->
        [ Reg.gpr src1; Reg.gpr src2; Reg.pr dest ]
    | Ldi { dest; _ } -> [ Reg.gpr dest ]
    (* Conversions cross register files: ITOF reads a GPR, FTOI writes
       one. *)
    | Fpu { opcode = Opcode.ITOF; src1; src2; dest; _ } ->
        [ Reg.gpr src1; Reg.fpr src2; Reg.fpr dest ]
    | Fpu { opcode = Opcode.FTOI; src1; src2; dest; _ } ->
        [ Reg.fpr src1; Reg.fpr src2; Reg.gpr dest ]
    | Fpu { src1; src2; dest; _ } -> [ Reg.fpr src1; Reg.fpr src2; Reg.fpr dest ]
    (* The TCS field selects the target register file of a memory op
       (PlayDoh-style): TCS = 1 moves floating-point data. *)
    | Load { src1; dest; tcs; _ } ->
        [ Reg.gpr src1; (if tcs = 1 then Reg.fpr dest else Reg.gpr dest) ]
    | Store { src1; src2; tcs; _ } ->
        [ Reg.gpr src1; (if tcs = 1 then Reg.fpr src2 else Reg.gpr src2) ]
    | Branch { src1; counter; _ } -> [ Reg.gpr src1; Reg.gpr counter ]
  in
  pred @ body

let map_regs f op =
  let g = f in
  let gpr i = g (Reg.gpr i) and fpr i = g (Reg.fpr i) and pr i = g (Reg.pr i) in
  let body =
    match op.body with
    | Alu b -> Alu { b with src1 = gpr b.src1; src2 = gpr b.src2; dest = gpr b.dest }
    | Cmpp b ->
        Cmpp { b with src1 = gpr b.src1; src2 = gpr b.src2; dest = pr b.dest }
    | Ldi b -> Ldi { b with dest = gpr b.dest }
    | Fpu ({ opcode = Opcode.ITOF; _ } as b) ->
        Fpu { b with src1 = gpr b.src1; src2 = fpr b.src2; dest = fpr b.dest }
    | Fpu ({ opcode = Opcode.FTOI; _ } as b) ->
        Fpu { b with src1 = fpr b.src1; src2 = fpr b.src2; dest = gpr b.dest }
    | Fpu b -> Fpu { b with src1 = fpr b.src1; src2 = fpr b.src2; dest = fpr b.dest }
    | Load b ->
        Load
          {
            b with
            src1 = gpr b.src1;
            dest = (if b.tcs = 1 then fpr b.dest else gpr b.dest);
          }
    | Store b ->
        Store
          {
            b with
            src1 = gpr b.src1;
            src2 = (if b.tcs = 1 then fpr b.src2 else gpr b.src2);
          }
    | Branch b -> Branch { b with src1 = gpr b.src1; counter = gpr b.counter }
  in
  { op with pred = (if op.pred <> 0 then pr op.pred else 0); body }

let equal (a : t) b = a = b

let pp ppf op =
  let open Format in
  let pred_prefix () = if op.pred <> 0 then fprintf ppf "(p%d) " op.pred in
  pred_prefix ();
  (match op.body with
  | Alu { opcode; src1; src2; dest; _ } ->
      fprintf ppf "%s r%d, r%d, r%d" (Opcode.mnemonic opcode) dest src1 src2
  | Cmpp { opcode; src1; src2; dest; _ } ->
      fprintf ppf "%s p%d, r%d, r%d" (Opcode.mnemonic opcode) dest src1 src2
  | Ldi { imm; dest; _ } -> fprintf ppf "ldi r%d, #%d" dest imm
  | Fpu { opcode; src1; src2; dest; _ } ->
      fprintf ppf "%s f%d, f%d, f%d" (Opcode.mnemonic opcode) dest src1 src2
  | Load { opcode; src1; dest; lat; _ } ->
      fprintf ppf "%s r%d, [r%d] (lat %d)" (Opcode.mnemonic opcode) dest src1 lat
  | Store { opcode; src1; src2; _ } ->
      fprintf ppf "%s [r%d], r%d" (Opcode.mnemonic opcode) src1 src2
  | Branch { opcode; target; _ } ->
      fprintf ppf "%s bb%d" (Opcode.mnemonic opcode) target);
  if op.tail then fprintf ppf " ;;"

let to_string op = Format.asprintf "%a" pp op

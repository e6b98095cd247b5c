(** TEPIC operations.

    An operation is the RISC-like unit the scheduler packs into VLIW
    MultiOps.  Its in-memory form mirrors the encoding formats of
    {!Format_spec}: a common header (tail bit, speculative bit, predicate)
    plus a format-specific body.  The encoders in the compression pipeline
    run on the 40-bit word view ({!to_word}/{!of_word}); {!fields} is the
    named (field, value) view for inspection and diagnostics. *)

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
      dest : int;  (** destination predicate register *)
      l1 : bool;
    }
  | Ldi of { imm : int; dest : int; l1 : bool }  (** 20-bit literal *)
  | Fpu of {
      opcode : Opcode.t;
      src1 : int;
      src2 : int;
      sd : bool;  (** single/double *)
      tss : int;
      dest : int;
      l1 : bool;
    }
  | Load of {
      opcode : Opcode.t;
      src1 : int;  (** address register *)
      bhwx : int;
      scs : int;
      tcs : int;
      lat : int;  (** compiler-exposed latency *)
      dest : int;
    }
  | Store of {
      opcode : Opcode.t;
      src1 : int;  (** address register *)
      src2 : int;  (** data register *)
      bhwx : int;
      tcs : int;
      l1 : bool;
    }
  | Branch of {
      opcode : Opcode.t;
      src1 : int;
      counter : int;
      target : int;  (** block id in the original address space (16 bits) *)
    }

type t = {
  tail : bool;  (** set on the last op of a MultiOp (zero-NOP encoding) *)
  spec : bool;
  pred : int;  (** guarding predicate register; 0 = always execute *)
  body : body;
}

(** {1 Constructors}

    All take registers as plain indices of the class implied by the format
    (see {!regs}); fields default to the neutral value. *)

val alu :
  ?spec:bool -> ?pred:int -> ?bhwx:int -> ?l1:bool ->
  opcode:Opcode.t -> src1:int -> src2:int -> dest:int -> unit -> t

val cmpp :
  ?spec:bool -> ?pred:int -> ?bhwx:int -> ?d1:int -> ?l1:bool ->
  opcode:Opcode.t -> src1:int -> src2:int -> dest:int -> unit -> t

val ldi : ?spec:bool -> ?pred:int -> ?l1:bool -> imm:int -> dest:int -> unit -> t

val fpu :
  ?spec:bool -> ?pred:int -> ?sd:bool -> ?tss:int -> ?l1:bool ->
  opcode:Opcode.t -> src1:int -> src2:int -> dest:int -> unit -> t

val load :
  ?spec:bool -> ?pred:int -> ?bhwx:int -> ?scs:int -> ?tcs:int -> ?lat:int ->
  opcode:Opcode.t -> src1:int -> dest:int -> unit -> t

val store :
  ?spec:bool -> ?pred:int -> ?bhwx:int -> ?tcs:int ->
  opcode:Opcode.t -> src1:int -> src2:int -> unit -> t

val branch :
  ?spec:bool -> ?pred:int -> ?src1:int -> ?counter:int ->
  opcode:Opcode.t -> target:int -> unit -> t

(** {1 Accessors} *)

val opcode : t -> Opcode.t
val kind : t -> Opcode.kind
val is_memory : t -> bool
val is_branch : t -> bool
val is_conditional_branch : t -> bool

(** [branch_target op] is the target block id for branch ops with a static
    target ([BR], [BRCT], [BRCF], [BRL], [BRLC]); [None] otherwise. *)
val branch_target : t -> int option

val with_tail : bool -> t -> t
val with_target : int -> t -> t

(** {1 Word view}

    The 40-bit baseline image of an op as one integer, first layout field
    most significant (paper Table 2).  Field positions are derived from
    {!Format_spec.layout} once, at module initialization, so both
    directions are shifts and masks. *)

(** [to_word op] packs every field of [op] at its format's position;
    reserved fields are 0.  Raises [Invalid_argument "Bits.Writer.add_bits:
    value does not fit width"] — the error {!Encode.encode} gives — when a
    field value is negative or wider than its field (e.g. after a
    {!map_regs} to an index past the register file), and [Invalid_argument]
    when the body's format disagrees with the opcode's. *)
val to_word : t -> int

(** [of_word w] unpacks a 40-bit word; bits of reserved fields are
    ignored.  Inverse of {!to_word} on valid ops.  Raises [Invalid_argument]
    when [w] is not in [\[0, 2{^40})] or its OPT/OPCODE prefix is an
    undefined opcode point. *)
val of_word : int -> t

(** [opcode_of_word w] is the opcode named by the T/S/OPT/OPCODE prefix at
    the top of [w]; [None] for an undefined opcode point.  The prefix sits
    at the same position in every format, so this needs no format. *)
val opcode_of_word : int -> Opcode.t option

(** [opcode_point w] is the (OPT, OPCODE) field pair of [w]. *)
val opcode_point : int -> int * int

(** [prefix_word ~tail ~spec ~opt ~code] is the word holding only the
    given T, S, OPT and OPCODE field values (which must fit their
    fields); decoders OR the body fields into it. *)
val prefix_word : tail:int -> spec:int -> opt:int -> code:int -> int

(** {1 Named field view} *)

(** [fields op] lists (field, value) pairs in the encoding order of the
    op's format.  Reserved fields appear with value 0.  The list always
    matches [Format_spec.layout (kind op)] positionally.  Used to inspect
    and diagnose ops; no encoder runs on it. *)
val fields : t -> (Format_spec.field * int) list

(** [field_value op name] is the value of field [name]; raises [Not_found]
    if the format has no such field. *)
val field_value : t -> string -> int

(** {1 Register view} *)

(** [regs op] lists every register operand with its class, definition
    last — sources first, then the destination if any.  The guarding
    predicate register is included as a [Pr] use when nonzero. *)
val regs : t -> Reg.t list

(** [map_regs f op] rewrites every register field index through [f]
    (class-aware); used by the tailored encoder to renumber registers
    densely. *)
val map_regs : (Reg.t -> int) -> t -> t

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

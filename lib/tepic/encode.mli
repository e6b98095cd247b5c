(** Baseline 40-bit encoding of TEPIC operations (paper Table 2).

    The baseline image stores each op in exactly 5 bytes; a block of [n] ops
    occupies [5 n] bytes.  Decoding needs no context: the fixed T/S/OPT/
    OPCODE prefix selects the format.

    Every function here is word arithmetic over {!Op.to_word} and
    {!Op.of_word}: an op is one 40-bit integer, read or written in one
    piece.  Errors are part of the contract — a field that does not fit
    is rejected with ["Bits.Writer.add_bits: value does not fit width"],
    an undefined opcode point with ["Encode.decode: undefined opcode point
    OPT/OPCODE"] after exactly the 9 prefix bits are read, and a short
    stream with the reader's own exhaustion error. *)

(** [encode w op] appends the 40-bit image of [op] to [w].  Raises
    [Invalid_argument] like {!to_int}, before anything is written. *)
val encode : Bits.Writer.t -> Op.t -> unit

(** [decode r] reads one 40-bit op: the 9-bit prefix first, so an
    undefined opcode point is rejected (with [Invalid_argument]) before
    the remaining 31 bits are read. *)
val decode : Bits.Reader.t -> Op.t

(** [encode_ops ops] is the byte image of a sequence of ops. *)
val encode_ops : Op.t list -> string

(** [decode_ops ~count s] decodes [count] ops from a byte image. *)
val decode_ops : count:int -> string -> Op.t list

(** [to_int op] is the 40-bit image as a single integer — the symbol used by
    the full-op Huffman alphabet.  Raises [Invalid_argument "Bits.Writer.
    add_bits: value does not fit width"] when a field of [op] is negative or
    wider than its format allows, exactly as {!encode} does. *)
val to_int : Op.t -> int

(** [of_int v] decodes a 40-bit integer image.  Raises [Invalid_argument]
    with the message of {!encode}'s width check when [v] is outside
    [\[0, 2{^40})], and with {!decode}'s message on an undefined opcode
    point. *)
val of_int : int -> Op.t

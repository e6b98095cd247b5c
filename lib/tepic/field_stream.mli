(** Stream decomposition of operations for stream-based Huffman compression
    (paper §2.2, Figure 3).

    A stream configuration partitions the field names of every format into
    [nstreams] independent compression streams.  Certain fields repeat much
    more across ops when viewed in isolation — the OPT/OPCODE pair, or the
    almost-always-true PREDICATE — so compressing each stream with its own
    Huffman code beats a single code over whole bytes for some programs.

    Decodability requires the format-selecting prefix (T, S, OPT, OPCODE)
    to live in stream 0: the decoder first decodes the stream-0 symbol,
    learns the format, and from it the symbol widths of every other
    stream. *)

(** A validated configuration together with its compiled symbol plan:
    for every format, the width of each stream's symbol and the word
    segments it gathers.  Built once by {!make}; afterwards {!symbols},
    {!op_of_symbols} and {!widths} are shifts and masks over the op's
    40-bit word ({!Op.to_word}). *)
type t

(** [make ~name ~nstreams stream_of_field] validates the partition and
    compiles its plan.  Raises [Invalid_argument] unless [nstreams >= 1],
    every field of every format maps into [0 .. nstreams-1], and all of
    T, S, OPT, OPCODE map to stream 0. *)
val make : name:string -> nstreams:int -> (string -> int) -> t

val name : t -> string
val nstreams : t -> int

(** [stream_of_field t name] is the stream field [name] belongs to. *)
val stream_of_field : t -> string -> int

(** [widths t kind] is the bit width of each stream's symbol for ops of
    format [kind]; entries may be 0 when a stream has no field in that
    format.  The array belongs to the plan: do not mutate it. *)
val widths : t -> Opcode.kind -> int array

(** [symbols t op] is the per-stream (value, width) symbol vector of [op].
    Fields concatenate into the symbol in format layout order.  Raises
    like {!Op.to_word} on a field that does not fit its width. *)
val symbols : t -> Op.t -> (int * int) array

(** [op_of_symbols t kind values] reassembles an op from per-stream symbol
    values (widths implied by [kind]); bits above a symbol's width are
    ignored.  Inverse of {!symbols}.  Raises [Invalid_argument] on a
    wrong stream count, an undefined opcode point, or an opcode whose
    format is not [kind]. *)
val op_of_symbols : t -> Opcode.kind -> int array -> Op.t

(** [kind_of_stream0 t ~value ~width] decodes the format from a stream-0
    symbol: extracts OPT and OPCODE from their fixed positions.  Raises
    [Invalid_argument] for undefined opcode points. *)
val kind_of_stream0 : t -> value:int -> width:int -> Opcode.kind

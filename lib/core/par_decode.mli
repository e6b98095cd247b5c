(** Whole-image decode: one sequential verified walk over the blocks.

    Every block goes through {!Encoding.Scheme.decode_block_checked_at},
    the same verifying decode the per-block path uses, so a corrupt image
    yields the typed error of its first failing block.  The image is not
    split: the measured gain of a split was within noise (DESIGN §16), so
    [chunks] is always 1 and [resync_overhead_bits] always 0.  Both are
    kept because the [cccs-decode/1] schema and the benchmark read them. *)

(** What kind of block boundary the scheme has.  This is a description,
    not a licence: the walk is the same for every strategy. *)
type strategy =
  | Frames  (** protected framing: per-block length field + CRC guard *)
  | Fixed  (** every model source is a fixed-width field group *)
  | Sequential of { reason : string }
      (** no self-describing block boundary *)

(** Short machine-readable tag: ["frames"], ["fixed"], ["sequential"]. *)
val strategy_name : strategy -> string

(** Human-readable form including the reason. *)
val strategy_to_string : strategy -> string

(** [classify s] — O(1): protected schemes are [Frames]; book-free schemes
    with an all-[Fixed_bits] model are [Fixed]; anything else (unframed
    Huffman in particular) is [Sequential]. *)
val classify : Encoding.Scheme.t -> strategy

(** What a decode did. *)
type report = {
  strategy : strategy;
  chunks : int;  (** always 1 *)
  resync_overhead_bits : int;  (** always 0 *)
}

(** [decode ?obs s] — decode [s]'s compressed image back to the 40-bit
    baseline byte image, block by block, byte-aligning between blocks.
    To decode a corrupted copy, pass [{ s with image = copy }].

    With [obs] installed the walk is one [Decode]-stage span labelled
    with the scheme name.

    Returns the decoded image with a {!report}, or the typed error of the
    first failing block. *)
val decode :
  ?obs:Cccs_obs.Sink.t ->
  Encoding.Scheme.t ->
  (string * report, Encoding.Scheme.decode_error) result

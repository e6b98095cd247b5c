(* Whole-image decode: the sequential verified walk.

   Blocks are laid out back to back from bit 0, each padded to a byte
   boundary (Scheme.build_blocks, Scheme.protect).  The walk decodes each
   block through Scheme.decode_block_checked_at, re-encodes its ops to the
   40-bit baseline layout and skips the padding on both sides, so its
   output is the baseline image and its first error is the one a
   seek-per-block decode would report first.

   The image used to be split across worker domains at frame or
   fixed-width boundaries; the split never won by more than noise, so it
   is gone (DESIGN §16).  [classify] survives as a description of the
   block boundaries. *)

module Scheme = Encoding.Scheme

type strategy = Frames | Fixed | Sequential of { reason : string }

let strategy_name = function
  | Frames -> "frames"
  | Fixed -> "fixed"
  | Sequential _ -> "sequential"

let strategy_to_string = function
  | Frames -> "frames (length+guard per block)"
  | Fixed -> "fixed (fixed-width decode model)"
  | Sequential { reason } -> Printf.sprintf "sequential (%s)" reason

let classify (s : Scheme.t) =
  if s.frame.protection <> Scheme.Unprotected then Frames
  else
    match s.books with
    | _ :: _ -> Sequential { reason = "unframed variable-length codewords" }
    | [] ->
        if
          s.model <> []
          && List.for_all
               (function Scheme.Fixed_bits _ -> true | _ -> false)
               s.model
        then Fixed
        else Sequential { reason = "no fixed-width decode model" }

type report = { strategy : strategy; chunks : int; resync_overhead_bits : int }

let walk (s : Scheme.t) =
  let r = Bits.Reader.of_string s.image in
  let w =
    Bits.Writer.create ~initial_bytes:(max 64 (2 * String.length s.image)) ()
  in
  let n = Array.length s.block_offset_bits in
  let rec go k =
    if k >= n then Ok (Bits.Writer.contents w)
    else
      match Scheme.decode_block_checked_at s r k with
      | Error e -> Error e
      | Ok ops ->
          List.iter (Tepic.Encode.encode w) ops;
          ignore (Bits.Writer.align_byte w);
          ignore (Bits.Reader.align_byte r);
          go (k + 1)
  in
  go 0

let decode ?obs (s : Scheme.t) =
  let out =
    match obs with
    | None -> walk s
    | Some obs ->
        Cccs_obs.Sink.timed ~obs ~stage:Cccs_obs.Event.Decode ~label:s.name
          (fun () -> walk s)
  in
  Result.map
    (fun img ->
      (img, { strategy = classify s; chunks = 1; resync_overhead_bits = 0 }))
    out

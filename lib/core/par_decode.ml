(* Speculative parallel decode of a single compressed image.

   One image, several worker domains: the image is cut at block boundaries
   into contiguous chunks (Huffman.Par_decode plans where), each chunk is
   decoded independently back to the 40-bit baseline encoding, and the
   per-chunk outputs are concatenated in order.  The contract is bit-exact
   equality with the sequential decode — same output image, and on corrupt
   input the same typed error at the same bit position — enforced by the
   differential tests at every jobs count.

   Whether a block boundary may be *trusted* as a chunk start is a proof
   obligation, answered per scheme by classification:

   - Frames: a protected scheme ([Scheme.protect]) carries an explicit
     length field and CRC guard word per block; boundaries are
     self-describing and a corrupted length cannot silently shift them —
     the guard check catches it.
   - Fixed: every code source in the scheme's declarative model is a
     fixed-width field group (base, tailored, dict), so block extents are
     arithmetic over the published widths; no decode context crosses a
     boundary.
   - Resync: an unframed Huffman scheme qualifies only when every codebook's
     decode DFA is certified recoverable with a finite resynchronization
     bound (Decode_dfa.certify_sync, the machinery behind the W107 fault
     model).  The bound caps speculative over-read: a decoder entering at a
     stale boundary provably re-merges with the true decode within
     [resync_bits] bits, so the per-cut worst case is known, reported as
     [resync_overhead_bits] next to every benchmark row.
   - Sequential: no certificate — the scheme decodes in one chunk.  Same
     code path, one chunk, so the fallback is trivially bit-exact too.

   The chunk plan is cost-model driven (Huffman.Par_decode.min_chunk_bits):
   a calibration probe measures the decoder's ns/bit once per process, and
   chunks are sized so spawn overhead stays under 1/overhead_budget of the
   work — on images too small to split, the plan degenerates to one chunk
   and no domain is spawned.  Together with Parallel's core-count clamp
   this is the never-lose rule: requesting [--jobs 4] can reduce to the
   sequential decode, never to something slower. *)

module Scheme = Encoding.Scheme

type strategy =
  | Frames
  | Fixed
  | Resync of { resync_bits : int }
  | Sequential of { reason : string }

let strategy_name = function
  | Frames -> "frames"
  | Fixed -> "fixed"
  | Resync _ -> "resync"
  | Sequential _ -> "sequential"

let strategy_to_string = function
  | Frames -> "frames (length+guard per block)"
  | Fixed -> "fixed (fixed-width decode model)"
  | Resync { resync_bits } ->
      Printf.sprintf "resync (certified <= %d bits)" resync_bits
  | Sequential { reason } -> Printf.sprintf "sequential (%s)" reason

let classify_uncached (s : Scheme.t) =
  if s.frame.protection <> Scheme.Unprotected then Frames
  else
    match s.books with
    | [] ->
        if
          s.model <> []
          && List.for_all
               (function Scheme.Fixed_bits _ -> true | _ -> false)
               s.model
        then Fixed
        else Sequential { reason = "no fixed-width decode model" }
    | books ->
        (* Every codebook must come with a DFA-certified finite
           resynchronization bound; one uncertifiable book disqualifies
           the whole scheme (its codewords interleave with the rest). *)
        let rec go worst = function
          | [] -> Resync { resync_bits = worst }
          | (name, cb) :: rest -> (
              match
                Cccs_analysis.Decode_dfa.of_canonical
                  (Huffman.Codebook.canonical cb)
              with
              | Error c ->
                  Sequential
                    {
                      reason =
                        Printf.sprintf "book %s: %s" name
                          (Cccs_analysis.Decode_dfa.conflict_to_string c);
                    }
              | Ok dfa -> (
                  let sync = Cccs_analysis.Decode_dfa.certify_sync dfa in
                  match sync.Cccs_analysis.Decode_dfa.resync_bits with
                  | Some b when sync.Cccs_analysis.Decode_dfa.recoverable ->
                      go (max worst b) rest
                  | _ ->
                      Sequential
                        {
                          reason =
                            Printf.sprintf
                              "book %s: resynchronization unbounded" name;
                        }))
        in
        go 0 books

(* The frame/fixed arms of classification are O(1), but certifying a
   codebook runs the DFA pair-automaton analysis — 3-13 k DFA states and
   up to ~4x10^7 state pairs for the full book — so the verdict is
   memoized per domain (domain-local, like every other cache feeding
   Parallel workers).  Scheme construction is deterministic, so name +
   image digest identifies the books. *)
let classify_cache : (string, strategy) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 16)

let classify (s : Scheme.t) =
  match s.books with
  | [] -> classify_uncached s
  | _ -> (
      let key =
        s.Scheme.name ^ ":" ^ Digest.to_hex (Digest.string s.Scheme.image)
      in
      let tbl = Domain.DLS.get classify_cache in
      match Hashtbl.find_opt tbl key with
      | Some st -> st
      | None ->
          let st = classify_uncached s in
          Hashtbl.add tbl key st;
          st)

let resync_overhead_bits ~strategy ~chunks =
  match strategy with
  | Resync { resync_bits } -> max 0 (chunks - 1) * resync_bits
  | Frames | Fixed | Sequential _ -> 0

(* ------------------------------------------------------------------ *)
(* Calibration probe: decode a bounded prefix of the image, time it,
   derive ns/bit for the chunk cost model.  Cached per process — the
   figure parameterizes a minimum chunk size, not a benchmark.  Sys.time
   is the only clock lib/core may use; when the prefix is too fast for
   its resolution the probe reports NaN and the cost model falls back to
   its deliberately fast default (bigger chunks — never a loss). *)

let probe_cache : float option Atomic.t = Atomic.make None
let probe_prefix_bits = 1 lsl 16
let probe_min_elapsed = 0.05
let probe_max_reps = 64

let measure_ns_per_bit (s : Scheme.t) =
  match Atomic.get probe_cache with
  | Some v -> v
  | None ->
      let n = Array.length s.block_offset_bits in
      let last = ref (-1) and bits = ref 0 in
      (try
         for i = 0 to n - 1 do
           if !bits >= probe_prefix_bits then raise Exit;
           bits := !bits + s.block_bits.(i);
           last := i
         done
       with Exit -> ());
      let v =
        if !last < 0 || !bits <= 0 then Float.nan
        else begin
          let decode_prefix () =
            let r = Bits.Reader.of_string s.image in
            Bits.Reader.seek r s.block_offset_bits.(0);
            try
              for k = 0 to !last do
                (match Scheme.decode_block_checked_at s r k with
                | Ok _ -> ()
                | Error _ -> raise Exit);
                ignore (Bits.Reader.align_byte r)
              done
            with Exit -> ()
          in
          let t0 = Sys.time () in
          let reps = ref 0 and elapsed = ref 0.0 in
          while !elapsed < probe_min_elapsed && !reps < probe_max_reps do
            decode_prefix ();
            incr reps;
            elapsed := Sys.time () -. t0
          done;
          if !elapsed < probe_min_elapsed then Float.nan
          else !elapsed *. 1e9 /. float_of_int (!bits * !reps)
        end
      in
      (* Concurrent probes (decode inside a sweep worker) at worst
         duplicate the measurement; last write wins. *)
      Atomic.set probe_cache (Some v);
      v

(* ------------------------------------------------------------------ *)

type report = {
  strategy : strategy;
  jobs : int;
  chunks : int;
  min_chunk_bits : int;
  resync_overhead_bits : int;
}

(* Decode one chunk's blocks back-to-back: every block goes through the
   same verifying decode as the sequential path (decode_block_checked_at),
   with byte-alignment skipped between blocks instead of re-seeking, so a
   chunk is a faithful slice of the sequential walk — identical output
   bits, identical typed errors at identical positions. *)
let decode_chunk ?obs (s : Scheme.t) ~image (c : Huffman.Par_decode.chunk) =
  let run () =
    let r = Bits.Reader.of_string image in
    match Bits.Reader.seek r c.Huffman.Par_decode.start_bit with
    | exception exn ->
        Error
          {
            Scheme.scheme = s.Scheme.name;
            block = c.Huffman.Par_decode.first;
            bit = Bits.Reader.pos r;
            reason =
              (match exn with
              | Invalid_argument m | Failure m -> m
              | e -> Printexc.to_string e);
          }
    | () ->
        let w =
          Bits.Writer.create
            ~initial_bytes:(max 64 (c.Huffman.Par_decode.bits / 4))
            ()
        in
        let stop = c.Huffman.Par_decode.first + c.Huffman.Par_decode.count in
        let rec go k =
          if k >= stop then Ok (Bits.Writer.contents w)
          else
            match Scheme.decode_block_checked_at s r k with
            | Error e -> Error e
            | Ok ops ->
                List.iter (Tepic.Encode.encode w) ops;
                ignore (Bits.Writer.align_byte w);
                ignore (Bits.Reader.align_byte r);
                go (k + 1)
        in
        go c.Huffman.Par_decode.first
  in
  match obs with
  | None -> run ()
  | Some obs ->
      Cccs_obs.Sink.timed ~obs ~stage:Cccs_obs.Event.Decode
        ~label:(Printf.sprintf "chunk%d" c.Huffman.Par_decode.id)
        run

let decode ?jobs ?force ?obs ?min_chunk_bits:mcb ?image (s : Scheme.t) =
  let image = match image with Some i -> i | None -> s.Scheme.image in
  let strategy = classify s in
  let n = Array.length s.Scheme.block_offset_bits in
  let requested = Parallel.effective_jobs ?force ?jobs (max 1 n) in
  (* A shared observability sink cannot accept concurrent emitters, and a
     scheme without a splitting certificate has no safe cut points: both
     degrade to one chunk through the identical code path. *)
  let jobs_eff =
    match (strategy, obs) with
    | Sequential _, _ | _, Some _ -> 1
    | _, None -> requested
  in
  let min_bits =
    match mcb with
    | Some b -> max 0 b
    | None ->
        if jobs_eff <= 1 then 0
        else
          Huffman.Par_decode.min_chunk_bits
            Huffman.Par_decode.default_cost_model
            ~ns_per_bit:(measure_ns_per_bit s)
  in
  let chunks =
    Huffman.Par_decode.plan ~offsets:s.Scheme.block_offset_bits
      ~sizes:s.Scheme.block_bits ~jobs:jobs_eff ~min_bits
  in
  (* Pre-warm the lazy LUT decode tables before any domain spawns:
     Canonical builds them on first read through a mutable field, and
     Domain.spawn provides the happens-before that makes a pre-built
     table safe to share (concurrent first-builds would race). *)
  if Array.length chunks > 1 then
    List.iter
      (fun (_, cb) ->
        let c = Huffman.Codebook.canonical cb in
        if Huffman.Canonical.lut_eligible c then
          ignore (Huffman.Canonical.table c))
      s.Scheme.books;
  let results =
    Parallel.map ?force ~jobs:jobs_eff
      (decode_chunk ?obs s ~image)
      (Array.to_list chunks)
  in
  (* Chunks cover disjoint increasing block ranges and every block decodes
     from its own offset, so the first Error in chunk order carries the
     smallest failing block — exactly the error the sequential walk stops
     at. *)
  match
    List.find_map (function Error e -> Some e | Ok _ -> None) results
  with
  | Some e -> Error e
  | None ->
      let pieces =
        List.map (function Ok p -> p | Error _ -> assert false) results
      in
      let nchunks = Array.length chunks in
      Ok
        ( Huffman.Par_decode.gather pieces,
          {
            strategy;
            jobs = jobs_eff;
            chunks = nchunks;
            min_chunk_bits = min_bits;
            resync_overhead_bits =
              resync_overhead_bits ~strategy ~chunks:nchunks;
          } )

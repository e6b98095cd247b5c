(* Golden decode verdicts of bit-flipped images.

   For compress and ijpeg, every figure scheme plus [full] under a CRC-16
   frame is built, a seeded copy of its image gets [flips] bit flips, and
   every block of the copy goes through [Scheme.decode_block_checked
   ~image].  A block holding a flip is recorded on its own line: [ok]
   with a digest of the decoded ops (their 40-bit baseline bytes), or the
   typed error's bit and reason.  Blocks without a flip are folded into
   one [clean] digest per image.  The rendering is compared byte for byte
   with test/fixtures/faulted_verdicts.json, so any change to a decoder's
   verdict, error position or message shows up here.

   On a mismatch the test writes the new rendering to
   faulted_verdicts.actual.json in its working directory
   (_build/default/test) — copy it over the fixture only when the change
   in verdicts is intended. *)

let workloads = [ "compress"; "ijpeg" ]
let seed = 20261017
let flips = 24

let schemes_of name =
  let e =
    match Workloads.Suite.find name with
    | Some e -> e
    | None -> failwith ("faulted_verdicts: no workload " ^ name)
  in
  let s = Cccs.Experiments.schemes_of (Cccs.Workload_run.load e) in
  Cccs.Experiments.all_schemes s
  @ [
      ("dict", s.Cccs.Experiments.dict);
      ( "full+crc16",
        Encoding.Scheme.protect Encoding.Scheme.Crc16 s.Cccs.Experiments.full );
    ]

let hex s = Digest.to_hex (Digest.string s)
let quote s = Cccs_obs.Json.to_string (Cccs_obs.Json.Str s)

let render_image buf ~workload (name, (sc : Encoding.Scheme.t)) =
  let image = sc.Encoding.Scheme.image in
  let offsets = sc.Encoding.Scheme.block_offset_bits in
  let n = Array.length offsets in
  let rng =
    Cccs.Faults.Rng.create
      (Cccs.Faults.Rng.mix seed (Printf.sprintf "%s/%s" workload name))
  in
  let positions =
    List.init flips (fun _ -> Cccs.Faults.Rng.int rng (8 * String.length image))
    |> List.sort_uniq compare
  in
  let flipped = Bits.flip_bits image positions in
  let block_end i =
    if i + 1 < n then offsets.(i + 1) else 8 * String.length image
  in
  let hit i = List.exists (fun p -> p >= offsets.(i) && p < block_end i) positions in
  let clean = Buffer.create 4096 in
  let lines = ref [] in
  for i = 0 to n - 1 do
    let verdict =
      match Encoding.Scheme.decode_block_checked ~image:flipped sc i with
      | Ok ops -> `Ok (Tepic.Encode.encode_ops ops)
      | Error e -> `Error (e.Encoding.Scheme.bit, e.Encoding.Scheme.reason)
    in
    if hit i then
      lines :=
        (match verdict with
        | `Ok bytes -> Printf.sprintf "{\"block\": %d, \"ok\": %S}" i (hex bytes)
        | `Error (bit, reason) ->
            Printf.sprintf "{\"block\": %d, \"bit\": %d, \"reason\": %s}" i bit
              (quote reason))
        :: !lines
    else begin
      Buffer.add_string clean (string_of_int i);
      match verdict with
      | `Ok bytes -> Buffer.add_string clean (hex bytes)
      | `Error (bit, reason) ->
          Buffer.add_string clean (Printf.sprintf "error@%d:%s" bit reason)
    end
  done;
  Printf.bprintf buf
    "  {\"workload\": %S, \"scheme\": %S, \"blocks\": %d, \"clean\": %S,\n\
    \   \"verdicts\": [\n"
    workload name n (hex (Buffer.contents clean));
  List.iteri
    (fun k l ->
      if k > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf ("    " ^ l))
    (List.rev !lines);
  Buffer.add_string buf "\n  ]}"

let render () =
  let buf = Buffer.create 65536 in
  Printf.bprintf buf
    "{\"schema\": \"cccs-faulted-verdicts/1\", \"seed\": %d, \"flips\": %d,\n\
     \"images\": [\n"
    seed flips;
  let first = ref true in
  List.iter
    (fun workload ->
      List.iter
        (fun img ->
          if not !first then Buffer.add_string buf ",\n";
          first := false;
          render_image buf ~workload img)
        (schemes_of workload))
    workloads;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

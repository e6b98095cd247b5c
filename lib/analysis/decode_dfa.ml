(* Decode_dfa — the explicit decode automaton behind a prefix codebook.

   The certification pass (Certify) needs proofs, not samples, so this
   module materializes the decoder a codebook *specifies* as a binary
   trie/DFA and then answers questions about it by exhaustive state
   enumeration:

   - construction itself proves prefix-freeness (a codeword running
     through an emitting state, or two codewords sharing a path, is a
     structural conflict — reported, never papered over);
   - [prove_total] walks every reachable state and shows each one either
     emits a symbol or rejects at a bounded bit position, which is the
     totality obligation of the fetch-path decoder;
   - [run] replays any bit pattern through the automaton, the oracle the
     two-level LUT is compared against slot by slot;
   - [certify_sync] analyzes the pair automaton (clean decoder state x
     corrupted decoder state) under the single-bit-substitution fault
     model and extracts proven resynchronization bounds, upgrading the
     empirical W107 sweep to a static certificate.

   States are the trie nodes; state 0 is the root.  Edges consume one bit
   MSB-first.  A state with [emit >= 0] is a leaf: entering it emits that
   symbol and the decoder restarts at the root. *)

type t = {
  max_len : int;
  nstates : int;
  next : int array;  (* 2*nstates: next.(2s+b), -1 = no edge (reject) *)
  emit : int array;  (* per state: symbol emitted on entry, -1 = internal *)
  depth : int array;  (* per state: bits consumed from the root *)
}

type conflict =
  | Prefix of { shorter : int; longer : int }  (* symbols *)
  | Duplicate of { first : int; second : int }
  | Bad_length of { symbol : int; length : int }

let conflict_to_string = function
  | Prefix { shorter; longer } ->
      Printf.sprintf
        "codeword for symbol %#x is a prefix of the codeword for symbol %#x"
        shorter longer
  | Duplicate { first; second } ->
      Printf.sprintf "symbols %#x and %#x share one codeword" first second
  | Bad_length { symbol; length } ->
      Printf.sprintf
        "symbol %#x has codeword length %d outside the declared bound" symbol
        length

let of_codes ~max_len codes =
  let cap = List.fold_left (fun a (_, _, l) -> a + l) 1 codes in
  let next = Array.make (2 * cap) (-1) in
  let emit = Array.make cap (-1) in
  let depth = Array.make cap 0 in
  let n = ref 1 in
  let exception Conflict of conflict in
  (* Any leaf below [s]; total because internal states always have a
     child (they exist only on codeword paths). *)
  let rec leaf_below s =
    if emit.(s) >= 0 then emit.(s)
    else leaf_below (if next.(2 * s) >= 0 then next.(2 * s) else next.((2 * s) + 1))
  in
  try
    List.iter
      (fun (sym, code, len) ->
        if len < 1 || len > max_len then
          raise (Conflict (Bad_length { symbol = sym; length = len }));
        let s = ref 0 in
        for j = len - 1 downto 0 do
          if emit.(!s) >= 0 then
            raise (Conflict (Prefix { shorter = emit.(!s); longer = sym }));
          let b = (code lsr j) land 1 in
          let t = next.((2 * !s) + b) in
          if t >= 0 then s := t
          else begin
            let t = !n in
            incr n;
            depth.(t) <- depth.(!s) + 1;
            next.((2 * !s) + b) <- t;
            s := t
          end
        done;
        if emit.(!s) >= 0 then
          raise (Conflict (Duplicate { first = emit.(!s); second = sym }));
        if next.(2 * !s) >= 0 || next.((2 * !s) + 1) >= 0 then
          raise (Conflict (Prefix { shorter = sym; longer = leaf_below !s }));
        emit.(!s) <- sym)
      codes;
    Ok
      {
        max_len;
        nstates = !n;
        next = Array.sub next 0 (2 * !n);
        emit = Array.sub emit 0 !n;
        depth = Array.sub depth 0 !n;
      }
  with Conflict c -> Error c

let of_canonical c = of_codes ~max_len:(Huffman.Canonical.max_length c)
    (Huffman.Canonical.to_list c)

(* ------------------------------------------------------------------ *)
(* Totality: exhaustive enumeration over every state.                  *)

type totality = {
  states : int;  (** states enumerated (all of them) *)
  worst_bits : int;  (** certified worst-case bits per emitted symbol *)
  reject_prefixes : int;  (** missing edges: bounded-reject points *)
  complete : bool;  (** no reject prefix — every bit pattern decodes *)
}

type violation = { state : int; depth : int; reason : string }

let prove_total t =
  (* Construction guarantees reachability of every state (each lies on a
     codeword path), so enumerating the arrays IS the exhaustive state
     walk; the checks below re-prove the invariants rather than trust the
     builder. *)
  let worst = ref 0 and rejects = ref 0 in
  let bad = ref None in
  for s = 0 to t.nstates - 1 do
    if !bad = None then
      if t.emit.(s) >= 0 then begin
        if t.next.(2 * s) >= 0 || t.next.((2 * s) + 1) >= 0 then
          bad := Some { state = s; depth = t.depth.(s);
                        reason = "emitting state has outgoing edges" };
        if t.depth.(s) > t.max_len then
          bad := Some { state = s; depth = t.depth.(s);
                        reason = "symbol emitted past the declared maximum \
                                  code length" };
        if t.depth.(s) > !worst then worst := t.depth.(s)
      end
      else begin
        (* Internal: the decoder consumes bit [depth+1] here; both that
           consumption and a missing-edge reject must stay within the
           declared bound. *)
        if t.depth.(s) >= t.max_len then
          bad := Some { state = s; depth = t.depth.(s);
                        reason = "non-emitting state can consume past the \
                                  declared maximum code length" };
        if s > 0 && t.next.(2 * s) < 0 && t.next.((2 * s) + 1) < 0 then
          bad := Some { state = s; depth = t.depth.(s);
                        reason = "dead internal state (no edges, no symbol)" };
        if t.next.(2 * s) < 0 then incr rejects;
        if t.next.((2 * s) + 1) < 0 then incr rejects
      end
  done;
  match !bad with
  | Some v -> Error v
  | None ->
      Ok
        {
          states = t.nstates;
          worst_bits = !worst;
          reject_prefixes = !rejects;
          complete = !rejects = 0;
        }

(* ------------------------------------------------------------------ *)
(* Replay: the oracle the LUT is compared against.                     *)

type outcome =
  | Emits of { symbol : int; length : int }
  | Rejects of { at_bit : int }
  | Continues of { state : int }

let run t ~width w =
  let rec go s j =
    if j >= width then if t.emit.(s) >= 0 then
        Emits { symbol = t.emit.(s); length = t.depth.(s) }
      else Continues { state = s }
    else if t.emit.(s) >= 0 then
      Emits { symbol = t.emit.(s); length = t.depth.(s) }
    else
      let b = (w lsr (width - 1 - j)) land 1 in
      let s' = t.next.((2 * s) + b) in
      if s' < 0 then Rejects { at_bit = j + 1 } else go s' (j + 1)
  in
  go 0 0

(* ------------------------------------------------------------------ *)
(* Resynchronization: the pair automaton (clean state, corrupted state)
   under single-bit substitution.

   A flip inside a codeword sends the corrupted decoder down the sibling
   edge of the clean one; from then on both consume the same (clean)
   bits.  We therefore take as initial pairs every (step s b, step s !b)
   with both edges defined, restrict the clean component to transitions
   the valid stream can actually contain, and absorb a pair when the two
   states coincide (resynchronized) or the corrupted side rejects
   (detected).  Exhaustive search over this finite pair graph yields
   either a proven worst-case bit bound or the cycle that makes the
   desynchronization unbounded within a block.

   Separately, the classical synchronizing-sequence question — can ANY
   window of stream bits force every decoder state into lock-step? — is
   answered over unrestricted words (rejects become a shared absorbing
   error state): if every state pair is mergeable within d bits, a
   synchronizing sequence of at most (live-1)*d bits exists.

   Pair graphs are not small: a `full` book has 3-13 k DFA states, about
   half of them live, so up to ~4x10^7 state pairs.  Everything below therefore runs over flat
   integer tables built once per DFA — a successor table over live ids
   and per-bit predecessor lists — and touches each pair edge a bounded
   number of times: O(n^2 + edges) time, one n^2 int array and two
   n^2-bit candidate sets of memory. *)

type sync = {
  live_states : int;
  pairs_reachable : int;  (** non-absorbed pairs reachable from a flip *)
  recoverable : bool;
      (** every reachable pair can still merge or be detected *)
  resync_bits : int option;
      (** proven worst-case bits from flip to merge/detection *)
  sync_word_bits : int option;
      (** upper bound on a universal synchronizing sequence *)
}

let certify_sync t =
  (* Live (internal) states, renumbered densely; the root is live. *)
  let live = Array.make t.nstates (-1) in
  let nlive = ref 0 in
  for s = 0 to t.nstates - 1 do
    if t.emit.(s) < 0 then begin
      live.(s) <- !nlive;
      incr nlive
    end
  done;
  let nlive = !nlive in
  (* Successor table over live ids, su.(2l+b): entering an emitting state
     restarts at the root (live id 0); a missing edge enters the Error
     pseudo-state [err], which loops on both bits.  [err] joins the state
     universe only when some live state has a missing edge, i.e. when it
     is actually reachable; for complete codes (every Huffman book is) it
     would otherwise poison the mergeability check with unreachable
     pairs. *)
  let err = nlive in
  let su = Array.make (2 * (nlive + 1)) err in
  let has_reject = ref false in
  for s = 0 to t.nstates - 1 do
    let l = live.(s) in
    if l >= 0 then
      for b = 0 to 1 do
        let x = t.next.((2 * s) + b) in
        if x < 0 then has_reject := true
        else su.((2 * l) + b) <- (if t.emit.(x) >= 0 then 0 else live.(x))
      done
  done;
  let n = if !has_reject then nlive + 1 else nlive in
  (* Per-bit predecessor lists (CSR): the states stepping into x on bit b
     are pred.(b*n + i) for poff.(b*(n+1) + x) <= i < poff.(b*(n+1) + x+1). *)
  let poff = Array.make (2 * (n + 1)) 0 and pred = Array.make (2 * n) 0 in
  for b = 0 to 1 do
    let o = b * (n + 1) in
    for s = 0 to n - 1 do
      let x = o + su.((2 * s) + b) + 1 in
      poff.(x) <- poff.(x) + 1
    done;
    for x = 1 to n do
      poff.(o + x) <- poff.(o + x) + poff.(o + x - 1)
    done;
    let fill = Array.sub poff o n in
    for s = 0 to n - 1 do
      let x = su.((2 * s) + b) in
      pred.((b * n) + fill.(x)) <- s;
      fill.(x) <- fill.(x) + 1
    done
  done;
  (* Pair (u, v) has index u*n + v; [tbl] maps pair indices to the dense
     reachable-pair numbering, and is reused for merge distances below. *)
  let npairs = n * n in
  let tbl = Array.make npairs (-1) in
  (* ---- flip-reachable pair graph, clean component valid ---------- *)
  (* u: clean decoder, v: corrupted; equal means merged (absorbed).
     [pairs] lists the reachable pairs in discovery order and doubles as
     the BFS queue; absorbing outcomes are not stored. *)
  let pairs = ref (Array.make 256 0) and nr = ref 0 in
  let add u v =
    if u <> v then begin
      let p = (u * n) + v in
      if tbl.(p) < 0 then begin
        if !nr = Array.length !pairs then begin
          let a = Array.make (2 * !nr) 0 in
          Array.blit !pairs 0 a 0 !nr;
          pairs := a
        end;
        !pairs.(!nr) <- p;
        tbl.(p) <- !nr;
        incr nr
      end
    end
  in
  for s = 0 to nlive - 1 do
    let u = su.(2 * s) and v = su.((2 * s) + 1) in
    (* flip of the bit consumed at s, both directions; a missing sibling
       edge: the corrupted stream rejects on the flipped bit itself —
       detected within one bit, nothing to add *)
    if u <> err && v <> err then begin
      add u v;
      add v u
    end
  done;
  let ninitial = !nr in
  let i = ref 0 in
  while !i < !nr do
    let p = !pairs.(!i) in
    let u = p / n and v = p mod n in
    for b = 0 to 1 do
      let u' = su.((2 * u) + b) in
      (* u' = err: the valid stream cannot contain b here;
         v' = err: detected, absorbing *)
      if u' <> err then begin
        let v' = su.((2 * v) + b) in
        if v' <> err then add u' v'
      end
    done;
    incr i
  done;
  let nr = !nr and pairs = !pairs in
  (* Dense successor edges: out.(2r+b) is the successor pair on bit b,
     [absorbed] if that bit merges or is detected, [no_edge] if the valid
     stream cannot contain it.  Reverse edges in CSR form (ridx/roff). *)
  let no_edge = -1 and absorbed = -2 in
  let out = Array.make (2 * nr) no_edge in
  let roff = Array.make (nr + 1) 0 in
  for r = 0 to nr - 1 do
    let p = pairs.(r) in
    let u = p / n and v = p mod n in
    for b = 0 to 1 do
      let u' = su.((2 * u) + b) in
      if u' <> err then begin
        let v' = su.((2 * v) + b) in
        if v' = err || u' = v' then out.((2 * r) + b) <- absorbed
        else begin
          let r' = tbl.((u' * n) + v') in
          out.((2 * r) + b) <- r';
          roff.(r' + 1) <- roff.(r' + 1) + 1
        end
      end
    done
  done;
  for r = 1 to nr do
    roff.(r) <- roff.(r) + roff.(r - 1)
  done;
  let ridx = Array.make roff.(nr) 0 in
  let fill = Array.sub roff 0 nr in
  for e = 0 to (2 * nr) - 1 do
    let r' = out.(e) in
    if r' >= 0 then begin
      ridx.(fill.(r')) <- e / 2;
      fill.(r') <- fill.(r') + 1
    end
  done;
  (* Co-reachability of an absorbing outcome: a pair is good if some
     valid transition is absorbing or leads to a good pair.  Reverse-edge
     worklist from the absorbing pairs. *)
  let good = Bytes.make nr '\000' in
  let work = Array.make nr 0 and top = ref 0 in
  let mark r =
    if Bytes.get good r = '\000' then begin
      Bytes.set good r '\001';
      work.(!top) <- r;
      incr top
    end
  in
  for r = 0 to nr - 1 do
    if out.(2 * r) = absorbed || out.((2 * r) + 1) = absorbed then mark r
  done;
  let ngood = ref 0 in
  while !top > 0 do
    decr top;
    let r = work.(!top) in
    incr ngood;
    for e = roff.(r) to roff.(r + 1) - 1 do
      mark ridx.(e)
    done
  done;
  let recoverable = !ngood = nr in
  (* Worst-case bits to absorption: longest path over the reachable pair
     graph; a cycle means unbounded.  Kahn's order from the sinks: a pair
     is settled once all its successor pairs are, so an unsettled pair
     at the end lies on or above a cycle.  An edge to absorption counts
     1 bit; the flipped bit itself is bit 1. *)
  let outdeg = Array.make nr 0 in
  for e = 0 to (2 * nr) - 1 do
    if out.(e) >= 0 then outdeg.(e / 2) <- outdeg.(e / 2) + 1
  done;
  let longest = Array.make nr 0 in
  let head = ref 0 and tail = ref 0 in
  for r = 0 to nr - 1 do
    if outdeg.(r) = 0 then begin
      work.(!tail) <- r;
      incr tail
    end
  done;
  while !head < !tail do
    let r = work.(!head) in
    incr head;
    let best = ref 0 in
    for b = 0 to 1 do
      let r' = out.((2 * r) + b) in
      if r' = absorbed then best := Int.max !best 1
      else if r' >= 0 then best := Int.max !best (1 + longest.(r'))
    done;
    longest.(r) <- !best;
    for e = roff.(r) to roff.(r + 1) - 1 do
      let q = ridx.(e) in
      outdeg.(q) <- outdeg.(q) - 1;
      if outdeg.(q) = 0 then begin
        work.(!tail) <- q;
        incr tail
      end
    done
  done;
  let resync_bits =
    if (not recoverable) || !tail < nr then None
    else begin
      (* at least 1: the flipped bit itself, detected or re-merged *)
      let w = ref 1 in
      for r = 0 to ninitial - 1 do
        w := Int.max !w (1 + longest.(r))
      done;
      Some !w
    end
  in
  (* ---- synchronizing sequence, unrestricted words ----------------- *)
  (* dist(p) = a word length making the two components equal, fixed at
     p's first relaxation.  The relaxation replays a sweep order: pairs
     merging in one bit get 1; then each sweep visits the unset pairs in
     ascending index and sets each to 1 + the least distance among its
     successors set by that moment.  That order makes dist an upper
     bound on the shortest merge distance, not always equal to it, and
     the certified sync_word_bits values are defined by it, so the order
     is kept.  A sweep visits only candidates: a pair set at index p
     marks its unset predecessors — those above p for the running sweep,
     the rest for the next — and folds 1 + dist(p) into their pending
     value, so by the time a candidate is visited its pending value is
     exactly the minimum over the successors set so far.
     Encoding in [dist]: 0 unset, -d unset with pending value d, d set. *)
  Array.fill tbl 0 npairs 0;
  let dist = tbl in
  let nbytes = (npairs + 7) / 8 in
  let cur = ref (Bytes.make nbytes '\000')
  and nxt = ref (Bytes.make nbytes '\000') in
  (* whether another sweep is due: the next one has candidates *)
  let queued = ref true in
  (* set pairs so far, and their largest distance *)
  let nset = ref 0 and maxd = ref 0 in
  let set_bit bs q =
    let k = q lsr 3 in
    Bytes.unsafe_set bs k
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get bs k) lor (1 lsl (q land 7))))
  in
  (* Pair (a, c) was just set to [d] at index [p] (-1 before the first
     sweep); an unset predecessor is marked once, for the running sweep if
     it lies above [p] and for the next one otherwise.  Predecessors of an
     unmerged pair are unmerged (a shared predecessor would step into a
     single state), so no diagonal pair is ever marked. *)
  let mark_preds a c d ~p =
    let d = -(d + 1) in
    for b = 0 to 1 do
      let o = b * (n + 1) in
      for i = poff.(o + a) to poff.(o + a + 1) - 1 do
        let a0 = pred.((b * n) + i) in
        for j = poff.(o + c) to poff.(o + c + 1) - 1 do
          let c0 = pred.((b * n) + j) in
          let q = (a0 * n) + c0 in
          let e = dist.(q) in
          if e = 0 then begin
            dist.(q) <- d;
            if q > p then set_bit !cur q
            else begin
              set_bit !nxt q;
              queued := true
            end
          end
          else if e < d then dist.(q) <- d
        done
      done
    done
  in
  (* Frontier: pairs that merge in one bit, i.e. two states sharing a
     successor on some bit — every ordered pair within a predecessor
     list.  All of them are set before the first sweep, so their
     predecessors are marked afterwards, all for that sweep. *)
  let frontier f =
    for b = 0 to 1 do
      let o = b * (n + 1) in
      for x = 0 to n - 1 do
        for i = poff.(o + x) to poff.(o + x + 1) - 1 do
          for j = poff.(o + x) to poff.(o + x + 1) - 1 do
            if i <> j then f pred.((b * n) + i) pred.((b * n) + j)
          done
        done
      done
    done
  in
  frontier (fun a c ->
      if dist.((a * n) + c) = 0 then begin
        dist.((a * n) + c) <- 1;
        incr nset;
        maxd := 1
      end);
  frontier (fun a c -> mark_preds a c 1 ~p:(-1));
  (* Sweeps.  Candidates are visited in ascending index; a visit only
     marks the running sweep above itself, so re-reading the byte picks
     up marks made in it.  [a], [c] track the components of the visited
     index [q] without a division per visit. *)
  while !queued do
    queued := false;
    let bs = !cur in
    let a = ref 0 and c = ref 0 and q0 = ref 0 in
    for k = 0 to nbytes - 1 do
      if Bytes.unsafe_get bs k <> '\000' then begin
        for j = 0 to 7 do
          if Char.code (Bytes.unsafe_get bs k) land (1 lsl j) <> 0 then begin
            let q = (k lsl 3) + j in
            c := !c + (q - !q0);
            q0 := q;
            if !c >= n then begin
              a := !a + (!c / n);
              c := !c mod n
            end;
            let d = - dist.(q) in
            dist.(q) <- d;
            incr nset;
            if d > !maxd then maxd := d;
            mark_preds !a !c d ~p:q
          end
        done;
        Bytes.unsafe_set bs k '\000'
      end
    done;
    (* [bs] is empty again; the next sweep's candidates become current. *)
    cur := !nxt;
    nxt := bs
  done;
  let sync_word_bits =
    if nlive <= 1 then Some 0
    else if !nset = n * (n - 1) then Some ((n - 1) * !maxd)
    else None
  in
  {
    live_states = nlive;
    pairs_reachable = nr;
    recoverable;
    resync_bits;
    sync_word_bits;
  }

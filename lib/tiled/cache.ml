type t = {
  line_bytes : int;
  sets : int;
  ways : int;
  tags : int array;          (* sets * ways; -1 = invalid *)
  lru : int array;           (* sets * ways; higher = more recent *)
  dirty : bool array;
  corrupt : bool array;      (* line has a (detectable) injected bit flip *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable parity_events : int;
}

let create ~size_bytes ~ways ~line_bytes =
  if size_bytes mod (ways * line_bytes) <> 0 then
    invalid_arg "Cache.create: size not a multiple of ways * line";
  let sets = size_bytes / (ways * line_bytes) in
  { line_bytes;
    sets;
    ways;
    tags = Array.make (sets * ways) (-1);
    lru = Array.make (sets * ways) 0;
    dirty = Array.make (sets * ways) false;
    corrupt = Array.make (sets * ways) false;
    tick = 0;
    hits = 0;
    misses = 0;
    parity_events = 0 }

type parity = Parity_ok | Corrected | Uncorrectable

type result = { hit : bool; writeback : int option; parity : parity }

let set_and_tag t addr =
  let line = addr / t.line_bytes in
  (line mod t.sets, line / t.sets)

let slot t set way = (set * t.ways) + way

let find_way t set tag =
  let rec go way =
    if way >= t.ways then None
    else if t.tags.(slot t set way) = tag then Some way
    else go (way + 1)
  in
  go 0

let line_addr t set tag = ((tag * t.sets) + set) * t.line_bytes

let access t ~addr ~write =
  let set, tag = set_and_tag t addr in
  t.tick <- t.tick + 1;
  match find_way t set tag with
  | Some way ->
    t.hits <- t.hits + 1;
    let s = slot t set way in
    t.lru.(s) <- t.tick;
    (* Parity check before the line is used or written. A corrupt clean
       line is refetched from DRAM (the caller charges the refetch); a
       corrupt dirty line has lost the only copy of its data. *)
    let parity =
      if not t.corrupt.(s) then Parity_ok
      else if t.dirty.(s) then Uncorrectable
      else begin
        t.corrupt.(s) <- false;
        t.parity_events <- t.parity_events + 1;
        Corrected
      end
    in
    if write && parity <> Uncorrectable then t.dirty.(s) <- true;
    { hit = true; writeback = None; parity }
  | None ->
    t.misses <- t.misses + 1;
    (* Choose victim: invalid way if any, else least recently used. *)
    let victim = ref 0 in
    let best = ref max_int in
    for way = 0 to t.ways - 1 do
      let s = slot t set way in
      if t.tags.(s) = -1 && !best > -1 then begin
        victim := way;
        best := -1
      end
      else if !best > -1 && t.lru.(s) < !best then begin
        victim := way;
        best := t.lru.(s)
      end
    done;
    let s = slot t set !victim in
    let writeback =
      if t.tags.(s) <> -1 && t.dirty.(s) then Some (line_addr t set t.tags.(s))
      else None
    in
    (* A corrupt dirty victim would write garbage back to DRAM: that is an
       uncorrectable loss, detected by parity at eviction. A corrupt clean
       victim is simply discarded (scrubbed by the replacement). *)
    let parity =
      if t.corrupt.(s) && t.dirty.(s) && t.tags.(s) <> -1 then Uncorrectable
      else Parity_ok
    in
    t.corrupt.(s) <- false;
    t.tags.(s) <- tag;
    t.lru.(s) <- t.tick;
    t.dirty.(s) <- write;
    { hit = false; writeback; parity }

let probe t ~addr =
  let set, tag = set_and_tag t addr in
  find_way t set tag <> None

let dirty_lines t =
  let n = ref 0 in
  Array.iteri (fun i d -> if d && t.tags.(i) <> -1 then incr n) t.dirty;
  !n

let flush t =
  let dirty = dirty_lines t in
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.dirty 0 (Array.length t.dirty) false;
  Array.fill t.corrupt 0 (Array.length t.corrupt) false;
  Array.fill t.lru 0 (Array.length t.lru) 0;
  dirty

(* Deterministic victim selection for storage-corruption injection: scan
   from a salt-derived start slot for a resident uncorrupted line,
   preferring clean lines (whose loss is recoverable by a DRAM refetch).
   Dirty lines are only hit when [allow_dirty] asks for the unrecoverable
   variant explicitly. *)
let corrupt_line ?(prefer_dirty = false) t ~salt ~allow_dirty =
  let n = Array.length t.tags in
  if n = 0 then `Absorbed
  else begin
    let start = (salt * 0x9E3779B1) land max_int mod n in
    let found = ref `Absorbed in
    let scan_clean () =
      for k = 0 to n - 1 do
        let s = (start + k) mod n in
        if t.tags.(s) <> -1 && (not t.dirty.(s)) && not t.corrupt.(s) then begin
          t.corrupt.(s) <- true;
          found := `Clean;
          raise Exit
        end
      done
    in
    let scan_dirty () =
      for k = 0 to n - 1 do
        let s = (start + k) mod n in
        if t.tags.(s) <> -1 && t.dirty.(s) && not t.corrupt.(s) then begin
          t.corrupt.(s) <- true;
          found := `Dirty;
          raise Exit
        end
      done
    in
    (try
       if allow_dirty && prefer_dirty then begin
         scan_dirty ();
         scan_clean ()
       end
       else begin
         scan_clean ();
         if allow_dirty then scan_dirty ()
       end
     with Exit -> ());
    !found
  end

let parity_events t = t.parity_events

(* Order-dependent polynomial hash over the whole mutable state; two
   caches digest equal iff every tag, LRU stamp, dirty/corrupt bit and
   counter matches (up to hash collision). Used by checkpoints in place
   of serializing the arrays. *)
let state_digest t =
  let h = ref 0x1505 in
  let mix x = h := ((!h * 0x100000001b3) + x + 1) land max_int in
  Array.iter mix t.tags;
  Array.iter mix t.lru;
  Array.iter (fun d -> mix (if d then 1 else 0)) t.dirty;
  Array.iter (fun c -> mix (if c then 1 else 0)) t.corrupt;
  mix t.tick;
  mix t.hits;
  mix t.misses;
  mix t.parity_events;
  !h

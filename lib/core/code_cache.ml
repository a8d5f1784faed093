(* Every resident block carries its own mutable copy of the content
   checksum ([stored_sum]), initialized from the sum the block was
   translated with. Soft-error injection tampers the stored sum (blocks
   themselves are immutable and shared across domains), and consumers
   verify stored-vs-recomputed before the block may execute. *)

let mix_salt salt = salt * 0x9E3779B9 land max_int

(* Soft-error injection: [flip e bit] xors [bit] into resident entry
   [e]'s stored sum; [false] when nothing is resident. The victim
   is the entry whose address xor-mixed with the salt is smallest:
   independent of hashtable iteration order, so injection is
   reproducible across runs and domains. *)
let corrupt_stored_sum table ~salt ~flip =
  let mixed = mix_salt salt in
  let victim =
    Hashtbl.fold
      (fun addr _ best ->
        let score = addr lxor mixed in
        match best with
        | Some (s, _) when s <= score -> best
        | _ -> Some (score, addr))
      table None
  in
  match victim with
  | None -> false
  | Some (_, addr) ->
    flip (Hashtbl.find table addr) (1 lsl (salt land 15));
    true

(* Checkpoint digests must not depend on hashtable iteration order (it
   varies with insertion history even for equal contents), so per-entry
   hashes are combined with addition — commutative — before the scalar
   fields are mixed in order-dependently. *)
let entry_mix a b c =
  (((a * 0x100000001b3) + b + 1) * 0x100000001b3 + c + 1) land max_int

let table_digest table hash_entry =
  Hashtbl.fold (fun addr e acc -> (acc + hash_entry addr e) land max_int)
    table 0

(* The block a [found] holds before its first hit. *)
let no_block =
  Block.make ~guest_addr:(-1) ~guest_len:0 ~guest_insns:0 ~code:[||]
    ~term:(T_fault "no block found") ~optimized:false ~translation_cycles:0
    ~page_lo:(-1) ~page_hi:(-1)

type found = { mutable hit : bool; mutable block : Block.t; mutable sum : int }

let found () = { hit = false; block = no_block; sum = 0 }

module L1 = struct
  type entry = {
    block : Block.t;
    mutable stored_sum : int;
    mutable chain_taken : entry option;
    mutable chain_fall : entry option;
  }

  type t = {
    capacity : int;
    table : (int, entry) Hashtbl.t;
    mutable used : int;
    mutable flushes : int;
    mutable installs : int;
  }

  let create ~capacity =
    { capacity; table = Hashtbl.create 256; used = 0; flushes = 0; installs = 0 }

  let find t addr = Hashtbl.find_opt t.table addr

  let flush t =
    Hashtbl.reset t.table;
    t.used <- 0;
    t.flushes <- t.flushes + 1

  let install t (block : Block.t) =
    let size = Block.size_bytes block in
    if t.used + size > t.capacity then flush t;
    let entry =
      { block;
        stored_sum = block.checksum;
        chain_taken = None;
        chain_fall = None }
    in
    Hashtbl.replace t.table block.guest_addr entry;
    t.used <- t.used + size;
    t.installs <- t.installs + 1;
    entry

  let corrupt_one t ~salt =
    corrupt_stored_sum t.table ~salt ~flip:(fun e bit ->
        e.stored_sum <- e.stored_sum lxor bit)

  let used_bytes t = t.used
  let flushes t = t.flushes

  let state_digest t =
    let chains e =
      (match e.chain_taken with Some _ -> 2 | None -> 0)
      + match e.chain_fall with Some _ -> 1 | None -> 0
    in
    let resident =
      table_digest t.table (fun addr e ->
          entry_mix addr e.stored_sum (chains e))
    in
    entry_mix resident t.used (entry_mix t.flushes t.installs 0)
end

module L15 = struct
  (* Resident slots are threaded on a circular doubly linked recency
     list, least recently used first, with [t.lru] as its sentinel. A
     [find] hit or an install moves the slot to the tail, which is also
     when it takes a fresh [last_use] stamp; stamps are unique ticks, so
     the head is always the slot with the smallest stamp and eviction
     takes it without a scan. The list only orders the slots: the
     digest covers the same stamps and counters as before. *)
  type slot = {
    block : Block.t;
    mutable stored_sum : int;
    mutable last_use : int;
    mutable prev : slot;
    mutable next : slot;
  }

  type t = {
    capacity : int;
    table : (int, slot) Hashtbl.t;
    lru : slot;
    mutable used : int;
    mutable tick : int;
    mutable hits : int;
    mutable misses : int;
  }

  let create ~capacity =
    let rec lru =
      { block = no_block; stored_sum = 0; last_use = 0; prev = lru;
        next = lru }
    in
    { capacity; table = Hashtbl.create 256; lru; used = 0; tick = 0; hits = 0;
      misses = 0 }

  let unlink slot =
    slot.prev.next <- slot.next;
    slot.next.prev <- slot.prev

  let append t slot =
    slot.prev <- t.lru.prev;
    slot.next <- t.lru;
    t.lru.prev.next <- slot;
    t.lru.prev <- slot

  let find t addr (f : found) =
    t.tick <- t.tick + 1;
    match Hashtbl.find t.table addr with
    | slot ->
      slot.last_use <- t.tick;
      unlink slot;
      append t slot;
      t.hits <- t.hits + 1;
      f.hit <- true;
      f.block <- slot.block;
      f.sum <- slot.stored_sum
    | exception Not_found ->
      t.misses <- t.misses + 1;
      f.hit <- false

  let drop t addr slot =
    Hashtbl.remove t.table addr;
    unlink slot;
    t.used <- t.used - Block.size_bytes slot.block

  let remove t addr =
    match Hashtbl.find_opt t.table addr with
    | None -> ()
    | Some slot -> drop t addr slot

  let install ?sum t (block : Block.t) =
    let size = Block.size_bytes block in
    if size > t.capacity then ()
    else begin
      remove t block.guest_addr;
      while t.used + size > t.capacity && t.lru.next != t.lru do
        let victim = t.lru.next in
        drop t victim.block.guest_addr victim
      done;
      t.tick <- t.tick + 1;
      let stored_sum = Option.value ~default:block.checksum sum in
      let slot =
        { block; stored_sum; last_use = t.tick; prev = t.lru; next = t.lru }
      in
      append t slot;
      Hashtbl.replace t.table block.guest_addr slot;
      t.used <- t.used + size
    end

  let corrupt_one t ~salt =
    corrupt_stored_sum t.table ~salt ~flip:(fun s bit ->
        s.stored_sum <- s.stored_sum lxor bit)

  let used_bytes t = t.used

  let drop_page t page =
    let doomed = ref [] in
    Hashtbl.iter
      (fun addr slot ->
        if slot.block.page_lo <= page && page <= slot.block.page_hi then
          doomed := (addr, slot) :: !doomed)
      t.table;
    List.iter (fun (addr, slot) -> drop t addr slot) !doomed

  let state_digest t =
    let resident =
      table_digest t.table (fun addr s ->
          entry_mix addr s.stored_sum s.last_use)
    in
    entry_mix resident t.used (entry_mix t.tick (entry_mix t.hits t.misses 0) 0)
end

module L2 = struct
  type cell = { block : Block.t; mutable stored_sum : int }

  type t = {
    capacity : int;
    table : (int, cell) Hashtbl.t;
    pages : (int, int) Hashtbl.t; (* page -> number of blocks touching it *)
    mutable used : int;
  }

  let create ~capacity =
    { capacity; table = Hashtbl.create 4096; pages = Hashtbl.create 256; used = 0 }

  let add_pages t (block : Block.t) delta =
    for p = block.page_lo to block.page_hi do
      let n = Option.value ~default:0 (Hashtbl.find_opt t.pages p) + delta in
      if n <= 0 then Hashtbl.remove t.pages p else Hashtbl.replace t.pages p n
    done

  let find t addr (f : found) =
    match Hashtbl.find t.table addr with
    | c ->
      f.hit <- true;
      f.block <- c.block;
      f.sum <- c.stored_sum
    | exception Not_found -> f.hit <- false

  let remove t addr =
    match Hashtbl.find_opt t.table addr with
    | None -> ()
    | Some cell ->
      Hashtbl.remove t.table addr;
      t.used <- t.used - Block.size_bytes cell.block;
      add_pages t cell.block (-1)

  let install t (block : Block.t) =
    remove t block.guest_addr;
    (* The 105 MB cache never fills in practice; if it somehow does, drop
       arbitrary entries (the hash table has no useful recency order). *)
    if t.used + Block.size_bytes block > t.capacity then begin
      let excess = ref (t.used + Block.size_bytes block - t.capacity) in
      let doomed = ref [] in
      (try
         Hashtbl.iter
           (fun addr (c : cell) ->
             if !excess <= 0 then raise Exit;
             doomed := addr :: !doomed;
             excess := !excess - Block.size_bytes c.block)
           t.table
       with Exit -> ());
      List.iter (remove t) !doomed
    end;
    Hashtbl.replace t.table block.guest_addr
      { block; stored_sum = block.checksum };
    t.used <- t.used + Block.size_bytes block;
    add_pages t block 1

  let corrupt_one t ~salt =
    corrupt_stored_sum t.table ~salt ~flip:(fun (c : cell) bit ->
        c.stored_sum <- c.stored_sum lxor bit)

  let blocks t = Hashtbl.length t.table
  let used_bytes t = t.used

  let page_has_code t ~page = Hashtbl.mem t.pages page

  let invalidate_page t ~page =
    let doomed = ref [] in
    Hashtbl.iter
      (fun addr (c : cell) ->
        if c.block.page_lo <= page && page <= c.block.page_hi then
          doomed := addr :: !doomed)
      t.table;
    List.iter (remove t) !doomed;
    List.length !doomed

  let state_digest t =
    let resident =
      table_digest t.table (fun addr (c : cell) ->
          entry_mix addr c.stored_sum 0)
    in
    let pages = table_digest t.pages (fun page n -> entry_mix page n 0) in
    entry_mix resident pages t.used
end

(* Every resident block carries its own mutable copy of the content
   checksum ([stored_sum]), initialized from the sum the block was
   translated with. Soft-error injection tampers the stored sum (blocks
   themselves are immutable and shared across domains), and consumers
   verify stored-vs-recomputed before the block may execute. *)

let mix_salt salt = salt * 0x9E3779B9 land max_int

(* Deterministic victim pick over a hashtable: the entry whose address
   xor-mixed with the salt is smallest. Independent of hashtable iteration
   order, so injection is reproducible across runs and domains. *)
let pick_victim table salt =
  let mixed = mix_salt salt in
  Hashtbl.fold
    (fun addr _ best ->
      let score = addr lxor mixed in
      match best with
      | Some (s, _) when s <= score -> best
      | _ -> Some (score, addr))
    table None
  |> Option.map snd

(* Checkpoint digests must not depend on hashtable iteration order (it
   varies with insertion history even for equal contents), so per-entry
   hashes are combined with addition — commutative — before the scalar
   fields are mixed in order-dependently. *)
let entry_mix a b c =
  (((a * 0x100000001b3) + b + 1) * 0x100000001b3 + c + 1) land max_int

let table_digest table hash_entry =
  Hashtbl.fold (fun addr e acc -> (acc + hash_entry addr e) land max_int)
    table 0

module L1 = struct
  type entry = {
    block : Block.t;
    use_masks : int array;
    def_masks : int array;
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
        use_masks = Array.map Vat_host.Hinsn.use_mask block.code;
        def_masks = Array.map Vat_host.Hinsn.def_mask block.code;
        stored_sum = block.checksum;
        chain_taken = None;
        chain_fall = None }
    in
    Hashtbl.replace t.table block.guest_addr entry;
    t.used <- t.used + size;
    t.installs <- t.installs + 1;
    entry

  let corrupt_one t ~salt =
    match pick_victim t.table salt with
    | None -> false
    | Some addr ->
      let entry = Hashtbl.find t.table addr in
      entry.stored_sum <- entry.stored_sum lxor (1 lsl (salt land 15));
      true

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
  type slot = {
    block : Block.t;
    mutable stored_sum : int;
    mutable last_use : int;
  }

  type t = {
    capacity : int;
    table : (int, slot) Hashtbl.t;
    mutable used : int;
    mutable tick : int;
    mutable hits : int;
    mutable misses : int;
  }

  let create ~capacity =
    { capacity; table = Hashtbl.create 256; used = 0; tick = 0; hits = 0;
      misses = 0 }

  let find t addr =
    t.tick <- t.tick + 1;
    match Hashtbl.find_opt t.table addr with
    | Some slot ->
      slot.last_use <- t.tick;
      t.hits <- t.hits + 1;
      Some (slot.block, slot.stored_sum)
    | None ->
      t.misses <- t.misses + 1;
      None

  let evict_one t =
    let victim = ref None in
    Hashtbl.iter
      (fun addr slot ->
        match !victim with
        | Some (_, s) when s.last_use <= slot.last_use -> ()
        | _ -> victim := Some (addr, slot))
      t.table;
    match !victim with
    | Some (addr, slot) ->
      Hashtbl.remove t.table addr;
      t.used <- t.used - Block.size_bytes slot.block
    | None -> ()

  let remove t addr =
    match Hashtbl.find_opt t.table addr with
    | None -> ()
    | Some slot ->
      Hashtbl.remove t.table addr;
      t.used <- t.used - Block.size_bytes slot.block

  let install ?sum t (block : Block.t) =
    let size = Block.size_bytes block in
    if size > t.capacity then ()
    else begin
      remove t block.guest_addr;
      while t.used + size > t.capacity && Hashtbl.length t.table > 0 do
        evict_one t
      done;
      t.tick <- t.tick + 1;
      let stored_sum = Option.value ~default:block.checksum sum in
      Hashtbl.replace t.table block.guest_addr
        { block; stored_sum; last_use = t.tick };
      t.used <- t.used + size
    end

  let corrupt_one t ~salt =
    match pick_victim t.table salt with
    | None -> false
    | Some addr ->
      let slot = Hashtbl.find t.table addr in
      slot.stored_sum <- slot.stored_sum lxor (1 lsl (salt land 15));
      true

  let drop_page t page =
    let doomed = ref [] in
    Hashtbl.iter
      (fun addr slot ->
        if slot.block.page_lo <= page && page <= slot.block.page_hi then
          doomed := (addr, slot) :: !doomed)
      t.table;
    List.iter
      (fun (addr, slot) ->
        Hashtbl.remove t.table addr;
        t.used <- t.used - Block.size_bytes slot.block)
      !doomed

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

  let find t addr =
    Hashtbl.find_opt t.table addr
    |> Option.map (fun c -> (c.block, c.stored_sum))

  let remove t addr =
    match Hashtbl.find_opt t.table addr with
    | None -> ()
    | Some cell ->
      Hashtbl.remove t.table addr;
      t.used <- t.used - Block.size_bytes cell.block;
      add_pages t cell.block (-1)

  let install ?sum t (block : Block.t) =
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
    let stored_sum = Option.value ~default:block.checksum sum in
    Hashtbl.replace t.table block.guest_addr { block; stored_sum };
    t.used <- t.used + Block.size_bytes block;
    add_pages t block 1

  let corrupt_one t ~salt =
    match pick_victim t.table salt with
    | None -> false
    | Some addr ->
      let cell = Hashtbl.find t.table addr in
      cell.stored_sum <- cell.stored_sum lxor (1 lsl (salt land 15));
      true

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

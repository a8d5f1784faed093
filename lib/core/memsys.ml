open Vat_desim
open Vat_tiled
open Vat_guest
module Tr = Vat_trace.Trace

(* An access travels as one request: the MMU forwards it to its bank
   as it came, and the bank recomputes the physical address from the
   fixed page table. *)
type mmu_req = { vaddr : int; write : bool; on_done : unit -> unit }

(* An access under fault tolerance: every resend sends [req], whose
   [on_done] passes on the first reply and sets [served]. *)
type access = { req : mmu_req; served : bool ref }

(* Pre-resolved trace emitters (dead branches untraced). Bank cache events
   land on the "l2d.N" tracks; recovery instants on "mmu", whose arg says
   which path ran: 1 mem-retry, 2 direct-dram, 3 uncached-dram, 4 rebank
   (tabled in DESIGN.md). *)
type probes = {
  bank_hit : Tr.emitter array;
  bank_miss : Tr.emitter array;
  recover : Tr.emitter;
}

type t = {
  q : Event_queue.t;
  stats : Stats.t;
  cfg : Config.t;
  layout : Layout.t;
  page_table : int array;
  tlb_tags : int array;
  tlb_lru : int array;
  mutable tlb_tick : int;
  mutable tlb_hits : int;
  mutable tlb_misses : int;
  mutable n_banks : int;        (* logical interleave width *)
  mutable bank_map : int array; (* logical bank -> physical bank *)
  banks : Cache.t array;        (* up to the maximum bank count *)
  bank_corruptions : int array; (* detected per bank, for quarantine *)
  mutable mmu : mmu_req Service.t option;
  mutable bank_services : mmu_req Service.t array; (* per physical bank *)
  (* What each service's [serve] found that its [complete] acts on, one
     slot per service (one request is in service at a time): the MMU's
     target bank (-1: uncached DRAM) and forwarding latency; each bank's
     reply latency and parity-fatal message. *)
  mutable mmu_bank : int;
  mutable mmu_forward_latency : int;
  bank_reply_latency : int array;
  bank_fatal : string option array;
  mutable reconfiguring : bool;
  mutable on_fatal : (bank:int -> string -> unit) option;
  pr : probes;
  (* Per-request counters. *)
  c_l2d_accesses : Stats.counter;
  c_l2d_hits : Stats.counter;
  c_l2d_misses : Stats.counter;
  c_mmu_requests : Stats.counter;
}

let the_mmu t =
  match t.mmu with Some s -> s | None -> assert false

let max_banks = 4

(* A physical bank is alive until its service fails. *)
let alive t i = not (Service.failed t.bank_services.(i))

let alive_count t =
  Array.fold_left
    (fun acc s -> if Service.failed s then acc else acc + 1)
    0 t.bank_services

let compute_map t n =
  let out = ref [] and taken = ref 0 in
  Array.iteri
    (fun i _ ->
      if alive t i && !taken < n then begin
        out := i :: !out;
        incr taken
      end)
    t.bank_services;
  Array.of_list (List.rev !out)

(* Tags start at -1 and enter only on a miss, so a virtual page sits in
   at most one entry and the scan can stop at the hit. *)
let rec tlb_find tags vpage i =
  if i >= Array.length tags then -1
  else if tags.(i) = vpage then i
  else tlb_find tags vpage (i + 1)

let tlb_lookup t vpage =
  t.tlb_tick <- t.tlb_tick + 1;
  let i = tlb_find t.tlb_tags vpage 0 in
  if i >= 0 then begin
    t.tlb_lru.(i) <- t.tlb_tick;
    t.tlb_hits <- t.tlb_hits + 1;
    true
  end
  else begin
    t.tlb_misses <- t.tlb_misses + 1;
    (* Replace the least recently used entry. *)
    let n = Array.length t.tlb_tags in
    let victim = ref 0 in
    for i = 1 to n - 1 do
      if t.tlb_lru.(i) < t.tlb_lru.(!victim) then victim := i
    done;
    t.tlb_tags.(!victim) <- vpage;
    t.tlb_lru.(!victim) <- t.tlb_tick;
    false
  end

let translate t vaddr =
  let vpage = vaddr / Mem.page_size in
  let frame =
    if vpage >= 0 && vpage < Array.length t.page_table then
      t.page_table.(vpage)
    else vpage
  in
  (frame * Mem.page_size) + (vaddr mod Mem.page_size)

let bank_of t paddr = paddr / Config.line_bytes mod t.n_banks

(* Line-interleaved banking: bank [b] holds lines congruent to [b], so its
   cache must be indexed by the bank-local line number or it would only
   ever touch 1/n_banks of its sets. *)
let bank_local_addr t paddr =
  let line = paddr / Config.line_bytes in
  ((line / t.n_banks) * Config.line_bytes) + (paddr mod Config.line_bytes)

let bank_track_name i = Printf.sprintf "l2d.%d" i

let make_bank_service t ~trace bank =
  Service.create ~trace t.q ~track:(bank_track_name bank)
    ~serve:(fun { vaddr; write; _ } ->
      let paddr = translate t vaddr in
      let { Cache.hit; writeback; parity } =
        Cache.access t.banks.(bank) ~addr:(bank_local_addr t paddr) ~write
      in
      Stats.bump t.c_l2d_accesses;
      let occupancy =
        if hit then begin
          Stats.bump t.c_l2d_hits;
          Tr.emit t.pr.bank_hit.(bank) ~cycle:(Event_queue.now t.q) ~arg:paddr;
          Config.l2d_bank_cycles
        end
        else begin
          Stats.bump t.c_l2d_misses;
          Tr.emit t.pr.bank_miss.(bank) ~cycle:(Event_queue.now t.q) ~arg:paddr;
          Config.l2d_bank_cycles + Config.dram_cycles
          + (match writeback with
             | Some _ -> Config.writeback_cycles
             | None -> 0)
        end
      in
      t.bank_reply_latency.(bank) <- Layout.lat_bank_exec t.layout bank;
      (* Parity on the banked L2D: a corrupt clean line is scrubbed and
         refetched from DRAM (time, never wrong data); a corrupt dirty
         line held the only copy of its data, so the access must fail
         loudly — never return a silent wrong value. *)
      match parity with
      | Cache.Parity_ok ->
        t.bank_fatal.(bank) <- None;
        occupancy
      | Cache.Corrected ->
        Stats.incr t.stats "corrupt.parity_corrected";
        t.bank_corruptions.(bank) <- t.bank_corruptions.(bank) + 1;
        t.bank_fatal.(bank) <- None;
        occupancy + Config.dram_cycles
      | Cache.Uncorrectable ->
        Stats.incr t.stats "corrupt.parity_uncorrectable";
        t.bank_corruptions.(bank) <- t.bank_corruptions.(bank) + 1;
        t.bank_fatal.(bank) <-
          Some (Printf.sprintf "uncorrectable L2D parity error (bank %d)" bank);
        occupancy)
    ~complete:(fun { on_done; _ } ->
      (match t.bank_fatal.(bank) with
       | Some msg -> (match t.on_fatal with Some f -> f ~bank msg | None -> ())
       | None -> ());
      Event_queue.after t.q ~delay:t.bank_reply_latency.(bank) on_done)

let make_mmu t ~trace =
  Service.create ~trace t.q ~track:"mmu"
    ~serve:(fun { vaddr; _ } ->
      Stats.bump t.c_mmu_requests;
      let vpage = vaddr / Mem.page_size in
      let hit = tlb_lookup t vpage in
      let occupancy =
        if hit then Config.mmu_tlb_hit_cycles else Config.mmu_walk_cycles
      in
      if Array.length t.bank_map = 0 then begin
        (* Every bank is dead: the MMU serves straight from DRAM. *)
        Stats.incr t.stats "fault.uncached_dram_accesses";
        Tr.emit t.pr.recover ~cycle:(Event_queue.now t.q) ~arg:3;
        t.mmu_bank <- -1;
        occupancy + Config.dram_cycles
      end
      else begin
        let phys = t.bank_map.(bank_of t (translate t vaddr)) in
        t.mmu_bank <- phys;
        t.mmu_forward_latency <- Layout.lat_mmu_bank t.layout phys;
        occupancy
      end)
    ~complete:(fun req ->
      if t.mmu_bank < 0 then
        Event_queue.after t.q ~delay:(Layout.lat_exec_mmu t.layout) req.on_done
      else
        Service.submit t.bank_services.(t.mmu_bank)
          ~delay:t.mmu_forward_latency req)

let create ?(trace = Tr.disabled) q stats cfg layout ~page_table =
  let banks =
    Array.init max_banks (fun _ ->
        Cache.create ~size_bytes:Config.l2d_bank_bytes ~ways:Config.l2d_ways
          ~line_bytes:Config.line_bytes)
  in
  let n_banks = min max_banks (max 1 cfg.Config.n_l2d_banks) in
  let mmu_track = Tr.track trace "mmu" in
  let bank_track i = Tr.track trace (bank_track_name i) in
  let pr =
    { bank_hit =
        Array.init max_banks (fun i ->
            Tr.emitter trace ~track:(bank_track i) Tr.Cache_hit);
      bank_miss =
        Array.init max_banks (fun i ->
            Tr.emitter trace ~track:(bank_track i) Tr.Cache_miss);
      recover = Tr.emitter trace ~track:mmu_track Tr.Recovery }
  in
  let t =
    { q;
      stats;
      cfg;
      layout;
      page_table;
      tlb_tags = Array.make Config.tlb_entries (-1);
      tlb_lru = Array.make Config.tlb_entries 0;
      tlb_tick = 0;
      tlb_hits = 0;
      tlb_misses = 0;
      n_banks;
      bank_map = Array.init n_banks (fun i -> i);
      banks;
      bank_corruptions = Array.make max_banks 0;
      mmu = None;
      bank_services = [||];
      mmu_bank = -1;
      mmu_forward_latency = 0;
      bank_reply_latency = Array.make max_banks 0;
      bank_fatal = Array.make max_banks None;
      reconfiguring = false;
      on_fatal = None;
      pr;
      c_l2d_accesses = Stats.counter stats "l2d.accesses";
      c_l2d_hits = Stats.counter stats "l2d.hits";
      c_l2d_misses = Stats.counter stats "l2d.misses";
      c_mmu_requests = Stats.counter stats "mmu.requests" }
  in
  t.mmu <- Some (make_mmu t ~trace);
  t.bank_services <- Array.init max_banks (make_bank_service t ~trace);
  t

let submit_access t req =
  Service.submit (the_mmu t) ~delay:(Layout.lat_exec_mmu t.layout) req

(* A reply lost to a dead or lossy bank is resent (values are functional,
   so duplicates only cost time), and the last resort is an uncached DRAM
   access charged locally. *)
let access_retry =
  { Retry.send = (fun t a -> submit_access t a.req);
    pending = (fun _ a -> not !(a.served));
    expire =
      (fun t _ resend ->
        Stats.incr t.stats "fault.mem_timeouts";
        if resend then begin
          Stats.incr t.stats "fault.mem_retries";
          Tr.emit t.pr.recover ~cycle:(Event_queue.now t.q) ~arg:1
        end);
    give_up =
      (fun t a ->
        Stats.incr t.stats "fault.mem_direct_dram";
        Tr.emit t.pr.recover ~cycle:(Event_queue.now t.q) ~arg:2;
        Event_queue.after t.q ~delay:Config.dram_cycles a.req.on_done) }

let access t ~addr ~write ~on_done =
  if not t.cfg.Config.fault_tolerance then
    submit_access t { vaddr = addr; write; on_done }
  else begin
    let served = ref false in
    let reply () =
      if not !served then begin
        served := true;
        on_done ()
      end
    in
    Retry.start access_retry t.q t
      { req = { vaddr = addr; write; on_done = reply }; served }
      ~deadline:t.cfg.Config.mem_deadline_cycles
  end

let active_banks t = t.n_banks

(* Drain the (surviving) banks, flush everything, then switch the
   interleave to [n] logical banks mapped over the alive tiles. Both
   morphing and fault-driven re-banking funnel through here. *)
let reshape t n ~on_done =
  t.reconfiguring <- true;
  (* Stop accepting new bank work, let in-flight requests finish. *)
  Array.iter (fun s -> Service.set_paused s true) t.bank_services;
  let drained = ref 0 in
  let total = Array.length t.bank_services in
  let finish () =
    (* Changing the interleave invalidates every bank: flush them all
       and charge the writeback traffic. *)
    let dirty = ref 0 in
    Array.iteri
      (fun i c -> if i < max_banks then dirty := !dirty + Cache.flush c)
      t.banks;
    (* Recompute against the alive set as of now — a bank that died
       during the drain is excluded here. *)
    let n = max 1 (min n (max 1 (alive_count t))) in
    t.n_banks <- n;
    t.bank_map <- compute_map t n;
    let cost =
      (!dirty * Config.morph_flush_per_line) + Config.morph_role_switch_cycles
    in
    Event_queue.after t.q ~delay:(max 1 cost) (fun () ->
        (* A bank can die during the switch window itself; never leave a
           dead tile in the map. (Caches are timing-only, so skipping a
           second flush here costs accuracy, not correctness.) *)
        if Array.exists (fun b -> not (alive t b)) t.bank_map then begin
          let n = max 1 (min t.n_banks (max 1 (alive_count t))) in
          t.n_banks <- n;
          t.bank_map <- compute_map t n
        end;
        Array.iter (fun s -> Service.set_paused s false) t.bank_services;
        t.reconfiguring <- false;
        on_done !dirty)
  in
  Array.iter
    (fun s ->
      Service.drain_then s (fun () ->
          incr drained;
          if !drained = total then finish ()))
    t.bank_services

let reconfigure_banks t n ~on_done =
  let n = max 1 (min (min max_banks n) (max 1 (alive_count t))) in
  if n = t.n_banks || t.reconfiguring then on_done 0
  else reshape t n ~on_done

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

let retire_bank t i ~stat =
  if i < 0 || i >= max_banks then invalid_arg "Memsys.retire_bank";
  if alive t i then begin
    (* Queued and in-flight requests die with the tile; the access-level
       retry deadline recovers them. *)
    ignore (Service.fail t.bank_services.(i));
    Stats.incr t.stats stat;
    if t.reconfiguring then ()
      (* The in-progress reshape reads the alive set when it lands. *)
    else
      reshape t (min t.n_banks (max 1 (alive_count t))) ~on_done:(fun dirty ->
          Stats.incr t.stats "fault.rebanks";
          Tr.emit t.pr.recover ~cycle:(Event_queue.now t.q) ~arg:4;
          Stats.add t.stats "fault.rebank_writebacks" dirty)
  end

(* The quarantine monitor's step for the banks. It must never retire the
   last working bank: a machine with zero banks still runs (uncached
   DRAM), but losing the final bank to a *policy* decision — rather than
   an actual fault — is self-inflicted damage. Rollback-recovery uses the
   unguarded entry below instead: there the bank provably holds poisoned
   dirty data, and running uncached beats replaying into the same loss
   forever. *)
let quarantine t ~threshold =
  Array.iteri
    (fun i n ->
      if n >= threshold && alive_count t > 1 then
        retire_bank t i ~stat:"corrupt.quarantined_banks")
    t.bank_corruptions

let recovery_retire_bank t i = retire_bank t i ~stat:"recovery.quarantined_banks"

let alive_banks t = alive_count t
let bank_alive t i = i >= 0 && i < max_banks && alive t i

let set_fatal_handler t f = t.on_fatal <- Some f

let corrupt_bank ?prefer_dirty t i ~salt ~allow_dirty =
  if i < 0 || i >= max_banks then invalid_arg "Memsys.corrupt_bank";
  Cache.corrupt_line ?prefer_dirty t.banks.(i) ~salt ~allow_dirty

let bank_corruptions t = Array.copy t.bank_corruptions

(* No corrupt transformer is installed on the data-path services: a
   bit-flipped MMU or bank request is undecodable and is dropped at
   arrival (counted by the service), and the access-level deadline retry
   recovers it. Duplicated deliveries are absorbed by the first-reply-wins
   dedup in [access]. *)
let inject t ~rollback (e : Fault.event) =
  let i = e.site.index in
  match (e.site.role, e.kind) with
  | "l2d", Fault.Fail_stop ->
    Grid.fail_tile (Layout.grid t.layout) (Layout.pool t.layout i);
    retire_bank t i ~stat:"fault.l2d_bank_failures";
    `Applied
  | "l2d", Fault.Corrupt_storage -> (
    (* Without rollback, only clean lines: corrupting the sole copy of
       dirty data is an unrecoverable fault, which the random recoverable
       menu must never produce (the parity unit tests exercise that path
       directly). With rollback armed the dirty-loss path is survivable —
       and is deliberately preferred, so recovery actually gets
       exercised. *)
    match
      corrupt_bank t i ~salt:(Fault.salt e) ~allow_dirty:rollback
        ~prefer_dirty:rollback
    with
    | `Clean | `Dirty -> `Applied
    | `Absorbed -> `Absorbed)
  | "l2d", k ->
    Service.inject t.bank_services.(i) k;
    `Applied
  | "mmu", Fault.Fail_stop -> `Unrecoverable "MMU"
  | "mmu", Fault.Corrupt_storage -> `Absorbed
  | "mmu", k ->
    Service.inject (the_mmu t) k;
    `Applied
  | role, _ -> invalid_arg ("Memsys.inject: not a memory-side site: " ^ role)

let bank_queue_total t =
  Array.fold_left (fun acc s -> acc + Service.queue_length s) 0 t.bank_services

let record_totals t =
  Stats.add t.stats "mmu.tlb_hits" t.tlb_hits;
  Stats.add t.stats "mmu.tlb_misses" t.tlb_misses;
  Service.record_totals t.stats ~hwm:"svc.mmu_queue_hwm" [ the_mmu t ];
  Service.record_totals t.stats ~hwm:"svc.l2d_queue_hwm"
    (Array.to_list t.bank_services)

let tlb_hits t = t.tlb_hits
let tlb_misses t = t.tlb_misses

(* Checkpoint section: TLB arrays, banking geometry, per-bank cache
   digests and service scalars (a bank is alive while its service's
   [failed] scalar is clear). Pure observation. *)
let capture t =
  let w = Vat_snapshot.Snapshot.Wr.create () in
  let module Wr = Vat_snapshot.Snapshot.Wr in
  Wr.int_array w t.tlb_tags;
  Wr.int_array w t.tlb_lru;
  Wr.int w t.tlb_tick;
  Wr.int w t.tlb_hits;
  Wr.int w t.tlb_misses;
  Wr.int w t.n_banks;
  Wr.int_array w t.bank_map;
  Wr.int_array w t.bank_corruptions;
  Array.iter (fun c -> Wr.int w (Cache.state_digest c)) t.banks;
  Wr.bool w t.reconfiguring;
  Wr.int_list w (Service.capture (the_mmu t));
  Array.iter (fun s -> Wr.int_list w (Service.capture s)) t.bank_services;
  Wr.contents w

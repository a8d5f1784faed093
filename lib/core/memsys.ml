open Vat_desim
open Vat_tiled
open Vat_guest
module Tr = Vat_trace.Trace

type mmu_req = { vaddr : int; write : bool; on_done : unit -> unit }
type bank_req = { paddr : int; bwrite : bool; bank : int; bon_done : unit -> unit }

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
  alive : bool array;           (* physical bank still working *)
  banks : Cache.t array;        (* up to the maximum bank count *)
  bank_corruptions : int array; (* detected per bank, for quarantine *)
  mutable mmu : mmu_req Service.t option;
  mutable bank_services : bank_req Service.t array;
  mutable reconfiguring : bool;
  mutable on_fatal : (bank:int -> string -> unit) option;
  pr : probes;
  (* Per-request counters, entering [stats] at their first bump. *)
  c_l2d_accesses : Stats.lazy_counter;
  c_l2d_hits : Stats.lazy_counter;
  c_l2d_misses : Stats.lazy_counter;
  c_mmu_requests : Stats.lazy_counter;
}

let the_mmu t =
  match t.mmu with Some s -> s | None -> assert false

let max_banks = 4

let alive_count t =
  Array.fold_left (fun acc a -> if a then acc + 1 else acc) 0 t.alive

let compute_map t n =
  let out = ref [] and taken = ref 0 in
  Array.iteri
    (fun i a ->
      if a && !taken < n then begin
        out := i :: !out;
        incr taken
      end)
    t.alive;
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

let make_bank_service t ~trace idx =
  Service.create ~trace t.q ~track:(bank_track_name idx)
    ~serve:(fun { paddr; bwrite; bank; bon_done } ->
      let cache = t.banks.(bank) in
      let { Cache.hit; writeback; parity } =
        Cache.access cache ~addr:(bank_local_addr t paddr) ~write:bwrite
      in
      Stats.incr_lazy t.c_l2d_accesses;
      let occupancy =
        if hit then begin
          Stats.incr_lazy t.c_l2d_hits;
          Tr.emit t.pr.bank_hit.(bank) ~cycle:(Event_queue.now t.q) ~arg:paddr;
          Config.l2d_bank_cycles
        end
        else begin
          Stats.incr_lazy t.c_l2d_misses;
          Tr.emit t.pr.bank_miss.(bank) ~cycle:(Event_queue.now t.q) ~arg:paddr;
          Config.l2d_bank_cycles + Config.dram_cycles
          + (match writeback with
             | Some _ -> Config.writeback_cycles
             | None -> 0)
        end
      in
      (* Parity on the banked L2D: a corrupt clean line is scrubbed and
         refetched from DRAM (time, never wrong data); a corrupt dirty
         line held the only copy of its data, so the access must fail
         loudly — never return a silent wrong value. *)
      let occupancy, fatal =
        match parity with
        | Cache.Parity_ok -> (occupancy, None)
        | Cache.Corrected ->
          Stats.incr t.stats "corrupt.parity_corrected";
          t.bank_corruptions.(bank) <- t.bank_corruptions.(bank) + 1;
          (occupancy + Config.dram_cycles, None)
        | Cache.Uncorrectable ->
          Stats.incr t.stats "corrupt.parity_uncorrectable";
          t.bank_corruptions.(bank) <- t.bank_corruptions.(bank) + 1;
          ( occupancy,
            Some (Printf.sprintf "uncorrectable L2D parity error (bank %d)" bank) )
      in
      let reply_latency = Layout.lat_bank_exec t.layout bank in
      ( occupancy,
        fun () ->
          (match fatal with
           | Some msg -> (match t.on_fatal with Some f -> f ~bank msg | None -> ())
           | None -> ());
          Event_queue.after t.q ~delay:reply_latency bon_done ))

let make_mmu t ~trace =
  Service.create ~trace t.q ~track:"mmu"
    ~serve:(fun { vaddr; write; on_done } ->
      Stats.incr_lazy t.c_mmu_requests;
      let vpage = vaddr / Mem.page_size in
      let hit = tlb_lookup t vpage in
      let occupancy =
        if hit then Config.mmu_tlb_hit_cycles else Config.mmu_walk_cycles
      in
      let paddr = translate t vaddr in
      if Array.length t.bank_map = 0 then begin
        (* Every bank is dead: the MMU serves straight from DRAM. *)
        Stats.incr t.stats "fault.uncached_dram_accesses";
        Tr.emit t.pr.recover ~cycle:(Event_queue.now t.q) ~arg:3;
        ( occupancy + Config.dram_cycles,
          fun () ->
            Event_queue.after t.q ~delay:(Layout.lat_exec_mmu t.layout) on_done )
      end
      else begin
        let phys = t.bank_map.(bank_of t paddr) in
        let forward_latency = Layout.lat_mmu_bank t.layout phys in
        ( occupancy,
          fun () ->
            Service.submit t.bank_services.(phys) ~delay:forward_latency
              { paddr; bwrite = write; bank = phys; bon_done = on_done } )
      end)

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
      alive = Array.make max_banks true;
      banks;
      bank_corruptions = Array.make max_banks 0;
      mmu = None;
      bank_services = [||];
      reconfiguring = false;
      on_fatal = None;
      pr;
      c_l2d_accesses = Stats.lazy_counter stats "l2d.accesses";
      c_l2d_hits = Stats.lazy_counter stats "l2d.hits";
      c_l2d_misses = Stats.lazy_counter stats "l2d.misses";
      c_mmu_requests = Stats.lazy_counter stats "mmu.requests" }
  in
  t.mmu <- Some (make_mmu t ~trace);
  t.bank_services <- Array.init max_banks (make_bank_service t ~trace);
  t

let submit_access t ~addr ~write ~on_done =
  Service.submit (the_mmu t)
    ~delay:(Layout.lat_exec_mmu t.layout)
    { vaddr = addr; write; on_done }

let access t ~addr ~write ~on_done =
  if not t.cfg.Config.fault_tolerance then submit_access t ~addr ~write ~on_done
  else begin
    (* Per-request deadline: a reply lost to a dead or lossy bank is
       retried (values are functional, so duplicates only cost time), and
       the last resort is an uncached DRAM access charged locally. *)
    let done_ = ref false in
    let reply () =
      if not !done_ then begin
        done_ := true;
        on_done ()
      end
    in
    let rec attempt retries deadline =
      submit_access t ~addr ~write ~on_done:reply;
      Event_queue.after t.q ~delay:deadline (fun () ->
          if not !done_ then begin
            Stats.incr t.stats "fault.mem_timeouts";
            if retries < Config.mem_max_retries then begin
              Stats.incr t.stats "fault.mem_retries";
              Tr.emit t.pr.recover ~cycle:(Event_queue.now t.q) ~arg:1;
              attempt (retries + 1) (deadline * Config.fill_backoff_mult)
            end
            else begin
              Stats.incr t.stats "fault.mem_direct_dram";
              Tr.emit t.pr.recover ~cycle:(Event_queue.now t.q) ~arg:2;
              Event_queue.after t.q ~delay:Config.dram_cycles reply
            end
          end)
    in
    attempt 0 t.cfg.Config.mem_deadline_cycles
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
        if Array.exists (fun b -> not t.alive.(b)) t.bank_map then begin
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
  if t.alive.(i) then begin
    t.alive.(i) <- false;
    Stats.incr t.stats stat;
    (* Queued and in-flight requests die with the tile; the access-level
       retry deadline recovers them. *)
    ignore (Service.fail t.bank_services.(i));
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
let bank_alive t i = i >= 0 && i < max_banks && t.alive.(i)

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
   digests and service scalars. Pure observation. *)
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
  Array.iter (Wr.bool w) t.alive;
  Wr.int_array w t.bank_corruptions;
  Array.iter (fun c -> Wr.int w (Cache.state_digest c)) t.banks;
  Wr.bool w t.reconfiguring;
  Wr.int_list w (Service.capture (the_mmu t));
  Array.iter (fun s -> Wr.int_list w (Service.capture s)) t.bank_services;
  Wr.contents w

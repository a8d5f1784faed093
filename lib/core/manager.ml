open Vat_desim
open Vat_tiled
module Tr = Vat_trace.Trace

(* Code deliveries (fill replies, install messages) carry the sending
   side's copy of the block checksum alongside the block. A soft error on
   the wire or in a cache bank shows up as a sum that no longer matches
   the block content, and the receiving side discards the delivery instead
   of executing corrupt code. *)

(* A slave's sequence-numbered install message. *)
type install = {
  seq : int;
  slave : int;
  block : Block.t;
  sum : int;
  gens : (int * int) list;
}

type mgr_req =
  | Fill of { addr : int; corrupt : bool; reply : Block.t -> int -> unit }
      (** [corrupt] marks a request whose eventual code delivery was
          garbled in flight: the manager serves it with a tampered sum. *)
  | Translated of install

type l15_req = {
  addr : int;
  bank : int;
  corrupt : bool;
  reply : Block.t -> int -> unit;
}

type slave = {
  mutable active : bool;
  mutable failed : bool;
  mutable current : int;  (* guest addr being translated; -1: idle *)
  mutable slow_factor : int;
  mutable slow_until : int;
}

(* A fill under fault tolerance: every resend carries [reply], which
   passes on the first verified reply and sets [served]. *)
type fill = { f_addr : int; served : bool ref; reply : Block.t -> int -> unit }

(* Pre-resolved trace emitters (dead branches when tracing is off). The
   arg of [recover] says which recovery path ran: 1 install-retransmit,
   2 translation-requeued, 3 fill-retry, 4 demand-translate, 5
   l15-reroute (tabled in DESIGN.md). *)
type probes = {
  tb_slave : Tr.emitter array;  (* per-slave Translate_begin; arg = guest addr *)
  te_slave : Tr.emitter array;  (* per-slave Translate_end *)
  l2_hit : Tr.emitter;
  l2_miss : Tr.emitter;
  l2_install : Tr.emitter;
  l15_hit : Tr.emitter array;   (* per L1.5 bank *)
  l15_miss : Tr.emitter array;
  recover : Tr.emitter;
}

(* Handles for the counters bumped per translation, fill and lookup. *)
type counters = {
  translations : Stats.counter;
  tr_guest_insns : Stats.counter;
  tr_host_insns : Stats.counter;
  tr_cycles : Stats.counter;
  l2code_accesses : Stats.counter;
  l2code_misses : Stats.counter;
  l15_hits : Stats.counter;
  l15_misses : Stats.counter;
}

type t = {
  q : Event_queue.t;
  stats : Stats.t;
  cfg : Config.t;
  layout : Layout.t;
  fetch : int -> int;
  page_gen : page:int -> int;
  memo : Translate.Memo.t option;
  l2 : Code_cache.L2.t;
  l15_banks : Code_cache.L15.t array;
  spec : Spec.t;
  slaves : slave array;
  waiters : (int, (Block.t -> int -> unit) list) Hashtbl.t;
  slave_corruptions : int array;      (* detected per slave, for quarantine *)
  l15_corruptions : int array;        (* detected per L1.5 bank *)
  unacked : (int, install) Hashtbl.t;
      (* not yet acknowledged; the sending slave retransmits on deadline *)
  acked : (int, unit) Hashtbl.t;
  mutable next_seq : int;
  mutable l15_alive : int array;      (* physical bank indexes still alive *)
  mutable mgr_service : mgr_req Service.t option;
  mutable l15_services : l15_req Service.t array;
  mgr_found : Code_cache.found;       (* the manager service's lookup *)
  l15_found : Code_cache.found array; (* each L1.5 service's lookup *)
  mutable drain_waiters : (unit -> unit) list;
  pr : probes;
  c : counters;
}

let mgr t = match t.mgr_service with Some s -> s | None -> assert false

(* Pool tiles: L2D banks occupy pool slots 0..3 (nearest the MMU);
   translator slaves fill the pool from the far end, so slave [i] sits at
   pool slot [9 - i]. During a morph a tile changes hands but its
   coordinates (and hence latencies) stay put. *)
let slave_pool_slot i = 9 - min 9 i

let submit_install t r =
  Service.submit (mgr t)
    ~delay:(Layout.lat_manager_slave t.layout (slave_pool_slot r.slave))
    (Translated r)

(* The highest-index idle slave at or below [i], or -1. *)
let rec last_idle_slave t i =
  if i < 0 then -1
  else
    let s = t.slaves.(i) in
    if s.active && (not s.failed) && s.current < 0 then i
    else last_idle_slave t (i - 1)

let rec kick_slaves t =
  match last_idle_slave t (Array.length t.slaves - 1) with
  | -1 -> ()
  | i -> begin
    match Spec.pop t.spec with
    | None -> ()
    | Some addr ->
      let s = t.slaves.(i) in
      s.current <- addr;
      Tr.emit t.pr.tb_slave.(i) ~cycle:(Event_queue.now t.q) ~arg:addr;
      (* [gens]: the generations of the guest pages the translator read,
         so a store racing with this translation is caught at install
         time (and so a memo hit is known to be fresh). *)
      let block, gens =
        Translate.translate_memo ?memo:t.memo t.cfg ~fetch:t.fetch
          ~page_gen:t.page_gen ~guest_addr:addr
      in
      Stats.bump t.c.translations;
      Stats.bump_by t.c.tr_guest_insns block.guest_insns;
      Stats.bump_by t.c.tr_host_insns (Array.length block.ops);
      Stats.bump_by t.c.tr_cycles block.translation_cycles;
      let occupancy =
        if s.slow_factor > 1 && Event_queue.now t.q < s.slow_until then
          block.translation_cycles * s.slow_factor
        else block.translation_cycles
      in
      Event_queue.after t.q ~delay:(max 1 occupancy) (fun () ->
          (* A slave that fail-stopped mid-block never delivers it; the
             requeue happened at eviction time. *)
          if not s.failed then begin
            s.current <- -1;
            Tr.emit t.pr.te_slave.(i) ~cycle:(Event_queue.now t.q) ~arg:addr;
            send_install t i block gens;
            (* A slave that was deactivated mid-block finishes it first. *)
            notify_drained t;
            kick_slaves t
          end);
      kick_slaves t
  end

(* Sequence-numbered install with ack deadline. The manager acks every
   accepted (or duplicate) install; a delivery that was dropped or whose
   sum was garbled draws no ack, and the slave retransmits. *)
and send_install t i (block : Block.t) gens =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let r = { seq; slave = i; block; sum = block.checksum; gens } in
  if not t.cfg.Config.fault_tolerance then submit_install t r
  else begin
    Hashtbl.replace t.unacked seq r;
    Retry.start install_retry t.q t r ~deadline:t.cfg.Config.ack_deadline_cycles
  end

(* After the retry budget the translation is requeued wholesale, which
   also recovers an install lost in flight. A deadline finding [seq]
   still unacked comes from a live slave: [retire_slave] removes a
   failed slave's [unacked] entries, and a failed slave sends no further
   installs. *)
and install_retry =
  { Retry.send = submit_install;
    pending = (fun t r -> Hashtbl.mem t.unacked r.seq);
    expire =
      (fun t _ resend ->
        if resend then begin
          Stats.incr t.stats "corrupt.install_retransmits";
          Tr.emit t.pr.recover ~cycle:(Event_queue.now t.q) ~arg:1
        end);
    give_up =
      (fun t r ->
        let addr = r.block.guest_addr in
        Hashtbl.remove t.unacked r.seq;
        Stats.incr t.stats "fault.translations_requeued";
        Tr.emit t.pr.recover ~cycle:(Event_queue.now t.q) ~arg:2;
        if not (Spec.is_done t.spec addr) then begin
          Spec.forget t.spec addr;
          if Hashtbl.mem t.waiters addr then Spec.request_demand t.spec addr;
          kick_slaves t
        end) }

and notify_drained t =
  if t.drain_waiters <> []
     && Array.for_all (fun s -> s.active || s.current < 0) t.slaves
  then begin
    let ws = List.rev t.drain_waiters in
    t.drain_waiters <- [];
    List.iter (fun w -> w ()) ws
  end

(* The ack travels back over the network; until it lands the slave side
   still counts the install as unacknowledged. *)
let send_ack t seq slave =
  Event_queue.after t.q
    ~delay:(Layout.lat_manager_slave t.layout (slave_pool_slot slave))
    (fun () -> Hashtbl.remove t.unacked seq)

let add_waiter t addr reply =
  let existing = Option.value ~default:[] (Hashtbl.find_opt t.waiters addr) in
  Hashtbl.replace t.waiters addr (reply :: existing)

(* Serving a block occupies the tile for the lookup plus the time to
   stream the code over the network — the congestion behind the paper's
   Figure 5/6 anomaly comes from exactly this serialization. *)
let stream_cycles (block : Block.t) =
  Block.size_bytes block / Config.l1_install_bytes_per_cycle

let verify_cost t = if t.cfg.Config.fault_tolerance then Config.checksum_cycles else 0

(* Look [addr] up in the L2 code cache. Under fault tolerance a resident
   line whose stored sum no longer matches its content took a soft error:
   it is discarded and reads as a miss, which demands retranslation —
   corrupt code is never served. *)
let find_l2 t addr (f : Code_cache.found) =
  Code_cache.L2.find t.l2 addr f;
  if f.hit && t.cfg.Config.fault_tolerance && f.sum <> f.block.Block.checksum
  then begin
    f.hit <- false;
    Stats.incr t.stats "corrupt.l2code_detected";
    Code_cache.L2.remove t.l2 addr
  end

(* The manager's and the L1.5 banks' [serve] look the block up and
   leave what they found in their service's slot ([mgr_found],
   [l15_found]); [complete] replies from that slot, not from a second
   lookup, since the cache may have changed by then. *)
let serve_mgr t req =
  match req with
  | Fill { addr; _ } ->
    let f = t.mgr_found in
    Stats.bump t.c.l2code_accesses;
    find_l2 t addr f;
    if f.hit then begin
      (* The L2 code cache lives in off-chip DRAM: the manager fetches
         the block before streaming it. *)
      Tr.emit t.pr.l2_hit ~cycle:(Event_queue.now t.q) ~arg:addr;
      Config.mgr_lookup_cycles + Config.dram_cycles + stream_cycles f.block
      + verify_cost t
    end
    else begin
      Stats.bump t.c.l2code_misses;
      Tr.emit t.pr.l2_miss ~cycle:(Event_queue.now t.q) ~arg:addr;
      Config.mgr_lookup_cycles + verify_cost t
    end
  | Translated { block; _ } ->
    (* Installs drain through a DRAM write buffer: the manager only pays
       the bookkeeping and half-rate streaming, not the DRAM round trip
       (fills, which execution waits on, still do). *)
    Config.mgr_install_cycles + (stream_cycles block / 2) + verify_cost t

let complete_mgr t req =
  let ft = t.cfg.Config.fault_tolerance in
  match req with
  | Fill { addr; corrupt; reply } ->
    let f = t.mgr_found in
    if f.hit then begin
      let block = f.block in
      let sum = if corrupt then f.sum lxor 0x2000 else f.sum in
      Event_queue.after t.q
        ~delay:(Layout.lat_manager_exec t.layout)
        (fun () -> reply block sum)
    end
    else begin
      add_waiter t addr reply;
      (* If the block was invalidated (SMC) or evicted after being
         marked done, allow it back into the queues. *)
      Spec.forget_done t.spec addr;
      Spec.request_demand t.spec addr;
      kick_slaves t
    end
  | Translated { seq; slave; block; sum; gens } ->
    if ft && Hashtbl.mem t.acked seq then begin
      (* A retransmit of an install we already accepted: idempotent —
         just re-ack so the slave stops resending. *)
      Stats.incr t.stats "corrupt.duplicate_installs";
      send_ack t seq slave
    end
    else if ft && sum <> block.Block.checksum then begin
      (* Garbled delivery. No ack: the slave's deadline retransmits a
         clean copy. The corruption is charged to the slave's link for
         the quarantine monitor. *)
      Stats.incr t.stats "corrupt.install_rejected";
      t.slave_corruptions.(slave) <- t.slave_corruptions.(slave) + 1
    end
    else begin
      if ft then begin
        Hashtbl.replace t.acked seq ();
        send_ack t seq slave
      end;
      let stale =
        List.exists (fun (p, g) -> t.page_gen ~page:p <> g) gens
      in
      if stale then begin
        (* A guest store raced with this translation: drop the stale
           block; anyone waiting triggers a fresh translation. *)
        Stats.incr t.stats "smc.stale_translations";
        Spec.forget t.spec block.guest_addr;
        if Hashtbl.mem t.waiters block.guest_addr then begin
          Spec.request_demand t.spec block.guest_addr;
          kick_slaves t
        end
      end
      else begin
        Code_cache.L2.install t.l2 block;
        Tr.emit t.pr.l2_install
          ~cycle:(Event_queue.now t.q)
          ~arg:block.guest_addr;
        Spec.mark_done t.spec block.guest_addr;
        Spec.note_block_translated t.spec block;
        (match Hashtbl.find_opt t.waiters block.guest_addr with
         | None -> ()
         | Some replies ->
           Hashtbl.remove t.waiters block.guest_addr;
           let delay = Layout.lat_manager_exec t.layout in
           List.iter
             (fun reply ->
               Event_queue.after t.q ~delay (fun () ->
                   reply block block.Block.checksum))
             replies)
      end
    end;
    kick_slaves t

let serve_l15 t { addr; bank; _ } =
  let ft = t.cfg.Config.fault_tolerance in
  let f = t.l15_found.(bank) in
  Code_cache.L15.find t.l15_banks.(bank) addr f;
  if f.hit && ((not ft) || f.sum = f.block.Block.checksum) then begin
    Stats.bump t.c.l15_hits;
    Tr.emit t.pr.l15_hit.(bank) ~cycle:(Event_queue.now t.q) ~arg:addr;
    Config.l15_lookup_cycles + stream_cycles f.block + verify_cost t
  end
  else begin
    if f.hit then begin
      (* Resident copy took a soft error: drop it and refetch from the
         manager, exactly as if it had been evicted. *)
      f.hit <- false;
      Stats.incr t.stats "corrupt.l15code_detected";
      t.l15_corruptions.(bank) <- t.l15_corruptions.(bank) + 1;
      Code_cache.L15.remove t.l15_banks.(bank) addr
    end;
    Stats.bump t.c.l15_misses;
    Tr.emit t.pr.l15_miss.(bank) ~cycle:(Event_queue.now t.q) ~arg:addr;
    Config.l15_lookup_cycles + verify_cost t
  end

let complete_l15 t { addr; bank; corrupt; reply } =
  let f = t.l15_found.(bank) in
  if f.hit then begin
    let block = f.block in
    let sum =
      if corrupt then begin
        t.l15_corruptions.(bank) <- t.l15_corruptions.(bank) + 1;
        f.sum lxor 0x4000
      end
      else f.sum
    in
    (* Reply straight back to the execution tile. *)
    Event_queue.after t.q
      ~delay:(Layout.lat_exec_l15 t.layout bank)
      (fun () -> reply block sum)
  end
  else begin
    (* Forward to the manager; when the block comes back, keep a copy in
       this bank before handing it to the execution tile. A delivery
       whose sum fails verification is not cached. *)
    let ft = t.cfg.Config.fault_tolerance in
    let reply_installing block sum =
      if (not ft) || sum = (block : Block.t).checksum then
        Code_cache.L15.install ~sum t.l15_banks.(bank) block;
      reply block sum
    in
    Service.submit (mgr t)
      ~delay:(Layout.lat_l15_manager t.layout bank)
      (Fill { addr; corrupt; reply = reply_installing })
  end

(* A request reaching a dead L1.5 bank falls through to the manager (the
   network re-routes; the bank's caching is simply lost). *)
let reroute_l15 t { addr; bank; corrupt; reply } =
  Stats.incr t.stats "fault.l15_reroutes";
  Tr.emit t.pr.recover ~cycle:(Event_queue.now t.q) ~arg:5;
  Service.submit (mgr t)
    ~delay:(Layout.lat_l15_manager t.layout bank)
    (Fill { addr; corrupt; reply })

let create ?memo ?(trace = Tr.disabled) q stats cfg layout ~fetch ~page_gen =
  let n_l15 = max 1 cfg.Config.n_l15_banks in
  let mgr_track = Tr.track trace "manager" in
  let slave_track i = Tr.track trace (Printf.sprintf "slave.%d" i) in
  let l15_track_name i = Printf.sprintf "l15.%d" i in
  let l15_track i = Tr.track trace (l15_track_name i) in
  let pr =
    { tb_slave =
        Array.init 9 (fun i ->
            Tr.emitter trace ~track:(slave_track i) Tr.Translate_begin);
      te_slave =
        Array.init 9 (fun i ->
            Tr.emitter trace ~track:(slave_track i) Tr.Translate_end);
      l2_hit = Tr.emitter trace ~track:mgr_track Tr.Cache_hit;
      l2_miss = Tr.emitter trace ~track:mgr_track Tr.Cache_miss;
      l2_install = Tr.emitter trace ~track:mgr_track Tr.Cache_install;
      l15_hit =
        Array.init n_l15 (fun i ->
            Tr.emitter trace ~track:(l15_track i) Tr.Cache_hit);
      l15_miss =
        Array.init n_l15 (fun i ->
            Tr.emitter trace ~track:(l15_track i) Tr.Cache_miss);
      recover = Tr.emitter trace ~track:mgr_track Tr.Recovery }
  in
  let t =
    { q;
      stats;
      cfg;
      layout;
      fetch;
      page_gen;
      memo;
      l2 = Code_cache.L2.create ~capacity:Config.l2_code_bytes;
      l15_banks =
        Array.init n_l15 (fun _ ->
            Code_cache.L15.create ~capacity:Config.l15_bank_bytes);
      spec = Spec.create cfg stats;
      slaves =
        Array.init 9 (fun i ->
            { active = i < cfg.Config.n_translators;
              failed = false;
              current = -1;
              slow_factor = 1;
              slow_until = 0 });
      waiters = Hashtbl.create 64;
      slave_corruptions = Array.make 9 0;
      l15_corruptions = Array.make n_l15 0;
      unacked = Hashtbl.create 16;
      acked = Hashtbl.create 256;
      next_seq = 0;
      l15_alive = Array.init cfg.Config.n_l15_banks (fun i -> i);
      mgr_service = None;
      l15_services = [||];
      mgr_found = Code_cache.found ();
      l15_found = Array.init n_l15 (fun _ -> Code_cache.found ());
      drain_waiters = [];
      pr;
      c =
        { translations = Stats.counter stats "translations";
          tr_guest_insns = Stats.counter stats "translations.guest_insns";
          tr_host_insns = Stats.counter stats "translations.host_insns";
          tr_cycles = Stats.counter stats "translations.cycles";
          l2code_accesses = Stats.counter stats "l2code.accesses";
          l2code_misses = Stats.counter stats "l2code.misses";
          l15_hits = Stats.counter stats "l15.hits";
          l15_misses = Stats.counter stats "l15.misses" } }
  in
  t.mgr_service <-
    Some
      (Service.create ~trace
         ~on_corrupt:(function
           | Fill f -> Fill { f with corrupt = true }
           | Translated r -> Translated { r with sum = r.sum lxor 0x1000 })
         q ~track:"manager" ~serve:(serve_mgr t) ~complete:(complete_mgr t));
  t.l15_services <-
    Array.init n_l15 (fun i ->
        Service.create ~trace ~on_reject:(reroute_l15 t)
          ~on_corrupt:(fun r -> { r with corrupt = true })
          q ~track:(l15_track_name i) ~serve:(serve_l15 t)
          ~complete:(complete_l15 t));
  t

let seed t addr =
  Spec.seed t.spec addr;
  kick_slaves t

let pick_l15 t addr =
  let n = Array.length t.l15_alive in
  if n = 0 then None else Some t.l15_alive.((addr lsr 6) mod n)

let submit_fill_once t ~addr ~reply =
  match pick_l15 t addr with
  | Some bank ->
    Service.submit t.l15_services.(bank)
      ~delay:(Layout.lat_exec_l15 t.layout bank)
      { addr; bank; corrupt = false; reply }
  | None ->
    Service.submit (mgr t)
      ~delay:(Layout.lat_exec_manager t.layout)
      (Fill { addr; corrupt = false; reply })

(* Degraded path once retries are exhausted: the manager stops waiting for
   the slave pool and translates (or re-reads) the block itself. Data is
   functional, so this changes timing, never semantics. *)
let degraded_fill t { f_addr = addr; reply; _ } =
  Stats.incr t.stats "fault.demand_translates";
  Tr.emit t.pr.recover ~cycle:(Event_queue.now t.q) ~arg:4;
  (* Its own lookup result: the manager service's slot may hold the
     request in service's. *)
  let f = Code_cache.found () in
  find_l2 t addr f;
  let block =
    if f.hit then f.block
    else begin
      let b, _gens =
        Translate.translate_memo ?memo:t.memo t.cfg ~fetch:t.fetch
          ~page_gen:t.page_gen ~guest_addr:addr
      in
      Code_cache.L2.install t.l2 b;
      Spec.mark_done t.spec addr;
      Spec.note_block_translated t.spec b;
      b
    end
  in
  Event_queue.after t.q
    ~delay:
      (Config.demand_translate_penalty_cycles
      + Layout.lat_manager_exec t.layout)
    (fun () -> reply block block.Block.checksum)

let fill_retry =
  { Retry.send = (fun t f -> submit_fill_once t ~addr:f.f_addr ~reply:f.reply);
    pending = (fun _ f -> not !(f.served));
    expire =
      (fun t _ resend ->
        Stats.incr t.stats "fault.fill_timeouts";
        if resend then begin
          Stats.incr t.stats "fault.fill_retries";
          Tr.emit t.pr.recover ~cycle:(Event_queue.now t.q) ~arg:3
        end);
    give_up = degraded_fill }

let request_fill t ~addr ~on_ready =
  if not t.cfg.Config.fault_tolerance then
    submit_fill_once t ~addr ~reply:on_ready
  else begin
    (* First verified reply wins; duplicates from resent requests and
       deliveries whose sum fails the end-to-end check are dropped (the
       deadline fetches a clean copy). *)
    let served = ref false in
    let reply block sum =
      if not !served then begin
        if sum <> (block : Block.t).checksum then
          Stats.incr t.stats "corrupt.fill_rejected"
        else begin
          served := true;
          on_ready block sum
        end
      end
    in
    Retry.start fill_retry t.q t { f_addr = addr; served; reply }
      ~deadline:t.cfg.Config.fill_deadline_cycles
  end

let note_on_path t addr = Spec.note_on_path t.spec addr

let page_has_code t ~page = Code_cache.L2.page_has_code t.l2 ~page

let invalidate_page t ~page =
  let dropped = Code_cache.L2.invalidate_page t.l2 ~page in
  Stats.add t.stats "smc.blocks_invalidated" dropped;
  Array.iter (fun bank -> Code_cache.L15.drop_page bank page) t.l15_banks

let queue_length t = Spec.queue_length t.spec

let mgr_queue_length t = Service.queue_length (mgr t)

let active_slaves t =
  Array.fold_left (fun acc s -> if s.active then acc + 1 else acc) 0 t.slaves

let usable_slaves t =
  Array.fold_left (fun acc s -> if s.failed then acc else acc + 1) 0 t.slaves

let set_active_slaves t n ~on_done =
  let n = max 1 (min (Array.length t.slaves) n) in
  let assigned = ref 0 in
  Array.iter
    (fun s ->
      if s.failed then s.active <- false
      else begin
        s.active <- !assigned < n;
        if s.active then incr assigned
      end)
    t.slaves;
  kick_slaves t;
  if Array.for_all (fun s -> s.active || s.current < 0) t.slaves then on_done ()
  else t.drain_waiters <- on_done :: t.drain_waiters

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

let retire_slave t i ~stat =
  if i < 0 || i >= Array.length t.slaves then
    invalid_arg "Manager.retire_slave";
  let s = t.slaves.(i) in
  if not s.failed then begin
    s.failed <- true;
    s.active <- false;
    Stats.incr t.stats stat;
    let addr = s.current in
    if addr >= 0 then begin
      (* The in-flight block dies with the tile: requeue it if anyone is
         (or becomes) interested. *)
      Stats.incr t.stats "fault.translations_lost";
      Spec.forget t.spec addr;
      if Hashtbl.mem t.waiters addr then Spec.request_demand t.spec addr
    end;
    s.current <- -1;
    (* Unacked installs lose their retransmitter; requeue the addresses
       unless the original delivery already landed. *)
    let doomed =
      Hashtbl.fold
        (fun seq r acc ->
          if r.slave = i then (seq, r.block.Block.guest_addr) :: acc else acc)
        t.unacked []
    in
    List.iter
      (fun (seq, addr) ->
        Hashtbl.remove t.unacked seq;
        if not (Spec.is_done t.spec addr) then begin
          Stats.incr t.stats "fault.translations_requeued";
          Spec.forget t.spec addr;
          if Hashtbl.mem t.waiters addr then Spec.request_demand t.spec addr
        end)
      doomed;
    notify_drained t;
    kick_slaves t
  end

let retire_l15 t i ~stat =
  if i < 0 || i >= Array.length t.l15_services then
    invalid_arg "Manager.retire_l15";
  if Array.exists (( = ) i) t.l15_alive then begin
    Stats.incr t.stats stat;
    t.l15_alive <- Array.of_list (List.filter (( <> ) i) (Array.to_list t.l15_alive));
    let orphans = Service.fail t.l15_services.(i) in
    List.iter (reroute_l15 t) orphans
  end

(* The quarantine monitor's step: slaves, then L1.5 banks. It never
   retires the last usable slave: with zero slaves every fill degrades to
   the manager's demand-translate path forever, which is strictly worse
   than tolerating a noisy tile. An actual fail-stop fault is still
   allowed to take it. *)
let quarantine t ~threshold =
  Array.iteri
    (fun i n ->
      if n >= threshold && usable_slaves t > 1 then
        retire_slave t i ~stat:"corrupt.quarantined_slaves")
    t.slave_corruptions;
  Array.iteri
    (fun i n ->
      if n >= threshold then retire_l15 t i ~stat:"corrupt.quarantined_l15")
    t.l15_corruptions

let inject t (e : Fault.event) =
  let i = e.site.index in
  let grid = Layout.grid t.layout in
  match (e.site.role, e.kind) with
  | "translator", Fault.Fail_stop ->
    Grid.fail_tile grid (Layout.pool t.layout (slave_pool_slot i));
    retire_slave t i ~stat:"fault.translator_evictions";
    `Applied
  | "translator", Fault.Slow { factor; cycles } ->
    let s = t.slaves.(i) in
    s.slow_factor <- max 1 factor;
    s.slow_until <-
      (if factor <= 1 then 0 else Event_queue.now t.q + max 0 cycles);
    `Applied
  (* A slave pulls its work from the speculation queue: there is no
     request stream to drop. *)
  | "translator", Fault.Drop_requests _ -> `Applied
  | "translator", _ -> `Absorbed
  | "l15", Fault.Fail_stop ->
    Grid.fail_tile grid (Layout.l15_bank t.layout i);
    retire_l15 t i ~stat:"fault.l15_failures";
    `Applied
  | "l15", Fault.Corrupt_storage ->
    if Code_cache.L15.corrupt_one t.l15_banks.(i) ~salt:(Fault.salt e) then
      `Applied
    else `Absorbed
  | "l15", k ->
    Service.inject t.l15_services.(i) k;
    `Applied
  | "manager", Fault.Fail_stop -> `Unrecoverable "manager"
  | "manager", Fault.Corrupt_storage ->
    if Code_cache.L2.corrupt_one t.l2 ~salt:(Fault.salt e) then `Applied
    else `Absorbed
  | "manager", k ->
    Service.inject (mgr t) k;
    `Applied
  | role, _ -> invalid_arg ("Manager.inject: not a manager-side site: " ^ role)

let record_totals t =
  Service.record_totals t.stats ~hwm:"svc.mgr_queue_hwm" [ mgr t ];
  Service.record_totals t.stats ~hwm:"svc.l15_queue_hwm"
    (Array.to_list t.l15_services)

(* Checkpoint section: slave states, code-cache digests, speculation
   state, install-ack protocol state, and every service's scalars. The
   waiters/unacked/acked hashtables are digested commutatively (their
   iteration order is insertion-history-dependent). Pure observation. *)
let capture t =
  let w = Vat_snapshot.Snapshot.Wr.create () in
  let module Wr = Vat_snapshot.Snapshot.Wr in
  let mix2 a b = (((a * 0x100000001b3) + b + 1) * 0x100000001b3) land max_int in
  Array.iter
    (fun s ->
      Wr.bool w s.active;
      Wr.bool w s.failed;
      Wr.int w s.current;
      Wr.int w s.slow_factor;
      Wr.int w s.slow_until)
    t.slaves;
  Wr.int_array w t.slave_corruptions;
  Wr.int_array w t.l15_corruptions;
  Wr.int w t.next_seq;
  Wr.int_array w t.l15_alive;
  Wr.int w (Hashtbl.length t.waiters);
  Wr.int w
    (Hashtbl.fold
       (fun addr replies acc -> (acc + mix2 addr (List.length replies)) land max_int)
       t.waiters 0);
  Wr.int w (Hashtbl.length t.unacked);
  Wr.int w
    (Hashtbl.fold
       (fun seq r acc ->
         (acc + mix2 seq (mix2 r.slave r.block.Block.guest_addr)) land max_int)
       t.unacked 0);
  Wr.int w (Hashtbl.length t.acked);
  Wr.int w (Hashtbl.fold (fun seq () acc -> (acc + mix2 seq 1) land max_int) t.acked 0);
  Wr.int w (Spec.state_digest t.spec);
  Wr.int w (Code_cache.L2.state_digest t.l2);
  Array.iter (fun b -> Wr.int w (Code_cache.L15.state_digest b)) t.l15_banks;
  Wr.int w (List.length t.drain_waiters);
  Wr.int_list w (Service.capture (mgr t));
  Array.iter (fun s -> Wr.int_list w (Service.capture s)) t.l15_services;
  Wr.contents w

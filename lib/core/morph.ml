open Vat_desim
module Tr = Vat_trace.Trace

type t = {
  q : Event_queue.t;
  stats : Stats.t;
  trans : Config.t;  (* the translation-heavy configuration *)
  mem : Config.t;    (* the memory-heavy configuration *)
  manager : Manager.t;
  memsys : Memsys.t;
  mutable morphing : bool;
  mutable last_morph : int;
  (* Trace probes on the "morph" track (dead branches untraced). *)
  p_morph : Tr.emitter;   (* arg = 1 -> trans config, 0 -> mem config *)
  p_qdepth : Tr.emitter;  (* the sampled translate-queue length *)
}

let desired ~qlen ~threshold = if qlen > threshold then `Trans else `Mem

(* Fail-stopped tiles shrink what each configuration can actually get:
   targets are clamped to the surviving slave pool and alive banks. *)
let effective t =
  let usable = Manager.usable_slaves t.manager in
  let alive = Memsys.alive_banks t.memsys in
  ( max 1 (min t.trans.Config.n_translators usable),
    max 1 (min t.trans.Config.n_l2d_banks (max 1 alive)),
    max 1 (min t.mem.Config.n_translators usable),
    max 1 (min t.mem.Config.n_l2d_banks (max 1 alive)) )

let current t =
  let ts, tb, ms, _ = effective t in
  if ts = ms then
    (* Slave targets coincide (heavy attrition): the bank count is the
       only thing left to distinguish the two configurations. *)
    if Memsys.active_banks t.memsys <= tb then `Trans else `Mem
  else if Manager.active_slaves t.manager >= ts then `Trans
  else `Mem

let morph_to t target =
  t.morphing <- true;
  Stats.incr t.stats "morph.reconfigurations";
  Tr.emit t.p_morph
    ~cycle:(Event_queue.now t.q)
    ~arg:(match target with `Trans -> 1 | `Mem -> 0);
  let ts, tb, ms, mb = effective t in
  let finished () =
    t.morphing <- false;
    t.last_morph <- Event_queue.now t.q
  in
  match target with
  | `Trans ->
    (* Shrink the data cache first (flush + drain), then grow the slave
       pool with the freed tiles. *)
    Memsys.reconfigure_banks t.memsys tb ~on_done:(fun dirty ->
        Stats.add t.stats "morph.writeback_lines" dirty;
        Manager.set_active_slaves t.manager ts ~on_done:finished)
  | `Mem ->
    Manager.set_active_slaves t.manager ms ~on_done:(fun () ->
        Memsys.reconfigure_banks t.memsys mb ~on_done:(fun dirty ->
            Stats.add t.stats "morph.writeback_lines" dirty;
            finished ()))

let sample t ~threshold ~dwell =
  if not t.morphing && Event_queue.now t.q - t.last_morph >= dwell then begin
    let qlen = Manager.queue_length t.manager in
    Stats.set_max t.stats "morph.max_sampled_queue" qlen;
    Tr.emit t.p_qdepth ~cycle:(Event_queue.now t.q) ~arg:qlen;
    let ts, tb, ms, mb = effective t in
    if ts = ms && tb = mb then ()
      (* Attrition left nothing to trade between the two configurations. *)
    else begin
      let want = desired ~qlen ~threshold in
      if want <> current t then morph_to t want
    end
  end

(* Quarantine monitor: a site whose detected-corruption count crosses the
   threshold is retired exactly like a fail-stopped tile — the fault-
   morphing machinery (pool shrink, bank re-interleave, L1.5 re-route)
   already knows how to live without it. Each owner scans its own
   counters (slaves, then L1.5 banks, then L2D banks); retiring is
   idempotent, so re-sampling an already-quarantined site is a no-op. *)
let quarantine_scan t ~threshold =
  Manager.quarantine t.manager ~threshold;
  Memsys.quarantine t.memsys ~threshold

let create ?(trace = Tr.disabled) q stats cfg manager memsys =
  let mtrack = Tr.track trace "morph" in
  let t =
    { q;
      stats;
      trans = Config.trans_heavy cfg;
      mem = Config.mem_heavy cfg;
      manager;
      memsys;
      morphing = false;
      last_morph = 0;
      p_morph = Tr.emitter trace ~track:mtrack Tr.Morph_decision;
      p_qdepth = Tr.emitter trace ~track:mtrack Tr.Queue_depth }
  in
  (match cfg.Config.morph with
   | Config.No_morph -> ()
   | Config.Morph { threshold; dwell } ->
     let rec loop () =
       sample t ~threshold ~dwell;
       Event_queue.after q ~delay:Config.sample_interval loop
     in
     Event_queue.after q ~delay:Config.sample_interval loop);
  (* The quarantine loop only runs with fault tolerance armed, so
     fault-free runs schedule no extra events and stay byte-identical. *)
  if cfg.Config.fault_tolerance && cfg.Config.quarantine_threshold > 0 then begin
    let threshold = cfg.Config.quarantine_threshold in
    let rec qloop () =
      quarantine_scan t ~threshold;
      Event_queue.after q ~delay:Config.sample_interval qloop
    in
    Event_queue.after q ~delay:Config.sample_interval qloop
  end;
  t

let capture t = [ (if t.morphing then 1 else 0); t.last_morph ]

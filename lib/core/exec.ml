open Vat_desim
open Vat_guest
open Vat_host
open Vat_ir
open Vat_tiled
module Tr = Vat_trace.Trace

type outcome =
  | Exited of int
  | Fault of string
  | Out_of_fuel

(* Address of the register-allocator spill area. Spill code reaches it
   only through [Regalloc.scratch_base_reg], so accesses are routed by
   base register: a guest access to this address reaches guest memory
   (and faults there), never a spill slot. *)
let scratch_base = 0xFFF00000

type syscall_req = {
  s_eax : int;
  s_ebx : int;
  s_ecx : int;
  s_edx : int;
  s_reply : Syscall.result -> unit;
}

(* Why the engine is not currently running. *)
type wait_state =
  | Running
  | Wait_reg of int * int      (* register, resume pc *)
  | Wait_capacity of int       (* resume pc (retry the load) *)
  | Wait_fill
  | Wait_syscall
  | Finished

(* Pre-resolved stat counters for the per-instruction / per-event paths:
   one hashtable probe at engine construction, then one [Stats.bump] per
   event (a call, under dune's dev profile, not an inlined increment). *)
type counters = {
  c_scoreboard_suspends : Stats.counter;
  c_stall_cycles : Stats.counter;
  c_capacity_suspends : Stats.counter;
  c_l1d_loads : Stats.counter;
  c_l1d_load_misses : Stats.counter;
  c_l1d_stores : Stats.counter;
  c_l1d_store_misses : Stats.counter;
  c_l1d_writebacks : Stats.counter;
  c_smc_invalidations : Stats.counter;
  c_indirect_transfers : Stats.counter;
  c_chained_transfers : Stats.counter;
  c_dispatches : Stats.counter;
  c_l1code_hits : Stats.counter;
  c_l1code_misses : Stats.counter;
  c_l1code_installs : Stats.counter;
  c_blocks : Stats.counter;
  c_syscalls : Stats.counter;
  c_l1code_corrupt : Stats.counter;
  c_silent_corruptions : Stats.counter;
}

(* Pre-resolved trace emitters, same pattern as [counters]: dead branches
   when tracing is off. Block entries and L1 code events go on the "exec"
   track (stamped with the engine's local time, which is what the
   hot-block profile attributes); fill spans on "exec.fill". *)
type probes = {
  p_dispatch : Tr.emitter;
  p_chain : Tr.emitter;
  p_l1_hit : Tr.emitter;
  p_l1_miss : Tr.emitter;
  p_l1_install : Tr.emitter;
  p_fill_begin : Tr.emitter;
  p_fill_end : Tr.emitter;
}

type t = {
  q : Event_queue.t;
  stats : Stats.t;
  k : counters;
  pb : probes;
  cfg : Config.t;
  layout : Layout.t;
  prog : Program.t;
  manager : Manager.t;
  memsys : Memsys.t;
  world : Syscall.world;
  regs : int array;
  scratch : int array;
  ready_at : int array;        (* per register: cycle the value is usable *)
  l1 : Code_cache.L1.t;
  l1d : Cache.t;
  syscall_svc : syscall_req Service.t;
  mutable pending_mask : int;  (* bit r: register r's miss reply outstanding *)
  mutable t_local : int;
  mutable outstanding : int;
  mutable entry : Code_cache.L1.entry option;
  mutable pc : int;
  mutable wait : wait_state;
  mutable fuel : int;
  mutable guest_insns : int;
  mutable outcome : outcome option;
  mutable on_finish : outcome -> unit;
}

let create q stats cfg layout prog ~manager ~memsys ?input
    ?(trace = Tr.disabled) () =
  let regs = Array.make 32 0 in
  regs.(Translate.guest_pin ESP) <- prog.Program.initial_esp;
  regs.(Regalloc.scratch_base_reg) <- scratch_base;
  let world = Syscall.create_world ?input ~brk0:prog.Program.brk0 () in
  (* Track order is part of the trace format: "exec" and "exec.fill"
     register before the syscall service registers its own track. *)
  let exec_track = Tr.track trace "exec" in
  let fill_track = Tr.track trace "exec.fill" in
  let syscall_svc =
    Service.create ~trace q ~track:"syscall"
      ~serve:(fun { s_eax; s_ebx; s_ecx; s_edx; s_reply } ->
        let occupancy =
          Config.syscall_base_cycles
          + (if s_eax = Syscall.sys_write || s_eax = Syscall.sys_read then
               Config.syscall_per_byte_cycles * (s_edx land 0xFFFF)
             else 0)
        in
        ( occupancy,
          fun () ->
            let result =
              Syscall.dispatch world prog.Program.mem ~eax:s_eax ~ebx:s_ebx
                ~ecx:s_ecx ~edx:s_edx
            in
            s_reply result ))
  in
  { q;
    stats;
    k =
      { c_scoreboard_suspends = Stats.counter stats "exec.scoreboard_suspends";
        c_stall_cycles = Stats.counter stats "exec.stall_cycles";
        c_capacity_suspends = Stats.counter stats "exec.capacity_suspends";
        c_l1d_loads = Stats.counter stats "l1d.loads";
        c_l1d_load_misses = Stats.counter stats "l1d.load_misses";
        c_l1d_stores = Stats.counter stats "l1d.stores";
        c_l1d_store_misses = Stats.counter stats "l1d.store_misses";
        c_l1d_writebacks = Stats.counter stats "l1d.writebacks";
        c_smc_invalidations = Stats.counter stats "smc.invalidations";
        c_indirect_transfers = Stats.counter stats "exec.indirect_transfers";
        c_chained_transfers = Stats.counter stats "exec.chained_transfers";
        c_dispatches = Stats.counter stats "exec.dispatches";
        c_l1code_hits = Stats.counter stats "l1code.hits";
        c_l1code_misses = Stats.counter stats "l1code.misses";
        c_l1code_installs = Stats.counter stats "l1code.installs";
        c_blocks = Stats.counter stats "exec.blocks";
        c_syscalls = Stats.counter stats "exec.syscalls";
        c_l1code_corrupt = Stats.counter stats "corrupt.l1code_detected";
        c_silent_corruptions = Stats.counter stats "corrupt.silent" };
    pb =
      { p_dispatch = Tr.emitter trace ~track:exec_track Tr.Block_dispatch;
        p_chain = Tr.emitter trace ~track:exec_track Tr.Block_chain;
        p_l1_hit = Tr.emitter trace ~track:exec_track Tr.Cache_hit;
        p_l1_miss = Tr.emitter trace ~track:exec_track Tr.Cache_miss;
        p_l1_install = Tr.emitter trace ~track:exec_track Tr.Cache_install;
        p_fill_begin = Tr.emitter trace ~track:fill_track Tr.Fill_begin;
        p_fill_end = Tr.emitter trace ~track:fill_track Tr.Fill_end };
    cfg;
    layout;
    prog;
    manager;
    memsys;
    world;
    regs;
    scratch = Array.make 4096 0;
    ready_at = Array.make 32 0;
    l1 = Code_cache.L1.create ~capacity:Config.l1_code_bytes;
    l1d =
      Cache.create ~size_bytes:Config.l1d_bytes ~ways:Config.l1d_ways
        ~line_bytes:Config.line_bytes;
    syscall_svc;
    pending_mask = 0;
    t_local = 0;
    outstanding = 0;
    entry = None;
    pc = 0;
    wait = Running;
    fuel = max_int;
    guest_insns = 0;
    outcome = None;
    on_finish = ignore }

let local_time t = t.t_local
let guest_instructions t = t.guest_insns
let output t = Syscall.output t.world

let digest t =
  Interp.state_digest t.prog.Program.mem
    ~reg:(fun i -> t.regs.(Hinsn.guest_reg_base + i))
    ~flags:(t.regs.(Hinsn.flags_reg) land Flags.all_mask)
    ~output:(output t)

let finish t outcome =
  if t.outcome = None then begin
    t.outcome <- Some outcome;
    t.wait <- Finished;
    Stats.add t.stats "exec.cycles" t.t_local;
    let cb = t.on_finish in
    Event_queue.schedule t.q
      ~at:(max (Event_queue.now t.q) t.t_local)
      (fun () -> cb outcome)
  end

let abort t msg = finish t (Fault msg)
let finished t = t.outcome <> None

(* Schedule an interaction with another tile at the engine's local time
   (the queue may be lagging behind the engine). *)
let at_local t f =
  Event_queue.schedule t.q ~at:(max (Event_queue.now t.q) t.t_local) f

(* ------------------------------------------------------------------ *)
(* Functional memory (values) — timing handled separately.             *)
(* ------------------------------------------------------------------ *)

exception Guest_mem_fault of string

let value_load t (w : Hinsn.width) addr =
  try
    match w with
    | W8 -> Mem.read_u8 t.prog.Program.mem addr
    | W8s ->
      let b = Mem.read_u8 t.prog.Program.mem addr in
      if b land 0x80 <> 0 then b lor 0xFFFFFF00 else b
    | W32 -> Mem.read_u32 t.prog.Program.mem addr
  with Mem.Fault { addr; access } ->
    raise
      (Guest_mem_fault (Printf.sprintf "memory fault (%s) at 0x%x" access addr))

let value_store t (w : Hinsn.width) addr v =
  try
    match w with
    | W8 -> Mem.write_u8 t.prog.Program.mem addr v
    | W32 -> Mem.write_u32 t.prog.Program.mem addr v
    | W8s -> invalid_arg "store W8s"
  with Mem.Fault { addr; access } ->
    raise
      (Guest_mem_fault (Printf.sprintf "memory fault (%s) at 0x%x" access addr))

let scratch_slot addr = (addr - scratch_base) lsr 2

(* ------------------------------------------------------------------ *)
(* Execution loop                                                      *)
(* ------------------------------------------------------------------ *)

let trap_message : Hinsn.trap -> string = function
  | Divide_error -> "divide error"
  | Divide_overflow -> "divide overflow"

let eax = Translate.guest_pin EAX
let edx = Translate.guest_pin EDX

(* A register field of an op word (layout in [Hexec]), extracted here
   rather than through [Hexec.rs] and friends: under dune's dev profile
   ([-opaque]) each of those is a real call. A field is 5 bits, so every
   index it yields is inside the 32-entry [regs] and [ready_at], which the
   loop below therefore reads unchecked. *)
let[@inline] field w shift = (w lsr shift) land 31

let[@inline] pending t r = t.pending_mask land (1 lsl r) <> 0

let[@inline] max3 (a : int) b c =
  let m = if a > b then a else b in
  if m > c then m else c

let rec step t =
  match t.entry with
  | None -> ()
  | Some entry ->
    let ops = entry.block.ops in
    let pc = t.pc in
    if pc >= Array.length ops then terminator t entry
    else begin
      let w = ops.(pc) in
      let rs = field w Hexec.rs_shift
      and rt = field w Hexec.rt_shift
      and ru = field w Hexec.ru_shift in
      (* Scoreboard: the source fields name every register the word
         reads, r0 (which never waits) masked out. *)
      if ((1 lsl rs) lor (1 lsl rt) lor (1 lsl ru)) land -2 land t.pending_mask
         <> 0
      then begin
        t.wait <- Wait_reg (first_pending t rs rt ru, pc);
        Stats.bump t.k.c_scoreboard_suspends
      end
      else begin
        let ready_at = t.ready_at in
        (* Stall until every source is ready. Nothing writes r0's
           [ready_at]: [Alu] skips rd = r0, [Block.make] refuses a load
           into r0, and [Mul64]/[Div64] write EAX and EDX. *)
        let ready =
          max3 (Array.unsafe_get ready_at rs) (Array.unsafe_get ready_at rt)
            (Array.unsafe_get ready_at ru)
        in
        if ready > t.t_local then begin
          Stats.bump_by t.k.c_stall_cycles (ready - t.t_local);
          t.t_local <- ready
        end;
        let regs = t.regs in
        let a = Array.unsafe_get regs rs and b = Array.unsafe_get regs rt in
        match Hexec.kinds.(w land Hexec.opcode_mask) with
        | Hexec.Alu ->
          let v = Hexec.eval w a b in
          let rd = field w Hexec.rd_shift in
          t.t_local <- t.t_local + 1;
          if rd <> 0 then begin
            Array.unsafe_set regs rd v;
            Array.unsafe_set ready_at rd t.t_local
          end;
          t.pc <- pc + 1;
          step t
        | Hexec.Branch ->
          t.t_local <- t.t_local + 1;
          t.pc <-
            (if Hexec.eval w a b <> 0 then w asr Hexec.imm_shift else pc + 1);
          step t
        | Hexec.Trap ->
          if Hexec.eval w a b <> 0 then
            finish t (Fault (trap_message (Hexec.trap w)))
          else begin
            t.t_local <- t.t_local + 1;
            t.pc <- pc + 1;
            step t
          end
        | Hexec.Mul64 -> exec_wide t w ~cycles:(1 + 5) (* widening multiply helper *)
        | Hexec.Div64 -> exec_wide t w ~cycles:(1 + 40) (* soft-divide helper *)
        | Hexec.Load width ->
          exec_load t width (field w Hexec.rd_shift) rs (w asr Hexec.imm_shift)
        | Hexec.Store width -> exec_store t width rs rt (w asr Hexec.imm_shift)
      end
    end

(* The first pending source in [Hinsn.uses] order, which is the order of
   the word's source fields. *)
and first_pending t rs rt ru =
  if rs <> 0 && pending t rs then rs
  else if rt <> 0 && pending t rt then rt
  else ru

and exec_wide t w ~cycles =
  match Hexec.wide t.regs w with
  | Some trap -> finish t (Fault (trap_message trap))
  | None ->
    t.t_local <- t.t_local + cycles;
    t.ready_at.(eax) <- t.t_local;
    t.ready_at.(edx) <- t.t_local;
    t.pc <- t.pc + 1;
    step t

and exec_load t w rd base off =
  let addr = (t.regs.(base) + off) land 0xFFFFFFFF in
  if base = Regalloc.scratch_base_reg then begin
    (* Tile-local spill area: fixed cost, no cache. *)
    t.regs.(rd) <- t.scratch.(scratch_slot addr);
    t.t_local <- t.t_local + 2;
    t.ready_at.(rd) <- t.t_local + 1;
    t.pc <- t.pc + 1;
    step t
  end
  else begin
    match value_load t w addr with
    | exception Guest_mem_fault msg -> finish t (Fault msg)
    | v ->
      Stats.bump t.k.c_l1d_loads;
      let issue = t.t_local in
      t.t_local <- t.t_local + Config.l1d_occupancy;
      t.regs.(rd) <- v;
      let { Cache.hit; writeback; parity = _ } =
        Cache.access t.l1d ~addr ~write:false
      in
      if hit then begin
        t.ready_at.(rd) <- issue + Config.l1d_hit_latency;
        t.pc <- t.pc + 1;
        step t
      end
      else begin
        Stats.bump t.k.c_l1d_load_misses;
        (match writeback with
         | Some wb_addr ->
           Stats.bump t.k.c_l1d_writebacks;
           at_local t (fun () ->
               Memsys.access t.memsys ~addr:wb_addr ~write:true
                 ~on_done:(fun () -> ()))
         | None -> ());
        if not t.cfg.Config.scoreboard then
          (* Scoreboarding disabled (ablation): block until the reply. *)
          issue_miss t rd addr ~blocking:true
        else if t.outstanding >= Config.max_outstanding then begin
          (* All miss slots busy: retry this load when one frees up. *)
          t.wait <- Wait_capacity t.pc;
          Stats.bump t.k.c_capacity_suspends
        end
        else begin
          issue_miss t rd addr ~blocking:false;
          t.pc <- t.pc + 1;
          step t
        end
      end
  end

and issue_miss t rd addr ~blocking =
  t.outstanding <- t.outstanding + 1;
  t.pending_mask <- t.pending_mask lor (1 lsl rd);
  at_local t (fun () ->
      Memsys.access t.memsys ~addr ~write:false ~on_done:(fun () ->
          let now = Event_queue.now t.q in
          t.pending_mask <- t.pending_mask land lnot (1 lsl rd);
          t.ready_at.(rd) <- now;
          t.outstanding <- t.outstanding - 1;
          wake t));
  if blocking then begin
    t.wait <- Wait_reg (rd, t.pc + 1);
    (* The load itself completed functionally; resume after it. *)
    t.pc <- t.pc + 1
  end

and exec_store t w rv base off =
  let addr = (t.regs.(base) + off) land 0xFFFFFFFF in
  let v =
    match w with
    | W8 -> t.regs.(rv) land 0xFF
    | W32 -> t.regs.(rv)
    | W8s -> assert false
  in
  if base = Regalloc.scratch_base_reg then begin
    t.scratch.(scratch_slot addr) <- v;
    t.t_local <- t.t_local + 2;
    t.pc <- t.pc + 1;
    step t
  end
  else begin
    match value_store t w addr v with
    | exception Guest_mem_fault msg -> finish t (Fault msg)
    | () ->
      Stats.bump t.k.c_l1d_stores;
      t.t_local <- t.t_local + Config.l1d_occupancy;
      (* Self-modifying-code detection: a store into a page holding
         translated code invalidates that page's blocks everywhere. *)
      let page = Mem.page_of addr in
      if Manager.page_has_code t.manager ~page then begin
        Stats.bump t.k.c_smc_invalidations;
        Manager.invalidate_page t.manager ~page;
        Code_cache.L1.flush t.l1;
        t.t_local <- t.t_local + 400
      end;
      let { Cache.hit; writeback; parity = _ } =
        Cache.access t.l1d ~addr ~write:true
      in
      if not hit then begin
        Stats.bump t.k.c_l1d_store_misses;
        (match writeback with
         | Some wb_addr ->
           Stats.bump t.k.c_l1d_writebacks;
           at_local t (fun () ->
               Memsys.access t.memsys ~addr:wb_addr ~write:true
                 ~on_done:(fun () -> ()))
         | None -> ());
        (* Write-allocate fill traffic; the store buffer hides latency. *)
        at_local t (fun () ->
            Memsys.access t.memsys ~addr ~write:true ~on_done:(fun () -> ()))
      end;
      t.pc <- t.pc + 1;
      step t
  end

(* ------------------------------------------------------------------ *)
(* Block transitions                                                   *)
(* ------------------------------------------------------------------ *)

and terminator t entry =
  let term = entry.block.term in
  match term with
  | Block.T_fault msg -> finish t (Fault msg)
  | Block.T_syscall { next } -> do_syscall t next
  | Block.T_jmp { target } -> leave_direct t entry `Taken target
  | Block.T_call { target; _ } -> leave_direct t entry `Taken target
  | Block.T_jcc { taken; fall } ->
    let r = Block.term_reg in
    if pending t r then begin
      t.wait <- Wait_reg (r, t.pc) (* pc = len: re-run terminator *)
    end
    else begin
      if t.ready_at.(r) > t.t_local then t.t_local <- t.ready_at.(r);
      if t.regs.(r) <> 0 then leave_direct t entry `Taken taken
      else leave_direct t entry `Fall fall
    end
  | Block.T_jind _ ->
    let r = Block.term_reg in
    if pending t r then t.wait <- Wait_reg (r, t.pc)
    else begin
      if t.ready_at.(r) > t.t_local then t.t_local <- t.ready_at.(r);
      Stats.bump t.k.c_indirect_transfers;
      dispatch t ~chain_slot:None (t.regs.(r))
    end

and leave_direct t entry dir target =
  let chained =
    if not t.cfg.Config.chaining then None
    else
      match dir with
      | `Taken -> entry.chain_taken
      | `Fall -> entry.chain_fall
  in
  match chained with
  | Some next_entry ->
    Stats.bump t.k.c_chained_transfers;
    t.t_local <- t.t_local + Config.chain_cycles;
    Tr.emit t.pb.p_chain ~cycle:t.t_local
      ~arg:next_entry.Code_cache.L1.block.Block.guest_addr;
    enter t next_entry
  | None -> dispatch t ~chain_slot:(Some (entry, dir)) target

and dispatch t ~chain_slot target =
  Stats.bump t.k.c_dispatches;
  t.t_local <- t.t_local + Config.dispatch_cycles;
  match Code_cache.L1.find t.l1 target with
  | Some next_entry ->
    Stats.bump t.k.c_l1code_hits;
    Tr.emit t.pb.p_l1_hit ~cycle:t.t_local ~arg:target;
    Tr.emit t.pb.p_dispatch ~cycle:t.t_local ~arg:target;
    set_chain t chain_slot next_entry;
    enter t next_entry
  | None ->
    Stats.bump t.k.c_l1code_misses;
    Tr.emit t.pb.p_l1_miss ~cycle:t.t_local ~arg:target;
    Tr.emit t.pb.p_fill_begin ~cycle:t.t_local ~arg:target;
    t.wait <- Wait_fill;
    at_local t (fun () ->
        Manager.note_on_path t.manager target;
        Manager.request_fill t.manager ~addr:target ~on_ready:(fun block ->
            (* Arrived back at the execution tile. *)
            let now = Event_queue.now t.q in
            if now > t.t_local then t.t_local <- now;
            let install_cost =
              (Block.size_bytes block / Config.l1_install_bytes_per_cycle)
              + (if t.cfg.Config.fault_tolerance then
                   t.cfg.Config.checksum_cycles
                 else 0)
            in
            t.t_local <- t.t_local + max 1 install_cost;
            let next_entry = Code_cache.L1.install t.l1 block in
            Stats.bump t.k.c_l1code_installs;
            Tr.emit t.pb.p_fill_end ~cycle:t.t_local ~arg:target;
            Tr.emit t.pb.p_l1_install ~cycle:t.t_local ~arg:target;
            Tr.emit t.pb.p_dispatch ~cycle:t.t_local ~arg:target;
            set_chain t chain_slot next_entry;
            t.wait <- Running;
            enter t next_entry))

and set_chain t chain_slot next_entry =
  if t.cfg.Config.chaining then
    match chain_slot with
    | Some (entry, `Taken) -> entry.Code_cache.L1.chain_taken <- Some next_entry
    | Some (entry, `Fall) -> entry.Code_cache.L1.chain_fall <- Some next_entry
    | None -> ()

(* Every block entry — dispatch hit, fill install, or chained transfer —
   funnels through here, so this is where dispatch-time integrity
   verification lives: a resident entry whose stored sum no longer matches
   the block content is never executed. *)
and enter t next_entry =
  if next_entry.Code_cache.L1.stored_sum
     <> next_entry.Code_cache.L1.block.Block.checksum
  then
    if t.cfg.Config.fault_tolerance then begin
      (* The L1 copy took a soft error. Flush the whole L1 (chain links
         may point at the corrupt entry) and refetch from the hierarchy —
         the L2 master copy re-verifies on the way back. *)
      Stats.bump t.k.c_l1code_corrupt;
      t.t_local <- t.t_local + t.cfg.Config.checksum_cycles;
      let target = next_entry.Code_cache.L1.block.Block.guest_addr in
      Code_cache.L1.flush t.l1;
      t.entry <- None;
      dispatch t ~chain_slot:None target
    end
    else begin
      (* Unprotected configuration: the corruption goes unnoticed. The
         integrity tests assert this counter is identically zero whenever
         fault tolerance is armed. *)
      Stats.bump t.k.c_silent_corruptions;
      enter_unchecked t next_entry
    end
  else enter_unchecked t next_entry

and enter_unchecked t next_entry =
  t.entry <- Some next_entry;
  t.pc <- 0;
  t.guest_insns <- t.guest_insns + next_entry.block.guest_insns;
  Stats.bump t.k.c_blocks;
  if t.guest_insns > t.fuel then finish t Out_of_fuel
  else if t.wait = Running then step t

and do_syscall t next =
  t.wait <- Wait_syscall;
  let reg r = t.regs.(Translate.guest_pin r) in
  let s_eax = reg EAX
  and s_ebx = reg EBX
  and s_ecx = reg ECX
  and s_edx = reg EDX in
  at_local t (fun () ->
      Service.submit t.syscall_svc
        ~delay:(Layout.lat_exec_syscall t.layout)
        { s_eax;
          s_ebx;
          s_ecx;
          s_edx;
          s_reply =
            (fun result ->
              Event_queue.after t.q
                ~delay:(Layout.lat_exec_syscall t.layout)
                (fun () ->
                  let now = Event_queue.now t.q in
                  if now > t.t_local then t.t_local <- now;
                  Stats.bump t.k.c_syscalls;
                  match result with
                  | Syscall.Exit status -> finish t (Exited status)
                  | Syscall.Continue v ->
                    t.regs.(Translate.guest_pin EAX) <- v land 0xFFFFFFFF;
                    t.ready_at.(Translate.guest_pin EAX) <- t.t_local;
                    t.wait <- Running;
                    dispatch t ~chain_slot:None next)) })

and wake t =
  match t.wait with
  | Wait_reg (r, pc) when not (pending t r) ->
    let now = Event_queue.now t.q in
    if now > t.t_local then t.t_local <- now;
    if t.ready_at.(r) > t.t_local then t.t_local <- t.ready_at.(r);
    t.pc <- pc;
    t.wait <- Running;
    step t
  | Wait_capacity pc when t.outstanding < Config.max_outstanding ->
    let now = Event_queue.now t.q in
    if now > t.t_local then t.t_local <- now;
    t.pc <- pc;
    t.wait <- Running;
    step t
  | Running | Wait_reg _ | Wait_capacity _ | Wait_fill | Wait_syscall
  | Finished -> ()

let inject t (e : Fault.event) =
  match (e.site.role, e.kind) with
  | "syscall", (Fault.Slow _ as k) ->
    Service.inject t.syscall_svc k;
    `Applied
  (* A dead syscall proxy can swallow an exit in flight; treat it as the
     unrecoverable loss it is rather than hang until the watchdog. *)
  | "syscall", (Fault.Fail_stop | Fault.Drop_requests _) ->
    `Unrecoverable "syscall"
  | "exec", Fault.Corrupt_storage ->
    if Code_cache.L1.corrupt_one t.l1 ~salt:(Fault.salt e) then `Applied
    else `Absorbed
  | ("syscall" | "exec"),
    (Fault.Corrupt_payload _ | Fault.Corrupt_storage
    | Fault.Duplicate_delivery _) -> `Absorbed
  | "exec", _ -> `Unrecoverable "execution"
  | role, _ -> invalid_arg ("Exec.inject: not an execution-side site: " ^ role)

(* Checkpoint section: the complete guest-visible architectural state
   plus the engine's own scheduling state. Big arrays (guest memory,
   scratch spill area) enter as digests; everything small enough to read
   back by eye is encoded directly. Pure observation. *)
let capture t =
  let w = Vat_snapshot.Snapshot.Wr.create () in
  let module Wr = Vat_snapshot.Snapshot.Wr in
  Wr.int_array w t.regs;
  Wr.int w
    (Array.fold_left
       (fun acc v -> ((acc * 0x100000001b3) + v + 1) land max_int)
       0x1505 t.scratch);
  Wr.int_array w t.ready_at;
  Wr.int w t.pending_mask;
  Wr.int w t.t_local;
  Wr.int w t.outstanding;
  Wr.int w
    (match t.entry with
     | Some e -> e.Code_cache.L1.block.Block.guest_addr
     | None -> -1);
  Wr.int w t.pc;
  (match t.wait with
   | Running -> Wr.int_list w [ 0; 0; 0 ]
   | Wait_reg (r, pc) -> Wr.int_list w [ 1; r; pc ]
   | Wait_capacity pc -> Wr.int_list w [ 2; pc; 0 ]
   | Wait_fill -> Wr.int_list w [ 3; 0; 0 ]
   | Wait_syscall -> Wr.int_list w [ 4; 0; 0 ]
   | Finished -> Wr.int_list w [ 5; 0; 0 ]);
  Wr.int w t.fuel;
  Wr.int w t.guest_insns;
  Wr.int w
    (match t.outcome with
     | None -> 0
     | Some (Exited n) -> 16 + n
     | Some (Fault _) -> 2
     | Some Out_of_fuel -> 3);
  Wr.int w (Mem.checksum t.prog.Program.mem);
  Wr.string w (output t);
  Wr.int w (Syscall.brk_value t.world);
  Wr.int w (Syscall.input_pos t.world);
  Wr.int w (Code_cache.L1.state_digest t.l1);
  Wr.int w (Cache.state_digest t.l1d);
  Wr.int_list w (Service.capture t.syscall_svc);
  Wr.contents w

let start t ~fuel ~on_finish =
  t.fuel <- fuel;
  t.on_finish <- on_finish;
  Manager.seed t.manager t.prog.Program.entry;
  t.wait <- Wait_fill;
  Tr.emit t.pb.p_fill_begin ~cycle:0 ~arg:t.prog.Program.entry;
  Event_queue.schedule t.q ~at:0 (fun () ->
      Manager.request_fill t.manager ~addr:t.prog.Program.entry
        ~on_ready:(fun block ->
          let now = Event_queue.now t.q in
          if now > t.t_local then t.t_local <- now;
          let entry = Code_cache.L1.install t.l1 block in
          Tr.emit t.pb.p_fill_end ~cycle:t.t_local
            ~arg:t.prog.Program.entry;
          Tr.emit t.pb.p_dispatch ~cycle:t.t_local
            ~arg:t.prog.Program.entry;
          t.wait <- Running;
          enter t entry))
